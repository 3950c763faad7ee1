"""Seeded invariant suites behind the `check` CLI subcommand.

Each suite draws deterministic pseudo-random instances and verifies an
exact property; a failure returns the offending instance so it can be
replayed with the same seed.  The test suite draws its random covers
from the same generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

from .covers import Cover, ball_cover, lebesgue_number, verify_lebesgue, window_supremum
from .engine import GameConfig, TargetSpec, play, replay_families_under_ruleset
from .errors import InputError
from .one_strategies import CompactIntersection, avoid_cover, bm_play
from .ordinals import InningSchedule, parse_ordinal
from .sequences import enumeration
from .sets import Interval, RSet, closed, union_all
from .two_strategies import halving_refinement, point_sequence_avoider


@dataclass
class SuiteResult:
    name: str
    cases: int
    ok: bool
    detail: str = ""


def rnd_fraction(rng: random.Random, lo: F, hi: F, max_den: int = 32) -> F:
    den = rng.choice([8, 12, 16, 24, max_den])
    lo_n = -(-lo.numerator * den // lo.denominator)  # ceil
    hi_n = hi.numerator * den // hi.denominator  # floor
    if lo_n > hi_n:
        return lo
    return F(rng.randint(lo_n, hi_n), den)


def random_target(rng: random.Random) -> Interval:
    """Random closed subinterval of [0, 1] with positive length."""
    while True:
        a = rnd_fraction(rng, F(0), F(3, 4))
        b = rnd_fraction(rng, a + F(1, 16), F(1))
        if b > a:
            return Interval(a, b, False, False)


def random_cover(rng: random.Random, target: Interval, extra: bool = True) -> Cover:
    """Random open cover of a closed interval built as an overlapping chain."""
    a, b = target.lo, target.hi
    length = b - a
    n_cuts = rng.randint(0, 3)
    cuts = sorted(
        {a + length * F(rng.randint(1, 15), 16) for _ in range(n_cuts)} - {a, b}
    )
    pts = [a] + cuts + [b]
    members = []
    for lo_pt, hi_pt in zip(pts, pts[1:]):
        ml = length * F(rng.randint(1, 8), 64)
        mr = length * F(rng.randint(1, 8), 64)
        members.append(RSet.interval(lo_pt - ml, hi_pt + mr))
    if extra and rng.random() < 0.5:
        mid = a + length * F(rng.randint(1, 7), 8)
        members.append(RSet.interval(mid - length / 8, mid + length / 8))
    rng.shuffle(members)
    return Cover(RSet((target,)), tuple(members))


def suite_lebesgue(seed: int, cases: int) -> SuiteResult:
    rng = random.Random(seed)
    for i in range(cases):
        cover = random_cover(rng, random_target(rng))
        d = lebesgue_number(cover)
        if d <= 0 or not verify_lebesgue(cover, d):
            return SuiteResult("lebesgue", i, False, f"cover={cover.members}")
    return SuiteResult("lebesgue", cases, True)


def suite_halving(seed: int, cases: int) -> SuiteResult:
    rng = random.Random(seed)
    for i in range(cases):
        cover = random_cover(rng, random_target(rng))
        t = cover.target.components[0]
        fam, residual = halving_refinement(cover)
        sup = window_supremum(cover)
        if sum((r.length for r in residual), F(0)) != t.length / 2:
            return SuiteResult("halving", i, False, f"bad residual for {cover.members}")
        if any(m.measure() >= sup for m in fam.members):
            return SuiteResult("halving", i, False, "cell at least window supremum")
        if not union_all(list(fam.members)).is_subset(RSet((t,))):
            return SuiteResult("halving", i, False, "family escapes the target")
    return SuiteResult("halving", cases, True)


def suite_avoid_cover(seed: int, cases: int) -> SuiteResult:
    rng = random.Random(seed)
    ambient = closed(0, 1)
    box = RSet((ambient,))
    for i in range(cases):
        lo = F(rng.randint(0, 48), 64)
        hi = lo + F(rng.randint(2, 64 - int(lo * 64)), 64)
        o = Interval(lo, min(hi, F(1)), True, True)
        cover = avoid_cover(o, ambient)
        if union_all(cover.members) != box:
            return SuiteResult("avoid-cover", i, False, f"o={o}")
        if any(RSet((o,)).is_subset(m.closure()) for m in cover.members):
            return SuiteResult("avoid-cover", i, False, f"closure swallowed {o}")
    return SuiteResult("avoid-cover", cases, True)


def suite_banach_mazur(seed: int, cases: int) -> SuiteResult:
    innings = max(4, min(cases, 16))
    ambient = closed(0, 1)
    avoider = point_sequence_avoider("rationals", ambient)
    state = bm_play(CompactIntersection(ambient), avoider.respond, innings)
    enum = enumeration("rationals")
    last = state.moves[-1]
    for earlier, later in zip(state.moves, state.moves[1:]):
        if not later.is_subset(earlier):
            return SuiteResult("banach-mazur", innings, False, "nesting broke")
    for k in range(innings):
        if last.contains(enum.point(k)):
            return SuiteResult("banach-mazur", innings, False, f"hit q_{k}")
    return SuiteResult("banach-mazur", innings, True)


def suite_ruleset_implication(seed: int, cases: int) -> SuiteResult:
    cfg = GameConfig(
        ruleset="discrete",
        length=parse_ordinal("w+1"),
        ambient=closed(0, 1),
        target=TargetSpec.full(),
        one="grid",
        two="halving-omega-plus-1",
        schedule=InningSchedule(main_budget=6),
    )
    t = play(cfg)
    if t.verdict.outcome != "two-wins-covered":
        return SuiteResult("ruleset-implication", 1, False, t.verdict.outcome)
    outcomes = replay_families_under_ruleset(t, "disjoint")
    ok = all(o == "accepted" for o in outcomes)
    return SuiteResult(
        "ruleset-implication", len(outcomes), ok, "" if ok else str(outcomes)
    )


def suite_grid_covers(seed: int, cases: int) -> SuiteResult:
    for n in range(1, min(8, 2 + cases // 10)):
        cover = ball_cover(n)
        for m in cover.members:
            if m.components[-1].hi - m.components[0].lo >= F(1, 2**n):
                return SuiteResult("grid-covers", n, False, f"fat member at n={n}")
    return SuiteResult("grid-covers", min(8, 2 + cases // 10) - 1, True)


ALL_SUITES: dict[str, Callable[[int, int], SuiteResult]] = {
    "lebesgue": suite_lebesgue,
    "halving": suite_halving,
    "avoid-cover": suite_avoid_cover,
    "banach-mazur": suite_banach_mazur,
    "ruleset-implication": suite_ruleset_implication,
    "grid-covers": suite_grid_covers,
}


def run_suites(seed: int, cases: int, only: Optional[str] = None) -> list[SuiteResult]:
    if only is not None and only not in ALL_SUITES:
        raise InputError(f"unknown suite {only!r}; known: {sorted(ALL_SUITES)}")
    names = [only] if only else list(ALL_SUITES)
    return [ALL_SUITES[name](seed, cases) for name in names]
