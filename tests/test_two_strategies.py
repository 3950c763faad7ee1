"""Covering-player constructions: halving, one-shot, punctures, avoidance."""

import random
from bisect import bisect_left
from fractions import Fraction as F

import pytest

from intervalgames import covers, engine, two_strategies
from intervalgames.cantor import CantorSpec
from intervalgames.covers import (
    Cover,
    CoverError,
    ball_cover,
    lebesgue_number,
    window_supremum,
)
from intervalgames.engine import GameConfig, TargetSpec, play, referee_step
from intervalgames.one_strategies import avoid_cover
from intervalgames.ordinals import InningSchedule, parse_ordinal
from intervalgames.sequences import EnumeratedPoints
from intervalgames.sets import (
    FamilyNotDiscrete,
    Interval,
    RSet,
    closed,
    is_discrete,
    is_disjoint,
    normalize,
    parse_rset,
    point,
    refines,
    union_all,
)
from intervalgames.two_strategies import (
    FirstCategoryAvoider,
    GreedyTwo,
    HalvingOmegaPlusOneTwo,
    HalvingState,
    chain_puncture_refinement,
    cantor_fattening_level,
    cantor_one_shot,
    countable_target_move,
    halving_refinement,
    halving_step,
    largest_component,
    limit_fattening,
    point_sequence_avoider,
    puncture_cleanup,
    shrink_around,
    smallest_even_grid,
)

from conftest import random_cover, random_target


def rs(text: str) -> RSet:
    return parse_rset(text)


def cover_of(*member_texts: str) -> Cover:
    return Cover(tuple(rs(t) for t in member_texts))


UNIT = closed(0, 1)
EXAMPLE = cover_of("(-1/8,1/2)", "(1/4,9/8)")
TRIVIAL = cover_of("(-1,2)")


# --- halving -----------------------------------------------------------------


def test_smallest_even_grid():
    assert smallest_even_grid(F(1), F(1, 4)) == 6
    assert smallest_even_grid(F(1), F(1)) == 2
    assert smallest_even_grid(F(1), F(1, 8)) == 10


def test_halving_worked_example():
    # window supremum 1/4 gives a 6-cell grid
    fam, residual = halving_refinement(EXAMPLE, UNIT, UNIT)
    assert [str(m) for m in fam.members] == ["(1/6,1/3)", "(1/2,2/3)", "(5/6,1]"]
    assert [str(r) for r in residual] == ["[0,1/6]", "[1/3,1/2]", "[2/3,5/6]"]
    assert sum(r.length for r in residual) == F(1, 2)
    ok, _ = refines(list(fam.members), EXAMPLE.members)
    assert ok
    assert fam.min_gap == F(1, 6)


def test_halving_trivial_cover():
    fam, residual = halving_refinement(TRIVIAL, UNIT, UNIT)
    assert [str(m) for m in fam.members] == ["(1/2,1]"]
    assert [str(r) for r in residual] == ["[0,1/2]"]


def test_halving_trivial_cover_shorter_target():
    piece = closed("1/3", "5/6")
    fam, residual = halving_refinement(TRIVIAL, piece, piece)
    assert [str(m) for m in fam.members] == ["(7/12,5/6]"]
    assert [str(r) for r in residual] == ["[1/3,7/12]"]
    assert sum(r.length for r in residual) == F(1, 4)


def test_halving_cells_shorter_than_window_supremum():
    rng = random.Random(404)
    for _ in range(40):
        target = random_target(rng)
        cover = random_cover(rng, target)
        sup = window_supremum(cover, target)
        fam, residual = halving_refinement(cover, target, target)
        for piece in list(fam.members) + [RSet((r,)) for r in residual]:
            assert piece.measure() < sup
        assert sum(r.length for r in residual) == target.length / 2
        ok, _ = refines(list(fam.members), cover.members)
        assert ok
        assert union_all(list(fam.members)).is_subset(RSet((target,)))


def test_halving_step_measures():
    state = HalvingState((closed(0, 1),), 0)
    for n in (1, 2, 3, 4):
        fam, state = halving_step(state, TRIVIAL, UNIT)
        assert state.measure() == F(1, 2**n)
        assert is_discrete(list(fam.members)).min_gap == fam.min_gap


def test_halving_step_vs_grid_cover():
    state = HalvingState((closed(0, 1),), 0)
    for n in (1, 2, 3):
        cover = ball_cover(n)
        fam, state = halving_step(state, cover, UNIT)
        ok, _ = refines(list(fam.members), cover.members)
        assert ok
        assert state.measure() == F(1, 2**n)


def oracle_halving_step(state, cover, ambient):
    """The step composed from the public `halving_refinement` on each
    piece, certified as one family, and the residual sorted by left end."""
    members, residual = [], []
    for piece in state.residual:
        if piece.is_point:
            residual.append(piece)
            continue
        fam, res = halving_refinement(cover, piece, ambient)
        members.extend(fam.members)
        residual.extend(res)
    residual.sort(key=lambda p: p.lo)
    return is_discrete(members), residual


def test_halving_step_matches_the_per_piece_composition():
    """Seeded steps against random chain covers, grids and avoidance
    covers: the same family, min_gap and residual order as the oracle."""
    rng = random.Random(1313)
    for case in range(12):
        ambient = random_target(rng)
        state = HalvingState((ambient,), 0)
        for step in range(4):
            kind = (case + step) % 3
            if kind == 0:
                cover = random_cover(rng, ambient)
            elif kind == 1:
                cover = ball_cover(rng.randint(1, 4), ambient)
            else:
                lo = ambient.lo + ambient.length * F(rng.randint(0, 8), 16)
                hi = lo + ambient.length * F(rng.randint(2, 8), 16)
                cover = avoid_cover(Interval(lo, hi, True, True), ambient)
            family, residual = oracle_halving_step(state, cover, ambient)
            fam, state = halving_step(state, cover, ambient)
            assert fam.members == family.members
            assert fam.min_gap == family.min_gap
            assert list(state.residual) == residual
            assert state.inning == step + 1


def test_halving_state_round_trips_mixed_residuals():
    """Seeded residuals of closed cells and points on random ambients,
    points interleaved with cells and pieces on the ambient's ends: the
    state keeps cells as spans and points apart, and gives back the same
    ordered `residual`, its Fraction measure and its least gap."""
    rng = random.Random(2123)
    seen = {"interleaved": 0, "at the left end": 0, "at the right end": 0}
    for _ in range(200):
        ambient = random_target(rng)
        a, length = ambient.lo, ambient.length
        ends = sorted(rng.sample(range(1, 32), 2 * rng.randint(1, 5)))
        ends = [0] * (rng.random() < 0.3) + ends + [32] * (rng.random() < 0.3)
        residual = []
        for lo, hi in zip(ends[::2], ends[1::2]):
            x, y = a + length * F(lo, 32), a + length * F(hi, 32)
            residual.append(point(x) if rng.random() < 0.4 else closed(x, y))
        if len(ends) % 2:
            residual.append(point(a + length * F(ends[-1], 32)))
        state = HalvingState(tuple(residual), 3)
        assert state.residual == tuple(residual)
        assert len(state.points) == sum(p.is_point for p in residual)
        assert len(state.spans) == len(residual) - len(state.points)
        assert state.measure() == sum((p.length for p in residual), F(0))
        gaps = [q.lo - p.hi for p, q in zip(residual, residual[1:])]
        assert state.min_gap() == (min(gaps) if gaps else None)
        assert state.inning == 3
        kinds = [p.is_point for p in residual]
        seen["interleaved"] += any(
            kinds[i] and not kinds[i - 1] and not kinds[i + 1] for i in range(1, len(kinds) - 1)
        )
        seen["at the left end"] += residual[0].lo == ambient.lo
        seen["at the right end"] += residual[-1].hi == ambient.hi
    assert min(seen.values()) > 20, seen


def test_halving_steps_match_the_oracle_over_many_innings():
    """Seeded runs of 8 innings against random chain covers, grids and
    avoidance covers: at every step the family, its min_gap, the
    residual, its measure and its least gap are those of the per-piece
    oracle run on its own residual.  Then at the limit `at_limit` and
    `limit_fattening` answer as they do on a state built from the
    oracle's residual."""
    rng = random.Random(2124)
    outcomes = {"extend": 0, "fattened": 0}

    def outcome(fn):
        try:
            return fn()
        except ValueError as exc:
            return type(exc), str(exc)

    for case in range(6):
        ambient = random_target(rng)
        state = HalvingState((ambient,), 0)
        residual = [ambient]
        for step in range(8):
            kind = (case + step) % 3
            if kind == 0:
                cover = random_cover(rng, ambient)
            elif kind == 1:
                cover = ball_cover(rng.randint(1, 4), ambient)
            else:
                lo = ambient.lo + ambient.length * F(rng.randint(0, 8), 16)
                hi = lo + ambient.length * F(rng.randint(2, 8), 16)
                cover = avoid_cover(Interval(lo, hi, True, True), ambient)
            family, residual = oracle_halving_step(
                HalvingState(tuple(residual), step), cover, ambient
            )
            fam, state = halving_step(state, cover, ambient)
            assert fam.members == family.members
            assert fam.min_gap == family.min_gap
            assert list(state.residual) == residual
            assert state.measure() == sum((p.length for p in residual), F(0))
            assert state.measure() == ambient.length / 2 ** (step + 1)
            gaps = [q.lo - p.hi for p, q in zip(residual, residual[1:])]
            assert state.min_gap() == (min(gaps) if gaps else None)
        oracle_state = HalvingState(tuple(residual), 8)
        wide = Cover((RSet.interval(ambient.lo - 1, ambient.hi + 1),))
        for limit in (wide, ball_cover(6, ambient), ball_cover(10, ambient)):
            bot = HalvingOmegaPlusOneTwo(ambient)
            bot.state = state
            delta = lebesgue_number(limit, ambient)
            if any(p.length >= delta for p in residual):
                expected = "extend"
            else:
                expected = list(limit_fattening(oracle_state, limit, ambient).members)
            assert bot.at_limit(limit) == expected
            outcomes["extend" if expected == "extend" else "fattened"] += 1
            assert outcome(lambda: limit_fattening(state, limit, ambient)) == outcome(
                lambda: limit_fattening(oracle_state, limit, ambient)
            )
    assert min(outcomes.values()) > 2, outcomes
    # a cell exactly as long as the Lebesgue number still asks for one more inning
    bot = HalvingOmegaPlusOneTwo(UNIT)
    bot.state = HalvingState((closed(0, "1/2"), point("3/4")), 1)
    assert lebesgue_number(TRIVIAL, UNIT) == F(1, 2)
    assert bot.at_limit(TRIVIAL) == "extend"


def test_halving_refinement_checks_its_window_once(monkeypatch):
    """On the worked cover, which no member holds whole, the public
    one-piece entry makes one window check, the one `window_supremum`
    makes, and asks the cover about the piece once and about each of its
    6 cells once.  A bad piece is refused in the window check's order:
    its shape first, then the union."""
    counts = {"window checks": 0, "holds": 0, "holding": 0}

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)

        return wrapped

    checked = counting("window checks", covers.checked_window)
    monkeypatch.setattr(covers, "checked_window", checked)
    monkeypatch.setattr(Cover, "holds", counting("holds", Cover.holds))
    monkeypatch.setattr(Cover, "holding", counting("holding", Cover.holding))
    fam, residual = halving_refinement(EXAMPLE, UNIT, UNIT)
    assert len(fam) == 3 and len(residual) == 3
    assert counts == {"window checks": 1, "holds": 1 + 6, "holding": 0}

    refusals = [
        (Interval(F(0), F(1), True, False), "(0,1] must be a single closed interval"),
        (point(F(1, 2)), "[1/2,1/2] must have positive length"),
        (Interval(F(1), F(2), True, True), "(1,2) must be a single closed interval"),
        (closed(1, 2), "[1,2]; uncovered part: [9/8,2]"),
    ]
    for piece, text in refusals:
        with pytest.raises(CoverError) as err:
            halving_refinement(EXAMPLE, piece, UNIT)
        prefix = "members do not cover " if "uncovered" in text else ""
        assert str(err.value) == f"{prefix}the queried window {text}"


def test_halving_refuses_a_piece_outside_the_cover():
    """Seeded residuals of closed pieces and points on [0,1] against
    covers of 1-4 open intervals with gaps: `halving_step` raises
    `CoverError` exactly when a non-point piece is not inside the
    cover's union, naming the first such piece and its uncovered part."""
    rng = random.Random(2020)
    outcomes = {"refused": 0, "halved": 0}
    for _ in range(300):
        ends = sorted(rng.sample(range(17), 2 * rng.randint(1, 3)))
        residual = [
            point(F(lo, 16)) if rng.random() < 0.2 else closed(F(lo, 16), F(hi, 16))
            for lo, hi in zip(ends[::2], ends[1::2])
        ]
        members = []
        for _ in range(rng.randint(1, 4)):
            lo, hi = sorted(rng.sample(range(-4, 37), 2))
            members.append(RSet.interval(F(lo, 32), F(hi, 32)))
        cover = Cover(tuple(members))
        missed = [
            p for p in residual
            if not p.is_point and not RSet((p,)).is_subset(cover.union)
        ]
        state = HalvingState(tuple(residual), 0)
        if not missed:
            outcomes["halved"] += 1
            halving_step(state, cover, UNIT)
            continue
        outcomes["refused"] += 1
        with pytest.raises(CoverError) as err:
            halving_step(state, cover, UNIT)
        first = missed[0]
        assert str(err.value) == (
            f"members do not cover the queried window {first}; "
            f"uncovered part: {RSet((first,)).subtract(cover.union)}"
        )
    assert min(outcomes.values()) > 30, outcomes


def test_halving_match_checks_each_piece_once(monkeypatch):
    """A machine-independent cost gate on the seed-1 benchmark match
    `main-compact` vs `halving` (ambient [1/5,2], budget 25): one cover
    query per refined piece, a union check only for a piece no member
    holds whole, one discreteness certificate per step, no point piece
    walked (the only `is_point` tests are the union checks' own), and
    `Interval`s built only for the family members and the pieces no
    member holds."""
    counts = {
        "union checks": 0, "certificates": 0, "pieces": 0, "steps": 0,
        "cover queries": 0, "members": 0, "is_point tests": 0, "intervals built": 0,
    }
    inside = [0]

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def step(state, cover, ambient):
        counts["pieces"] += len(state.spans)
        counts["steps"] += 1
        inside[0] += 1
        try:
            family, after = halving_step(state, cover, ambient)
        finally:
            inside[0] -= 1
        counts["members"] += len(family)
        return family, after

    is_point, post_init = Interval.is_point, Interval.__post_init__

    def walked(self):
        counts["is_point tests"] += inside[0] > 0
        return is_point.fget(self)

    def built(self):
        counts["intervals built"] += inside[0] > 0
        post_init(self)

    monkeypatch.setattr(covers, "checked_window", counting("union checks", covers.checked_window))
    monkeypatch.setattr(
        two_strategies, "is_discrete", counting("certificates", two_strategies.is_discrete)
    )
    monkeypatch.setattr(two_strategies, "halving_step", step)
    monkeypatch.setattr(Cover, "holding", counting("cover queries", Cover.holding))
    monkeypatch.setattr(Cover, "holds", counting("cover queries", Cover.holds))
    monkeypatch.setattr(Interval, "is_point", property(walked))
    monkeypatch.setattr(Interval, "__post_init__", built)
    t = play(
        GameConfig(
            "discrete", parse_ordinal("w"), closed("1/5", 2), TargetSpec.full(),
            "main-compact", "halving", InningSchedule(main_budget=25),
        )
    )
    assert t.verdict.outcome == "one-wins-certified"
    # one whole-piece query per piece; the 1,752 pieces one member holds
    # whole (M = 2) skip the per-cell fit check and the union check, and
    # each of the other 25 gets one `window_supremum` (one union check)
    # and 346 cell-fit queries in all
    assert counts == {
        "union checks": 25, "certificates": 25, "pieces": 1777, "steps": 25,
        "cover queries": 1777 + 346, "members": 1925, "is_point tests": 25,
        "intervals built": 1925 + 25,
    }


def test_halving_cuts_cells_on_integers(monkeypatch):
    """A machine-independent cost gate on the seed-1 benchmark match
    `main-compact` vs `halving` (ambient [1/5,2], discrete, length w,
    budget 8): a successful `is_discrete` builds no closure, and `_halve`
    makes no Fraction arithmetic on a piece one member holds whole."""
    inside = {"discrete": 0, "held piece": 0}
    counts = {"closures": 0, "closures in certified families": 0,
              "held pieces": 0, "fraction ops": 0}

    def certified(fn):
        def wrapped(members):
            before = counts["closures"]
            inside["discrete"] += 1
            try:
                fam = fn(members)
            finally:
                inside["discrete"] -= 1
            counts["closures in certified families"] += counts["closures"] - before
            return fam

        return wrapped

    closure = RSet.closure

    def counted_closure(self):
        counts["closures"] += inside["discrete"] > 0
        return closure(self)

    halve = two_strategies._halve

    def counted_halve(cover, lo, hi, den, at_boundary):
        held = cover.holds(lo, hi, den)
        counts["held pieces"] += held
        inside["held piece"] += held
        try:
            return halve(cover, lo, hi, den, at_boundary)
        finally:
            inside["held piece"] -= held

    def counted_op(op):
        def wrapped(*args):
            counts["fraction ops"] += inside["held piece"] > 0
            return op(*args)

        return wrapped

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(F, name, counted_op(getattr(F, name)))
    monkeypatch.setattr(RSet, "closure", counted_closure)
    monkeypatch.setattr(two_strategies, "is_discrete", certified(two_strategies.is_discrete))
    monkeypatch.setattr(engine, "is_discrete", certified(engine.is_discrete))
    monkeypatch.setattr(two_strategies, "_halve", counted_halve)
    t = play(
        GameConfig(
            "discrete", parse_ordinal("w"), closed("1/5", 2), TargetSpec.full(),
            "main-compact", "halving", InningSchedule(main_budget=8),
        )
    )
    assert t.verdict.outcome == "one-wins-certified"
    assert counts["closures in certified families"] == 0
    assert counts["held pieces"] > 0
    assert counts["fraction ops"] == 0


def ref_halving_cells(
    piece: Interval, m: int, at_boundary: bool
) -> tuple[list[RSet], list[Interval]]:
    """The cells of `halving_refinement` by Fraction arithmetic: grid
    point i is lo + i*(hi - lo)/M."""
    lo, hi = piece.lo, piece.hi
    grid = [lo + i * (hi - lo) / m for i in range(m + 1)]
    members = [
        RSet((Interval(grid[i], grid[i + 1], True, not (i == m - 1 and at_boundary)),))
        for i in range(1, m, 2)
    ]
    residual = [closed(grid[i], grid[i + 1]) for i in range(0, m, 2)]
    if not at_boundary:
        residual.append(closed(hi, hi))
    return members, residual


def ref_grid_size(cover: Cover, piece: Interval) -> int:
    """M: 2 when one member holds the piece, else the smallest even grid
    finer than the window supremum."""
    if any(RSet((piece,)).is_subset(m) for m in cover.members):
        return 2
    return smallest_even_grid(piece.length, window_supremum(cover, piece))


def chain_cover(rng: random.Random, a: F, b: F) -> Cover:
    """Overlapping open intervals over [a, b], cut at 1-3 random points."""
    w = b - a
    cuts = sorted(a + w * F(rng.randint(1, 90), 100) for _ in range(rng.randint(1, 3)))
    ends = [a - w / 7, *cuts, b + w / 9]
    return Cover(tuple(RSet.interval(x - w / 50, y + w / 50) for x, y in zip(ends, ends[1:])))


# negative ends and large coprime denominators
BIG = (2**61 - 1, 3**40)
HALVING_PIECES = [
    (F(-7, BIG[0]), F(5, BIG[1])),
    (F(-(BIG[1] + 2), BIG[1]), F(-1, BIG[0])),
    (F(-3, 2), F(BIG[0] + 1, BIG[0])),
    (F(-5 * BIG[1] - 1, BIG[1]), F(-4 * BIG[0] + 3, BIG[0])),
]


@pytest.mark.parametrize("at_boundary", [True, False])
def test_halving_cells_match_a_fraction_reference(at_boundary):
    """`halving_refinement` and `halving_step` cut each piece into the
    cells lo + i*(hi - lo)/M of the Fraction reference, for M = 2 (one
    member holds the piece) and for finer grids."""
    rng = random.Random(1802)
    sizes = set()
    for lo, hi in HALVING_PIECES:
        ambient = closed(lo, hi if at_boundary else hi + 1)
        piece = closed(lo, hi)
        for cover in (Cover((RSet.interval(lo - 1, hi + 1),)), chain_cover(rng, lo, hi)):
            m = ref_grid_size(cover, piece)
            sizes.add(m)
            fam, residual = halving_refinement(cover, piece, ambient)
            members, ref_residual = ref_halving_cells(piece, m, at_boundary)
            assert (list(fam.members), residual) == (members, ref_residual)

        # a residual of three pieces and a point, against one cover of all
        cuts = [lo + (hi - lo) * F(k, 100) for k in sorted(rng.sample(range(1, 100), 5))]
        pieces = [closed(lo, cuts[0]), closed(cuts[1], cuts[1]), closed(cuts[2], cuts[3])]
        pieces.append(closed(cuts[-1], hi))
        cover = chain_cover(rng, lo, hi)
        members, ref_residual = [], []
        for p in pieces:
            if p.is_point:
                ref_residual.append(p)
                continue
            cells, res = ref_halving_cells(
                p, ref_grid_size(cover, p), at_boundary and p.hi == hi
            )
            members += cells
            ref_residual += res
        fam, state = halving_step(HalvingState(tuple(pieces), 0), cover, ambient)
        assert (list(fam.members), list(state.residual)) == (members, ref_residual)
    assert 2 in sizes and max(sizes) > 2


@pytest.mark.parametrize("two", ["greedy", "halving"])
def test_referee_builds_no_grid_member(monkeypatch, two):
    """A machine-independent cost gate on seed-1 `catalog-sweep` cells,
    `grid` vs `greedy` and `grid` vs `halving` (ambient [1/5,2], discrete,
    length w, budget 8): the referee answers every refinement check on a
    grid cover in closed form, without building a member."""
    depth, built = [0], [0]
    component = covers.GridCover._component

    def counted(self, k):
        built[0] += depth[0] > 0
        return component(self, k)

    def step(*args):
        depth[0] += 1
        try:
            return referee_step(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(covers.GridCover, "_component", counted)
    monkeypatch.setattr(engine, "referee_step", step)
    t = play(
        GameConfig(
            "discrete", parse_ordinal("w"), closed("1/5", 2), TargetSpec.full(),
            "grid", two, InningSchedule(main_budget=8),
        )
    )
    assert len(t.records) == 8
    assert built == [0]


# --- limit fattening ---------------------------------------------------------


def test_limit_fattening_single_piece():
    state = HalvingState((closed(0, "1/4"),), 1)
    fam = limit_fattening(state, TRIVIAL, closed(0, 1).closure())
    assert len(fam.members) == 1
    fat = fam.members[0]
    assert RSet((closed(0, "1/4"),)).is_subset(fat)
    assert fat.closure().is_subset(rs("(-1,2)"))


def test_limit_fattening_rejects_long_pieces():
    state = HalvingState((closed(0, "1/2"),), 1)
    with pytest.raises(ValueError, match="too long for the limit move"):
        limit_fattening(state, TRIVIAL, closed(0, 1))


def test_limit_fattening_keeps_discreteness():
    # ball_cover(2) has lebesgue number 1/32; pieces must be shorter
    state = HalvingState((closed(0, "1/64"), closed("1/2", "33/64"),), 2)
    cover = ball_cover(2)
    fam = limit_fattening(state, cover, closed(0, 1))
    assert fam.min_gap is not None and fam.min_gap > 0
    ok, _ = refines(list(fam.members), cover.members)
    assert ok
    for piece in state.residual:
        assert RSet((piece,)).is_subset(union_all(list(fam.members)))


# --- cantor one-shot ---------------------------------------------------------


def test_cantor_one_shot_worked_example():
    spec = CantorSpec(closed(0, 1))
    assert cantor_fattening_level(EXAMPLE, spec) == 3
    fam = cantor_one_shot(EXAMPLE, spec)
    assert len(fam.members) == 8
    gamma = F(1, 81)
    pieces = spec.pieces(3)
    assert fam.members[0] == RSet.interval(pieces[0].lo - gamma, pieces[0].hi + gamma).intersect(rs("[0,1]"))
    assert fam.min_gap == F(1, 81)
    ok, _ = refines(list(fam.members), EXAMPLE.members)
    assert ok
    assert spec.uncovered_point(fam.union(), rs("[0,1]")) is None


def test_cantor_one_shot_on_seeded_covers():
    rng = random.Random(515)
    spec = CantorSpec(closed(0, 1))
    box = rs("[0,1]")
    for _ in range(30):
        cover = random_cover(rng, closed(0, 1).closure())
        fam = cantor_one_shot(cover, spec)
        n = cantor_fattening_level(cover, spec)
        assert len(fam.members) == 2**n
        assert fam.min_gap is None or fam.min_gap >= F(1, 3 ** (n + 1))
        ok, _ = refines(list(fam.members), cover.members)
        assert ok
        assert spec.uncovered_point(fam.union(), box) is None


def test_cantor_one_shot_cover_missing_middle_gap():
    # members cover the construction but not the whole ambient interval
    cover = cover_of("(-1/8,2/5)", "(3/5,9/8)")
    spec = CantorSpec(closed(0, 1))
    fam = cantor_one_shot(cover, spec)
    ok, _ = refines(list(fam.members), cover.members)
    assert ok
    assert spec.uncovered_point(fam.union(), rs("[0,1]")) is None


# --- countable target --------------------------------------------------------


def test_shrink_rule_half_distance():
    got = shrink_around(F(1, 2), rs("(1/4,9/8)").components[0], closed(0, 1).closure())
    assert got == rs("(3/8,5/8)")


def test_countable_move_covers_enumerated_point():
    spec = EnumeratedPoints.named("rationals", closed(0, 1).closure())
    for inning in range(8):
        cover = ball_cover(2)
        fam = countable_target_move(spec, inning, cover)
        assert len(fam.members) == 1
        assert fam.members[0].contains(spec.point(inning)) or fam.members[
            0
        ].closure().contains(spec.point(inning))
        ok, _ = refines(list(fam.members), cover.members)
        assert ok


def test_countable_move_clips_to_ambient():
    spec = EnumeratedPoints.named("rationals", closed(0, 1).closure())
    fam = countable_target_move(spec, 1, TRIVIAL)  # point q_1 = 1
    member = fam.members[0]
    assert member.contains(F(1)) and member.is_subset(rs("[0,1]"))
    assert member.is_relatively_open(closed(0, 1))


def test_triadic_enumeration_never_hits_one_half():
    spec = EnumeratedPoints.named("triadic", closed(0, 1).closure())
    pts = {spec.point(k) for k in range(60)}
    assert F(1, 2) not in pts
    assert len(pts) == 60  # injective


# --- chain puncture ----------------------------------------------------------


def test_chain_puncture_worked_example():
    family, punctures = chain_puncture_refinement(EXAMPLE, UNIT)
    assert punctures == [F(3, 8)]
    assert [str(m) for m in family] == ["[0,3/8)", "(3/8,1]"]
    is_disjoint(family)
    with pytest.raises(FamilyNotDiscrete) as err:
        is_discrete(family)
    assert err.value.point == F(3, 8)
    # the family plus its punctures is exactly the target
    assert union_all(family).union(RSet.points(punctures)) == rs("[0,1]")


def test_chain_puncture_single_member():
    family, punctures = chain_puncture_refinement(TRIVIAL, UNIT)
    assert punctures == []
    assert family == [rs("[0,1]")]


def test_puncture_cleanup_examples():
    # (0,1) is no cover of [0,1], but it holds every puncture
    loose = cover_of("(0,1)")
    fam = puncture_cleanup([F(3, 8)], loose, UNIT)
    assert [str(m) for m in fam.members] == ["(3/16,9/16)"]
    assert puncture_cleanup([], TRIVIAL, UNIT).members == ()
    two = puncture_cleanup([F(1, 4), F(3, 4)], loose, UNIT)
    assert len(two.members) == 2
    assert [str(m) for m in two.members] == ["(1/8,3/8)", "(5/8,7/8)"]
    assert two.min_gap is not None and two.min_gap > 0


def test_chain_puncture_then_cleanup_covers_exactly():
    rng = random.Random(606)
    for _ in range(25):
        target = random_target(rng)
        cover1 = random_cover(rng, target, extra=False)
        cover2 = random_cover(rng, target, extra=False)
        family, punctures = chain_puncture_refinement(cover1, target)
        cleanup = puncture_cleanup(punctures, cover2, target)
        total = union_all(family + list(cleanup.members))
        assert RSet((target,)).is_subset(total)
        is_disjoint(family)
        ok, _ = refines(family, cover1.members)
        assert ok
        ok, _ = refines(list(cleanup.members), cover2.members)
        assert ok


# --- first-category avoidance -------------------------------------------------


def test_avoider_rule_examples():
    bot = FirstCategoryAvoider(lambda n: RSet.points([F(1, 2)]))
    got = bot.respond(rs("(0,1)"))
    assert got == rs("(1/8,3/8)")
    empty_bot = FirstCategoryAvoider(lambda n: RSet.empty())
    assert empty_bot.respond(rs("(0,1)")) == rs("(1/4,3/4)")


def test_avoider_closure_nesting_and_avoidance():
    bot = point_sequence_avoider("rationals", closed(0, 1).closure())
    current = rs("(0,1)")
    seen = [current]
    for n in range(12):
        nxt = bot.respond(current)
        assert nxt.closure().is_subset(current)
        current = nxt
        seen.append(current)
    # the nested intersection contains the closure of the last move and
    # avoids every deleted point materialized so far
    from intervalgames.sequences import enumeration

    enum = enumeration("rationals")
    for k in range(12):
        assert not current.contains(enum.point(k))
    assert not current.is_empty


# --- greedy bot --------------------------------------------------------------


def test_greedy_bot_is_legal_and_nontrivial():
    bot = GreedyTwo(closed(0, 1).closure())
    for cover in (EXAMPLE, ball_cover(2), TRIVIAL):
        fam = bot.respond(0, cover)
        assert fam
        cert = is_discrete(fam)
        assert cert.min_gap is None or cert.min_gap > 0
        ok, _ = refines(fam, cover.members)
        assert ok


def fraction_greedy(cover: Cover) -> list[RSet]:
    """`GreedyTwo`'s rule at the definition level, on Fractions: the
    middle half of every positive-length component, tried by (-length,
    lo, hi), kept when a positive gap separates it from every kept one."""
    cands = []
    for m in cover.members:
        for c in m.components:
            if c.length > 0:
                q = c.length / 4
                cands.append(Interval(c.lo + q, c.hi - q, True, True))
    cands.sort(key=lambda c: (-c.length, c.lo, c.hi))
    accepted: list[Interval] = []  # kept sorted by lo
    los: list[F] = []
    for c in cands:
        pos = bisect_left(los, c.lo)
        ok = True
        if pos < len(accepted) and accepted[pos].lo - c.hi <= 0:
            ok = False
        if pos > 0 and c.lo - accepted[pos - 1].hi <= 0:
            ok = False
        if ok:
            accepted.insert(pos, c)
            los.insert(pos, c.lo)
    return [RSet((c,)) for c in accepted]


def random_component(rng: random.Random, ambient: Interval) -> Interval:
    """A point or an interval with random ends, reaching past the ambient."""
    den = rng.choice([1, 2, 3, 5, 7, 8, 12, 16])
    lo = ambient.lo + ambient.length * F(rng.randint(-den, 5 * den), 4 * den)
    if rng.random() < 0.2:
        return Interval(lo, lo, False, False)
    hi = lo + ambient.length * F(rng.randint(1, 2 * den), 4 * den)
    return Interval(lo, hi, rng.random() < 0.7, rng.random() < 0.7)


def test_greedy_matches_the_fraction_selection():
    """Seeded covers whose members have 1-3 components (points, open and
    closed ends, parts past the ambient, repeated members) and every
    grid of index 1..7 on three ambients."""
    rng = random.Random(1414)
    for _ in range(300):
        ambient = random_target(rng)
        members = [RSet((Interval(ambient.lo - 1, ambient.hi + 1, True, True),))]
        for _ in range(rng.randint(1, 12)):
            if rng.random() < 0.15:
                members.append(rng.choice(members))
            else:
                k = rng.randint(1, 3)
                members.append(normalize(random_component(rng, ambient) for _ in range(k)))
        rng.shuffle(members)
        cover = Cover(tuple(members))
        assert GreedyTwo(ambient).respond(0, cover) == fraction_greedy(cover), cover
    for ambient in (closed(0, 1), closed("1/5", 2), closed("-2/3", "9/7")):
        for n in range(1, 8):
            cover = ball_cover(n, ambient)
            assert GreedyTwo(ambient).respond(0, cover) == fraction_greedy(cover), cover


def test_greedy_builds_intervals_only_for_the_members_it_keeps(monkeypatch):
    """A cost gate: of the 257 grid components GreedyTwo keeps 128, and
    it builds one `Interval` per kept candidate, none for the others."""
    cover = ball_cover(6, closed("1/5", 2))
    assert len(cover.members) == 257  # built before counting
    built = [0]
    post_init = Interval.__post_init__

    def counting(self):
        built[0] += 1
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counting)
    family = GreedyTwo(cover.ambient).respond(0, cover)
    assert len(family) == 128
    assert built[0] == 128


def test_largest_component_tie_breaks_leftmost():
    assert str(largest_component(rs("(0,1/4);(1/2,3/4)"))) == "(0,1/4)"
    assert str(largest_component(rs("(0,1/4);(1/2,1)"))) == "(1/2,1)"
