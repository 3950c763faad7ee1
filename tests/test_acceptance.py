"""Acceptance gate: one test per criterion, exact rational checks.

Every check is tolerance-zero; each test prints a PASS line on success
(run with `pytest -s tests/test_acceptance.py` to see them).  Runtime
bounds are asserted with the budgets the criteria state.
"""

import random
import time
from fractions import Fraction as F

from intervalgames import catalog
from intervalgames.analyzer import (
    EscapeCertificate,
    dense_discrete_witness,
    find_escape,
    strategy_core,
    verify_escape,
)
from intervalgames.cantor import CantorSpec
from intervalgames.cli import main as cli_main
from intervalgames.covers import lebesgue_counterexample, lebesgue_number, verify_lebesgue
from intervalgames.engine import GameConfig, TargetSpec, play
from intervalgames.ordinals import InningSchedule, Ordinal, parse_ordinal, reduced_length
from intervalgames.sequences import enumeration
from intervalgames.sets import (
    Interval,
    RSet,
    closed,
    is_discrete,
    parse_rset,
    refines,
    union_all,
    witness_radius,
)
from intervalgames.two_strategies import cantor_one_shot, halving_refinement

from conftest import random_cover, random_target

AMBIENT = closed(0, 1)
BOX = RSet((AMBIENT,))


def match(ruleset, length, one, two, target=None, budget=8):
    return play(
        GameConfig(
            ruleset=ruleset,
            length=parse_ordinal(length),
            ambient=AMBIENT,
            target=target or TargetSpec.full(),
            one=one,
            two=two,
            schedule=InningSchedule(main_budget=budget),
        )
    )


def test_criterion_01_halving_refinement():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(500):
        target = random_target(rng)
        cover = random_cover(rng, target)
        family, residual = halving_refinement(cover, target, target)
        is_discrete(list(family.members))
        ok, witnesses = refines(list(family.members), cover.members)
        assert ok and all(w is not None for w in witnesses)
        assert union_all(list(family.members)).is_subset(RSet((target,)))
        assert sum((r.length for r in residual), F(0)) == target.length / 2
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    print(f"\n[criterion-01] PASS halving refinement on 500 seeded covers ({elapsed:.2f}s)")


def test_criterion_02_omega_plus_one_win():
    for one_id in ("grid", "avoid-fixed"):
        started = time.perf_counter()
        t = match("discrete", "w+1", one_id, "halving-omega-plus-1", budget=12)
        elapsed = time.perf_counter() - started
        assert elapsed < 5
        assert t.verdict.outcome == "two-wins-covered"
        union = union_all([m for r in t.records for m in r.family.members])
        assert union == BOX
        covered = RSet.empty()
        main_records = [r for r in t.records if str(r.label.ordinal) != "w"]
        for n, rec in enumerate(main_records):
            covered = covered.union(union_all(list(rec.family.members)))
            assert BOX.subtract(covered).measure() == F(1, 2 ** (n + 1))
    print("[criterion-02] PASS w+1 win, union exactly [0,1], residual 2^-n")


def test_criterion_03_one_omega_dominance():
    for two_id in catalog.STANDARD_TWO_CATALOG:
        started = time.perf_counter()
        t = match("discrete", "w", "main-compact", two_id, budget=25)
        elapsed = time.perf_counter() - started
        assert elapsed < 5, two_id
        assert t.verdict.outcome == "one-wins-certified", two_id
        cert = t.verdict.certificate
        assert cert["innings_checked"] == 25
        uncovered = parse_rset(cert["uncovered_open"])
        union = union_all([m for r in t.records for m in r.family.members])
        assert not uncovered.is_empty
        assert uncovered.intersect(union).is_empty
    print("[criterion-03] PASS length-w dominance vs the whole catalog")


def test_criterion_04_inequivalence_demo(capsys):
    code = cli_main(["demo", "inequivalence"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[FAIL]" not in out
    assert "two-wins-covered in 2 innings" in out
    assert "NotDiscrete" in out
    print("[criterion-04] PASS inequivalence demo, exit 0")


def test_criterion_05_cantor_one_shot():
    started = time.perf_counter()
    rng = random.Random(505)
    spec = CantorSpec(AMBIENT)
    for _ in range(100):
        cover = random_cover(rng, AMBIENT)
        family = cantor_one_shot(cover, spec)
        level = len(family.members).bit_length() - 1
        assert len(family.members) == 2**level
        union = family.union()
        for piece in spec.pieces(level):
            assert RSet((piece,)).is_subset(union)
        if len(family.members) > 1:
            assert family.min_gap >= AMBIENT.length / 3 ** (level + 1)
        ok, witnesses = refines(list(family.members), cover.members)
        assert ok and all(w is not None for w in witnesses)
    for one_id in ("grid", "avoid-fixed", "main-compact"):
        t = match("discrete", "1", one_id, "cantor-oneshot", TargetSpec.cantor())
        assert t.verdict.outcome == "two-wins-covered", one_id
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    print(f"[criterion-05] PASS one-shot construction cover ({elapsed:.2f}s)")


def test_criterion_06_rationals_contrast():
    enum = enumeration("rationals")
    n = 10
    for one_id in ("grid", "avoid-fixed", "main-compact", "main-gdelta"):
        t = match(
            "discrete", "w", one_id, "countable",
            TargetSpec.countable("rationals"), budget=n,
        )
        assert t.verdict.outcome == "two-wins-covered", one_id
        union = union_all([m for r in t.records for m in r.family.members])
        for k in range(n):
            assert union.contains(enum.point(k))
    # one-shot families never cover all rationals of the segment
    one = catalog.make_one("avoid-fixed", AMBIENT)
    cover = one.next_cover()
    checked = 0
    for two_id in catalog.STANDARD_TWO_CATALOG:
        fam = is_discrete(catalog.make_two(two_id, AMBIENT).respond(0, cover))
        if fam.members:
            q = dense_discrete_witness(fam, AMBIENT).rational()
            assert BOX.contains(q) and not fam.union().contains(q)
            checked += 1
    rng = random.Random(606)
    while checked < 200:
        k = rng.randint(2, 6)
        cuts = sorted(rng.sample(range(1, 128), 2 * k))
        members = [
            RSet.interval(F(cuts[i], 128), F(cuts[i + 1], 128))
            for i in range(0, 2 * k, 2)
        ]
        fam = is_discrete(members)
        q = dense_discrete_witness(fam, AMBIENT).rational()
        assert BOX.contains(q) and not fam.union().contains(q)
        checked += 1
    print(f"[criterion-06] PASS rationals covered across innings, "
          f"{checked} one-shot families each miss a rational")


def test_criterion_07_length_reduction_formula():
    started = time.perf_counter()

    def oracle(a2, a1, a0):
        if a0 == 0 and a1 == 0:
            return (a2, 0, 0)
        if a0 == 0:
            return (a2, a1 - 1, 1)
        return (a2, a1, 1)

    def build(a2, a1, a0):
        return Ordinal(tuple(t for t in [(2, a2), (1, a1), (0, a0)] if t[1] > 0))

    checked = 0
    for a2 in range(4):
        for a1 in range(4):
            for a0 in range(4):
                alpha = build(a2, a1, a0)
                if alpha.is_finite:
                    continue
                got = reduced_length(alpha)
                assert got == build(*oracle(a2, a1, a0))
                assert got <= alpha
                if not got.is_finite:
                    assert reduced_length(got) == got
                checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 60 and elapsed < 1
    print(f"[criterion-07] PASS length reduction vs oracle, {checked} ordinals "
          f"({elapsed:.3f}s)")


def test_criterion_08_witness_radius_decay():
    previous = None
    for n_max in range(2, 51):
        family = [
            parse_rset(f"[1/{2 * n + 1},1/{2 * n}]") for n in range(1, n_max + 1)
        ]
        w = witness_radius(family, 0)
        assert w == F(1, 2 * n_max - 1)
        if previous is not None:
            assert w < previous
        previous = w
    print("[criterion-08] PASS witness radius 1/(2N-1), strictly decreasing")


def test_criterion_09_lebesgue_validity():
    rng = random.Random(909)
    for _ in range(500):
        target = random_target(rng)
        cover = random_cover(rng, target)
        d = lebesgue_number(cover, target)
        assert d > 0 and verify_lebesgue(cover, target, d)
    from intervalgames.covers import Cover

    example = Cover((parse_rset("(-1/8,1/2)"), parse_rset("(1/4,9/8)")))
    window = lebesgue_counterexample(example, AMBIENT, F(1, 4))
    assert window == Interval(F(1, 4), F(1, 2), False, False)
    assert verify_lebesgue(example, AMBIENT, F(1, 8))
    print("[criterion-09] PASS lebesgue validity on 500 covers + fixed pair")


def test_criterion_10_dense_gdelta_game():
    enum = enumeration("rationals")
    for two_id in catalog.STANDARD_TWO_CATALOG:
        t = match(
            "discrete", "w", "main-gdelta", two_id,
            TargetSpec.gdelta("rationals"), budget=25,
        )
        assert t.verdict.outcome == "one-wins-certified", two_id
        cert = t.verdict.certificate
        avoided = [F(q) for q in cert["avoided_points"]]
        assert avoided == [enum.point(k) for k in range(25)]
        uncovered = parse_rset(cert["uncovered_open"])
        for q in avoided:
            assert not uncovered.contains(q)
    print("[criterion-10] PASS dense G-delta game certified for 25 innings")


def test_criterion_11_analyzer_sanity():
    def first_member():
        return catalog.make_two("first-member", AMBIENT)

    cores = [strategy_core(first_member, (), d, AMBIENT) for d in (2, 4, 6, 8, 10)]
    for shallow, deep in zip(cores, cores[1:]):
        assert deep.rset.is_subset(shallow.rset)
    assert cores[-1].rset.is_subset(parse_rset("[0,1/1024]"))  # within [0, 2^-10]

    def triadic():
        return catalog.make_two("countable:triadic", AMBIENT)

    cert = find_escape(triadic, F(1, 2), 5, 12, AMBIENT)
    assert isinstance(cert, EscapeCertificate)
    assert len(cert.indices) == 5
    assert verify_escape(triadic, cert, AMBIENT)
    print("[criterion-11] PASS core nesting and depth-5 escape certificate")
