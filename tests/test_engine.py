"""Referee soundness, match driving, adjudication, transfers, reports."""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from intervalgames.cantor import CantorSpec
from intervalgames import covers, engine, sets
from intervalgames.covers import Cover, CoverError, ball_cover, window_supremum
from intervalgames.engine import (
    CheckedFamily,
    ConfigError,
    GameConfig,
    IllegalMove,
    InningRecord,
    TargetSpec,
    length_bracket_report,
    lift_to_closed_subspace,
    play,
    referee_step,
    replay_families_under_ruleset,
    validate_cover,
)
from intervalgames.one_strategies import OneMain
from intervalgames.ordinals import InningSchedule, parse_ordinal
from intervalgames.sequences import EnumeratedPoints
from intervalgames.sets import Interval, RSet, closed, normalize, parse_rset, union_all
from intervalgames.two_strategies import chain_puncture_refinement

from conftest import refuse_grid_members

AMBIENT = closed(0, 1)


def rs(text: str) -> RSet:
    return parse_rset(text)


def cover_of(*member_texts: str) -> Cover:
    return Cover(tuple(rs(t) for t in member_texts))


def config(ruleset, length, one, two, target=None, budget=8) -> GameConfig:
    return GameConfig(
        ruleset=ruleset,
        length=parse_ordinal(length),
        ambient=AMBIENT,
        target=target or TargetSpec.full(),
        one=one,
        two=two,
        schedule=InningSchedule(main_budget=budget),
    )


EXAMPLE = cover_of("(-1/8,1/2)", "(1/4,9/8)")

# the criterion-02 transcript (discrete w+1, grid vs halving-omega-plus-1,
# budget 12 on [0,1]) as `play --json` writes it, for targets full and cantor
CRITERION_02_SHA256 = "3b8c5315356df9a97f8f7377f64ad2714628f11cec703d1936607890b7a0743b"


# --- referee -----------------------------------------------------------------


def test_referee_rejects_puncture_family_under_discrete_rules():
    family, _ = chain_puncture_refinement(EXAMPLE, AMBIENT)
    with pytest.raises(IllegalMove) as err:
        referee_step("discrete", EXAMPLE, family, AMBIENT)
    assert err.value.kind == "NotDiscrete"
    assert err.value.detail["shared_point"] == "3/8"


def test_referee_accepts_puncture_family_under_disjoint_rules():
    family, _ = chain_puncture_refinement(EXAMPLE, AMBIENT)
    checked = referee_step("disjoint", EXAMPLE, family, AMBIENT)
    assert checked.ruleset == "disjoint" and checked.min_gap is None


def test_referee_accepts_empty_family_under_both_rulesets():
    for ruleset in ("discrete", "disjoint"):
        checked = referee_step(ruleset, EXAMPLE, [], AMBIENT)
        assert checked.members == ()


def test_referee_rejects_non_refining_family_with_witness():
    with pytest.raises(IllegalMove) as err:
        referee_step("discrete", EXAMPLE, [rs("(0,1)")], AMBIENT)
    assert err.value.kind == "IllegalRefinement"
    assert err.value.detail["member"] == 0


def test_referee_rejects_not_open_and_outside_members():
    with pytest.raises(IllegalMove) as err:
        referee_step("discrete", EXAMPLE, [rs("[1/3,3/8]")], AMBIENT)
    assert err.value.kind == "NotOpen"
    with pytest.raises(IllegalMove) as err:
        referee_step("discrete", EXAMPLE, [rs("(-1/16,1/8)")], AMBIENT)
    assert err.value.kind == "OutsideAmbient"


def test_referee_rejections_revalidate():
    family, punctures = chain_puncture_refinement(EXAMPLE, AMBIENT)
    with pytest.raises(IllegalMove) as err:
        referee_step("discrete", EXAMPLE, family, AMBIENT)
    i, j = err.value.detail["members"]
    shared = F(err.value.detail["shared_point"])
    assert family[i].closure().contains(shared)
    assert family[j].closure().contains(shared)


# --- referee against definition-level oracles ---------------------------------

BOX = RSet((AMBIENT,))
SIXTEENTHS = st.sampled_from([F(k, 16) for k in range(-2, 19)])


def _holds(c: Interval, x: F) -> bool:
    return (c.lo < x or (c.lo == x and not c.lo_open)) and (
        x < c.hi or (x == c.hi and not c.hi_open)
    )


def _within(c: Interval, d: Interval) -> bool:
    """The interval c lies inside the interval d, from endpoints alone."""
    left = d.lo < c.lo or (d.lo == c.lo and (c.lo_open or not d.lo_open))
    right = c.hi < d.hi or (c.hi == d.hi and (c.hi_open or not d.hi_open))
    return left and right


def _sets_meet(m: RSet, n: RSet) -> bool:
    for c in m.components:
        for d in n.components:
            lo, hi = max(c.lo, d.lo), min(c.hi, d.hi)
            if lo < hi or (lo == hi and _holds(c, lo) and _holds(d, lo)):
                return True
    return False


def _closures_meet(m: RSet, n: RSet) -> bool:
    return any(
        max(c.lo, d.lo) <= min(c.hi, d.hi) for c in m.components for d in n.components
    )


def _in_closure(m: RSet, x: F) -> bool:
    return any(c.lo <= x <= c.hi for c in m.components)


@st.composite
def open_sets(draw, pieces: int) -> RSet:
    """A relatively open subset of the ambient: up to `pieces` open
    intervals with sixteenth endpoints, cut to [0, 1]."""
    ivs = []
    for _ in range(draw(st.integers(min_value=1, max_value=pieces))):
        x, y = sorted(draw(st.lists(SIXTEENTHS, min_size=2, max_size=2, unique=True)))
        ivs.append(Interval(x, y, True, True))
    return normalize(ivs).intersect(BOX)


@st.composite
def covers_and_families(draw):
    """A cover of [0, 1] by members of several components, and a family
    of shrunk cover components, whole components, pieces touching an
    earlier piece at an endpoint, and free open sets."""
    members = [m for m in draw(st.lists(open_sets(3), min_size=1, max_size=4)) if not m.is_empty]
    missing = BOX.subtract(union_all(members))
    if not missing.is_empty:
        widened = (Interval(c.lo - F(1, 16), c.hi + F(1, 16), True, True) for c in missing.components)
        members.append(normalize(widened).intersect(BOX))
    cover = Cover(tuple(members))
    comps = [c for m in members for c in m.components]
    family, pieces = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        parts = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            kind = draw(st.sampled_from(("shrunk", "whole", "touching", "free")))
            if kind == "free" or (kind == "touching" and not pieces):
                parts.extend(draw(open_sets(1)).components)
                continue
            if kind == "touching":
                e = draw(st.sampled_from([e for p in pieces for e in (p.lo, p.hi)]))
                d = F(1, draw(st.sampled_from((8, 16, 32))))
                lo, hi = draw(st.sampled_from(((e - d, e), (e, e + d), (e - d, e + d))))
                parts.extend(RSet((Interval(lo, hi, True, True),)).intersect(BOX).components)
                continue
            c = draw(st.sampled_from(comps))
            if kind == "shrunk":
                q = c.length / draw(st.sampled_from((3, 4, 8)))
                c = Interval(c.lo + q, c.hi - q, True, True)
            parts.append(c)
        member = normalize(parts)
        if not member.is_empty:
            family.append(member)
            pieces.extend(member.components)
    return cover, family


@settings(max_examples=300, deadline=None)
@given(covers_and_families(), st.sampled_from(("discrete", "disjoint")))
def test_referee_step_matches_definition_level_oracles(case, ruleset):
    cover, family = case
    refines = [
        any(all(any(_within(c, d) for d in m.components) for c in f.components) for m in cover.members)
        for f in family
    ]
    meet, holds = (_closures_meet, _in_closure) if ruleset == "discrete" else (
        _sets_meet, lambda m, x: any(_holds(c, x) for c in m.components)
    )
    clash = any(meet(f, g) for i, f in enumerate(family) for g in family[i + 1:])
    try:
        checked = referee_step(ruleset, cover, family, AMBIENT)
    except IllegalMove as exc:
        if exc.kind == "IllegalRefinement":
            bad = exc.detail["member"]
            assert all(refines[:bad]) and not refines[bad]
            assert exc.detail["set"] == str(family[bad])
            return
        assert exc.kind == ("NotDiscrete" if ruleset == "discrete" else "NotDisjoint")
        assert all(refines) and clash
        i, j = exc.detail["members"]
        x = F(exc.detail["shared_point"])
        assert i != j and holds(family[i], x) and holds(family[j], x)
        return
    assert all(refines) and not clash
    assert list(checked.members) == family


def test_validate_cover_requires_coverage_and_openness():
    with pytest.raises(IllegalMove) as err:
        validate_cover(cover_of("(0,1)"), TargetSpec.full(), AMBIENT)
    assert err.value.kind == "IncompleteCover"
    with pytest.raises(IllegalMove) as err:
        validate_cover(cover_of("[1/4,3/4]", "[0,1]"), TargetSpec.full(), AMBIENT)
    assert err.value.kind == "NotOpen"
    # an empty member is refused by the cover itself
    with pytest.raises(CoverError, match="member 1 is empty"):
        Cover((rs("[0,1]"), RSet.empty()))
    ok = validate_cover(cover_of("[0,1/2);(1/4,1]"), TargetSpec.full(), AMBIENT)
    assert isinstance(ok, Cover)


def test_validate_cover_checks_a_proposed_cover_object():
    not_open = cover_of("[1/4,3/4]", "[0,1]")
    with pytest.raises(IllegalMove) as err:
        validate_cover(not_open, TargetSpec.full(), AMBIENT)
    assert err.value.kind == "NotOpen"
    proposed = cover_of("[0,1/2);(1/4,1]")
    assert validate_cover(proposed, TargetSpec.full(), AMBIENT) is proposed
    # a proposed cover comes back as proposed on any target it covers
    assert validate_cover(proposed, TargetSpec.gdelta("rationals"), AMBIENT) is proposed


def test_validate_cover_for_countable_and_gdelta_targets():
    # a cover of the rationals by rational-endpoint sets must cover [0,1]
    with pytest.raises(IllegalMove):
        validate_cover(
            cover_of("[0,1/2)", "(1/2,1]"), TargetSpec.countable("rationals"), AMBIENT
        )
    # the same members do cover the irrationals and the triadic points
    validate_cover(
        cover_of("[0,1/2)", "(1/2,1]"), TargetSpec.gdelta("rationals"), AMBIENT
    )
    validate_cover(
        cover_of("[0,1/2)", "(1/2,1]"), TargetSpec.countable("triadic"), AMBIENT
    )
    # but removing a triadic point is caught
    with pytest.raises(IllegalMove):
        validate_cover(
            cover_of("[0,1/3)", "(1/3,1]"), TargetSpec.countable("triadic"), AMBIENT
        )


def test_validate_cover_for_cantor_target():
    validate_cover(
        cover_of("(-1/8,2/5)", "(3/5,9/8)"), TargetSpec.cantor(), AMBIENT
    )
    with pytest.raises(IllegalMove) as err:
        validate_cover(
            cover_of("(-1/8,1/4)", "(13/50,9/8)"), TargetSpec.cantor(), AMBIENT
        )
    assert err.value.detail["uncovered_point"] == "1/4"


@pytest.mark.parametrize(
    "target",
    [TargetSpec.full(), TargetSpec.cantor(), TargetSpec.countable("triadic")],
    ids=lambda t: t.describe(),
)
@pytest.mark.parametrize(
    "game_ambient,rejection",
    [
        (closed(0, 1), "NotOpen"),  # larger
        (closed(F(1, 4), 1), "NotOpen"),  # larger, one end shared
        (closed(F(1, 3), F(1, 2)), None),  # strict subinterval
    ],
    ids=["larger", "larger-one-end", "subinterval"],
)
def test_grid_cover_of_another_ambient_gets_the_generic_checks(
    target, game_ambient, rejection
):
    """A grid cover proposed on an ambient it was not built for is judged
    exactly as a generic `Cover` of its members."""
    grid = ball_cover(3, closed(F(1, 4), F(3, 4)))
    outcomes = []
    for proposed in (grid, Cover(grid.members)):
        try:
            cover = validate_cover(proposed, target, game_ambient)
            outcomes.append((None, cover.members))
        except IllegalMove as exc:
            outcomes.append((exc.kind, exc.detail))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == rejection


def test_grid_validation_work_does_not_grow_with_the_grid(monkeypatch):
    """Components merged by `normalize`/`union_all` where `engine` and
    `covers` call them, to validate a grid cover and find its window
    supremum: the same for the index-4 and the index-13 grid."""
    merged = []

    def counted(fn, size):
        def wrapper(items):
            items = list(items)
            merged.append(size(items))
            return fn(items)

        return wrapper

    in_rsets = counted(sets.union_all, lambda rsets: sum(len(r.components) for r in rsets))
    monkeypatch.setattr(engine, "union_all", in_rsets)
    monkeypatch.setattr(covers, "union_all", in_rsets)
    monkeypatch.setattr(covers, "normalize", counted(sets.normalize, len))

    def work(n: int) -> int:
        merged.clear()
        amb = closed(F(1, 5), 2)
        validate_cover(ball_cover(n, amb), TargetSpec.full(), amb)
        window_supremum(ball_cover(n, amb), amb)
        return sum(merged)

    assert work(4) == work(13)


def _power_of_three(n: int) -> bool:
    while n % 3 == 0:
        n //= 3
    return n == 1


# unit-interval covers, each missing some piece of [0, 1]
GAPPY_COVERS = [
    ("[0,1/4)", "(1/2,1]"),
    ("[0,1/3)", "(1/3,1]"),
    ("[0,1/2)", "(1/2,1]"),
    ("(1/10,1]",),
    ("[0,3/10)", "(7/10,1]"),
    ("[0,1/5)", "(1/5,2/5)", "(2/5,1]"),
    ("[0,1/2)", "(1/2,11/20)", "(3/5,1]"),
    # a gap of width 10^-30: its target point is found in closed form
    ("[0,1/2)", f"({F(1, 2) + F(1, 10**30)},1]"),
]


@pytest.mark.parametrize("ambient", [AMBIENT, closed(F(1, 3), 2)])
@pytest.mark.parametrize(
    "target",
    [
        TargetSpec.countable("rationals"),
        TargetSpec.countable("triadic"),
        TargetSpec.cantor(),
        TargetSpec.gdelta("rationals"),
        TargetSpec.gdelta("triadic"),
    ],
    ids=lambda t: t.describe(),
)
def test_incomplete_cover_witness_revalidates(target, ambient):
    """Each uncovered witness lies in the ambient, outside the union,
    and in the target."""
    lo, length = ambient.lo, ambient.length

    def unit(x):
        return (x - lo) / length

    def is_target_point(x):
        u = unit(x)
        if target.kind == "cantor":
            return CantorSpec(ambient).contains(x)
        triadic = _power_of_three(u.denominator)
        in_enum = triadic if target.param == "triadic" else True
        return in_enum if target.kind == "countable" else not in_enum

    rejected = 0
    for texts in GAPPY_COVERS:
        members = [
            RSet.interval(
                lo + m.components[0].lo * length,
                lo + m.components[0].hi * length,
                m.components[0].lo_open,
                m.components[0].hi_open,
            )
            for m in map(rs, texts)
        ]
        union = union_all(members)
        try:
            validate_cover(Cover(tuple(members)), target, ambient)
            continue
        except IllegalMove as exc:
            assert exc.kind == "IncompleteCover"
            detail = exc.detail
        rejected += 1
        if "uncovered_point" in detail:
            x = F(detail["uncovered_point"])
            assert ambient.contains(x) and not union.contains(x)
            assert is_target_point(x)
        else:  # an interval of a G-delta target's complement holds irrationals
            assert target.kind == "gdelta"
            piece = rs(detail["uncovered"])
            assert piece.measure() > 0
            assert piece.is_subset(RSet((ambient,)))
            assert piece.intersect(union).is_empty
    assert rejected >= 2


# --- full matches ------------------------------------------------------------


def test_omega_plus_one_halving_win_vs_grid():
    t = play(config("discrete", "w+1", "grid", "halving-omega-plus-1", budget=8))
    assert t.verdict.outcome == "two-wins-covered"
    union = union_all([m for r in t.records for m in r.family.members])
    assert union == rs("[0,1]")
    # residual measure halves exactly in the main innings
    covered = RSet.empty()
    for n, rec in enumerate(r for r in t.records if str(r.label.ordinal) != "w"):
        covered = covered.union(union_all(list(rec.family.members)))
        assert rs("[0,1]").subtract(covered).measure() == F(1, 2 ** (n + 1))


@pytest.mark.parametrize("one", ["grid", "avoid-fixed"])
@pytest.mark.parametrize(
    "target", ["gdelta", "cantor", "countable:triadic", "closed:[0,1/4];[1/2,1]"]
)
def test_omega_plus_one_halving_wins_on_non_full_targets(target, one):
    """The limit move fattens the residual cells of the whole ambient, so
    it needs the limit cover's Lebesgue number on the ambient, not on the
    part of the target the cover was validated against."""
    t = play(
        config("discrete", "w+1", one, "halving-omega-plus-1", TargetSpec.parse(target), budget=6)
    )
    assert t.verdict.outcome == "two-wins-covered"
    assert union_all([m for r in t.records for m in r.family.members]) == rs("[0,1]")


@pytest.mark.parametrize("target", ["full", "cantor"])
def test_grid_limit_match_builds_no_grid_member(target, monkeypatch):
    """The criterion-02 match is played, refereed and written out from
    closed-form grid answers: no grid builds its member tuple."""
    refuse_grid_members(monkeypatch)
    t = play(
        config(
            "discrete", "w+1", "grid", "halving-omega-plus-1",
            TargetSpec.parse(target), budget=12,
        )
    )
    text = "\n".join(t.jsonl_lines()) + "\n"
    assert t.verdict.outcome == "two-wins-covered"
    assert hashlib.sha256(text.encode()).hexdigest() == CRITERION_02_SHA256
    assert replay_families_under_ruleset(t, "disjoint") == ["accepted"] * len(t.records)


def test_grid_validated_on_part_of_its_ambient_stays_a_grid(monkeypatch):
    refuse_grid_members(monkeypatch)
    grid = ball_cover(3)
    for target in ("closed:[0,1/4];[1/2,1]", "cantor", "full"):
        assert validate_cover(grid, TargetSpec.parse(target), AMBIENT) is grid
    assert window_supremum(grid, AMBIENT) == grid.step
    assert grid == covers.GridCover(3, AMBIENT)
    assert hash(grid) == hash(covers.GridCover(3, AMBIENT))
    assert grid != covers.GridCover(4, AMBIENT)
    assert grid != covers.GridCover(3, closed(0, F(1, 2)))


def test_omega_truncated_main_compact_certifies():
    t = play(config("discrete", "w", "main-compact", "halving", budget=25))
    assert t.verdict.outcome == "one-wins-certified"
    cert = t.verdict.certificate
    assert cert["kind"] == "nested-closure"
    assert cert["innings_checked"] == 25
    uncovered = rs(cert["uncovered_open"])
    union = union_all([m for r in t.records for m in r.family.members])
    assert uncovered.intersect(union).is_empty and not uncovered.is_empty


def test_disjoint_two_inning_win():
    t = play(config("disjoint", "2", "grid", "chain-puncture"))
    assert t.verdict.outcome == "two-wins-covered"
    assert len(t.records) == 2
    union = union_all([m for r in t.records for m in r.family.members])
    assert union == rs("[0,1]")


def test_discrete_rules_forfeit_chain_puncture():
    t = play(config("discrete", "2", "grid", "chain-puncture"))
    assert t.verdict.outcome == "one-wins-forfeit"
    assert t.verdict.certificate["rejection"] == "NotDiscrete"
    assert t.exit_code == 2


@pytest.mark.parametrize(
    "ruleset,length,outcome",
    [
        ("disjoint", "2", "two-wins-covered"),
        ("discrete", "2", "one-wins-forfeit"),
        ("disjoint", "w", "two-wins-covered"),
    ],
)
def test_chain_puncture_against_grid_builds_no_grid_member(ruleset, length, outcome, monkeypatch):
    """The chain is read from the grid's closed-form answers, member by
    member, without its member tuple."""
    refuse_grid_members(monkeypatch)
    t = play(config(ruleset, length, "grid", "chain-puncture"))
    assert t.verdict.outcome == outcome


@pytest.mark.parametrize(
    "target", ["cantor", "countable:triadic", "gdelta:rationals", "gdelta:triadic"]
)
def test_chain_puncture_plays_point_set_targets(target):
    """Raw members validated on these targets carry an empty target; the
    chain is built on the ambient, whatever target the cover carries."""
    won = play(config("disjoint", "2", "grid", "chain-puncture", TargetSpec.parse(target)))
    assert won.verdict.outcome == "two-wins-covered"
    lost = play(config("discrete", "2", "grid", "chain-puncture", TargetSpec.parse(target)))
    assert lost.verdict.outcome == "one-wins-forfeit"
    assert lost.verdict.certificate["rejection"] == "NotDiscrete"


def test_finite_game_uncovered_is_one_win():
    t = play(config("discrete", "3", "grid", "halving"))
    assert t.verdict.outcome == "one-wins-uncovered"
    assert F(t.verdict.certificate["uncovered_measure"]) == F(1, 8)


def test_truncated_omega_without_certificate_stays_truncated():
    t = play(config("discrete", "w", "grid", "halving", budget=6))
    assert t.verdict.outcome == "truncated"
    assert t.verdict.certificate["kind"] == "partial-coverage"
    assert F(t.verdict.certificate["uncovered_measure"]) == F(1, 64)


@pytest.mark.parametrize("length", ["3", "w"])
def test_closed_target_certificate_measures_the_target(length):
    """A closed target's uncovered part and measures are taken on the
    target, not on the ambient around it."""
    target = TargetSpec.parse("closed:[0,1/4];[1/2,1]")
    t = play(config("disjoint", length, "grid", "halving", target, budget=4))
    cert = t.verdict.certificate
    union = union_all([m for r in t.records for m in r.family.members])
    missed = target.rset.subtract(union)
    assert F(cert["uncovered_measure"]) == missed.measure() > 0
    if length == "3":
        assert t.verdict.outcome == "one-wins-uncovered"
        assert rs(cert["uncovered"]) == missed
        assert rs(cert["uncovered"]).is_subset(target.rset)
    else:
        assert t.verdict.outcome == "truncated"
        assert F(cert["covered_measure"]) == union.intersect(target.rset).measure()


def test_main_compact_cannot_play_limit_innings():
    with pytest.raises(ConfigError):
        play(config("discrete", "w+1", "main-compact", "halving-omega-plus-1"))


def test_unknown_strategy_is_config_error():
    with pytest.raises(ConfigError):
        play(config("discrete", "w", "grid", "does-not-exist"))
    with pytest.raises(ConfigError):
        play(config("discrete", "w", "grid", "bm-first-category:rationals"))


def test_countable_target_covered_on_materialized_points():
    t = play(
        config(
            "discrete", "w", "grid", "countable", TargetSpec.countable("rationals"), 10
        )
    )
    assert t.verdict.outcome == "two-wins-covered"
    union = union_all([m for r in t.records for m in r.family.members])
    from intervalgames.sequences import enumeration

    enum = enumeration("rationals")
    for k in range(10):
        assert union.contains(enum.point(k))


def test_gdelta_target_certified_for_main_gdelta():
    t = play(
        config(
            "discrete", "w", "main-gdelta", "halving", TargetSpec.gdelta("rationals"), 25
        )
    )
    assert t.verdict.outcome == "one-wins-certified"
    cert = t.verdict.certificate
    assert len(cert["avoided_points"]) == 25
    uncovered = rs(cert["uncovered_open"])
    for q in cert["avoided_points"]:
        assert not uncovered.contains(F(q))


def test_cantor_target_one_shot_sweeps():
    for one_id in ("grid", "avoid-fixed", "main-compact"):
        t = play(
            config("discrete", "1", one_id, "cantor-oneshot", TargetSpec.cantor())
        )
        assert t.verdict.outcome == "two-wins-covered", one_id


def test_discrete_win_replays_as_disjoint_win():
    t = play(config("discrete", "w+1", "grid", "halving-omega-plus-1", budget=6))
    assert t.verdict.outcome == "two-wins-covered"
    outcomes = replay_families_under_ruleset(t, "disjoint")
    assert all(o == "accepted" for o in outcomes)


def test_length_monotonicity_for_two_wins_spot_check():
    # a TWO win at length 2 (disjoint) persists at length 3
    short = play(config("disjoint", "2", "grid", "chain-puncture"))
    longer = play(config("disjoint", "3", "grid", "chain-puncture"))
    assert short.verdict.outcome == "two-wins-covered"
    assert longer.verdict.outcome == "two-wins-covered"


def test_two_limit_blocks_run_and_label_correctly():
    t = play(config("discrete", "w*2", "grid", "halving-omega-plus-1", budget=4))
    assert t.verdict.outcome == "two-wins-covered"
    labels = [str(r.label.ordinal) for r in t.records]
    # extensions 4, 5 materialize before the limit inning w; block 1 follows
    assert labels[:4] == ["0", "1", "2", "3"]
    assert "w" in labels and "w+1" in labels
    assert labels.index("w") > 3


def test_tail_inning_after_second_block():
    t = play(config("discrete", "w*2+1", "grid", "halving-omega-plus-1", budget=3))
    assert t.verdict.outcome == "two-wins-covered"
    assert str(t.records[-1].label.ordinal) == "w*2"


def test_two_win_persists_at_longer_length():
    # the w+1 winner keeps winning at w+2: extra innings cannot uncover
    t = play(config("discrete", "w+2", "grid", "halving-omega-plus-1", budget=6))
    assert t.verdict.outcome == "two-wins-covered"


def test_extension_cap_trips_protocol_error():
    from intervalgames.errors import ProtocolError

    cfg = GameConfig(
        ruleset="discrete",
        length=parse_ordinal("w+1"),
        ambient=AMBIENT,
        target=TargetSpec.full(),
        one="grid",
        two="halving-omega-plus-1",
        schedule=InningSchedule(main_budget=1, extension_cap=0),
    )
    with pytest.raises(ProtocolError):
        play(cfg)


# --- transcripts -------------------------------------------------------------


def test_transcript_schema_and_determinism(tmp_path):
    cfg = config("discrete", "w+1", "grid", "halving-omega-plus-1", budget=4)
    lines1 = play(cfg).jsonl_lines()
    lines2 = play(cfg).jsonl_lines()
    assert lines1 == lines2
    records = [json.loads(line) for line in lines1]
    for rec in records[:-1]:
        assert set(rec) == {"inning", "one", "two", "checks"}
        assert set(rec["checks"]) == {"refines", "ruleset", "min_gap"}
        assert rec["checks"]["ruleset"] == "discrete"
    assert records[-1]["verdict"] == "two-wins-covered"
    path = tmp_path / "t.jsonl"
    play(cfg).write_jsonl(path)
    assert path.read_text().splitlines() == lines1


def test_transcript_limit_inning_label_is_w():
    t = play(config("discrete", "w+1", "avoid-fixed", "halving-omega-plus-1", budget=4))
    labels = [str(r.label.ordinal) for r in t.records]
    assert labels[-1] == "w"
    assert labels == sorted(labels, key=lambda s: (s == "w", len(s), s))


# --- subspace transfer ----------------------------------------------------------


def test_lift_to_interval_subspace():
    cfg = config("discrete", "w+1", "grid", "halving-omega-plus-1", budget=6)
    lifted = lift_to_closed_subspace(cfg, rs("[1/4,1/2]"))
    assert lifted.ambient == closed("1/4", "1/2")
    assert lifted.target.kind == "full"
    big = play(cfg)
    small = play(lifted)
    assert big.verdict.outcome == "two-wins-covered"
    assert small.verdict.outcome == "two-wins-covered"


def test_lift_to_multicomponent_subspace():
    cfg = config("discrete", "w", "grid", "halving")
    sub = rs("[0,1/4];[1/2,3/4]")
    lifted = lift_to_closed_subspace(cfg, sub)
    assert lifted.target.kind == "closed" and lifted.target.rset == sub
    with pytest.raises(ConfigError):
        lift_to_closed_subspace(cfg, RSet.empty())


def test_one_win_on_subspace_spot_check():
    # the certified ONE win on the subspace mirrors the ambient one
    cfg = config("discrete", "w", "main-compact", "halving", budget=10)
    lifted = lift_to_closed_subspace(cfg, rs("[1/4,1/2]"))
    assert play(lifted).verdict.outcome == "one-wins-certified"
    assert play(cfg).verdict.outcome == "one-wins-certified"


# --- bracket report ----------------------------------------------------------


def test_length_bracket_report_example():
    report = length_bracket_report(
        AMBIENT,
        TargetSpec.full(),
        one_ids=("grid", "avoid-fixed", "main-compact"),
        two_ids=("empty", "first-member", "greedy", "halving", "countable",
                 "halving-omega-plus-1"),
        lengths=[parse_ordinal("1"), parse_ordinal("w"), parse_ordinal("w+1")],
        schedule=InningSchedule(main_budget=6),
    )
    assert report["bracket"]["smallest_two_sweep"] == "w+1"
    assert report["bracket"]["largest_one_sweep"] == "w"
    assert "experimental" in report["note"]
    cells = report["cells"]
    # limit innings exclude the adaptive strategy at w+1
    assert all(
        v.startswith("unplayable") for v in cells["w+1"]["main-compact"].values()
    )
    assert cells["w"]["main-compact"]["halving"] == "one-wins-certified"


def test_cantor_target_sweeps_at_length_one():
    report = length_bracket_report(
        AMBIENT,
        TargetSpec.cantor(),
        one_ids=("grid", "avoid-fixed", "main-compact"),
        two_ids=("cantor-oneshot",),
        lengths=[parse_ordinal("1")],
        schedule=InningSchedule(main_budget=4),
    )
    assert report["bracket"]["smallest_two_sweep"] == "1"


def ref_uncovered(target: TargetSpec, union: RSet, ambient: Interval, materialized=None):
    """The witness of a missed target part, built eagerly for every target
    kind: the reference for `TargetSpec.uncovered`'s decision and for the
    witnesses it builds only when asked."""
    box = RSet((ambient.closure(),))
    if target.kind == "cantor":
        pt = CantorSpec(ambient.closure()).uncovered_point(union, box)
        return None if pt is None else {"uncovered_point": str(pt)}
    if target.kind in ("full", "closed"):
        missing = target.measured_set(ambient).subtract(union)
        return None if missing.is_empty else {"uncovered": str(missing)}
    if materialized is not None:
        points = target.enumerated_points(ambient, materialized)
        if target.kind == "countable":
            q = next((q for q in points if not union.contains(q)), None)
            return None if q is None else {"uncovered_point": str(q)}
        missing = box.subtract(union).subtract(RSet.points(points))
        return None if missing.is_empty else {"uncovered": str(missing)}
    points = EnumeratedPoints.named(target.param, ambient)
    for comp in box.subtract(union).components:
        if target.kind == "countable":
            q = points.point_within(comp)
            if q is not None:
                return {"uncovered_point": str(q)}
        elif not comp.is_point:
            return {"uncovered": str(comp), "note": "interval misses irrationals"}
        elif points.point_within(comp) is None:
            return {"uncovered_point": str(comp.lo)}
    return None


def random_unions(rng: random.Random, ambient: Interval, target: TargetSpec) -> list[RSet]:
    """Unions that miss the target and unions that cover it: random pieces
    of the ambient, the whole ambient, and the ambient without its first
    enumerated points, each with a random piece added or taken out."""
    a, length = ambient.lo, ambient.length

    def piece() -> Interval:
        lo, hi = sorted(a + F(rng.randint(0, 24), 24) * length for _ in range(2))
        if lo == hi:
            return Interval(lo, lo, False, False)
        return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)

    box = RSet((ambient,))
    holes = RSet.empty()
    if target.param:
        holes = RSet.points(target.enumerated_points(ambient, rng.randint(0, 4)))
    bases = [normalize(piece() for _ in range(rng.randint(1, 4))), box, box.subtract(holes)]
    out = []
    for base in bases:
        extra = normalize([piece()])
        out += [base, base.union(extra), base.subtract(extra)]
    return out


def test_gdelta_coverage_walks_the_gaps_like_the_subtraction():
    """A G-delta target's coverage, materialized at n innings, against
    the eager subtraction of `ref_uncovered`, over seeded unions that are
    the ambient without up to n + 2 of its first enumerated points, and
    without one more point or a short open interval: the same decision,
    and text for text the same witness."""
    rng = random.Random(2125)
    seen = {"covered": 0, "missed": 0}
    for enum_id in ("rationals", "triadic"):
        target = TargetSpec.gdelta(enum_id)
        for ambient in (AMBIENT, closed(-1, 2), closed(F(1, 5), F(13, 7))):
            box = RSet((ambient,))
            for _ in range(16):
                n = rng.randint(0, 25)
                first = target.enumerated_points(ambient, n + 2)
                deleted = rng.sample(first, rng.randint(0, len(first)))
                union = box.subtract(RSet.points(deleted))
                x = ambient.lo + ambient.length * F(rng.randint(0, 64), 64)
                for extra in (RSet.empty(), RSet.points([x]), RSet.interval(x, x + F(1, 97))):
                    cut = union.subtract(extra)
                    for materialized in (n, None):
                        ref = ref_uncovered(target, cut, ambient, materialized)
                        missed = target.uncovered(cut, ambient, materialized)
                        assert (missed is None) == (ref is None), (cut, materialized)
                        if ref is not None:
                            assert missed() == ref
                        seen["covered" if ref is None else "missed"] += 1
    assert min(seen.values()) > 100, seen


def test_coverage_decision_matches_the_eager_witness():
    """For every target kind, over seeded random unions: `uncovered` and
    the adjudicator call a target covered exactly when the eager
    reference finds no witness, and a missed target's witness, from
    `uncovered` and in `validate_cover`'s `IncompleteCover`, is the
    reference's, text for text."""
    rng = random.Random(1919)
    targets = [
        TargetSpec.full(),
        TargetSpec.parse("closed:[0,1/4];[1/2,1]"),
        TargetSpec.cantor(),
        TargetSpec.countable(),
        TargetSpec.gdelta(),
    ]
    seen: dict[tuple[str, bool, bool], int] = {}
    for _ in range(12):
        for target in targets:
            for ambient in (AMBIENT, closed(-1, 2)):
                cfg = GameConfig("discrete", parse_ordinal("w"), ambient, target, "one", "two")
                for union in random_unions(rng, ambient, target):
                    for materialized in (None, 1, 2, 4):
                        ref = ref_uncovered(target, union, ambient, materialized)
                        missed = target.uncovered(union, ambient, materialized)
                        assert (missed is None) == (ref is None), (target, union, materialized)
                        key = (target.kind, materialized is None, ref is None)
                        seen[key] = seen.get(key, 0) + 1
                        if ref is not None:
                            assert missed() == ref
                        if materialized is None:
                            continue
                        # `_adjudicate` reads only the records' families
                        members = tuple(RSet((c,)) for c in union.components)
                        families = [members] + [()] * (materialized - 1)
                        records = [
                            InningRecord(None, None, CheckedFamily(f, "discrete", None))
                            for f in families
                        ]
                        verdict = engine._adjudicate(cfg, None, records, complete=True)
                        assert (verdict.outcome == "two-wins-covered") == (ref is None)
                    opened = union.interior()
                    if opened.is_empty:
                        continue
                    ref = ref_uncovered(target, opened, ambient)
                    try:
                        validate_cover(Cover((opened,)), target, ambient)
                        assert ref is None
                    except IllegalMove as exc:
                        assert (exc.kind, exc.detail) == ("IncompleteCover", ref)
    assert len(seen) == 20 and min(seen.values()) > 10, seen


def test_certified_chain_and_adjudication_read_only_what_decides_them(monkeypatch):
    """A machine-independent cost gate on the seed-1 benchmark match
    `main-compact` vs `halving` (ambient [1/5,2], discrete, length w,
    budget 8): the coverage decisions subtract and format nothing, ONE and
    the chain's recheck close only the family components near O_n, and
    `Cover.holding` builds no interval."""
    inside = {"adjudicate": 0, "chain": 0, "validate": 0, "observe": 0, "holding": 0}
    counts: dict[tuple[str, str], int] = {}

    def scoped(scope, fn):
        def wrapped(*args):
            inside[scope] += 1
            try:
                return fn(*args)
            finally:
                inside[scope] -= 1

        return wrapped

    def counted(name, fn):
        def wrapped(*args):
            for scope, depth in inside.items():
                if depth:
                    counts[scope, name] = counts.get((scope, name), 0) + 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(engine, "_adjudicate", scoped("adjudicate", engine._adjudicate))
    monkeypatch.setattr(
        engine, "_verify_certified_chain", scoped("chain", engine._verify_certified_chain)
    )
    monkeypatch.setattr(engine, "validate_cover", scoped("validate", engine.validate_cover))
    monkeypatch.setattr(OneMain, "observe", scoped("observe", OneMain.observe))
    monkeypatch.setattr(Cover, "holding", scoped("holding", Cover.holding))
    monkeypatch.setattr(RSet, "subtract", counted("subtract", RSet.subtract))
    monkeypatch.setattr(RSet, "__str__", counted("str", RSet.__str__))
    monkeypatch.setattr(Interval, "closure", counted("closure", Interval.closure))
    monkeypatch.setattr(Interval, "__post_init__", counted("built", Interval.__post_init__))
    t = play(
        GameConfig(
            "discrete", parse_ordinal("w"), closed("1/5", 2), TargetSpec.full(),
            "main-compact", "halving", InningSchedule(main_budget=8),
        )
    )
    assert t.verdict.outcome == "one-wins-certified"
    innings = len(t.records)
    assert innings == 8

    def n(scope: str, name: str) -> int:
        return counts.get((scope, name), 0)

    # the chain's own subtractions and certificate texts nest in `_adjudicate`
    assert n("adjudicate", "subtract") == n("chain", "subtract")
    assert n("adjudicate", "str") == n("chain", "str")
    assert n("validate", "subtract") == 0
    assert n("observe", "closure") <= 4 * innings
    assert n("chain", "closure") <= 4 * innings
    assert n("holding", "built") == 0
