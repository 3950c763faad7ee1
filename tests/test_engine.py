"""Referee soundness, match driving, adjudication, transfers, reports."""

import json
from fractions import Fraction as F

import pytest

from intervalgames.cantor import CantorSpec
from intervalgames import covers, engine, sets
from intervalgames.covers import Cover, ball_cover, window_supremum
from intervalgames.engine import (
    ConfigError,
    GameConfig,
    IllegalMove,
    TargetSpec,
    length_bracket_report,
    lift_to_closed_subspace,
    play,
    referee_step,
    replay_families_under_ruleset,
    validate_cover,
)
from intervalgames.ordinals import InningSchedule, parse_ordinal
from intervalgames.sets import RSet, closed, parse_rset, union_all
from intervalgames.two_strategies import chain_puncture_refinement

AMBIENT = closed(0, 1)


def rs(text: str) -> RSet:
    return parse_rset(text)


def cover_of(*member_texts: str) -> Cover:
    return Cover(rs("[0,1]"), tuple(rs(t) for t in member_texts))


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


# --- referee -----------------------------------------------------------------


def test_referee_rejects_puncture_family_under_discrete_rules():
    family, _ = chain_puncture_refinement(EXAMPLE)
    with pytest.raises(IllegalMove) as err:
        referee_step("discrete", EXAMPLE, family, AMBIENT)
    assert err.value.kind == "NotDiscrete"
    assert err.value.detail["shared_point"] == "3/8"


def test_referee_accepts_puncture_family_under_disjoint_rules():
    family, _ = chain_puncture_refinement(EXAMPLE)
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
    family, punctures = chain_puncture_refinement(EXAMPLE)
    with pytest.raises(IllegalMove) as err:
        referee_step("discrete", EXAMPLE, family, AMBIENT)
    i, j = err.value.detail["members"]
    shared = F(err.value.detail["shared_point"])
    assert family[i].closure().contains(shared)
    assert family[j].closure().contains(shared)


def test_validate_cover_requires_coverage_and_openness():
    with pytest.raises(IllegalMove) as err:
        validate_cover([rs("(0,1)")], TargetSpec.full(), AMBIENT)
    assert err.value.kind == "IncompleteCover"
    with pytest.raises(IllegalMove) as err:
        validate_cover([rs("[1/4,3/4]"), rs("[0,1]")], TargetSpec.full(), AMBIENT)
    assert err.value.kind == "NotOpen"
    ok = validate_cover([rs("[0,1/2);(1/4,1]")], TargetSpec.full(), AMBIENT)
    assert isinstance(ok, Cover)


def test_validate_cover_checks_a_proposed_cover_object():
    not_open = Cover(rs("[0,1]"), (rs("[1/4,3/4]"), rs("[0,1]")))
    with pytest.raises(IllegalMove) as err:
        validate_cover(not_open, TargetSpec.full(), AMBIENT)
    assert err.value.kind == "NotOpen"
    proposed = Cover(rs("[0,1]"), (rs("[0,1/2);(1/4,1]"),))
    assert validate_cover(proposed, TargetSpec.full(), AMBIENT) is proposed
    # a proposed cover with another target is rebuilt on the referee's target
    rebuilt = validate_cover(proposed, TargetSpec.gdelta("rationals"), AMBIENT)
    assert rebuilt.target == RSet.empty()
    assert rebuilt.members == proposed.members


def test_validate_cover_for_countable_and_gdelta_targets():
    # a cover of the rationals by rational-endpoint sets must cover [0,1]
    with pytest.raises(IllegalMove):
        validate_cover(
            [rs("[0,1/2)"), rs("(1/2,1]")], TargetSpec.countable("rationals"), AMBIENT
        )
    # the same members do cover the irrationals and the triadic points
    validate_cover(
        [rs("[0,1/2)"), rs("(1/2,1]")], TargetSpec.gdelta("rationals"), AMBIENT
    )
    validate_cover(
        [rs("[0,1/2)"), rs("(1/2,1]")], TargetSpec.countable("triadic"), AMBIENT
    )
    # but removing a triadic point is caught
    with pytest.raises(IllegalMove):
        validate_cover(
            [rs("[0,1/3)"), rs("(1/3,1]")], TargetSpec.countable("triadic"), AMBIENT
        )


def test_validate_cover_for_cantor_target():
    validate_cover(
        [rs("(-1/8,2/5)"), rs("(3/5,9/8)")], TargetSpec.cantor(), AMBIENT
    )
    with pytest.raises(IllegalMove) as err:
        validate_cover(
            [rs("(-1/8,1/4)"), rs("(13/50,9/8)")], TargetSpec.cantor(), AMBIENT
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
    exactly as its members passed as a raw list."""
    grid = ball_cover(3, closed(F(1, 4), F(3, 4)))
    outcomes = []
    for proposed in (grid, list(grid.members)):
        try:
            cover = validate_cover(proposed, target, game_ambient)
            outcomes.append((None, cover.target, cover.members))
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
        window_supremum(ball_cover(n, amb))
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
            validate_cover(members, target, ambient)
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
    "target", ["cantor", "countable:triadic", "gdelta:rationals", "gdelta:triadic"]
)
def test_chain_puncture_plays_point_set_targets(target):
    """The validated cover's own target is empty for these targets; the
    chain is built on the ambient instead."""
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
