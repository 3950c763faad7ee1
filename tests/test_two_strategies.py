"""Covering-player constructions: halving, one-shot, punctures, avoidance."""

import random
from fractions import Fraction as F

import pytest

from intervalgames.cantor import CantorSpec
from intervalgames.covers import Cover, ball_cover, window_supremum
from intervalgames.sequences import EnumeratedPoints
from intervalgames.sets import (
    FamilyNotDiscrete,
    RSet,
    closed,
    is_discrete,
    is_disjoint,
    parse_rset,
    refines,
    union_all,
)
from intervalgames.two_strategies import (
    FirstCategoryAvoider,
    GreedyTwo,
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


def cover_of(target_text: str, *member_texts: str) -> Cover:
    return Cover(rs(target_text), tuple(rs(t) for t in member_texts))


EXAMPLE = cover_of("[0,1]", "(-1/8,1/2)", "(1/4,9/8)")
TRIVIAL = cover_of("[0,1]", "(-1,2)")


# --- halving -----------------------------------------------------------------


def test_smallest_even_grid():
    assert smallest_even_grid(F(1), F(1, 4)) == 6
    assert smallest_even_grid(F(1), F(1)) == 2
    assert smallest_even_grid(F(1), F(1, 8)) == 10


def test_halving_worked_example():
    # window supremum 1/4 gives a 6-cell grid
    fam, residual = halving_refinement(EXAMPLE)
    assert [str(m) for m in fam.members] == ["(1/6,1/3)", "(1/2,2/3)", "(5/6,1]"]
    assert [str(r) for r in residual] == ["[0,1/6]", "[1/3,1/2]", "[2/3,5/6]"]
    assert sum(r.length for r in residual) == F(1, 2)
    ok, _ = refines(list(fam.members), EXAMPLE.members)
    assert ok
    assert fam.min_gap == F(1, 6)


def test_halving_trivial_cover():
    fam, residual = halving_refinement(TRIVIAL)
    assert [str(m) for m in fam.members] == ["(1/2,1]"]
    assert [str(r) for r in residual] == ["[0,1/2]"]


def test_halving_trivial_cover_shorter_target():
    cover = cover_of("[1/3,5/6]", "(-1,2)")
    fam, residual = halving_refinement(cover)
    assert [str(m) for m in fam.members] == ["(7/12,5/6]"]
    assert [str(r) for r in residual] == ["[1/3,7/12]"]
    assert sum(r.length for r in residual) == F(1, 4)


def test_halving_cells_shorter_than_window_supremum():
    rng = random.Random(404)
    for _ in range(40):
        target = random_target(rng)
        cover = random_cover(rng, target)
        sup = window_supremum(cover)
        fam, residual = halving_refinement(cover)
        for piece in list(fam.members) + [RSet((r,)) for r in residual]:
            assert piece.measure() < sup
        assert sum(r.length for r in residual) == target.length / 2
        ok, _ = refines(list(fam.members), cover.members)
        assert ok
        assert union_all(list(fam.members)).is_subset(RSet((target,)))


def test_halving_step_measures():
    state = HalvingState((closed(0, 1),), 0)
    for n in (1, 2, 3, 4):
        fam, state = halving_step(state, TRIVIAL)
        assert state.measure() == F(1, 2**n)
        assert is_discrete(list(fam.members)).min_gap == fam.min_gap


def test_halving_step_vs_grid_cover():
    state = HalvingState((closed(0, 1),), 0)
    for n in (1, 2, 3):
        cover = ball_cover(n)
        fam, state = halving_step(state, cover)
        ok, _ = refines(list(fam.members), cover.members)
        assert ok
        assert state.measure() == F(1, 2**n)


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
    cover = Cover(RSet.empty(), (rs("(-1/8,2/5)"), rs("(3/5,9/8)")))
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
    family, punctures = chain_puncture_refinement(EXAMPLE)
    assert punctures == [F(3, 8)]
    assert [str(m) for m in family] == ["[0,3/8)", "(3/8,1]"]
    is_disjoint(family)
    with pytest.raises(FamilyNotDiscrete) as err:
        is_discrete(family)
    assert err.value.point == F(3, 8)
    # the family plus its punctures is exactly the target
    assert union_all(family).union(RSet.points(punctures)) == rs("[0,1]")


def test_chain_puncture_single_member():
    family, punctures = chain_puncture_refinement(TRIVIAL)
    assert punctures == []
    assert family == [rs("[0,1]")]


def test_puncture_cleanup_examples():
    # (0,1) is no cover of [0,1]; give it an unconstrained target and an
    # explicit ambient, as the second-inning bot does
    loose = Cover(RSet.empty(), (rs("(0,1)"),))
    amb = closed(0, 1)
    fam = puncture_cleanup([F(3, 8)], loose, amb)
    assert [str(m) for m in fam.members] == ["(3/16,9/16)"]
    assert puncture_cleanup([], TRIVIAL).members == ()
    two = puncture_cleanup([F(1, 4), F(3, 4)], loose, amb)
    assert len(two.members) == 2
    assert [str(m) for m in two.members] == ["(1/8,3/8)", "(5/8,7/8)"]
    assert two.min_gap is not None and two.min_gap > 0


def test_chain_puncture_then_cleanup_covers_exactly():
    rng = random.Random(606)
    for _ in range(25):
        target = random_target(rng)
        cover1 = random_cover(rng, target, extra=False)
        cover2 = random_cover(rng, target, extra=False)
        family, punctures = chain_puncture_refinement(cover1)
        cleanup = puncture_cleanup(punctures, cover2)
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


def test_largest_component_tie_breaks_leftmost():
    assert str(largest_component(rs("(0,1/4);(1/2,3/4)"))) == "(0,1/4)"
    assert str(largest_component(rs("(0,1/4);(1/2,1)"))) == "(1/2,1)"
