"""Cover-picking constructions: avoidance covers and nested-play strategies."""

import random
from fractions import Fraction as F

import pytest

from intervalgames.errors import InvariantViolation
from intervalgames.one_strategies import (
    AvoidFixedOne,
    BMState,
    CompactIntersection,
    DenseGDeltaIntersection,
    GridOne,
    HistoryDigest,
    OneMain,
    avoid_cover,
    bm_play,
)
from intervalgames.sequences import EnumeratedPoints
from intervalgames.sets import RSet, closed, open_iv, parse_rset, union_all
from intervalgames.two_strategies import point_sequence_avoider

AMBIENT = closed(0, 1)


def rs(text: str) -> RSet:
    return parse_rset(text)


# --- avoidance covers ----------------------------------------------------------


def test_avoid_cover_worked_example():
    cover = avoid_cover(open_iv("1/4", "3/4"), AMBIENT)
    assert [str(m) for m in cover.members] == [
        "[0,3/8);(7/16,1]",
        "[0,9/16);(5/8,1]",
    ]


def test_avoid_cover_properties():
    rng = random.Random(77)
    box = RSet((AMBIENT,))
    for _ in range(50):
        lo = F(rng.randint(0, 40), 64)
        hi = lo + F(rng.randint(2, 20), 64)
        o = open_iv(lo, min(hi, F(1)))
        if o.length <= 0:
            continue
        cover = avoid_cover(o, AMBIENT)
        assert union_all(cover.members) == box
        o_box = RSet((o,))
        for m in cover.members:
            assert m.is_relatively_open(AMBIENT)
            assert not o_box.is_subset(m.closure())


def test_avoid_cover_rejects_degenerate():
    with pytest.raises(ValueError):
        avoid_cover(closed("1/2", "1/2"), AMBIENT)


# --- Banach-Mazur strategies ----------------------------------------------------


def test_compact_opening_is_middle_half():
    bm = CompactIntersection(AMBIENT)
    assert str(bm.opening()) == "(1/4,3/4)"


def test_compact_respond_examples():
    bm = CompactIntersection(AMBIENT)
    assert str(bm.respond(rs("(0,1/2);(3/4,1)"))) == "(1/6,1/3)"
    assert str(bm.respond(rs("(0,1)"))) == "(1/3,2/3)"


def test_respond_closure_nests():
    bm = CompactIntersection(AMBIENT)
    for text in ["(0,1)", "(0,1/2);(3/4,1)", "[0,1/8);(1/2,5/8)"]:
        t = rs(text)
        nxt = bm.respond(t)
        assert RSet((nxt.closure(),)).is_subset(t)


def test_gdelta_respond_examples():
    # diagonal enumeration: q_0=0, q_1=1, q_2=1/2, q_3=1/3
    spec = EnumeratedPoints.named("rationals", AMBIENT)
    assert spec.point(3) == F(1, 3)
    bm = DenseGDeltaIntersection(spec)
    bm._inning = 3
    assert str(bm.respond(rs("(0,1)"))) == "(5/9,7/9)"
    bm._inning = 2
    assert str(bm.respond(rs("(0,1/4)"))) == "(1/12,1/6)"


def test_gdelta_opening_avoids_first_deletion():
    bm = DenseGDeltaIntersection(EnumeratedPoints.named("rationals", AMBIENT))
    o = bm.opening()
    assert not RSet((o,)).contains(F(0))


# --- the main composition --------------------------------------------------------


def test_one_main_first_cover_and_empty_reply():
    one = OneMain(CompactIntersection(AMBIENT), AMBIENT)
    cover = one.next_cover()
    assert [str(m) for m in cover.members] == [
        "[0,3/8);(7/16,1]",
        "[0,9/16);(5/8,1]",
    ]
    one.observe([])
    opens, ts = one.trace()
    assert str(ts[0]) == "(1/4,3/4)"
    assert str(opens[1]) == "(5/12,7/12)"


def test_one_main_subtracts_closures():
    one = OneMain(CompactIntersection(AMBIENT), AMBIENT)
    one.next_cover()
    one.observe([rs("(0,3/8)")])
    _, ts = one.trace()
    assert str(ts[0]) == "(3/8,3/4)"


def test_one_main_chain_against_replies():
    rng = random.Random(321)
    one = OneMain(CompactIntersection(AMBIENT), AMBIENT)
    for _ in range(12):
        cover = one.next_cover()
        # a legal-ish reply: shrink a random member component
        m = cover.members[rng.randrange(len(cover.members))]
        c = m.components[rng.randrange(len(m.components))]
        q = c.length / 4
        reply = [RSet.interval(c.lo + q, c.hi - q)] if c.length > 0 else []
        one.observe(reply)
    opens, ts = one.trace()
    assert len(opens) == 13 and len(ts) == 12
    for n in range(12):
        o_box = RSet((opens[n],))
        assert ts[n].is_subset(o_box)
        assert RSet((opens[n + 1].closure(),)).is_subset(ts[n])


def test_one_main_rejects_impossible_family():
    # a family whose closures swallow the whole open move cannot be
    # discrete; feeding one anyway must trip the invariant check
    one = OneMain(CompactIntersection(AMBIENT), AMBIENT)
    one.next_cover()
    with pytest.raises(InvariantViolation):
        one.observe([rs("(0,1)")] )


# --- oblivious bots ----------------------------------------------------------------


def test_grid_bot_sequence_and_limit():
    bot = GridOne(AMBIENT)
    c1 = bot.next_cover()
    assert len(c1.members) == 9
    c2 = bot.next_cover()
    assert len(c2.members) == 17
    limit = bot.limit_cover(HistoryDigest(inning_count=3, covered_measure=F(0)))
    assert len(limit.members) == 2 ** (4 + 2) + 1


def test_grid_bot_caps_fineness():
    bot = GridOne(AMBIENT)
    limit = bot.limit_cover(HistoryDigest(inning_count=99, covered_measure=F(0)))
    assert len(limit.members) == 2 ** (GridOne.GRID_CAP + 2) + 1


def test_avoid_fixed_bot_is_constant():
    bot = AvoidFixedOne(AMBIENT)
    c1, c2 = bot.next_cover(), bot.next_cover()
    assert c1.members == c2.members
    assert c1.members == bot.limit_cover(
        HistoryDigest(inning_count=5, covered_measure=F(1, 2))
    ).members


# --- Banach-Mazur play harness ------------------------------------------------------


def test_bm_play_nested_and_avoiding():
    one = CompactIntersection(AMBIENT)
    two = point_sequence_avoider("rationals", AMBIENT)
    state = bm_play(one, two.respond, innings=10)
    moves = state.moves
    assert len(moves) == 20
    for earlier, later in zip(moves, moves[1:]):
        assert later.is_subset(earlier)
    # the intersection is the last move's superset chain; it avoids the
    # first ten enumerated rationals
    from intervalgames.sequences import enumeration

    enum = enumeration("rationals")
    last = moves[-1]
    for k in range(10):
        assert not last.contains(enum.point(k))
    assert not last.is_empty


def test_bm_state_validates_nesting():
    state = BMState()
    state.push(rs("(0,1)"))
    state.push(rs("(1/4,1/2)"))
    with pytest.raises(ValueError):
        state.push(rs("(0,3/4)"))
