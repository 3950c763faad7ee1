"""Middle-thirds construction: pieces, successor queries, coverage."""

from fractions import Fraction as F

import pytest

from intervalgames.cantor import CantorSpec
from intervalgames.sets import closed, parse_rset

UNIT = CantorSpec(closed(0, 1))


def test_pieces_counts_lengths_gaps():
    for level in range(6):
        pieces = UNIT.pieces(level)
        assert len(pieces) == 2**level
        assert all(p.length == F(1, 3**level) for p in pieces)
        gaps = [b.lo - a.hi for a, b in zip(pieces, pieces[1:])]
        if gaps:
            assert min(gaps) == UNIT.piece_gap(level)


def test_piece_endpoints_are_construction_points():
    for p in UNIT.pieces(3):
        assert UNIT.contains(p.lo)
        assert UNIT.contains(p.hi)


@pytest.mark.parametrize(
    "p,expected",
    [
        (F(-1), F(0)),
        (F(0), F(0)),
        (F(1, 2), F(2, 3)),
        (F(7, 20), F(2, 3)),  # 0.35 sits in the middle gap
        (F(1, 4), F(1, 4)),  # ternary 0.020202... stays inside
        (F(3, 10), F(3, 10)),  # ternary 0.00220022...
        (F(1, 3), F(1, 3)),
        (F(2, 3), F(2, 3)),
        (F(3, 4), F(3, 4)),
        (F(1), F(1)),
        (F(26, 27), F(26, 27)),
        (F(25, 27), F(25, 27)),  # right end of the piece [8/9, 25/27]
        (F(17, 18), F(26, 27)),  # inside the gap (25/27, 26/27)
    ],
)
def test_successor_values(p, expected):
    assert UNIT.successor(p) == expected


def test_successor_none_above_ambient():
    assert UNIT.successor(F(11, 10)) is None


def test_successor_bracketed_by_level_pieces():
    # independent sanity: the successor must lie in the first level-N
    # piece whose right end is >= p, between max(piece.lo, p) and piece.hi
    probes = [F(k, 97) for k in range(98)]
    for p in probes:
        s = UNIT.successor(p)
        assert s is not None
        for level in range(0, 10):
            piece = next(q for q in UNIT.pieces(level) if q.hi >= p)
            assert max(piece.lo, p) <= s <= piece.hi


def test_membership():
    assert UNIT.contains(F(1, 4))
    assert UNIT.contains(F(3, 4))
    assert not UNIT.contains(F(1, 2))
    assert not UNIT.contains(F(4, 10))


def test_uncovered_point():
    box = parse_rset("[0,1]")
    covered = parse_rset("(-1/8,2/5);(3/5,9/8)")
    assert UNIT.uncovered_point(covered, box) is None
    missing_quarter = parse_rset("(-1/8,1/4);(13/50,9/8)")
    assert UNIT.uncovered_point(missing_quarter, box) == F(1, 4)


def test_scaled_ambient():
    spec = CantorSpec(closed("1/4", "3/4"))
    pieces = spec.pieces(2)
    assert len(pieces) == 4
    assert all(p.length == F(1, 2) / 9 for p in pieces)
    assert spec.successor(F(1, 4)) == F(1, 4)
    assert spec.successor(F(0)) == F(1, 4)
    mid = F(1, 2)  # center of the scaled middle gap
    s = spec.successor(mid)
    assert s == F(1, 4) + F(2, 3) * F(1, 2)
