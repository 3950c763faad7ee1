"""Exact set algebra: worked examples, laws, and certificates."""

import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from intervalgames.sets import (
    FamilyNotDiscrete,
    FamilyNotDisjoint,
    Interval,
    RSet,
    closed,
    is_discrete,
    is_disjoint,
    normalize,
    open_iv,
    parse_interval,
    parse_rset,
    point,
    point_distance,
    refines,
    witness_radius,
)


def rs(text: str) -> RSet:
    return parse_rset(text)


# --- interval basics ---------------------------------------------------------


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(F(1), F(0))
    with pytest.raises(ValueError):
        Interval(F(1), F(1), True, False)  # degenerate-open forbidden
    assert point("1/2").is_point


def test_interval_text_roundtrip():
    for text in ["(0,1/2)", "[0,1/2]", "[0,1/2)", "(0,1/2]", "[-1/8,9/8)"]:
        assert str(parse_interval(text)) == text


# --- normalize ---------------------------------------------------------------


def test_normalize_overlapping_union():
    got = normalize([open_iv(0, "1/2"), open_iv("1/4", "3/4")])
    assert got == rs("(0,3/4)")


def test_normalize_empty():
    assert normalize([]) == RSet.empty()


def test_normalize_adjacency_merge():
    # (0,1/4) followed by [1/4,1/2] joins into (0,1/2]
    got = normalize([open_iv(0, "1/4"), closed("1/4", "1/2")])
    assert got == rs("(0,1/2]")


def test_normalize_keeps_missing_point():
    got = normalize([open_iv(0, "1/2"), open_iv("1/2", 1)])
    assert len(got.components) == 2


# --- boolean algebra examples ------------------------------------------------


def test_subtract_example():
    got = rs("(0,1)").subtract(rs("[1/4,1/2]"))
    assert got == rs("(0,1/4);(1/2,1)")


def test_measure_example():
    assert rs("(0,1/4);(1/2,1)").measure() == F(3, 4)


def test_closure_example():
    assert rs("(0,1/2);(1/2,1)").closure() == rs("[0,1]")


def test_interior_drops_points_and_opens():
    assert rs("[1/4,1/2]").interior() == rs("(1/4,1/2)")
    assert rs("[1/3,1/3]").interior() == RSet.empty()


def test_contains_and_subset():
    a = rs("(0,1/4);(1/2,1)")
    assert a.contains("1/8") and not a.contains("1/4") and a.contains("3/4")
    assert rs("(1/10,2/10)").is_subset(rs("(-1/8,1/2)"))
    assert not rs("(0,1)").is_subset(rs("(0,1/2);(1/2,1)"))


def test_relatively_open():
    amb = closed(0, 1)
    assert rs("[0,1/8)").is_relatively_open(amb)
    assert rs("(7/8,1]").is_relatively_open(amb)
    assert not rs("[1/4,1/2)").is_relatively_open(amb)
    assert not rs("[1/2,1/2]").is_relatively_open(amb)


# --- discreteness ------------------------------------------------------------


def test_is_discrete_accept():
    fam = is_discrete([rs("(0,1/4)"), rs("(1/2,3/4)")])
    assert fam.min_gap == F(1, 4)


def test_is_discrete_reject_shared_closure_point():
    with pytest.raises(FamilyNotDiscrete) as err:
        is_discrete([rs("(0,1/2)"), rs("(1/2,1)")])
    assert err.value.point == F(1, 2)
    assert (err.value.index_a, err.value.index_b) == (0, 1)


def test_is_discrete_accepts_separated_closed_family():
    fam = is_discrete([rs("[1/7,1/6]"), rs("[1/5,1/4]"), rs("[1/3,1/2]")])
    # closest pair is [1/7,1/6] vs [1/5,1/4]
    assert fam.min_gap == F(1, 5) - F(1, 6)


def test_is_discrete_sentinel_for_small_families():
    assert is_discrete([]).min_gap is None
    assert is_discrete([rs("(0,1)")]).min_gap is None


def test_is_disjoint_allows_touching_closures():
    is_disjoint([rs("(0,1/2)"), rs("(1/2,1)")])
    with pytest.raises(FamilyNotDisjoint) as err:
        is_disjoint([rs("(0,1/2]"), rs("[1/2,1)")])
    assert err.value.point == F(1, 2)


# --- witness radius ----------------------------------------------------------


def _ball_meets(member: RSet, x: F, r: F) -> bool:
    return not member.intersect(RSet.interval(x - r, x + r)).is_empty


def _meets_at_most_one(family, x, r) -> bool:
    return sum(1 for m in family if _ball_meets(m, x, r)) <= 1


def test_witness_radius_second_smallest_distance():
    family = [rs("[1/7,1/6]"), rs("[1/5,1/4]"), rs("[1/3,1/2]")]
    w = witness_radius(family, 0)
    assert w == F(1, 5)
    # independent check against the ball-counting definition
    eps = F(1, 1000)
    assert _meets_at_most_one(family, F(0), w)
    assert not _meets_at_most_one(family, F(0), w + eps)


def test_witness_radius_sentinel():
    assert witness_radius([rs("(0,1)")], 2) is None


def tail_family(n_max: int) -> list[RSet]:
    return [rs(f"[1/{2 * n + 1},1/{2 * n}]") for n in range(1, n_max + 1)]


def test_witness_radius_decay_of_tail_family():
    previous = None
    for n_max in range(2, 51):
        w = witness_radius(tail_family(n_max), 0)
        assert w == F(1, 2 * n_max - 1)
        if previous is not None:
            assert w < previous
        previous = w


# --- refinement --------------------------------------------------------------


def test_refines_examples():
    ok, wit = refines([rs("(1/10,2/10)")], [rs("(-1/8,1/2)"), rs("(1/4,9/8)")])
    assert ok and wit == [0]
    ok, _ = refines([rs("(0,1)")], [rs("(0,1/2)"), rs("(1/2,1)")])
    assert not ok
    ok, wit = refines([], [rs("(0,1)")])
    assert ok and wit == []


def test_refines_reports_first_containing_index():
    ok, wit = refines([rs("(3/8,7/16)")], [rs("(0,1)"), rs("(1/4,1/2)")])
    assert ok and wit == [0]


# --- algebraic laws on random sets --------------------------------------------

rationals = st.fractions(min_value=-2, max_value=3, max_denominator=16)


@st.composite
def rsets(draw) -> RSet:
    n = draw(st.integers(min_value=0, max_value=3))
    ivs = []
    for _ in range(n):
        a, b = sorted([draw(rationals), draw(rationals)])
        if a == b:
            ivs.append(point(a))
        else:
            ivs.append(Interval(a, b, draw(st.booleans()), draw(st.booleans())))
    return normalize(ivs)


@settings(max_examples=120, derandomize=True)
@given(rsets())
def test_normalize_idempotent(a):
    assert normalize(a.components) == a


@settings(max_examples=120, derandomize=True)
@given(rsets(), rsets())
def test_double_subtraction_is_intersection(a, b):
    assert a.subtract(a.subtract(b)) == a.intersect(b)


@settings(max_examples=120, derandomize=True)
@given(rsets(), rsets())
def test_measure_inclusion_exclusion(a, b):
    lhs = a.union(b).measure() + a.intersect(b).measure()
    assert lhs == a.measure() + b.measure()


@settings(max_examples=60, derandomize=True)
@given(st.lists(rsets().filter(lambda r: not r.is_empty), min_size=2, max_size=4))
def test_discreteness_matches_pairwise_closure_distances(members):
    closures = [m.closure() for m in members]
    overlap = any(
        not closures[i].intersect(closures[j]).is_empty
        for i in range(len(members))
        for j in range(i + 1, len(members))
    )
    try:
        fam = is_discrete(members)
        assert not overlap
        gaps = []
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                gaps.append(
                    min(
                        abs(point_distance(closures[j], x))
                        for c in closures[i].components
                        for x in (c.lo, c.hi)
                    )
                )
        assert fam.min_gap == min(gaps)
        # every point has a positive separating radius
        for probe in (F(-2), F(0), F(1, 3), F(3)):
            w = witness_radius(members, probe)
            assert w is None or w > 0
    except FamilyNotDiscrete:
        assert overlap


@settings(max_examples=120, derandomize=True)
@given(rsets())
def test_closure_and_interior_are_monotone_envelopes(a):
    assert a.is_subset(a.closure())
    assert a.interior().is_subset(a)
    assert a.closure().closure() == a.closure()
    assert a.interior().interior() == a.interior()


# --- union / intersect / subtract against the definition ----------------------

COMBINE = {
    "union": operator.or_,
    "intersect": operator.and_,
    "subtract": lambda p, q: p and not q,
}
shared_ends = st.sampled_from([F(k, 3) for k in range(-2, 6)])


@st.composite
def crowded_rsets(draw) -> RSet:
    """Sets over a few shared endpoints: the same point as an open end of
    one interval and a closed end of another, isolated points, and
    touching open pairs (x,y),(y,z)."""
    ivs = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        x, y, z = sorted(draw(st.lists(shared_ends, min_size=3, max_size=3)))
        kind = draw(st.sampled_from(("interval", "point", "touching")))
        if kind == "point" or x == y:
            ivs.append(point(x))
        elif kind == "interval":
            ivs.append(Interval(x, y, draw(st.booleans()), draw(st.booleans())))
        else:
            ivs.append(open_iv(x, y))
            if y < z:
                ivs.append(open_iv(y, z))
    return normalize(ivs)


def probe_points(*sets: RSet) -> list[F]:
    """Every endpoint of the sets, a point inside every gap between
    consecutive endpoints, and a point beyond each end: membership in
    each set is constant between consecutive endpoints."""
    ends = sorted({e for s in sets for c in s.components for e in (c.lo, c.hi)})
    if not ends:
        return [F(0)]
    mids = [(p + q) / 2 for p, q in zip(ends, ends[1:])]
    return [ends[0] - 1, *ends, *mids, ends[-1] + 1]


@settings(max_examples=400, derandomize=True)
@given(crowded_rsets(), crowded_rsets(), st.sampled_from(sorted(COMBINE)))
def test_combine_matches_the_pointwise_definition(a, b, op):
    out = getattr(a, op)(b)
    assert normalize(out.components) == out  # canonical
    for x in probe_points(a, b, out):
        assert out.contains(x) == COMBINE[op](a.contains(x), b.contains(x)), x


def interleaved(n: int) -> tuple[RSet, RSet]:
    """Two sets of n components each, alternating along the line and
    overlapping their neighbours: (4k/3, (4k+2)/3) and [(4k+1)/3, (4k+3)/3]."""
    a = RSet(tuple(open_iv(F(4 * k, 3), F(4 * k + 2, 3)) for k in range(n)))
    b = RSet(tuple(closed(F(4 * k + 1, 3), F(4 * k + 3, 3)) for k in range(n)))
    return a, b


def ordering_comparisons(monkeypatch, op: str, n: int) -> int:
    a, b = interleaved(n)
    calls = 0
    richcmp = F._richcmp

    def counted(self, other, compare):
        nonlocal calls
        calls += 1
        return richcmp(self, other, compare)

    monkeypatch.setattr(F, "_richcmp", counted)
    getattr(a, op)(b)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("op", sorted(COMBINE))
def test_combine_work_is_linear(monkeypatch, op):
    """Machine-independent work gate: Fraction ordering comparisons
    (<, <=, >, >=) grow at most linearly with the operands' sizes."""
    small = ordering_comparisons(monkeypatch, op, 50)
    large = ordering_comparisons(monkeypatch, op, 400)
    assert large <= 8 * small + 16, (small, large)
