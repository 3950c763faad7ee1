"""Exact set algebra: worked examples, laws, and certificates."""

import operator
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from intervalgames import sets
from intervalgames.covers import Cover
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
    union_all,
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


@settings(max_examples=400, derandomize=True)
@given(crowded_rsets(), shared_ends, shared_ends)
def test_gaps_are_the_components_of_the_window_minus_the_set(a, x, y):
    """`gaps` walks the components of a closed window minus a set, ends
    and flags as the subtraction gives them, including windows that a
    component ends or starts on and windows that are one point."""
    window = closed(*sorted((x, y)))
    assert tuple(sets.gaps(a, window)) == RSet((window,)).subtract(a).components


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


def lines_run_in_sets(op: str, n: int) -> int:
    """Lines of `sets.py` executed by one combination of `interleaved(n)`:
    every event the sweep visits, every endpoint it scales and every
    `Interval` it builds runs a fixed number of them."""
    a, b = interleaved(n)
    lines = 0

    def count_lines(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count_lines

    def in_sets(frame, event, arg):
        return count_lines if frame.f_code.co_filename == sets.__file__ else None

    previous = sys.gettrace()
    sys.settrace(in_sets)
    try:
        getattr(a, op)(b)
    finally:
        sys.settrace(previous)
    return lines


@pytest.mark.parametrize("op", sorted(COMBINE))
def test_combine_makes_no_fraction_ordering_comparison(monkeypatch, op):
    """The sweep orders endpoints as integers: no Fraction <, <=, > or >=."""
    assert ordering_comparisons(monkeypatch, op, 50) == 0


@pytest.mark.parametrize("op", sorted(COMBINE))
def test_combine_work_is_linear(op):
    """Machine-independent work gate: the lines of `sets.py` that one
    combination executes grow at most linearly with the operands' sizes."""
    small = lines_run_in_sets(op, 50)
    large = lines_run_in_sets(op, 400)
    assert large <= 8 * small + 16, (small, large)


# --- integer comparisons against a Fraction reference ----------------------
#
# The bodies below are the set algebra written on Fraction comparisons,
# kept here as the reference the integer comparisons must reproduce.


def ref_refusal(lo: F, hi: F, lo_open: bool, hi_open: bool) -> str | None:
    if lo > hi:
        return f"interval endpoints out of order: {lo} > {hi}"
    if lo == hi and (lo_open or hi_open):
        return "degenerate interval must be closed on both ends"
    return None


def refusal(lo: F, hi: F, lo_open: bool, hi_open: bool) -> str | None:
    try:
        Interval(lo, hi, lo_open, hi_open)
    except ValueError as exc:
        return str(exc)
    return None


def ref_contains(c: Interval, x: F) -> bool:
    if x < c.lo or x > c.hi:
        return False
    if x == c.lo and c.lo_open:
        return False
    return not (x == c.hi and c.hi_open)


def ref_contains_interval(c: Interval, d: Interval) -> bool:
    lo_ok = c.lo < d.lo or (c.lo == d.lo and (not c.lo_open or d.lo_open))
    hi_ok = c.hi > d.hi or (c.hi == d.hi and (not c.hi_open or d.hi_open))
    return lo_ok and hi_ok


def ref_normalize(intervals: list[Interval]) -> tuple[Interval, ...]:
    out: list[Interval] = []
    for iv in sorted(intervals, key=lambda iv: (iv.lo, iv.lo_open, iv.hi)):
        if not out:
            out.append(iv)
            continue
        cur = out[-1]
        if not (iv.lo < cur.hi or (iv.lo == cur.hi and not (cur.hi_open and iv.lo_open))):
            out.append(iv)
            continue
        lo_open = cur.lo_open and iv.lo_open if iv.lo == cur.lo else cur.lo_open
        if iv.hi > cur.hi:
            hi, hi_open = iv.hi, iv.hi_open
        elif iv.hi == cur.hi:
            hi, hi_open = cur.hi, cur.hi_open and iv.hi_open
        else:
            hi, hi_open = cur.hi, cur.hi_open
        out[-1] = Interval(cur.lo, hi, lo_open, hi_open)
    return tuple(out)


def ref_events(rset: RSet) -> list[tuple[F, bool, bool]]:
    out: list[tuple[F, bool, bool]] = []
    for c in rset.components:
        if c.lo == c.hi:
            out.append((c.lo, True, False))
            continue
        if c.lo_open and out and out[-1][0] == c.lo:
            out[-1] = (c.lo, False, True)
        else:
            out.append((c.lo, not c.lo_open, True))
        out.append((c.hi, not c.hi_open, False))
    return out


def ref_combine(a: RSet, b: RSet, keep) -> tuple[Interval, ...]:
    ea, eb = ref_events(a), ref_events(b)
    i = j = 0
    a_after = b_after = False
    out: list[Interval] = []
    start = None
    while i < len(ea) or j < len(eb):
        if j == len(eb) or (i < len(ea) and ea[i][0] < eb[j][0]):
            p, a_at, a_after = ea[i]
            b_at = b_after
            i += 1
        elif i == len(ea) or eb[j][0] != ea[i][0]:
            p, b_at, b_after = eb[j]
            a_at = a_after
            j += 1
        else:
            p, a_at, a_after = ea[i]
            _, b_at, b_after = eb[j]
            i += 1
            j += 1
        at, after = keep(a_at, b_at), keep(a_after, b_after)
        if start is not None:
            if at and after:
                continue
            out.append(Interval(start[0], p, start[1], not at))
            start = (p, True) if not at and after else None
        elif after:
            start = (p, not at)
        elif at:
            out.append(Interval(p, p, False, False))
    return tuple(out)


def ref_first_meeting_pair(rsets: list[RSet]) -> tuple[int, int, F]:
    for i in range(len(rsets)):
        for j in range(i + 1, len(rsets)):
            meet = ref_combine(rsets[i], rsets[j], operator.and_)
            if meet:
                c = meet[0]
                x = c.lo if not c.lo_open else c.hi if not c.hi_open else (c.lo + c.hi) / 2
                return i, j, x
    raise AssertionError("no meeting pair")


def ref_tagged(rsets: list[RSet]) -> list[tuple[Interval, int]]:
    tagged = [(c, i) for i, rs in enumerate(rsets) for c in rs.components]
    return sorted(tagged, key=lambda t: (t[0].lo, t[0].hi))


def ref_discrete(members: list[RSet]):
    """`min_gap`, or the witness `FamilyNotDiscrete` carries."""
    if len(members) <= 1:
        return None
    closures = [RSet(ref_normalize([c.closure() for c in m.components])) for m in members]
    tagged = ref_tagged(closures)
    min_gap = None
    for (cur, ci), (nxt, ni) in zip(tagged, tagged[1:]):
        gap = nxt.lo - cur.hi
        if ci == ni:
            continue
        if gap <= 0:
            return ref_first_meeting_pair(closures)
        if min_gap is None or gap < min_gap:
            min_gap = gap
    return min_gap


def discrete(members: list[RSet]):
    try:
        return is_discrete(members).min_gap
    except FamilyNotDiscrete as exc:
        return exc.index_a, exc.index_b, exc.point


def ref_disjoint(members: list[RSet]):
    """None, or the witness `FamilyNotDisjoint` carries."""
    tagged = ref_tagged(members)
    for (cur, ci), (nxt, ni) in zip(tagged, tagged[1:]):
        if ci == ni:
            continue
        if nxt.lo < cur.hi or (nxt.lo == cur.hi and not cur.hi_open and not nxt.lo_open):
            return ref_first_meeting_pair(members)
    return None


def disjoint(members: list[RSet]):
    try:
        is_disjoint(members)
    except FamilyNotDisjoint as exc:
        return exc.index_a, exc.index_b, exc.point
    return None


def ref_relatively_open(rset: RSet, ambient: Interval) -> bool:
    return all(
        c.lo < c.hi
        and (c.lo_open or c.lo <= ambient.lo)
        and (c.hi_open or c.hi >= ambient.hi)
        for c in rset.components
    )


def ref_touching(members: list[RSet], lo: F, hi: F) -> list[int]:
    return [i for i, m in enumerate(members) if any(c.lo <= hi and c.hi >= lo for c in m.components)]


def ref_containing(members: list[RSet], x: F) -> list[int]:
    return [i for i, m in enumerate(members) if any(ref_contains(c, x) for c in m.components)]


def ref_holding(members: list[RSet], x: F, y: F):
    """The component of the lowest member holding [x, y], or None."""
    window = closed(x, y)
    return next(
        (c for m in members for c in m.components if ref_contains_interval(c, window)), None
    )


# two large coprime denominators, and their product's reciprocal as a nudge
# that separates endpoints no float could tell apart
BIG = (2**61 - 1, 3**40)
NUDGE = F(1, BIG[0] * BIG[1])


def random_pool(rng: random.Random) -> list[F]:
    """Six distinct endpoints, negative ones among them, over mixed small
    and large coprime denominators, some a nudge away from another."""
    pool: set[F] = set()
    while len(pool) < 6:
        d = rng.choice((1, 2, 3, 7, 12, *BIG))
        x = F(rng.randint(-3 * d, 3 * d), d)
        pool.add(x)
        if rng.random() < 0.3:
            pool.add(x + rng.choice((NUDGE, -NUDGE, F(1, BIG[0]), -F(1, BIG[1]))))
    return sorted(pool)[:6]


def random_interval(rng: random.Random, pool: list[F]) -> Interval:
    """A point or an interval between two pool ends, any ends open or closed."""
    lo, hi = sorted(rng.sample(pool, 2))
    if rng.random() < 0.2:
        return point(lo)
    return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)


def random_raw(rng: random.Random, pool: list[F], most: int) -> list[Interval]:
    return [random_interval(rng, pool) for _ in range(rng.randint(0, most))]


def test_integer_comparisons_match_a_fraction_reference():
    """Seeded random endpoints: the integer comparisons of `Interval`,
    `normalize`, relative openness, the sweep, the discreteness checks
    and the cover queries answer as the Fraction reference bodies above
    do, and the refinement rule as `sets.refines`.  The families come
    from a second generator, so the other draws stay as they were."""
    rng, family_rng = random.Random(1616), random.Random(2222)
    held = 0
    flags = [(False, False), (False, True), (True, False), (True, True)]
    for _ in range(300):
        pool = random_pool(rng)
        probes = pool + [(p + q) / 2 for p, q in zip(pool, pool[1:])]
        probes += [pool[0] - 1, pool[-1] + NUDGE]
        for lo in pool[:3]:
            for hi in pool[2:5]:
                for f in flags:
                    assert refusal(lo, hi, *f) == ref_refusal(lo, hi, *f)
        raw = random_raw(rng, pool, 5)
        for c in raw:
            assert c.is_point == (c.lo == c.hi)
            for x in probes:
                assert c.contains(x) == ref_contains(c, x), (c, x)
            for d in raw:
                assert c.contains_interval(d) == ref_contains_interval(c, d), (c, d)
        a = normalize(raw)
        assert a.components == ref_normalize(raw)
        for ambient in (closed(pool[1], pool[4]), closed(pool[0], pool[-1])):
            assert a.is_relatively_open(ambient) == ref_relatively_open(a, ambient)
        b = normalize(random_raw(rng, pool, 4))
        for x in probes:
            assert a.contains(x) == any(ref_contains(c, x) for c in a.components)
        assert a.is_subset(b) == all(
            any(ref_contains_interval(oc, c) for oc in b.components) for c in a.components
        )
        for op, keep in COMBINE.items():
            assert getattr(a, op)(b).components == ref_combine(a, b, keep), (a, op, b)
        members = [normalize(random_raw(rng, pool, 2) or [random_interval(rng, pool)])
                   for _ in range(rng.randint(1, 5))]
        assert discrete(members) == ref_discrete(members), members
        assert disjoint(members) == ref_disjoint(members), members
        cover = Cover(tuple(members))
        for _ in range(4):
            lo, hi = sorted(rng.sample(probes, 2))
            assert cover.members_touching(lo, hi) == ref_touching(members, lo, hi)
        for x in probes:
            assert cover.members_touching(x, x) == ref_touching(members, x, x)
            assert cover.members_containing_point(x) == ref_containing(members, x), (members, x)
        ordered = sorted(probes)
        for i, x in enumerate(ordered):
            for y in ordered[i:]:
                assert cover.holding(x, y) == ref_holding(members, x, y), (members, x, y)
        family = [normalize(random_raw(family_rng, pool, 3)) for _ in range(4)]
        family.append(family_rng.choice(members))
        witnesses = cover.refinement_witnesses(family)
        assert witnesses == refines(family, members), (members, family)
        held += sum(w is not None for w, m in zip(witnesses[1], family) if len(m.components) > 1)
    assert held > 50, held


# (0,1);(1,2): two components whose closures meet at 1, a point of neither
TOUCHING = "(0,1);(1,2)"


@pytest.mark.parametrize(
    "texts, expected",
    [
        ([TOUCHING, "[1,1]"], (0, 1, F(1))),  # a point member at the touch
        (["[1,1]", TOUCHING], (0, 1, F(1))),
        ([TOUCHING, "[5/2,3]"], F(1, 2)),  # a member at a positive gap
        (["[-1,-1/3]", TOUCHING, "(3,4);(4,5)"], F(1, 3)),
        ([TOUCHING, "(3/2,5/2)"], (0, 1, F(3, 2))),  # overlapping the closure
        ([TOUCHING, "[2,3]"], (0, 1, F(2))),
        ([TOUCHING, "(2,3);(3,4)", "[1/2,1]"], (0, 1, F(2))),
    ],
)
def test_discreteness_of_members_with_touching_open_components(texts, expected):
    """`is_discrete` sweeps the members' own components, not their closures;
    a member whose open components touch still has the closure's gaps,
    exception indices and shared point."""
    members = [rs(t) for t in texts]
    assert discrete(members) == ref_discrete(members) == expected


def test_subtract_closure_matches_the_closure_of_the_union():
    """Seeded random x (open, closed, half-open, a point, several pieces)
    and families of 1-3-component members, with components that touch x's
    ends from outside, open or closed, and points at x's ends: x minus the
    closure of the family's union, whose far components `subtract_closure`
    never closes, is what subtracting the whole closure leaves."""
    rng = random.Random(1919)
    flags = [(False, False), (False, True), (True, False), (True, True)]
    for trial in range(400):
        pool = random_pool(rng)
        a, b = sorted(rng.sample(pool, 2))
        xs = [RSet((Interval(a, b, *f),)) for f in flags]
        xs += [RSet((point(a),)), normalize(random_raw(rng, pool, 3) or [point(b)])]
        outside = [
            Interval(a - 1, a, rng.random() < 0.5, rng.random() < 0.5),
            Interval(b, b + 1, rng.random() < 0.5, rng.random() < 0.5),
            point(a),
            point(b),
        ]
        family = []
        for _ in range(rng.randint(0, 4) if trial % 10 else 0):
            comps = [
                rng.choice(outside) if rng.random() < 0.5 else random_interval(rng, pool)
                for _ in range(rng.randint(1, 3))
            ]
            family.append(normalize(comps))
        closure = union_all(family).closure()
        for x in xs:
            got = sets.subtract_closure(x, family)
            want = x.subtract(closure)
            assert got.components == want.components, (x, family)
            assert str(got) == str(want)
