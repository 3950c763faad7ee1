"""Covers: Lebesgue window lengths, grid covers, chain extraction.

The window supremum has two independent oracles layered beneath it:
a direct window-by-window validity scan (no set subtraction), and a
candidate-difference bisection on top of that scan.  The production
sweep must agree with both on every seeded cover.
"""

import random
from fractions import Fraction as F

import pytest

from intervalgames import covers
from intervalgames.checks import rnd_fraction
from intervalgames.covers import (
    Cover,
    CoverError,
    GridCover,
    ball_cover,
    chain_subcover,
    lebesgue_counterexample,
    lebesgue_number,
    verify_lebesgue,
    window_supremum,
)
from intervalgames.sets import Interval, RSet, closed, parse_rset, union_all

from conftest import random_cover, random_target


def rs(text: str) -> RSet:
    return parse_rset(text)


def cover_of(target_text: str, *member_texts: str) -> Cover:
    return Cover(rs(target_text), tuple(rs(t) for t in member_texts))


EXAMPLE = cover_of("[0,1]", "(-1/8,1/2)", "(1/4,9/8)")


# --- independent oracles -----------------------------------------------------


def brute_verify(cover: Cover, delta: F) -> bool:
    """Window-by-window validity scan over all critical start points."""
    t = cover.target.components[0]
    a, b = t.lo, t.hi
    if b - delta < a:
        return True
    crits = {a, b - delta}
    for m in cover.members:
        for c in m.components:
            crits.add(c.lo)
            crits.add(c.hi - delta)
    starts = sorted(x for x in crits if a <= x <= b - delta)
    probes = list(starts)
    probes += [(x + y) / 2 for x, y in zip(starts, starts[1:])]
    for x in probes:
        window = Interval(x, x + delta, False, False)
        if not any(
            c.contains_interval(window) for m in cover.members for c in m.components
        ):
            return False
    return True


def brute_window_supremum(cover: Cover) -> F:
    """Candidate-difference sweep: validity can only flip at differences
    of endpoints, and is monotone, so test candidates and midpoints."""
    t = cover.target.components[0]
    a, b = t.lo, t.hi
    cap = b - a
    endpoints = {a, b}
    for m in cover.members:
        for c in m.components:
            endpoints.update((c.lo, c.hi))
    pts = sorted(endpoints)
    cands = sorted(
        {y - x for x in pts for y in pts if 0 < y - x <= cap} | {cap}
    )
    probes = sorted(
        set(cands)
        | {(x + y) / 2 for x, y in zip(cands, cands[1:])}
        | {cands[0] / 2}
    )
    valid = [p for p in probes if brute_verify(cover, p)]
    if not valid:
        raise AssertionError("no valid window length at all")
    q = max(valid)
    if q in cands:
        return q
    return min(c for c in cands if c > q)


# --- worked examples ---------------------------------------------------------


def test_window_supremum_worked_example():
    assert window_supremum(EXAMPLE) == F(1, 4)
    assert lebesgue_number(EXAMPLE) == F(1, 8)


def test_lebesgue_single_member_capped_by_target_length():
    c = cover_of("[0,1]", "(-1,2)")
    assert window_supremum(c) == 1
    assert lebesgue_number(c) == F(1, 2)
    assert verify_lebesgue(c, 1)


def test_lebesgue_three_member_example():
    c = cover_of("[0,1]", "(-1/8,3/8)", "(1/4,5/8)", "(1/2,9/8)")
    d = lebesgue_number(c)
    assert d > 0
    assert verify_lebesgue(c, d)


def test_verify_counterexample_window():
    window = lebesgue_counterexample(EXAMPLE, F(1, 4))
    assert window == Interval(F(1, 4), F(1, 2), False, False)
    assert verify_lebesgue(EXAMPLE, F(1, 8))


def test_verify_rejects_nonpositive_delta():
    with pytest.raises(CoverError):
        verify_lebesgue(EXAMPLE, 0)


def test_cover_requires_coverage():
    with pytest.raises(CoverError):
        cover_of("[0,1]", "(0,1/2)")  # misses 0 and [1/2,1]


def test_point_components_cannot_serve_windows():
    # adjacent point merges away during canonicalization: ordinary cover
    c = cover_of("[0,1]", "[0,3/4);[3/4,3/4]", "(1/2,1]")
    assert window_supremum(c) == F(1, 4)
    assert verify_lebesgue(c, window_supremum(c) / 2)
    # an isolated point plugs the coverage hole at 3/4 but serves no
    # window, so every window straddling 3/4 fails: no admissible length
    with pytest.raises(CoverError):
        window_supremum(cover_of("[0,1]", "[0,5/8);[3/4,3/4]", "(1/2,3/4);(3/4,1]"))


# --- oracle agreement on seeded covers -----------------------------------------


def test_window_supremum_matches_oracles_on_seeded_covers():
    rng = random.Random(1105)
    for _ in range(120):
        cover = random_cover(rng, random_target(rng))
        sup = window_supremum(cover)
        assert sup == brute_window_supremum(cover)
        assert verify_lebesgue(cover, sup / 2)
        assert brute_verify(cover, sup / 2)


def test_verify_matches_brute_scan_on_seeded_pairs():
    rng = random.Random(2218)
    for _ in range(80):
        cover = random_cover(rng, random_target(rng))
        sup = window_supremum(cover)
        for delta in (sup / 3, sup / 2, sup, sup * 2):
            assert verify_lebesgue(cover, delta) == brute_verify(cover, delta)


# --- grid covers -------------------------------------------------------------


def test_ball_cover_counts_and_diameters():
    c1 = ball_cover(1)
    assert len(c1.members) == 9
    assert max(m.measure() for m in c1.members) == F(1, 4)
    assert all(
        m.components[-1].hi - m.components[0].lo <= F(1, 4) for m in c1.members
    )
    c2 = ball_cover(2)
    assert len(c2.members) == 17
    assert max(m.measure() for m in c2.members) == F(1, 8)


def test_ball_cover_members_strictly_below_2_to_minus_n():
    for n in (1, 2, 3, 5):
        c = ball_cover(n)
        for m in c.members:
            diam = m.components[-1].hi - m.components[0].lo
            assert diam < F(1, 2**n)
        assert union_all(c.members) == rs("[0,1]")
        amb = closed(0, 1)
        assert all(m.is_relatively_open(amb) for m in c.members)


def test_ball_cover_scales_to_other_ambients():
    amb = closed("1/4", "3/4")
    c = ball_cover(1, amb)
    assert union_all(c.members) == RSet((amb,))
    for m in c.members:
        diam = m.components[-1].hi - m.components[0].lo
        assert diam < F(1, 2) * F(1, 2)


@pytest.mark.parametrize("ambient", [(0, 1), ("1/4", "3/4"), (-1, "2/3")])
def test_ball_cover_members_are_definitional_traces(ambient):
    amb = closed(*ambient)
    box = RSet((amb,))
    for n in range(1, 5):
        h = amb.length / 2 ** (n + 2)
        c = ball_cover(n, amb)
        assert len(c.members) == 2 ** (n + 2) + 1
        for k, m in enumerate(c.members):
            ball = RSet.interval(amb.lo + (k - 1) * h, amb.lo + (k + 1) * h)
            assert m == ball.intersect(box), (n, k)


def holding_by_scan(cover: Cover, lo: F, hi: F):
    """`Cover.holding` by its definition: scan every member in index order."""
    box = RSet((Interval(lo, hi, False, False),))
    for m in cover.members:
        if box.is_subset(m):
            return next(c for c in m.components if box.is_subset(RSet((c,))))
    return None


@pytest.mark.parametrize(
    "ambient", [(0, 1), ("1/4", "3/4"), (-1, "2/3"), ("1/5", 2)]
)
def test_grid_cover_answers_match_a_generic_cover(ambient):
    """Every closed-form answer of a grid cover equals the answer of a
    generic `Cover` of the same materialized members."""
    amb = closed(*ambient)
    a, b = amb.lo, amb.hi
    for n in range(1, 7):
        grid = ball_cover(n, amb)
        assert isinstance(grid, GridCover)
        ref = Cover(RSet((amb,)), grid.members)
        h = grid.step
        count = len(ref.members)
        assert [grid.member(k) for k in range(count)] == list(ref.members)
        with pytest.raises(IndexError):
            grid.member(count)

        grid_points = [a + j * h for j in range(count)]
        midpoints = [a + (j + F(1, 2)) * h for j in range(count - 1)]
        outside = [a - 1, a - h, a - h / 3, b + h / 3, b + h, b + 1]
        points = grid_points + midpoints + outside
        for x in points:
            assert grid.members_containing_point(x) == ref.members_containing_point(x), (n, x)

        windows = [(x, x) for x in points] + [
            (a - h / 2, a + h / 2),  # straddling an end
            (b - h / 2, b + h / 2),
            (a - 1, b + 1),
            (a - 3 * h, a - h),  # wholly outside
            (b + h / 4, b + 2 * h),
            (a + h / 3, b - h / 3),
        ] + list(zip(grid_points, midpoints[2:])) + list(zip(midpoints, grid_points[3:]))
        windows += list(zip(grid_points, midpoints)) + list(zip(midpoints, midpoints[1:]))
        for lo, hi in windows:
            assert grid.members_touching(lo, hi) == ref.members_touching(lo, hi), (n, lo, hi)
            assert grid.holding(lo, hi) == ref.holding(lo, hi), (n, lo, hi)
            if n <= 3:
                assert ref.holding(lo, hi) == holding_by_scan(ref, lo, hi), (n, lo, hi)
            if a <= lo <= hi <= b:
                piece = Interval(lo, hi, False, False)
                mine, theirs = grid.restricted_to(piece), ref.restricted_to(piece)
                assert (mine.target, mine.members) == (theirs.target, theirs.members)

        assert window_supremum(grid) == window_supremum(ref) == h
        assert lebesgue_number(grid) == lebesgue_number(ref)

        family = (
            [RSet.interval(p, q) for p, q in zip(grid_points, grid_points[1:])]
            + [RSet.interval(p, p + 2 * h) for p in midpoints]  # fit nowhere
            + [RSet.interval(p, q, False, False) for p, q in zip(midpoints, midpoints[1:])]
            + [RSet.interval(b, b + h), RSet.interval(a, a + h / 2, False, True)]
        )
        assert grid.refinement_witnesses(family) == ref.refinement_witnesses(family)


# --- restricted sub-covers ---------------------------------------------------


def test_restricted_to_inside_the_union_proves_nothing_again(monkeypatch):
    """A piece of the parent's proven union gets its sub-cover without a
    union of the members or a subtraction from the target."""
    calls = []
    subtract = RSet.subtract
    monkeypatch.setattr(
        RSet, "subtract", lambda self, other: calls.append("subtract") or subtract(self, other)
    )
    monkeypatch.setattr(
        covers, "union_all", lambda rsets: calls.append("union_all") or union_all(rsets)
    )
    for piece in (closed(0, 1), closed("1/3", "2/5"), closed("1/2", "1/2")):
        sub = EXAMPLE.restricted_to(piece)
        assert sub.target == RSet((piece,))
    grid = ball_cover(3)
    grid.restricted_to(closed("1/7", "2/7"))
    assert calls == []


def test_restricted_to_outside_the_union_raises():
    with pytest.raises(CoverError, match="uncovered part"):
        EXAMPLE.restricted_to(closed(1, 2))
    with pytest.raises(CoverError, match="uncovered part"):
        Cover(RSet.empty(), (rs("(0,1/2)"), rs("(1/2,1)"))).restricted_to(closed(0, 1))


def test_proven_sub_covers_answer_like_generic_ones():
    """`restricted_to` of a piece inside the union answers every query as
    a sub-cover built and proved by the checking constructor."""
    rng = random.Random(7301)
    for _ in range(60):
        t = random_target(rng)
        cover = random_cover(rng, t)
        lo = rnd_fraction(rng, t.lo, t.hi)
        piece = Interval(lo, rnd_fraction(rng, lo, t.hi), False, False)
        sub = cover.restricted_to(piece)
        idxs = cover.members_touching(piece.lo, piece.hi)
        ref = Cover(RSet((piece,)), tuple(cover.member(i) for i in idxs))
        assert (sub.target, sub.members, sub.union) == (ref.target, ref.members, ref.union)
        h = piece.length / 4
        points = sorted([piece.lo + k * h for k in range(-1, 6)] + [piece.lo + h / 3])
        for x in points:
            assert sub.members_containing_point(x) == ref.members_containing_point(x)
            for y in points:
                if x <= y:
                    assert sub.members_touching(x, y) == ref.members_touching(x, y)
                    assert sub.holding(x, y) == ref.holding(x, y)
                    assert sub.holding(x, y) == holding_by_scan(sub, x, y)
        if piece.length > 0:
            assert window_supremum(sub) == window_supremum(ref)
            family = [RSet.interval(x, x + h) for x in points] + [
                RSet.interval(x, y, False, False) for x, y in zip(points, points[2:])
            ]
            assert sub.refinement_witnesses(family) == ref.refinement_witnesses(family)


# --- chain subcover ----------------------------------------------------------


def test_chain_drops_redundant_member():
    c = cover_of("[0,1]", "(-1/8,1/2)", "(1/4,9/8)", "(1/3,2/3)")
    assert chain_subcover(c) == [0, 1]


def test_chain_single_member():
    assert chain_subcover(cover_of("[0,1]", "(-1,2)")) == [0]
    # a member touching the target only from outside has an empty trace
    assert chain_subcover(cover_of("[0,1]", "(-1,2)", "(1,2)")) == [0]


def test_chain_three_members():
    c = cover_of("[0,1]", "(-1/8,3/8)", "(1/4,5/8)", "(1/2,9/8)")
    assert chain_subcover(c) == [0, 1, 2]


def test_chain_property_on_seeded_covers():
    rng = random.Random(907)
    box = rs("[0,1]")
    for _ in range(60):
        target = random_target(rng)
        cover = random_cover(rng, target, extra=False)
        chain = chain_subcover(cover)
        clipped = [
            cover.members[i].intersect(RSet((target,))) for i in chain
        ]
        assert RSet((target,)).is_subset(union_all(clipped))
        for x, y in zip(clipped, clipped[1:]):
            assert not x.intersect(y).is_empty
        for x, y in zip(clipped, clipped[2:]):
            assert x.intersect(y).is_empty


def test_chain_rejects_a_trace_closed_inside_the_target():
    with pytest.raises(CoverError, match="not relatively open"):
        chain_subcover(cover_of("[0,1]", "(-1,1/2]", "(1/4,2)"))


def test_chain_links_are_irredundant_on_seeded_covers():
    rng = random.Random(911)
    for _ in range(60):
        target = random_target(rng)
        cover = random_cover(rng, target, extra=True)
        chain = chain_subcover(cover)
        for dropped in chain:
            rest = union_all([cover.members[i] for i in chain if i != dropped])
            assert not RSet((target,)).is_subset(rest)
