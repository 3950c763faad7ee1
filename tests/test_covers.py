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
from intervalgames.one_strategies import avoid_cover
from intervalgames.sets import (
    Interval,
    RSet,
    closed,
    normalize,
    parse_rset,
    refines,
    union_all,
)

from conftest import random_cover, random_target, refuse_grid_members


def rs(text: str) -> RSet:
    return parse_rset(text)


def cover_of(*member_texts: str) -> Cover:
    return Cover(tuple(rs(t) for t in member_texts))


UNIT = closed(0, 1)
EXAMPLE = cover_of("(-1/8,1/2)", "(1/4,9/8)")


# --- independent oracles -----------------------------------------------------


def brute_verify(cover: Cover, t: Interval, delta: F) -> bool:
    """Window-by-window validity scan over all critical start points of
    windows inside t."""
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


def brute_window_supremum(cover: Cover, t: Interval) -> F:
    """Candidate-difference sweep on t: validity can only flip at
    differences of endpoints, and is monotone, so test candidates and
    midpoints."""
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
    valid = [p for p in probes if brute_verify(cover, t, p)]
    if not valid:
        raise AssertionError("no valid window length at all")
    q = max(valid)
    if q in cands:
        return q
    return min(c for c in cands if c > q)


def mixed_cover(rng: random.Random, target: Interval) -> Cover:
    """Random cover of a closed interval whose members have 1-3
    components: open or closed ends, isolated points, parts past the
    target.  What they miss of the target becomes one more member, as it
    is or widened to an open neighbourhood of each missed piece."""
    a, b = target.lo, target.hi
    unit = (b - a) / 16

    def component() -> Interval:
        x = a + unit * rng.randint(-4, 20)
        if rng.random() < 0.15:
            return Interval(x, x, False, False)
        y = x + unit * rng.randint(1, 12)
        return Interval(x, y, rng.random() < 0.5, rng.random() < 0.5)

    members = [
        normalize(component() for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 4))
    ]
    box = RSet((target,))
    missing = box.subtract(union_all(members))
    if not missing.is_empty:
        if rng.random() < 0.5:
            members.append(missing)
        else:
            members.append(
                normalize(Interval(c.lo - unit, c.hi + unit) for c in missing.components)
            )
    rng.shuffle(members)
    return Cover(tuple(members))


# --- worked examples ---------------------------------------------------------


def test_window_supremum_worked_example():
    assert window_supremum(EXAMPLE, UNIT) == F(1, 4)
    assert lebesgue_number(EXAMPLE, UNIT) == F(1, 8)


def test_windows_left_of_a_closed_start_inside_the_target_count():
    # windows [x, x+d] with x just left of 1/4 fit only in (-1,3/8)
    c = cover_of("(-1,3/8)", "[1/4,2)")
    assert window_supremum(c, UNIT) == F(1, 8) == brute_window_supremum(c, UNIT)
    assert verify_lebesgue(c, UNIT, lebesgue_number(c, UNIT))


def test_lebesgue_single_member_capped_by_target_length():
    c = cover_of("(-1,2)")
    assert window_supremum(c, UNIT) == 1
    assert lebesgue_number(c, UNIT) == F(1, 2)
    assert verify_lebesgue(c, UNIT, 1)


def test_lebesgue_three_member_example():
    c = cover_of("(-1/8,3/8)", "(1/4,5/8)", "(1/2,9/8)")
    d = lebesgue_number(c, UNIT)
    assert d > 0
    assert verify_lebesgue(c, UNIT, d)


def test_verify_counterexample_window():
    window = lebesgue_counterexample(EXAMPLE, UNIT, F(1, 4))
    assert window == Interval(F(1, 4), F(1, 2), False, False)
    assert verify_lebesgue(EXAMPLE, UNIT, F(1, 8))


def test_verify_rejects_nonpositive_delta():
    with pytest.raises(CoverError):
        verify_lebesgue(EXAMPLE, UNIT, 0)


def test_cover_requires_coverage():
    c = cover_of("(0,1/2)")  # misses 0 and [1/2,1]
    with pytest.raises(CoverError, match="uncovered part"):
        window_supremum(c, UNIT)


def test_point_components_cannot_serve_windows():
    # adjacent point merges away during canonicalization: ordinary cover
    c = cover_of("[0,3/4);[3/4,3/4]", "(1/2,1]")
    assert window_supremum(c, UNIT) == F(1, 4)
    assert verify_lebesgue(c, UNIT, window_supremum(c, UNIT) / 2)
    # an isolated point plugs the coverage hole at 3/4 but serves no
    # window, so every window straddling 3/4 fails: no admissible length
    with pytest.raises(CoverError):
        window_supremum(cover_of("[0,5/8);[3/4,3/4]", "(1/2,3/4);(3/4,1]"), UNIT)


# --- oracle agreement on seeded covers -----------------------------------------


def test_window_supremum_matches_oracles_on_seeded_covers():
    rng = random.Random(1105)
    for _ in range(120):
        t = random_target(rng)
        cover = random_cover(rng, t)
        sup = window_supremum(cover, t)
        assert sup == brute_window_supremum(cover, t)
        assert verify_lebesgue(cover, t, sup / 2)
        assert brute_verify(cover, t, sup / 2)
    rng = random.Random(1106)
    for _ in range(240):
        t = random_target(rng)
        cover = mixed_cover(rng, t)
        try:
            sup = window_supremum(cover, t)
        except CoverError:
            with pytest.raises(AssertionError, match="no valid window length"):
                brute_window_supremum(cover, t)
            continue
        assert sup == brute_window_supremum(cover, t), cover
        assert verify_lebesgue(cover, t, sup / 2)
        assert brute_verify(cover, t, sup / 2)


def test_window_held_by_one_member_has_supremum_its_length():
    """When one member holds all of [a, b], the supremum is b - a: the
    whole-window exit agrees with the brute-force sweep."""
    rng = random.Random(1307)
    checked = 0
    for k in range(150):
        t = random_target(rng)
        if k % 3 == 2:
            cover = ball_cover(1 + k % 4, t)
        else:
            cover = (random_cover, mixed_cover)[k % 3](rng, t)
        for c in (c for m in cover.members for c in m.components):
            lo, hi = max(c.lo, t.lo), min(c.hi, t.hi)
            if hi <= lo:
                continue
            x = rnd_fraction(rng, lo, hi)
            y = rnd_fraction(rng, x, hi)
            if y == x or not c.contains_interval(Interval(x, y, False, False)):
                continue
            piece = Interval(x, y, False, False)
            assert cover.holding(x, y) is not None
            assert window_supremum(cover, piece) == y - x == brute_window_supremum(cover, piece)
            checked += 1
    assert checked >= 100


def test_verify_matches_brute_scan_on_seeded_pairs():
    rng = random.Random(2218)
    for _ in range(80):
        t = random_target(rng)
        cover = random_cover(rng, t)
        sup = window_supremum(cover, t)
        for delta in (sup / 3, sup / 2, sup, sup * 2):
            assert verify_lebesgue(cover, t, delta) == brute_verify(cover, t, delta)
    rng = random.Random(2219)
    for _ in range(160):
        t = random_target(rng)
        cover = mixed_cover(rng, t)
        length = t.length
        try:
            sup = window_supremum(cover, t)
        except CoverError:
            sup = None
        deltas = (length / 16, length / 3) if sup is None else (sup / 3, sup / 2, sup, sup * 2)
        for delta in deltas:
            assert verify_lebesgue(cover, t, delta) == brute_verify(cover, t, delta), cover
        if sup is not None:
            assert verify_lebesgue(cover, t, sup / 2)


def test_lebesgue_verifier_reads_only_the_window(monkeypatch):
    """On a grid the verifier asks for the members touching the window,
    so it answers without building the grid's member tuple."""
    grid = ball_cover(6, closed("1/5", 2))
    ref = Cover(grid.members)
    queries = [
        (verify_lebesgue, grid.ambient, grid.step / 2),
        (lebesgue_counterexample, grid.ambient, grid.step),
        (lebesgue_counterexample, closed("1/3", "3/4"), 3 * grid.step / 2),
    ]
    expected = [query(ref, part, delta) for query, part, delta in queries]
    assert expected[0] is True and None not in expected[1:]
    refuse_grid_members(monkeypatch)
    assert [query(grid, part, delta) for query, part, delta in queries] == expected


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
        ref = Cover(grid.members)
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
            if a <= lo < hi <= b:
                piece = Interval(lo, hi, False, False)
                assert window_supremum(grid, piece) == window_supremum(ref, piece), (n, lo, hi)

        assert window_supremum(grid, amb) == window_supremum(ref, amb) == h
        assert lebesgue_number(grid, amb) == lebesgue_number(ref, amb)

        family = (
            [RSet.interval(p, q) for p, q in zip(grid_points, grid_points[1:])]
            + [RSet.interval(p, p + 2 * h) for p in midpoints]  # fit nowhere
            + [RSet.interval(p, q, False, False) for p, q in zip(midpoints, midpoints[1:])]
            + [RSet.interval(b, b + h), RSet.interval(a, a + h / 2, False, True)]
            + [RSet.empty()]
        )
        assert (
            grid.refinement_witnesses(family)
            == ref.refinement_witnesses(family)
            == refines(family, ref.members)
        )


@pytest.mark.parametrize("ambient", [(0, 1), ("1/5", 2), (-1, "2/3"), (-3, -1)])
def test_grid_member_texts_are_the_members_printed(ambient):
    amb = closed(*ambient)
    for n in range(1, 7):
        grid = GridCover(n, amb)
        assert grid.member_texts() == [str(m) for m in grid.members], n
    assert EXAMPLE.member_texts() == ["(-1/8,1/2)", "(1/4,9/8)"]


def random_grid_set(rng: random.Random, grid: GridCover) -> RSet:
    """1-3 components with ends on grid points or midpoints, open or
    closed at random, within three steps of a grid point that lies near
    an end of the ambient twice in three draws; a component may be a
    single point, and the set may stick out past either end."""
    a, h, last = grid.ambient.lo, grid.step, grid.last
    base = rng.choice((rng.randint(-2, 1), rng.randint(last - 3, last), rng.randint(-2, last)))
    comps = []
    for _ in range(rng.randint(1, 3)):
        x, y = sorted(a + (2 * base + rng.randint(0, 6)) * h / 2 for _ in range(2))
        opens = (False, False) if x == y else (rng.random() < 0.5, rng.random() < 0.5)
        comps.append(Interval(x, y, *opens))
    return normalize(comps)


@pytest.mark.parametrize("ambient", [(0, 1), ("1/5", 2), (-1, "2/3"), (-3, -1)])
def test_grid_refinement_answers_match_the_definition(ambient):
    """The grid's closed-form refinement answer equals the definition-level
    scan over its materialized members on seeded random families."""
    rng = random.Random(1709)
    for n in range(1, 7):
        grid = GridCover(n, closed(*ambient))
        family = [random_grid_set(rng, grid) for _ in range(80)]
        ok, witnesses = grid.refinement_witnesses(family)
        assert (ok, witnesses) == refines(family, grid.members), n
        assert 0 < witnesses.count(None) < len(family), n


def random_family_member(rng: random.Random, pool: list[F]) -> RSet:
    """1-3 components with ends at most three steps apart in the sorted
    `pool`, open or closed in every combination; one in four a point."""
    comps = []
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(pool) - 1)
        x, y = pool[i], pool[min(i + rng.randint(1, 3), len(pool) - 1)]
        if rng.random() < 0.25:
            comps.append(Interval(x, x, False, False))
        else:
            comps.append(Interval(x, y, rng.random() < 0.5, rng.random() < 0.5))
    return normalize(comps)


def test_generic_refinement_answers_match_the_definition():
    """Seeded families against generic covers of avoid_cover-style members
    (the ambient minus a closed block: two components each) on random
    ambients: `Cover.refinement_witnesses` equals the definition-level
    scan.  Family members have ends on the members' boundaries, between
    them and past the ambient."""
    rng = random.Random(1801)
    witnessed = []
    for _ in range(60):
        a = F(rng.randint(-20, 20), rng.choice((1, 3, 8, 2**61 - 1)))
        b = a + F(rng.randint(1, 40), rng.choice((1, 5, 3**40)))
        ambient = closed(a, b)
        members = []
        for _ in range(rng.randint(1, 3)):
            lo = a + (b - a) * F(rng.randint(0, 12), 16)
            o = Interval(lo, lo + (b - a) * F(rng.randint(1, 4), 16), True, True)
            members.extend(avoid_cover(o, ambient).members)
        ends = sorted({e for m in members for c in m.components for e in (c.lo, c.hi)})
        pool = sorted(ends + [(x + y) / 2 for x, y in zip(ends, ends[1:])] + [a - 1, b + 1])
        family = [random_family_member(rng, pool) for _ in range(60)]
        ok, witnesses = Cover(tuple(members)).refinement_witnesses(family)
        assert (ok, witnesses) == refines(family, members)
        witnessed += witnesses
    # every kind of answer is exercised: no holder, the first, a later one
    assert None in witnessed and 0 in witnessed
    assert any(w is not None and w > 1 for w in witnessed)


# --- window queries on part of a cover ----------------------------------------


def test_window_queries_inside_the_union_prove_nothing_again(monkeypatch):
    """A window query on a piece of the parent's proven union forms no
    union of the members, subtracts nothing and builds no cover."""
    calls = []
    subtract = RSet.subtract
    monkeypatch.setattr(
        RSet, "subtract", lambda self, other: calls.append("subtract") or subtract(self, other)
    )
    monkeypatch.setattr(
        covers, "union_all", lambda rsets: calls.append("union_all") or union_all(rsets)
    )
    init = Cover.__post_init__
    monkeypatch.setattr(
        Cover, "__post_init__", lambda self: calls.append("Cover") or init(self)
    )
    for piece in (closed(0, 1), closed("1/3", "2/5"), closed("1/2", "5/8")):
        assert window_supremum(EXAMPLE, piece) > 0
        assert chain_subcover(EXAMPLE, piece)
    grid = ball_cover(3)
    assert window_supremum(grid, closed("1/7", "2/7")) == grid.step
    assert chain_subcover(grid, closed("1/7", "2/7")) == [5, 6, 7, 8, 9]
    assert calls == []


def test_window_queries_outside_the_union_raise():
    outside = (
        (EXAMPLE, closed(1, 2)),
        (cover_of("(0,1/2)", "(1/2,1)"), UNIT),
    )
    for cover, part in outside:
        for query in (window_supremum, chain_subcover):
            with pytest.raises(CoverError, match="uncovered part"):
                query(cover, part)


def test_proven_sub_covers_answer_like_generic_ones():
    """A window query on a piece inside the union answers as it does on
    the sub-cover of the members touching it."""
    rng = random.Random(7301)
    for _ in range(60):
        t = random_target(rng)
        cover = random_cover(rng, t)
        lo = rnd_fraction(rng, t.lo, t.hi)
        piece = Interval(lo, rnd_fraction(rng, lo, t.hi), False, False)
        idxs = cover.members_touching(piece.lo, piece.hi)
        ref = Cover(tuple(cover.member(i) for i in idxs))
        h = piece.length / 4
        points = sorted([piece.lo + k * h for k in range(-1, 6)] + [piece.lo + h / 3])
        for x in points:
            for y in points:
                if piece.lo <= x <= y <= piece.hi:
                    assert cover.holding(x, y) == ref.holding(x, y)
                    assert cover.holding(x, y) == holding_by_scan(ref, x, y)
        if piece.length > 0:
            assert window_supremum(cover, piece) == window_supremum(ref, piece)
            assert lebesgue_number(cover, piece) == lebesgue_number(ref, piece)
            assert [idxs[i] for i in chain_subcover(ref, piece)] == chain_subcover(cover, piece)


def test_holds_on_scaled_ends_answers_like_holding():
    """`Cover.holds(lo, hi, den)` is `holding(lo/den, hi/den) is not
    None` on seeded chain covers, avoidance covers (two-component
    members, points left out), covers with point members, and grids, for
    ends over lowest and over non-lowest denominators; a generic cover's
    `holding` is also the definition-level scan's."""
    rng = random.Random(2121)
    answers = {True: 0, False: 0}
    for case in range(48):
        t = random_target(rng)
        kind = case % 4
        if kind == 0:
            cover = random_cover(rng, t)
        elif kind == 1:
            lo = t.lo + t.length * F(rng.randint(0, 8), 16)
            cover = avoid_cover(Interval(lo, lo + t.length * F(rng.randint(2, 8), 16)), t)
        elif kind == 2:
            cover = Cover(random_cover(rng, t).members + (RSet.points([t.lo, t.hi]),))
        else:
            cover = ball_cover(rng.randint(1, 4), t)
        ends = [rnd_fraction(rng, t.lo - t.length / 4, t.hi + t.length / 4) for _ in range(6)]
        ends += [c.lo for i in range(min(len(cover.members), 6))
                 for c in cover.member(i).components]
        for _ in range(40):
            x, y = sorted(rng.sample(ends, 2))
            expected = cover.holding(x, y)
            if kind != 3:
                assert expected == holding_by_scan(cover, x, y), (cover, x, y)
            den = (x.denominator * y.denominator) * rng.choice((1, 2, 3, 12))
            lo, hi = x.numerator * (den // x.denominator), y.numerator * (den // y.denominator)
            assert cover.holds(lo, hi, den) == (expected is not None), (cover, x, y)
            answers[expected is not None] += 1
    assert min(answers.values()) > 200, answers


# --- chain subcover ----------------------------------------------------------


def test_chain_drops_redundant_member():
    c = cover_of("(-1/8,1/2)", "(1/4,9/8)", "(1/3,2/3)")
    assert chain_subcover(c, UNIT) == [0, 1]


def test_chain_single_member():
    assert chain_subcover(cover_of("(-1,2)"), UNIT) == [0]
    # a member touching the target only from outside has an empty trace
    assert chain_subcover(cover_of("(-1,2)", "(1,2)"), UNIT) == [0]


def test_chain_three_members():
    c = cover_of("(-1/8,3/8)", "(1/4,5/8)", "(1/2,9/8)")
    assert chain_subcover(c, UNIT) == [0, 1, 2]


def test_chain_property_on_seeded_covers():
    rng = random.Random(907)
    box = rs("[0,1]")
    for _ in range(60):
        target = random_target(rng)
        cover = random_cover(rng, target, extra=False)
        chain = chain_subcover(cover, target)
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
        chain_subcover(cover_of("(-1,1/2]", "(1/4,2)"), UNIT)


def test_chain_links_are_irredundant_on_seeded_covers():
    rng = random.Random(911)
    for _ in range(60):
        target = random_target(rng)
        cover = random_cover(rng, target, extra=True)
        chain = chain_subcover(cover, target)
        for dropped in chain:
            rest = union_all([cover.members[i] for i in chain if i != dropped])
            assert not RSet((target,)).is_subset(rest)
