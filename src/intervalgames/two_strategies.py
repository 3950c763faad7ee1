"""The covering player's constructive strategies.

The work-horses are the halving refinement (respond to a cover of a
closed interval with a discrete family of grid cells whose residual has
exactly half the measure), its transfinite extension that finishes the
job one inning after a limit stage, the one-shot move on a middle-thirds
target, point-by-point coverage of a countable target, the two-inning
chain-puncture win that is legal under the disjoint ruleset but not the
discrete one, and a Banach-Mazur avoidance strategy against a sequence
of nowhere-dense sets.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .cantor import CantorSpec
from .covers import (
    Cover,
    CoverError,
    chain_subcover,
    closed_window,
    lebesgue_number,
    window_supremum,
)
from .errors import InvariantViolation
from .sequences import EnumeratedPoints
from .sets import (
    DiscreteFamily,
    Interval,
    RSet,
    is_discrete,
    rat,
    scaled_components,
)


def smallest_even_grid(length: Fraction, sup: Fraction) -> int:
    """Smallest even M with length/M strictly below the window supremum."""
    ratio = length / sup
    m = int(ratio) + 1
    if m % 2:
        m += 1
    return m


def halving_refinement(
    cover: Cover, piece: Interval, ambient: Interval
) -> tuple[DiscreteFamily, list[Interval]]:
    """Refine a cover on a closed interval, covering exactly half of it.

    Cuts [a, b] (`piece`) into the smallest even number M of equal
    cells shorter than the cover's exact window supremum on [a, b],
    keeps the odd-indexed open cells as a discrete family, and returns
    the even-indexed closed cells as the residual, in order: their
    lengths add up to exactly (b-a)/2.  Every cell is shorter than the
    window supremum, so each closed cell fits inside a single cover
    member.  When one member holds all of [a, b], M = 2 and that member
    holds both cells; otherwise the fit is asserted per cell.  [a, b]
    must be a closed interval of positive length (`CoverError` if not)
    and lie in the cover's union (`CoverError` from `window_supremum`
    if no member holds it and it does not).

    The right endpoint b belongs to the last (odd) cell.  When b is the
    right end of the `ambient` interval that cell is taken relatively
    open, (g, b]; otherwise (g, b] would not be open in the ambient, so
    the cell stays (g, b) and the point b joins the residual as a
    degenerate closed piece, to be absorbed by a later fattening move.
    """
    family, state = halving_step(HalvingState((closed_window(piece),), 0), cover, ambient)
    return family, list(state.residual)


def _halve(
    cover: Cover, lo: int, hi: int, den: int, at_boundary: bool
) -> tuple[list[RSet], list[tuple[int, int, int]]]:
    """`halving_refinement`'s cut of the closed span [lo/den, hi/den],
    lo < hi, uncertified: the open cells as family members and the
    closed cells as spans, each in order.

    Over den*M grid point i is lo*M + i*(hi - lo), so the cut is integer
    arithmetic, and the cover is asked about the span once.  Only the
    members are built as Fractions and `Interval`s, and the span itself
    when no member holds it, for `window_supremum`, which refuses it
    when it is outside the cover's union.
    """
    held = cover.holds(lo, hi, den)
    if held:  # the supremum is hi - lo, so M = 2
        m = 2
    else:
        piece = Interval(Fraction(lo, den), Fraction(hi, den), False, False)
        m = smallest_even_grid(piece.length, window_supremum(cover, piece))
    d, grid = den * m, range(lo * m, hi * m + 1, hi - lo)
    if not held:
        for i in range(m):
            if not cover.holds(grid[i], grid[i + 1], d):
                raise InvariantViolation(
                    f"grid cell [{Fraction(grid[i], d)},{Fraction(grid[i + 1], d)}] "
                    "fits no cover member"
                )
    members = [
        RSet((
            Interval(
                Fraction(grid[i], d), Fraction(grid[i + 1], d),
                True, not (at_boundary and i == m - 1),
            ),
        ))
        for i in range(1, m, 2)
    ]
    return members, [(grid[i], grid[i + 1], d) for i in range(0, m, 2)]


class HalvingState:
    """Residual closed cells still to be covered, and the inning count.

    The cells are kept in two parts.  `spans` holds the cells of positive
    length, the only ones halving cuts, as integer ends over their own
    denominator: (lo, hi, den) with lo < hi and den > 0, not necessarily
    lowest, sorted by left end.  `points` holds the degenerate point
    cells as (numerator, denominator) pairs, in the order they were cut
    off; only the limit move reads them.  `residual` is every cell as a
    closed `Interval`, sorted by left end, built on first use.
    """

    def __init__(self, residual: Sequence[Interval], inning: int):
        spans, points = [], []
        for piece in residual:
            lo, hi = piece.lo, piece.hi
            if piece.is_point:
                points.append((lo.numerator, lo.denominator))
            else:
                den = lcm(lo.denominator, hi.denominator)
                spans.append((
                    lo.numerator * (den // lo.denominator),
                    hi.numerator * (den // hi.denominator),
                    den,
                ))
        self.spans, self.points, self.inning = tuple(spans), tuple(points), inning

    @classmethod
    def _of_parts(cls, spans: tuple, points: tuple, inning: int) -> "HalvingState":
        state = cls.__new__(cls)
        state.spans, state.points, state.inning = spans, points, inning
        return state

    @cached_property
    def residual(self) -> tuple[Interval, ...]:
        cells = [
            Interval(Fraction(lo, den), Fraction(hi, den), False, False)
            for lo, hi, den in self.spans
        ]
        for n, d in self.points:
            x = Fraction(n, d)
            cells.append(Interval(x, x, False, False))
        return tuple(sorted(cells, key=attrgetter("lo")))

    def measure(self) -> Fraction:
        return sum((Fraction(hi - lo, den) for lo, hi, den in self.spans), Fraction(0))

    def min_gap(self) -> Optional[Fraction]:
        gaps = [
            nxt.lo - cur.hi for cur, nxt in zip(self.residual, self.residual[1:])
        ]
        return min(gaps) if gaps else None


def halving_step(
    state: HalvingState, cover: Cover, ambient: Interval
) -> tuple[DiscreteFamily, HalvingState]:
    """Apply the halving refinement to every residual cell against one cover.

    The union of the per-cell families is discrete (cells of one
    residual interval have grid gaps, distinct residual intervals have
    positive gaps) and is certified once; the total residual measure
    halves exactly.  Only the spans are walked: degenerate point pieces
    stay in their own part, untouched, and only a fattening move can
    absorb them.  The spans are sorted by left end and pairwise
    disjoint, and each span's own cells lie inside it in order, so the
    new spans are sorted too.
    """
    if not (state.spans or state.points):
        raise ValueError("nothing left to refine")
    bn, bd = ambient.hi.numerator, ambient.hi.denominator
    members: list[RSet] = []
    spans: list[tuple[int, int, int]] = []
    points: list[tuple[int, int]] = []
    for lo, hi, den in state.spans:
        at_boundary = hi * bd == bn * den
        cells, cut = _halve(cover, lo, hi, den, at_boundary)
        members += cells
        spans += cut
        if not at_boundary:
            points.append((hi, den))
    return is_discrete(members), HalvingState._of_parts(
        tuple(spans), state.points + tuple(points), state.inning + 1
    )


def _fattening_radius(
    piece: Interval, comp: Interval, sibling_gap: Optional[Fraction]
) -> Fraction:
    """Deterministic fattening amount: a third of the gap to sibling
    pieces, capped so the fattened closure stays inside the component."""
    bounds = []
    if sibling_gap is not None:
        bounds.append(sibling_gap / 3)
    if comp.lo_open:
        bounds.append((piece.lo - comp.lo) / 2)
    if comp.hi_open:
        bounds.append((comp.hi - piece.hi) / 2)
    if not bounds:
        bounds.append(piece.length if piece.length > 0 else Fraction(1))
    return min(bounds)


def limit_fattening(
    state: HalvingState, cover: Cover, ambient: Interval
) -> DiscreteFamily:
    """The move after a limit stage: fatten each residual cell into an
    open interval inside a single member of the limit cover.

    Requires every residual cell to be shorter than the limit cover's
    verified Lebesgue number on the ambient (the extension protocol
    guarantees this).
    Together with the earlier halving families the play then covers the
    whole ambient interval.
    """
    delta = lebesgue_number(cover, ambient)
    for piece in state.residual:
        if piece.length >= delta:
            raise ValueError("residual cells still too long for the limit move")
    gap = state.min_gap()
    box = RSet((ambient,))
    members = []
    for piece in state.residual:
        comp = cover.holding(piece.lo, piece.hi)
        if comp is None:
            raise CoverError(f"no cover member contains [{piece.lo},{piece.hi}]")
        gamma = _fattening_radius(piece, comp, gap)
        fat = RSet.interval(piece.lo - gamma, piece.hi + gamma).intersect(box)
        members.append(fat)
    return is_discrete(members)


def cantor_fattening_level(cover: Cover, spec: CantorSpec) -> int:
    """Depth at which fattened construction pieces fit single members.

    When the members cover the whole ambient interval: the minimal n
    with (5/3) * 3^-n * len(ambient) below the cover's Lebesgue number
    on the ambient.
    Otherwise (members only cover the construction) the minimal n at
    which every fattened piece actually fits, found by direct search.
    """
    length = spec.ambient.length
    try:
        delta = lebesgue_number(cover, spec.ambient)
    except CoverError:
        pass  # the members do not cover the ambient
    else:
        n = 0
        while Fraction(5, 3) * length / 3**n >= delta:
            n += 1
        return n
    a, b = spec.ambient.lo, spec.ambient.hi
    for n in range(
        0, 64
    ):  # fallback: members cover the construction but not the ambient
        gamma = length / 3 ** (n + 1)
        if all(
            cover.holding(max(p.lo - gamma, a), min(p.hi + gamma, b)) is not None
            for p in spec.pieces(n)
        ):
            return n
    raise CoverError("no fattening level fits; cover does not cover the target")


def cantor_one_shot(cover: Cover, spec: CantorSpec) -> DiscreteFamily:
    """One discrete family covering the whole middle-thirds construction.

    Fattens each level-n piece by 3^-(n+1) * len(ambient): the 2^n
    resulting open intervals have pairwise closure gaps of at least the
    fattening amount, each lies inside a single cover member, and their
    union contains every construction point.
    """
    n = cantor_fattening_level(cover, spec)
    gamma = spec.ambient.length / 3 ** (n + 1)
    a, b = spec.ambient.lo, spec.ambient.hi
    box = RSet((spec.ambient,))
    members = []
    for piece in spec.pieces(n):
        fat = RSet.interval(piece.lo - gamma, piece.hi + gamma).intersect(box)
        if cover.holding(max(piece.lo - gamma, a), min(piece.hi + gamma, b)) is None:
            raise CoverError(
                f"fattened piece {fat} fits no cover member; invalid cover"
            )
        members.append(fat)
    return is_discrete(members)


def shrink_around(
    q: Fraction, comp: Interval, ambient: Interval, spacing: Optional[Fraction] = None
) -> RSet:
    """Small open interval around q inside a member component.

    Radius: half the distance to the component's open boundaries (half
    the component length when both ends are closed), further capped at a
    quarter of the spacing to the nearest other selected point so that
    closures of neighbouring selections stay disjoint.
    """
    bounds = [comp.length / 2]
    if comp.lo_open:
        bounds.append(q - comp.lo)
    if comp.hi_open:
        bounds.append(comp.hi - q)
    rho = min(bounds) / 2
    if spacing is not None:
        rho = min(rho, spacing / 4)
    raw = RSet.interval(q - rho, q + rho)
    return raw.intersect(RSet((comp,))).intersect(RSet((ambient,)))


def countable_target_move(
    spec: EnumeratedPoints, inning: int, cover: Cover
) -> DiscreteFamily:
    """Singleton family around the inning-th enumerated point, inside a
    cover member containing it.  After n innings the first n points of
    the enumeration are covered."""
    q = spec.point(inning)
    comp = cover.holding(q, q)
    if comp is None:
        raise CoverError(f"no cover member contains the target point {q}")
    return is_discrete([shrink_around(q, comp, spec.ambient)])


def chain_puncture_refinement(
    cover: Cover, part: Interval
) -> tuple[list[RSet], list[Fraction]]:
    """Disjoint (not discrete) family covering all but finitely many points
    of [a, b] (`part`).

    From a left-to-right chain of the cover on [a, b], split [a, b] at the
    midpoints of consecutive overlaps.  Members are pairwise disjoint
    and each lies inside a chain member, but adjacent closures share the
    puncture points, so the family is a legal disjoint-ruleset move and
    an illegal discrete-ruleset move whenever the chain has >= 2 links.
    """
    chain = chain_subcover(cover, part)
    a, b = part.lo, part.hi
    box = RSet((part,))
    clipped = [cover.member(i).intersect(box).components[0] for i in chain]
    # consecutive links overlap in exactly the open interval (nxt.lo, cur.hi)
    punctures = [(nxt.lo + cur.hi) / 2 for cur, nxt in zip(clipped, clipped[1:])]
    if not punctures:
        return [box], []
    cuts = [a] + punctures + [b]
    family = []
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        family.append(
            RSet.interval(lo, hi, lo_open=(i > 0), hi_open=(i < len(cuts) - 2))
        )
    return family, punctures


def puncture_cleanup(
    punctures: Sequence[Fraction], cover: Cover, ambient: Interval
) -> DiscreteFamily:
    """Second inning of the two-inning disjoint-ruleset win: one small
    interval per puncture, inside a member of the new cover, with
    pairwise disjoint closures."""
    pts = sorted(rat(p) for p in punctures)
    if not pts:
        return is_discrete([])
    t = ambient.closure()
    gaps = [q - p for p, q in zip(pts, pts[1:])]
    members = []
    for i, p in enumerate(pts):
        comp = cover.holding(p, p)
        if comp is None:
            raise CoverError(f"no cover member contains puncture {p}")
        near = gaps[max(i - 1, 0) : i + 1]  # to the sorted neighbours
        spacing = min(near) if near else None
        members.append(shrink_around(p, comp, t, spacing))
    return is_discrete(members)


def middle_half(comp: Interval) -> Interval:
    q = comp.length / 4
    return Interval(comp.lo + q, comp.hi - q, True, True)


def largest_component(rs: RSet) -> Interval:
    """Longest component; ties broken leftmost."""
    if rs.is_empty:
        raise ValueError("empty set has no components")
    best = rs.components[0]
    for c in rs.components[1:]:
        if c.length > best.length:
            best = c
    return best


class FirstCategoryAvoider:
    """Banach-Mazur responder that dodges one nowhere-dense closed set
    per inning: inside the opponent's open set, take the middle half of
    the largest component clear of the inning's closed set."""

    def __init__(self, nowhere_dense: Callable[[int], RSet]):
        self.nowhere_dense = nowhere_dense
        self.inning = 0

    def respond(self, opponent_open: RSet) -> RSet:
        if opponent_open.is_empty:
            raise ValueError("opponent move must be a nonempty open set")
        closed = self.nowhere_dense(self.inning).closure()
        self.inning += 1
        allowed = opponent_open.subtract(closed)
        if allowed.is_empty:
            raise InvariantViolation(
                "a nowhere-dense set swallowed a nonempty open set"
            )
        return RSet((middle_half(largest_component(allowed)),))


def point_sequence_avoider(enum_id: str, ambient: Interval) -> FirstCategoryAvoider:
    """Avoider for the first-category set enumerated point by point."""
    points = EnumeratedPoints.named(enum_id, ambient)

    def nth(n: int) -> RSet:
        return RSet.points([points.point(n)])

    return FirstCategoryAvoider(nth)


# --- engine-facing bots ------------------------------------------------------


class TwoBot:
    """Base covering-player bot: empty families everywhere."""

    def __init__(self, ambient: Interval):
        self.ambient = ambient

    def respond(self, inning: int, cover: Cover) -> list[RSet]:
        return []

    def at_limit(self, cover: Cover):
        """Either the string "extend" (materialize one more pre-limit
        inning) or the family played at the limit inning."""
        return []


class EmptyTwo(TwoBot):
    pass


class FirstMemberTwo(TwoBot):
    def respond(self, inning: int, cover: Cover) -> list[RSet]:
        return [cover.member(0)]


class GreedyTwo(TwoBot):
    """Quarter-shrinks every member component and keeps a maximal
    closure-disjoint subcollection, largest first.

    Selection runs on the members' components as integers over their
    common denominator D (`scaled_components`): a positive-length
    component (l, h) is (L, H) = (lD, hD), and its quarter-shrunk
    candidate is (3L+H, L+3H) over 4D.  Candidates are tried by (L-H, 3L+H, L+3H), the order the
    Fraction key (-length, lo, hi) gives: longest first, ties leftmost.
    One is kept when a positive gap separates it from both accepted
    neighbours.  Fractions and `Interval`s are built only for the kept
    candidates, so the family is the one exact Fraction selection gives.
    """

    def respond(self, inning: int, cover: Cover) -> list[RSet]:
        d, comps = scaled_components(cover.members)
        cands = [(lo - hi, 3 * lo + hi, lo + 3 * hi) for lo, hi, _, _ in comps if lo != hi]
        cands.sort()
        los: list[int] = []  # accepted candidates, sorted by left end
        his: list[int] = []
        for _, lo, hi in cands:
            pos = bisect_left(los, lo)
            if pos < len(los) and los[pos] - hi <= 0:
                continue
            if pos > 0 and lo - his[pos - 1] <= 0:
                continue
            los.insert(pos, lo)
            his.insert(pos, hi)
        q = 4 * d
        return [
            RSet((Interval(Fraction(lo, q), Fraction(hi, q), True, True),))
            for lo, hi in zip(los, his)
        ]


class HalvingTwo(TwoBot):
    strategy_doc = "halving refinement of every residual cell, each inning"

    def __init__(self, ambient: Interval):
        super().__init__(ambient)
        self.state = HalvingState((ambient.closure(),), 0)

    def respond(self, inning: int, cover: Cover) -> list[RSet]:
        family, self.state = halving_step(self.state, cover, self.ambient)
        return list(family.members)


class HalvingOmegaPlusOneTwo(HalvingTwo):
    """Halving with the limit-stage finisher: once the limit cover is
    revealed, request extension innings until every residual cell is
    shorter than its Lebesgue number on the ambient, then fatten the
    cells away."""

    def at_limit(self, cover: Cover):
        delta = lebesgue_number(cover, self.ambient)
        # a span's length (hi - lo)/den against delta = n/d, on integers;
        # a point is shorter than any delta
        n, d = delta.numerator, delta.denominator
        if any((hi - lo) * d >= n * den for lo, hi, den in self.state.spans):
            return "extend"
        return list(limit_fattening(self.state, cover, self.ambient).members)


class CantorOneShotTwo(TwoBot):
    def __init__(self, ambient: Interval, spec: CantorSpec):
        super().__init__(ambient)
        self.spec = spec

    def respond(self, inning: int, cover: Cover) -> list[RSet]:
        if inning > 0:
            return []
        return list(cantor_one_shot(cover, self.spec).members)


class CountableTargetTwo(TwoBot):
    def __init__(self, ambient: Interval, spec: EnumeratedPoints):
        super().__init__(ambient)
        self.spec = spec
        self._count = 0

    def respond(self, inning: int, cover: Cover) -> list[RSet]:
        fam = countable_target_move(self.spec, self._count, cover)
        self._count += 1
        return list(fam.members)


class ChainPunctureTwo(TwoBot):
    """Two-inning disjoint-ruleset winner: puncture, then clean up,
    both on the whole ambient."""

    def __init__(self, ambient: Interval):
        super().__init__(ambient)
        self.punctures: Optional[list[Fraction]] = None

    def respond(self, inning: int, cover: Cover) -> list[RSet]:
        if self.punctures is None:
            family, self.punctures = chain_puncture_refinement(cover, self.ambient)
            return family
        if self.punctures:
            punctures, self.punctures = self.punctures, []
            return list(puncture_cleanup(punctures, cover, self.ambient).members)
        return []
