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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cantor import CantorSpec
from .covers import (
    Cover,
    CoverError,
    _target_interval,
    chain_subcover,
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
)


def smallest_even_grid(length: Fraction, sup: Fraction) -> int:
    """Smallest even M with length/M strictly below the window supremum."""
    ratio = length / sup
    m = int(ratio) + 1
    if m % 2:
        m += 1
    return m


def halving_refinement(
    cover: Cover, ambient: Optional[Interval] = None
) -> tuple[DiscreteFamily, list[Interval]]:
    """Refine a cover of a closed interval, covering exactly half of it.

    Cuts [a, b] into the smallest even number M of equal cells shorter
    than the cover's exact window supremum, keeps the odd-indexed open
    cells as a discrete family, and returns the even-indexed closed
    cells as the residual: their lengths add up to exactly (b-a)/2.
    Every cell is shorter than the window supremum, so each closed cell
    fits inside a single cover member; this is asserted per cell.

    The right endpoint b belongs to the last (odd) cell.  When b is the
    right end of the `ambient` interval (by default the target itself)
    that cell is taken relatively open, (g, b]; otherwise (g, b] would
    not be open in the ambient, so the cell stays (g, b) and the point
    b joins the residual as a degenerate closed piece, to be absorbed
    by a later fattening move.
    """
    t = _target_interval(cover)
    if ambient is None:
        ambient = t
    sup = window_supremum(cover)
    m = smallest_even_grid(t.length, sup)
    step = t.length / m
    grid = [t.lo + i * step for i in range(m + 1)]
    for i in range(m):
        if cover.holding(grid[i], grid[i + 1]) is None:
            raise InvariantViolation(
                f"grid cell [{grid[i]},{grid[i + 1]}] fits no cover member"
            )
    at_boundary = t.hi == ambient.hi
    members = [
        RSet.interval(
            grid[i],
            grid[i + 1],
            hi_open=not (i == m - 1 and at_boundary),
        )
        for i in range(1, m, 2)
    ]
    residual = [
        Interval(grid[i], grid[i + 1], False, False) for i in range(0, m, 2)
    ]
    if not at_boundary:
        residual.append(Interval(t.hi, t.hi, False, False))
    return is_discrete(members), residual


@dataclass(frozen=True)
class HalvingState:
    """Residual closed cells still to be covered, and the inning count."""

    residual: tuple[Interval, ...]
    inning: int

    def measure(self) -> Fraction:
        return sum((c.length for c in self.residual), Fraction(0))

    def min_gap(self) -> Optional[Fraction]:
        gaps = [
            nxt.lo - cur.hi for cur, nxt in zip(self.residual, self.residual[1:])
        ]
        return min(gaps) if gaps else None


def halving_step(
    state: HalvingState, cover: Cover, ambient: Optional[Interval] = None
) -> tuple[DiscreteFamily, HalvingState]:
    """Apply the halving refinement to every residual cell against one cover.

    The union of the per-cell families is discrete (cells of one
    residual interval have grid gaps, distinct residual intervals have
    positive gaps) and the total residual measure halves exactly.
    Degenerate point pieces pass through untouched; only a fattening
    move can absorb them.
    """
    if not state.residual:
        raise ValueError("nothing left to refine")
    members: list[RSet] = []
    new_residual: list[Interval] = []
    for piece in state.residual:
        if piece.is_point:
            new_residual.append(piece)
            continue
        sub = cover.restricted_to(piece)
        fam, res = halving_refinement(sub, ambient)
        members.extend(fam.members)
        new_residual.extend(res)
    family = is_discrete(members)
    new_residual.sort(key=lambda p: p.lo)
    return family, HalvingState(tuple(new_residual), state.inning + 1)


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
    verified Lebesgue number (the extension protocol guarantees this).
    Together with the earlier halving families the play then covers the
    whole ambient interval.
    """
    delta = lebesgue_number(cover)
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
    with (5/3) * 3^-n * len(ambient) below the cover's Lebesgue number.
    Otherwise (members only cover the construction) the minimal n at
    which every fattened piece actually fits, found by direct search.
    """
    length = spec.ambient.length
    try:
        ambient_cover = cover.restricted_to(spec.ambient)
    except CoverError:
        ambient_cover = None
    if ambient_cover is not None:
        delta = lebesgue_number(ambient_cover)
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


def chain_puncture_refinement(cover: Cover) -> tuple[list[RSet], list[Fraction]]:
    """Disjoint (not discrete) family covering all but finitely many points.

    From a left-to-right chain of the cover, split the target at the
    midpoints of consecutive overlaps.  Members are pairwise disjoint
    and each lies inside a chain member, but adjacent closures share the
    puncture points, so the family is a legal disjoint-ruleset move and
    an illegal discrete-ruleset move whenever the chain has >= 2 links.
    """
    t = _target_interval(cover)
    a, b = t.lo, t.hi
    box = RSet((t,))
    chain = chain_subcover(cover)
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
    punctures: Sequence[Fraction], cover: Cover, ambient: Optional[Interval] = None
) -> DiscreteFamily:
    """Second inning of the two-inning disjoint-ruleset win: one small
    interval per puncture, inside a member of the new cover, with
    pairwise disjoint closures."""
    pts = sorted(rat(p) for p in punctures)
    if not pts:
        return is_discrete([])
    t = ambient.closure() if ambient is not None else _target_interval(cover)
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
    closure-disjoint subcollection, largest first."""

    def respond(self, inning: int, cover: Cover) -> list[RSet]:
        cands = []
        for m in cover.members:
            for c in m.components:
                if c.length > 0:
                    q = c.length / 4
                    cands.append(Interval(c.lo + q, c.hi - q, True, True))
        cands.sort(key=lambda c: (-c.length, c.lo, c.hi))
        accepted: list[Interval] = []  # kept sorted by lo
        los: list[Fraction] = []
        for c in cands:
            pos = bisect_left(los, c.lo)
            ok = True
            if pos < len(accepted) and accepted[pos].lo - c.hi <= 0:
                ok = False
            if pos > 0 and c.lo - accepted[pos - 1].hi <= 0:
                ok = False
            if ok:
                accepted.insert(pos, c)
                los.insert(pos, c.lo)
        return [RSet((c,)) for c in accepted]


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
    shorter than its Lebesgue number, then fatten the cells away.  The
    number is taken on the whole ambient, where the residual cells lie,
    whatever part of the target the cover was validated against."""

    def at_limit(self, cover: Cover):
        cover = cover.restricted_to(self.ambient)
        delta = lebesgue_number(cover)
        if any(p.length >= delta for p in self.state.residual):
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
    """Two-inning disjoint-ruleset winner: puncture, then clean up."""

    def __init__(self, ambient: Interval):
        super().__init__(ambient)
        self.punctures: Optional[list[Fraction]] = None

    def respond(self, inning: int, cover: Cover) -> list[RSet]:
        if self.punctures is None:
            # the validated cover's own target is empty for point-set
            # targets, so the chain is built on the ambient
            family, self.punctures = chain_puncture_refinement(
                cover.restricted_to(self.ambient)
            )
            return family
        if self.punctures:
            punctures, self.punctures = self.punctures, []
            return list(puncture_cleanup(punctures, cover, self.ambient).members)
        return []
