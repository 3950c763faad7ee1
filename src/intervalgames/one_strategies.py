"""The cover-picking player's constructive side.

The central construction composes a Banach-Mazur strategy with a cover
builder: given a nonempty open interval O, `avoid_cover` produces a
two-member cover of the ambient interval such that neither member's
closure contains O.  Any discrete family refining such a cover leaves
part of O uncovered (a discrete family cannot swallow a nontrivial
connected set), so the Banach-Mazur strategy can keep shrinking inside
the uncovered remainder; the nested closures certify that the full
play leaves a point uncovered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .covers import Cover, ball_cover
from .errors import InvariantViolation
from .sequences import EnumeratedPoints
from .sets import Interval, RSet, subtract_closure
from .two_strategies import largest_component, middle_half


def middle_third(comp: Interval) -> Interval:
    w = comp.length / 3
    return Interval(comp.lo + w, comp.hi - w, True, True)


def avoid_cover(o: Interval, ambient: Interval) -> Cover:
    """Two-member cover of the ambient such that no member's closure
    contains the open interval O.

    Each member is the ambient minus one of two disjoint closed blocks
    placed inside O; the blocks are disjoint, so the members cover, and
    each member's closure still misses its block's interior.
    """
    if o.length <= 0:
        raise ValueError("O must be a nontrivial interval")
    w = o.length
    block1 = Interval(o.lo + w / 4, o.lo + 3 * w / 8, False, False)
    block2 = Interval(o.lo + 5 * w / 8, o.lo + 3 * w / 4, False, False)
    box = RSet((ambient.closure(),))
    m1 = box.subtract(RSet((block1,)))
    m2 = box.subtract(RSet((block2,)))
    return Cover((m1, m2))


@dataclass
class BMState:
    """Alternating nested open moves O_0 >= T_0 >= O_1 >= ... of the
    point-intersection game."""

    moves: list[RSet] = field(default_factory=list)

    def push(self, move: RSet) -> None:
        if move.is_empty:
            raise ValueError("moves must be nonempty open sets")
        if self.moves and not move.is_subset(self.moves[-1]):
            raise ValueError("moves must be nested")
        self.moves.append(move)


class CompactIntersection:
    """Banach-Mazur opener for a compact ambient interval: open with the
    middle half, then take the middle third of the largest component of
    the opponent's move.  Closures nest, so the play's intersection is a
    nonempty compact set."""

    def __init__(self, ambient: Interval):
        self.ambient = ambient

    def opening(self) -> Interval:
        return middle_half(self.ambient)

    def respond(self, t: RSet) -> Interval:
        return middle_third(largest_component(t))


class DenseGDeltaIntersection:
    """Like CompactIntersection, but each move additionally dodges the
    inning's deleted point, so the intersection of a play avoids every
    materialized deletion."""

    def __init__(self, deleted: EnumeratedPoints):
        self.deleted = deleted
        self._inning = 0

    def _dense_open(self, n: int) -> RSet:
        box = RSet((self.deleted.ambient.closure(),))
        return box.subtract(RSet.points([self.deleted.point(n)]))

    def opening(self) -> Interval:
        g0 = self._dense_open(0)
        self._inning = 1
        return middle_half(largest_component(g0))

    def respond(self, t: RSet) -> Interval:
        g = self._dense_open(self._inning)
        self._inning += 1
        trimmed = t.intersect(g)
        if trimmed.is_empty:
            raise InvariantViolation("dense open set missed a nonempty open set")
        return middle_third(largest_component(trimmed))


# --- engine-facing bots ------------------------------------------------------


@dataclass(frozen=True)
class HistoryDigest:
    """The finite summary a limit-stage cover may depend on."""

    inning_count: int
    covered_measure: Fraction


class OneBot:
    """Base cover-picking bot."""

    certifying = False
    supports_limit = False

    def __init__(self, ambient: Interval):
        self.ambient = ambient

    def next_cover(self) -> Cover:
        raise NotImplementedError

    def observe(self, family: Sequence[RSet]) -> None:
        pass

    def limit_cover(self, digest: HistoryDigest) -> Cover:
        raise NotImplementedError


class GridOne(OneBot):
    """Oblivious dyadic grid covers, one notch finer per inning.

    The grid index is capped so very long runs stay tractable; up to the
    cap, inning n plays the index-(n+1) grid of diameter below 2^-(n+1).
    """

    GRID_CAP = 13
    supports_limit = True

    def __init__(self, ambient: Interval):
        super().__init__(ambient)
        self._inning = 0

    def _cover(self, index: int) -> Cover:
        return ball_cover(min(index, self.GRID_CAP), self.ambient.closure())

    def next_cover(self) -> Cover:
        self._inning += 1
        return self._cover(self._inning)

    def limit_cover(self, digest: HistoryDigest) -> Cover:
        return self._cover(digest.inning_count + 1)


class AvoidFixedOne(OneBot):
    """Plays the same avoidance cover of the ambient's middle half in
    every inning, including limit stages."""

    supports_limit = True

    def __init__(self, ambient: Interval):
        super().__init__(ambient)
        self._cover = avoid_cover(middle_half(ambient), ambient)

    def next_cover(self) -> Cover:
        return self._cover

    def limit_cover(self, digest: HistoryDigest) -> Cover:
        return self._cover


class OneMain(OneBot):
    """The Banach-Mazur composition with avoidance covers.

    Keeps the nested chain O_n >= T_n >= O_{n+1} where T_n is O_n minus
    the closures of the opponent's inning-n family.  T_n is nonempty for
    every legal discrete family (checked exactly; a failure would
    falsify the implementation), and closure(O_{n+1}) is contained in
    T_n, so the chain certifies an uncovered point of the full play.
    """

    certifying = True

    def __init__(self, bm, ambient: Interval):
        super().__init__(ambient)
        self.bm = bm
        self.opens: list[Interval] = []
        self.trace_t: list[RSet] = []

    def next_cover(self) -> Cover:
        if not self.opens:
            self.opens.append(self.bm.opening())
        return avoid_cover(self.opens[-1], self.ambient)

    def observe(self, family: Sequence[RSet]) -> None:
        t = subtract_closure(RSet((self.opens[-1],)), family)
        if t.is_empty:
            raise InvariantViolation(
                "a discrete family swallowed a nontrivial connected open set"
            )
        nxt = self.bm.respond(t)
        if not RSet((nxt.closure(),)).is_subset(t):
            raise InvariantViolation("next move's closure escaped the remainder")
        self.trace_t.append(t)
        self.opens.append(nxt)

    def trace(self) -> tuple[list[Interval], list[RSet]]:
        return list(self.opens), list(self.trace_t)


def bm_play(one, two_respond: Callable[[RSet], RSet], innings: int) -> BMState:
    """Drive the Banach-Mazur game for finitely many innings.

    `one` provides opening()/respond(); `two_respond` maps the current
    open set to the next one.  Nesting is validated on every move.
    """
    state = BMState()
    o = RSet((one.opening(),))
    for _ in range(innings):
        state.push(o)
        t = two_respond(o)
        state.push(t)
        o = RSet((one.respond(t),))
        if not RSet((o.components[0].closure(),)).is_subset(t):
            raise InvariantViolation("opener's closure escaped the response")
    return state
