"""Covers of compact intervals and exact Lebesgue window lengths.

A `Cover` pairs a closed target RSet with the open member sets that
jointly contain it.  For single-interval targets the module computes the
exact supremum of window lengths d such that every closed window
[x, x+d] inside the target fits in a single member, verifies candidate
window lengths with an explicit counterexample window on failure, and
builds the overlapping dyadic grid covers used by oblivious players.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import ceil, floor
from typing import Optional

from .sets import Interval, RSet, normalize, rat, refines, union_all


class CoverError(ValueError):
    """The proposed cover is malformed or does not cover its target."""


@dataclass(frozen=True)
class Cover:
    """A finite cover of a closed target by nonempty sets.

    The constructor checks that members are nonempty and that their
    union, kept as `union`, contains the target exactly.  Openness of
    members is a game concern and is validated by the referee against
    the game's ambient interval, not here.
    """

    target: RSet
    members: tuple[RSet, ...]
    union: RSet = field(init=False, repr=False, compare=False)
    _index: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        for i, m in enumerate(self.members):
            if m.is_empty:
                raise CoverError(f"cover member {i} is empty")
        object.__setattr__(self, "union", union_all(self.members))
        missing = self.target.subtract(self.union)
        if not missing.is_empty:
            raise CoverError(
                f"members do not cover the target; uncovered part: {missing}"
            )
        object.__setattr__(self, "_index", _point_index(self.members))

    def member(self, i: int) -> RSet:
        """Member i, without building the others of a `GridCover`."""
        return self.members[i]

    def members_touching(self, lo: Fraction, hi: Fraction) -> list[int]:
        """Indices of members whose closure meets [lo, hi], in index order."""
        comps, los, max_hi = self._index
        end = bisect_right(los, hi)
        hit = set()
        for k in range(end - 1, -1, -1):
            if max_hi[k] < lo:
                break
            c, i = comps[k]
            if c.hi >= lo:
                hit.add(i)
        return sorted(hit)

    def members_containing_point(self, x: Fraction) -> list[int]:
        """Indices of members containing x, in index order."""
        return [i for i in self.members_touching(x, x) if self.member(i).contains(x)]

    def holding(self, lo: Fraction, hi: Fraction) -> Optional[Interval]:
        """The component holding the closed interval [lo, hi] in the
        lowest-indexed member that holds it, or None if no member does."""
        piece = Interval(lo, hi, False, False)
        for i in self.members_touching(lo, hi):
            for c in self.member(i).components:
                if c.contains_interval(piece):
                    return c
        return None

    def restricted_to(self, piece: Interval) -> "Cover":
        """Sub-cover of the closed piece [lo, hi] of the target, keeping
        only the members whose closure meets it.  Member sets are not
        clipped.

        When the piece lies inside this cover's proven union, the
        sub-cover needs no proof of its own: each point of the piece lies
        in some member, and that member's closure meets the piece, so the
        kept members cover it.  Otherwise the sub-cover goes through the
        checking constructor, which raises `CoverError` for the part of
        the piece no member covers.
        """
        target = RSet((piece.closure(),))
        idxs = self.members_touching(piece.lo, piece.hi)
        members = tuple(self.member(i) for i in idxs)
        if target.is_subset(self.union):
            return _SubCover(target, members)
        return Cover(target, members)

    def refinement_witnesses(
        self, family: Sequence[RSet]
    ) -> tuple[bool, list[Optional[int]]]:
        """`sets.refines` against this cover, using its point index so
        the candidate search does not scan all members."""
        return refines(family, self.members, self.members_containing_point)


def _point_index(members: Sequence[RSet]) -> tuple:
    """Member components sorted by left end, their left ends, and the
    running maximum of their right ends: what `members_touching`
    searches."""
    comps = sorted(
        ((c, i) for i, m in enumerate(members) for c in m.components),
        key=lambda t: (t[0].lo, t[0].hi),
    )
    running = Fraction(0)
    max_hi_prefix = []
    for c, _ in comps:
        running = c.hi if not max_hi_prefix else max(running, c.hi)
        max_hi_prefix.append(running)
    return comps, tuple(c.lo for c, _ in comps), tuple(max_hi_prefix)


class _SubCover(Cover):
    """A restriction of a cover to a piece of its proven union.

    Coverage follows from the parent's proof (`Cover.restricted_to`), so
    nothing is re-proved; the union is formed only if someone asks.
    """

    def __init__(self, target: RSet, members: tuple[RSet, ...]):
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_index", _point_index(members))

    @cached_property
    def union(self) -> RSet:
        return union_all(self.members)


def _target_interval(cover: Cover) -> Interval:
    comps = cover.target.components
    if len(comps) != 1 or comps[0].lo_open or comps[0].hi_open:
        raise CoverError("target must be a single closed interval")
    t = comps[0]
    if t.length <= 0:
        raise CoverError("target must have positive length")
    return t


def window_supremum(cover: Cover) -> Fraction:
    """Exact supremum d* of window lengths d in (0, L] such that every
    closed window [x, x+d] inside the target [a, b] lies in one member.

    Lengths strictly below d* are always admissible; d* itself may or
    may not be.  Computed by one left-to-right sweep over component
    endpoints: the supremum is the tightest hand-off between members,
    capped by the target length and by the reach of members covering b.
    A grid cover's supremum is its step h: a window starting at a grid
    point jh fits only in member j, which ends at (j+1)h, and every
    window shorter than h fits in member j or j+1.
    """
    if isinstance(cover, GridCover):
        return cover.step
    t = _target_interval(cover)
    a, b = t.lo, t.hi
    cap = b - a

    # point components cannot contain a window of positive length
    comps = [
        c
        for m in cover.members
        for c in m.components
        if c.hi >= a and c.lo <= b and c.hi > c.lo
    ]
    # A component "covers b" when windows ending at b fit inside it.
    def covers_b(c: Interval) -> bool:
        return c.hi > b or (c.hi == b and not c.hi_open)

    wall = None
    for c in comps:
        if covers_b(c):
            room = b - c.lo
            if wall is None or room > wall:
                wall = room
    if wall is None:
        raise CoverError("no member covers windows ending at the right endpoint")

    best = min(cap, wall)

    # Sweep: at each qualification threshold, the binding constraint is
    # the largest reach among members already usable there.
    events: dict[Fraction, list[Interval]] = {}
    for c in comps:
        events.setdefault(c.lo, []).append(c)

    def reach_of(c: Interval) -> Optional[Fraction]:
        return None if covers_b(c) else c.hi

    plateau: Optional[Fraction] = None  # None means "covers through b"
    covers_through_b = False

    def add(c: Interval) -> None:
        nonlocal plateau, covers_through_b
        r = reach_of(c)
        if r is None:
            covers_through_b = True
        elif plateau is None or r > plateau:
            plateau = r

    for x in sorted(events):
        if x < a:
            for c in events[x]:
                add(c)
    for c in events.get(a, []):
        if not c.lo_open:
            add(c)
    if plateau is None and not covers_through_b:
        raise CoverError("no member covers windows starting at the left endpoint")
    if not covers_through_b:
        best = min(best, plateau - a)
    for c in events.get(a, []):
        if c.lo_open:
            add(c)

    for x in sorted(k for k in events if a < k < b):
        for c in events[x]:
            if not c.lo_open:
                add(c)
        if not covers_through_b:
            if plateau is None:
                raise CoverError(f"coverage gap at {x}")
            best = min(best, plateau - x)
        for c in events[x]:
            if c.lo_open:
                add(c)

    if best <= 0:
        raise CoverError("cover admits no positive window length")
    return best


def lebesgue_number(cover: Cover) -> Fraction:
    """A verified Lebesgue number: half the exact window supremum.

    The supremum itself can fail (the admissible set is open on the
    right), so half of it is returned; verify_lebesgue always accepts
    the result.
    """
    return window_supremum(cover) / 2


def lebesgue_counterexample(cover: Cover, delta) -> Optional[Interval]:
    """None if every closed window of length delta inside the target fits
    in a single member; otherwise a failing window [x, x+delta].

    Decided exactly: window starts form [a, b-delta], and the starts
    served by a member component (l, r) form (l, r-delta) with the same
    end flags.
    """
    delta = rat(delta)
    if delta <= 0:
        raise CoverError("delta must be positive")
    t = _target_interval(cover)
    a, b = t.lo, t.hi
    if b - delta < a:
        return None  # no window of this length fits in the target
    required = RSet((Interval(a, b - delta, False, False),))
    starts = []
    for m in cover.members:
        for c in m.components:
            hi = c.hi - delta
            if c.lo < hi or (c.lo == hi and not c.lo_open and not c.hi_open):
                starts.append(Interval(c.lo, hi, c.lo_open, c.hi_open))
    uncovered = required.subtract(normalize(starts))
    if uncovered.is_empty:
        return None
    x = uncovered.representative()
    return Interval(x, x + delta, False, False)


def verify_lebesgue(cover: Cover, delta) -> bool:
    return lebesgue_counterexample(cover, delta) is None


class GridCover(Cover):
    """The index-n overlapping dyadic grid cover of a closed interval.

    With h = len(ambient) * 2^-(n+2) (`step`), member k, for k = 0..2^(n+2),
    is the trace of ((k-1)h, (k+1)h) on the ambient: relatively open,
    nonempty, and closed exactly where the ambient's ends cut it.  The
    members cover the ambient, which is the target and the union.

    Queries are answered in closed form from n and the ambient.  The
    member tuple is built on first use of `members`, once per instance.
    """

    def __init__(self, n: int, ambient: Interval):
        if n < 1:
            raise ValueError("grid index must be >= 1")
        if ambient.lo_open or ambient.hi_open or ambient.length <= 0:
            raise ValueError("grid ambient must be a closed interval of positive length")
        last = 2 ** (n + 2)
        box = RSet((ambient,))
        for name, value in (
            ("n", n),
            ("ambient", ambient),
            ("last", last),
            ("step", ambient.length / last),
            ("target", box),
            ("union", box),
        ):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"GridCover({self.n}, {self.ambient})"

    def _between(self, k: int, lo: Fraction, hi: Fraction) -> RSet:
        return RSet((Interval(lo, hi, k > 0, k < self.last),))

    @cached_property
    def members(self) -> tuple[RSet, ...]:
        # the grid points are computed once and shared by neighbouring members
        last, lo, h = self.last, self.ambient.lo, self.step
        pts = [lo + j * h for j in range(last + 1)]
        return tuple(
            self._between(k, pts[max(k - 1, 0)], pts[min(k + 1, last)])
            for k in range(last + 1)
        )

    def member(self, k: int) -> RSet:
        if not 0 <= k <= self.last:
            raise IndexError(f"grid member {k} out of range")
        lo, h = self.ambient.lo, self.step
        return self._between(k, lo + max(k - 1, 0) * h, lo + min(k + 1, self.last) * h)

    def members_touching(self, lo: Fraction, hi: Fraction) -> list[int]:
        # member k's closure spans grid units [max(k-1, 0), min(k+1, last)]
        u = (lo - self.ambient.lo) / self.step
        v = (hi - self.ambient.lo) / self.step
        if v < 0 or u > self.last:
            return []
        return list(range(max(ceil(u) - 1, 0), min(floor(v) + 1, self.last) + 1))

    def members_containing_point(self, x: Fraction) -> list[int]:
        # grid point j lies in member j only; a point between grid points
        # j and j+1 lies in members j and j+1
        t = (x - self.ambient.lo) / self.step
        if t < 0 or t > self.last:
            return []
        j = floor(t)
        return [j] if t == j else [j, j + 1]

    def restricted_to(self, piece: Interval) -> "Cover":
        if piece.closure() == self.ambient:
            return self
        return super().restricted_to(piece)

    def refinement_witnesses(
        self, family: Sequence[RSet]
    ) -> tuple[bool, list[Optional[int]]]:
        return refines(family, _MembersByIndex(self), self.members_containing_point)


class _MembersByIndex(Sequence):
    """A grid cover's members as a sequence, built one at a time."""

    def __init__(self, cover: GridCover):
        self.cover = cover

    def __len__(self) -> int:
        return self.cover.last + 1

    def __getitem__(self, k: int) -> RSet:
        return self.cover.member(k)


# 32 grids hold every grid one play uses (one per inning, up to
# `GridOne.GRID_CAP` = 13) and every grid of a catalog sweep of budget 8
@lru_cache(maxsize=32)
def ball_cover(n: int, ambient: Interval | None = None) -> GridCover:
    """The index-n grid cover of a closed interval, [0, 1] by default.

    Every member has diameter at most 2h = len * 2^-(n+1), strictly below
    len * 2^-n.  Grid covers are immutable, so the most recently used
    ones are shared between callers.
    """
    if ambient is None:
        ambient = Interval(Fraction(0), Fraction(1), False, False)
    return GridCover(n, ambient)


def chain_subcover(cover: Cover) -> list[int]:
    """A minimal left-to-right chain of member indices covering the target.

    Members whose trace on the target [a, b] is empty are skipped; every
    other trace must be a single interval, relatively open in [a, b].
    One sweep over the traces sorted by left end takes, at each point
    not yet covered, the furthest-reaching trace containing it (the
    first member wins ties).  Relative openness makes the greedy chain
    minimal: link j+1 cannot contain the point link j was chosen for,
    so consecutive links overlap, non-consecutive links are disjoint,
    and each link alone holds the point it was chosen for.
    """
    t = _target_interval(cover)
    a, b = t.lo, t.hi
    box = RSet((t,))
    # each trace as (start, reach): start (lo, lo_open) sorts closed left
    # ends first; reach (hi, closed hi, -index) is larger the further it goes
    traces = []
    for i, m in enumerate(cover.members):
        comps = m.intersect(box).components
        if not comps:
            continue
        if len(comps) > 1:
            raise CoverError(
                f"member {i} restricted to the target is not a single interval"
            )
        c = comps[0]
        if not ((c.lo_open or c.lo == a) and (c.hi_open or c.hi == b)):
            raise CoverError(
                f"member {i} restricted to the target is not relatively open"
            )
        traces.append(((c.lo, c.lo_open), (c.hi, not c.hi_open, -i)))
    traces.sort()

    chain: list[int] = []
    pos, reach, k = a, None, 0  # pos: first point the chain does not cover
    while True:
        # fold in every trace that starts at or before pos
        while k < len(traces) and traces[k][0] <= (pos, False):
            reach = traces[k][1] if reach is None else max(reach, traces[k][1])
            k += 1
        if reach is None or reach[:2] <= (pos, False):
            raise CoverError(f"cover fails to cover the target at {pos}")
        pos, closed, i = reach
        chain.append(-i)
        if closed:  # a relatively open trace is closed on the right only at b
            return chain
