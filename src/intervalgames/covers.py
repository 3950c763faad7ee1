"""Covers of compact intervals and exact Lebesgue window lengths.

A `Cover` is a finite family of nonempty member sets.  Every window
query names the closed interval [a, b] it asks about, which must lie
inside the members' union.  On it the module computes the exact
supremum of window lengths d such that every closed window [x, x+d]
inside it fits in a single member, verifies candidate window lengths
with an explicit counterexample window on failure, and builds the
overlapping dyadic grid covers used by oblivious players.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, lcm
from operator import itemgetter
from typing import Optional

from .sets import Interval, RSet, normalize, rat, scaled_components, union_all


class CoverError(ValueError):
    """The proposed cover is malformed or does not cover a queried window."""


@dataclass(frozen=True)
class Cover:
    """A finite family of nonempty sets, with their `union` and a point
    index over their components.

    What the members must cover is the game's target, which the referee
    checks; openness of members is validated against the game's ambient
    interval, also by the referee.
    """

    members: tuple[RSet, ...]
    union: RSet = field(init=False, repr=False, compare=False)
    _index: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        for i, m in enumerate(self.members):
            if m.is_empty:
                raise CoverError(f"cover member {i} is empty")
        object.__setattr__(self, "union", union_all(self.members))
        object.__setattr__(self, "_index", _point_index(self.members))

    def member(self, i: int) -> RSet:
        """Member i, without building the others of a `GridCover`."""
        return self.members[i]

    def members_touching(self, lo: Fraction, hi: Fraction) -> list[int]:
        """Indices of members whose closure meets [lo, hi], in index order."""
        q, los, his, max_hi, owner, _ = self._index
        # with ends l*q and r*q as integers, a component's closure [l, r]
        # meets [lo, hi] iff l*q <= floor(hi*q) and r*q >= ceil(lo*q)
        top = hi.numerator * q // hi.denominator
        bottom = -(-lo.numerator * q // lo.denominator)
        hit = set()
        for k in range(bisect_right(los, top) - 1, -1, -1):
            if max_hi[k] < bottom:
                break
            if his[k] >= bottom:
                hit.add(owner[k])
        return sorted(hit)

    def members_containing_point(self, x: Fraction) -> list[int]:
        """Indices of members containing x, in index order."""
        return [i for i in self.members_touching(x, x) if self.member(i).contains(x)]

    def holding(self, lo: Fraction, hi: Fraction) -> Optional[Interval]:
        """The component holding the closed interval [lo, hi] in the
        lowest-indexed member that holds it, or None if no member does."""
        return self._holder(lo.numerator, lo.denominator, hi.numerator, hi.denominator)

    def holds(self, lo: int, hi: int, den: int) -> bool:
        """Whether one member holds the closed interval [lo/den, hi/den];
        `holding` on scaled ends, where den need not be lowest."""
        return self._holder(lo, den, hi, den) is not None

    def _holder(self, ln: int, ld: int, hn: int, hd: int) -> Optional[Interval]:
        """`holding` of [x, y] = [ln/ld, hn/hd]: the body `holds` shares.

        An interval holds [x, y] exactly when it holds both ends.  A
        component that does starts at or before x, so the index is read
        leftwards from the last such component, until no component left
        of it reaches y; of those that hold [x, y], the one of the
        lowest-indexed member wins.
        """
        q, los, his, max_hi, owner, comps = self._index
        xq, yq = ln * q, hn * q  # x and y times q, times ld and hd
        best = None
        for k in range(bisect_right(los, xq // ld) - 1, -1, -1):
            if max_hi[k] * hd < yq:
                break
            if best is not None and owner[k] > owner[best]:
                continue
            c = comps[k]
            if c.lo_open and los[k] * ld == xq:  # c starts at x, without it
                continue
            reach = his[k] * hd - yq  # the sign of c.hi - y
            if reach > 0 or (reach == 0 and not c.hi_open):
                best = k
        return None if best is None else comps[best]

    def first_holder(self, m: RSet) -> Optional[int]:
        """The lowest index of a member holding the nonempty set m, or
        None when none does.

        A member holding m has m's first left end x in its closure, so
        only the members touching x are tried, in index order.
        """
        x = m.components[0].lo
        return next(
            (i for i in self.members_touching(x, x) if m.is_subset(self.member(i))),
            None,
        )

    def refinement_witnesses(
        self, family: Sequence[RSet]
    ) -> tuple[bool, list[Optional[int]]]:
        """The refinement rule, for every kind of cover: whether each
        family member lies in some cover member, and per family member
        the lowest index of one that holds it (`first_holder`; None when
        none does).  The empty set lies in every member.
        `sets.refines` is the definition-level scan the tests compare
        this with.
        """
        empty_holder = None if self.union.is_empty else 0
        witnesses = [empty_holder if m.is_empty else self.first_holder(m) for m in family]
        return None not in witnesses, witnesses

    def member_texts(self) -> list[str]:
        """`str` of every member, in index order: what a transcript writes."""
        return [str(m) for m in self.members]


def _point_index(members: Sequence[RSet]) -> tuple:
    """What `members_touching` and `holding` search: the common
    denominator q of the members' endpoints and, over the member
    components sorted by left end, their left ends and right ends as
    integers over q, the running maximum of those right ends, the index
    of each one's member, and the components themselves."""
    q, comps = scaled_components(members)
    comps.sort(key=itemgetter(0, 1))
    los, his, found, owner = zip(*comps) if comps else ((), (), (), ())
    return q, los, his, tuple(accumulate(his, max)), owner, found


def closed_window(part: Interval) -> Interval:
    """`part` when it has the shape of a window, a closed interval of
    positive length; else a `CoverError` naming it."""
    if part.lo_open or part.hi_open:
        raise CoverError(f"the queried window {part} must be a single closed interval")
    if part.is_point:
        raise CoverError(f"the queried window {part} must have positive length")
    return part


def checked_window(cover: Cover, part: Interval) -> Interval:
    """The closed interval [a, b] a query asks about: `part`, or a
    `CoverError` naming it.  It must be a `closed_window` and lie inside
    the cover's union, so the members touching it cover it."""
    window = RSet((closed_window(part),))
    if not window.is_subset(cover.union):
        missing = window.subtract(cover.union)
        raise CoverError(
            f"members do not cover the queried window {part}; uncovered part: {missing}"
        )
    return part


def window_supremum(cover: Cover, part: Interval) -> Fraction:
    """Exact supremum d* of window lengths d in (0, L] such that every
    closed window [x, x+d] inside [a, b] lies in one member.

    [a, b] is `part`; it must lie inside the cover's union, and only the
    members touching it are read.
    Lengths strictly below d* are always admissible; d* itself may or
    may not be.  d* is the least gap between a window start and the
    furthest reach of the components serving it, capped by b - a and
    by the components that hold windows ending at b.  The gap
    only shrinks between consecutive first starts of components, so one
    sweep checks the start a and the left limit of each later first
    start, and stops once a component reaching through b serves.  When
    one member holds all of [a, b], its component serves a and reaches
    through b, so the sweep stops at a with d* = b - a.
    On its ambient a grid cover has supremum its step h: a window
    starting at a grid point jh fits only in member j, which ends at
    (j+1)h, and every window shorter than h fits in member j or j+1.
    """
    t = checked_window(cover, part)
    if isinstance(cover, GridCover) and t == cover.ambient:
        return cover.step
    a, b = t.lo, t.hi
    # components of positive length meeting [a, b], each keyed by the
    # first window start it serves; point components serve no window
    reaches, ends = [], []
    for i in cover.members_touching(a, b):
        for c in cover.member(i).components:
            if c.hi < a or c.lo > b or c.hi <= c.lo:
                continue
            key = (max(c.lo, a), 1 if c.lo >= a and c.lo_open else 0)
            if c.hi > b or (c.hi == b and not c.hi_open):
                ends.append((key, c.lo))  # windows ending at b fit in it
            else:
                reaches.append((key, c.hi))
    if not ends:
        raise CoverError("no member covers windows ending at the right endpoint")
    best = min(b - a, max(b - lo for _, lo in ends))
    through_b = min(key for key, _ in ends)
    reaches.sort()
    starts = sorted({key[0] for key, _ in reaches + ends if a < key[0] < b})
    plateau, k = None, 0
    for point in [(a, 1)] + [(s, 0) for s in starts]:
        if point > through_b:
            break
        while k < len(reaches) and reaches[k][0] < point:
            if plateau is None or reaches[k][1] > plateau:
                plateau = reaches[k][1]
            k += 1
        if plateau is None:
            raise CoverError("no member covers windows starting at the left endpoint")
        best = min(best, plateau - point[0])
    if best <= 0:
        raise CoverError("cover admits no positive window length")
    return best


def lebesgue_number(cover: Cover, part: Interval) -> Fraction:
    """A verified Lebesgue number on `part`: half the exact window
    supremum.

    The supremum itself can fail (the admissible set is open on the
    right), so half of it is returned; verify_lebesgue always accepts
    the result.
    """
    return window_supremum(cover, part) / 2


def lebesgue_counterexample(cover: Cover, part: Interval, delta) -> Optional[Interval]:
    """None if every closed window of length delta inside [a, b] (`part`)
    fits in a single member; otherwise a failing window [x, x+delta].

    Decided exactly: window starts form [a, b-delta], and the starts
    served by a member component (l, r) form (l, r-delta) with the same
    end flags.  Only members touching [a, b] can serve a start in it.
    """
    delta = rat(delta)
    if delta <= 0:
        raise CoverError("delta must be positive")
    t = checked_window(cover, part)
    a, b = t.lo, t.hi
    if b - delta < a:
        return None  # no window of this length fits in [a, b]
    required = RSet((Interval(a, b - delta, False, False),))
    starts = []
    for i in cover.members_touching(a, b):
        for c in cover.member(i).components:
            hi = c.hi - delta
            if c.lo < hi or (c.lo == hi and not c.lo_open and not c.hi_open):
                starts.append(Interval(c.lo, hi, c.lo_open, c.hi_open))
    uncovered = required.subtract(normalize(starts))
    if uncovered.is_empty:
        return None
    x = uncovered.representative()
    return Interval(x, x + delta, False, False)


def verify_lebesgue(cover: Cover, part: Interval, delta) -> bool:
    return lebesgue_counterexample(cover, part, delta) is None


class GridCover(Cover):
    """The index-n overlapping dyadic grid cover of a closed interval.

    With h = len(ambient) * 2^-(n+2) (`step`), member k, for k = 0..2^(n+2),
    is the trace of ((k-1)h, (k+1)h) on the ambient: relatively open,
    nonempty, and closed exactly where the ambient's ends cut it.  Their
    union is the ambient.

    Grid point j is (A + jB)/Q for one integer triple (Q, A, B)
    (`_units`), so a point's grid unit floor((x - a)/h) and whether x is
    a grid point come from one `divmod` of integers.  On them are
    answered in closed form, building no member: `members_touching`,
    `holding`, `holds`, `first_holder` (and so the refinement rule, `Cover`'s
    `refinement_witnesses` over it) and the transcript's `member_texts`;
    also `member(k)`, `window_supremum` on the ambient, and equality.
    The member tuple is built on first use of `members`, once per
    instance; `GreedyTwo` is its only consumer left in a match.
    """

    def __init__(self, n: int, ambient: Interval):
        if n < 1:
            raise ValueError("grid index must be >= 1")
        if ambient.lo_open or ambient.hi_open or ambient.length <= 0:
            raise ValueError("grid ambient must be a closed interval of positive length")
        last = 2 ** (n + 2)
        step = ambient.length / last
        q = lcm(ambient.lo.denominator, step.denominator)
        units = (
            q,
            ambient.lo.numerator * (q // ambient.lo.denominator),
            step.numerator * (q // step.denominator),
        )
        for name, value in (
            ("n", n),
            ("ambient", ambient),
            ("last", last),
            ("step", step),
            ("_units", units),
            ("union", RSet((ambient,))),
        ):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"GridCover({self.n}, {self.ambient})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridCover):
            return NotImplemented
        return (self.n, self.ambient) == (other.n, other.ambient)

    def __hash__(self) -> int:
        return hash((self.n, self.ambient))

    @cached_property
    def members(self) -> tuple[RSet, ...]:
        # the grid points are computed once and shared by neighbouring members
        q, a, b = self._units
        last = self.last
        pts = [Fraction(a + j * b, q) for j in range(last + 1)]
        return tuple(
            RSet((Interval(pts[max(k - 1, 0)], pts[min(k + 1, last)], k > 0, k < last),))
            for k in range(last + 1)
        )

    def _component(self, k: int) -> Interval:
        """The one component of member k."""
        q, a, b = self._units
        last = self.last
        return Interval(
            Fraction(a + max(k - 1, 0) * b, q),
            Fraction(a + min(k + 1, last) * b, q),
            k > 0,
            k < last,
        )

    def member(self, k: int) -> RSet:
        if not 0 <= k <= self.last:
            raise IndexError(f"grid member {k} out of range")
        return RSet((self._component(k),))

    def _unit(self, p: int, d: int) -> tuple[int, int]:
        """floor(t) and r for t = (x - a)/h, which for x = p/d (d > 0,
        not necessarily lowest) is (pQ - Ad)/(Bd): one `divmod`.  r is 0
        exactly when x is a grid point, and then x is grid point t."""
        q, a, b = self._units
        return divmod(p * q - a * d, b * d)

    def members_touching(self, lo: Fraction, hi: Fraction) -> list[int]:
        # member k's closure spans grid units [max(k-1, 0), min(k+1, last)]
        j, r = self._unit(lo.numerator, lo.denominator)
        first = j + (r > 0)  # ceil((lo - a)/h)
        top, _ = self._unit(hi.numerator, hi.denominator)
        if top < 0 or first > self.last:
            return []
        return list(range(max(first - 1, 0), min(top + 1, self.last) + 1))

    def _lowest_holding(
        self, ln: int, ld: int, lo_open: bool, hn: int, hd: int, hi_open: bool
    ) -> Optional[int]:
        """The lowest member holding an interval with ends lo = ln/ld and
        hi = hn/hd, open as flagged, or None when no member does: the
        body of `holding`, `holds` and `first_holder`.

        Right ends grow with k: with v = (hi - a)/h, the members whose
        right end lets hi through are those from k = floor(v) on, or
        from v - 1 on when v is a whole unit at which hi is open (member
        v - 1 ends there, open).  None does when hi lies past b.  Left
        ends grow with k too, so member k holds the interval iff its left
        end (k-1)h, closed at a for k = 0, lets lo through; if it does
        not, no member does.
        """
        top, r = self._unit(hn, hd)
        if top > self.last or (top == self.last and r):
            return None
        k = max(top - 1 if hi_open and not r else top, 0)
        q, a, b = self._units
        start = ln * q - ld * (a + max(k - 1, 0) * b)
        return k if start > 0 or (start == 0 and (lo_open or k == 0)) else None

    def holding(self, lo: Fraction, hi: Fraction) -> Optional[Interval]:
        k = self._lowest_holding(
            lo.numerator, lo.denominator, False, hi.numerator, hi.denominator, False
        )
        return None if k is None else self._component(k)

    def holds(self, lo: int, hi: int, den: int) -> bool:
        return self._lowest_holding(lo, den, False, hi, den, False) is not None

    def first_holder(self, m: RSet) -> Optional[int]:
        # a member is one interval, so it holds m exactly when it holds m's hull
        first, last = m.components[0], m.components[-1]
        return self._lowest_holding(
            first.lo.numerator, first.lo.denominator, first.lo_open,
            last.hi.numerator, last.hi.denominator, last.hi_open,
        )

    def member_texts(self) -> list[str]:
        # grid point j is (a + j*b)/q; each point is written once and
        # shared by its two neighbouring members
        q, a, b = self._units
        pts = []
        for num in range(a, a + (self.last + 1) * b, b):
            g = gcd(num, q)
            pts.append(str(num // g) if g == q else f"{num // g}/{q // g}")
        inner = [f"({x},{y})" for x, y in zip(pts, pts[2:])]
        return [f"[{pts[0]},{pts[1]})", *inner, f"({pts[-2]},{pts[-1]}]"]


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


def chain_subcover(cover: Cover, part: Interval) -> list[int]:
    """A minimal left-to-right chain of member indices covering [a, b]
    (`part`) inside the cover's union.

    Only members touching [a, b] are read, and those whose trace on it
    is empty are skipped; every other trace must be a single interval,
    relatively open in [a, b].
    One sweep over the traces sorted by left end takes, at each point
    not yet covered, the furthest-reaching trace containing it (the
    first member wins ties).  Relative openness makes the greedy chain
    minimal: link j+1 cannot contain the point link j was chosen for,
    so consecutive links overlap, non-consecutive links are disjoint,
    and each link alone holds the point it was chosen for.
    """
    t = checked_window(cover, part)
    a, b = t.lo, t.hi
    box = RSet((t,))
    # each trace as (start, reach): start (lo, lo_open) sorts closed left
    # ends first; reach (hi, closed hi, -index) is larger the further it goes
    traces = []
    for i in cover.members_touching(a, b):
        comps = cover.member(i).intersect(box).components
        if not comps:
            continue
        if len(comps) > 1:
            raise CoverError(
                f"member {i} restricted to the window {t} is not a single interval"
            )
        c = comps[0]
        if not ((c.lo_open or c.lo == a) and (c.hi_open or c.hi == b)):
            raise CoverError(
                f"member {i} restricted to the window {t} is not relatively open"
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
            raise CoverError(f"cover fails to cover the window {t} at {pos}")
        pos, closed, i = reach
        chain.append(-i)
        if closed:  # a relatively open trace is closed on the right only at b
            return chain
