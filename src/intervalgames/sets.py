"""Exact set algebra for finite unions of rational intervals on the line.

Everything runs on `fractions.Fraction`; there is no floating point
anywhere in the package.  An `RSet` is the canonical form of a finite
union of intervals with rational endpoints and is the universal currency
the cover games trade in: open covers, refinement families, residual
sets and certificates are all RSets.

Discreteness of a finite family (pairwise disjoint closures) is decided
exactly and certified with the minimal positive gap between closures; a
failed check carries the first offending pair and a shared closure
point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import InputError


def rat(value) -> Fraction:
    """Coerce ints, strings like '3/8' and Fractions to an exact rational."""
    return Fraction(value)


class FamilyNotDiscrete(ValueError):
    """Two members of a would-be discrete family have meeting closures."""

    def __init__(self, index_a: int, index_b: int, point: Fraction):
        self.index_a = index_a
        self.index_b = index_b
        self.point = point
        super().__init__(
            f"members {index_a} and {index_b} have meeting closures "
            f"(shared point {point})"
        )


class FamilyNotDisjoint(ValueError):
    """Two members of a would-be disjoint family share a point."""

    def __init__(self, index_a: int, index_b: int, point: Fraction):
        self.index_a = index_a
        self.index_b = index_b
        self.point = point
        super().__init__(
            f"members {index_a} and {index_b} intersect (shared point {point})"
        )


@dataclass(frozen=True)
class Interval:
    """A nonempty rational interval.

    ``lo < hi`` with any combination of open/closed ends, or ``lo == hi``
    with both ends closed (a single point).  Degenerate open intervals do
    not exist.
    """

    lo: Fraction
    hi: Fraction
    lo_open: bool = True
    hi_open: bool = True

    def __post_init__(self):
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and (self.lo_open or self.hi_open):
            raise ValueError("degenerate interval must be closed on both ends")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and self.lo_open:
            return False
        if x == self.hi and self.hi_open:
            return False
        return True

    def contains_interval(self, other: "Interval") -> bool:
        lo_ok = self.lo < other.lo or (
            self.lo == other.lo and (not self.lo_open or other.lo_open)
        )
        hi_ok = self.hi > other.hi or (
            self.hi == other.hi and (not self.hi_open or other.hi_open)
        )
        return lo_ok and hi_ok

    def closure(self) -> "Interval":
        return Interval(self.lo, self.hi, False, False)

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def representative(self) -> Fraction:
        """A point of the interval, preferring closed endpoints."""
        if not self.lo_open:
            return self.lo
        if not self.hi_open:
            return self.hi
        return self.midpoint()

    def __str__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{self.lo},{self.hi}{rb}"


def closed(lo, hi) -> Interval:
    return Interval(rat(lo), rat(hi), False, False)


def open_iv(lo, hi) -> Interval:
    return Interval(rat(lo), rat(hi), True, True)


def point(x) -> Interval:
    return Interval(rat(x), rat(x), False, False)


def _merge_sorted(intervals: list[Interval]) -> tuple[Interval, ...]:
    """Merge a lo-sorted interval list into canonical disjoint components."""
    out: list[Interval] = []
    for iv in intervals:
        if not out:
            out.append(iv)
            continue
        cur = out[-1]
        touching = iv.lo < cur.hi or (
            iv.lo == cur.hi and not (cur.hi_open and iv.lo_open)
        )
        if not touching:
            out.append(iv)
            continue
        if iv.lo == cur.lo:
            lo_open = cur.lo_open and iv.lo_open
        else:
            lo_open = cur.lo_open
        if iv.hi > cur.hi:
            hi, hi_open = iv.hi, iv.hi_open
        elif iv.hi == cur.hi:
            hi, hi_open = cur.hi, cur.hi_open and iv.hi_open
        else:
            hi, hi_open = cur.hi, cur.hi_open
        out[-1] = Interval(cur.lo, hi, lo_open, hi_open)
    return tuple(out)


@dataclass(frozen=True)
class RSet:
    """Canonical finite union of rational intervals.

    Components are pairwise disjoint, non-mergeable and sorted by left
    endpoint.  Use :func:`normalize` (or the classmethods) to build one;
    the raw constructor trusts its input.
    """

    components: tuple[Interval, ...] = ()
    _los: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_los", tuple(c.lo for c in self.components))

    @classmethod
    def interval(cls, lo, hi, lo_open=True, hi_open=True) -> "RSet":
        return cls((Interval(rat(lo), rat(hi), lo_open, hi_open),))

    @classmethod
    def points(cls, xs: Iterable) -> "RSet":
        return normalize(point(x) for x in xs)

    @classmethod
    def empty(cls) -> "RSet":
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.components

    def measure(self) -> Fraction:
        return sum((c.length for c in self.components), Fraction(0))

    def contains(self, x) -> bool:
        if type(x) is not Fraction:
            x = Fraction(x)
        idx = bisect_right(self._los, x) - 1
        return idx >= 0 and self.components[idx].contains(x)

    def closure(self) -> "RSet":
        return normalize(c.closure() for c in self.components)

    def interior(self) -> "RSet":
        kept = [
            Interval(c.lo, c.hi, True, True)
            for c in self.components
            if not c.is_point
        ]
        return RSet(tuple(kept))

    def union(self, other: "RSet") -> "RSet":
        return _combine(self, other, lambda a, b: a or b)

    def intersect(self, other: "RSet") -> "RSet":
        return _combine(self, other, lambda a, b: a and b)

    def subtract(self, other: "RSet") -> "RSet":
        return _combine(self, other, lambda a, b: a and not b)

    def is_subset(self, other: "RSet") -> bool:
        return all(
            any(oc.contains_interval(c) for oc in _candidates(other, c.lo))
            for c in self.components
        )

    def representative(self) -> Fraction:
        if self.is_empty:
            raise ValueError("empty set has no representative point")
        return self.components[0].representative()

    def is_relatively_open(self, ambient: Interval) -> bool:
        """True if this set is open in the subspace topology of `ambient`."""
        for c in self.components:
            if c.is_point:
                return False
            if not c.lo_open and c.lo > ambient.lo:
                return False
            if not c.hi_open and c.hi < ambient.hi:
                return False
        return True

    def __str__(self) -> str:
        return ";".join(str(c) for c in self.components)


def _candidates(rset: RSet, x: Fraction) -> list[Interval]:
    idx = bisect_right(rset._los, x) - 1
    return [rset.components[idx]] if idx >= 0 else []


def normalize(intervals: Iterable[Interval]) -> RSet:
    """Canonicalize a collection of intervals into an RSet."""
    ivs = sorted(intervals, key=lambda iv: (iv.lo, iv.lo_open, iv.hi))
    return RSet(_merge_sorted(ivs))


def union_all(rsets: Iterable[RSet]) -> RSet:
    """Union of many RSets in one merge pass."""
    return normalize(c for rs in rsets for c in rs.components)


def _events(rset: RSet) -> list[tuple[Fraction, bool, bool]]:
    """The distinct endpoints of a canonical RSet, in order, as
    (point, in the set at the point, in the set just right of it).

    In canonical form two components share an endpoint only when both
    are open there, so that point is one event: out at it, in after it.
    """
    out: list[tuple[Fraction, bool, bool]] = []
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


def _combine(a: RSet, b: RSet, keep: Callable[[bool, bool], bool]) -> RSet:
    """Pointwise boolean combination by one merge sweep.

    The endpoints of both operands split the line into points and open
    gaps on which membership in each operand is constant.  Each
    operand's endpoints are already sorted (`_events`), so one merge
    visits every distinct endpoint once, with each operand's membership
    at that point and on the gap after it; an operand without an
    endpoint there keeps its membership from the gap before.  The kept
    points and gaps are glued into maximal components as the sweep goes,
    which is the canonical form, so the result needs no normalizing.
    Work is linear in the operands' sizes.  `keep(False, False)` must be
    False: the set is empty left of all endpoints and right of them.
    """
    ea, eb = _events(a), _events(b)
    na, nb = len(ea), len(eb)
    i = j = 0
    a_after = b_after = False
    out: list[Interval] = []
    start: Optional[tuple[Fraction, bool]] = None  # open component: (lo, lo_open)
    while i < na or j < nb:
        if j == nb or (i < na and ea[i][0] < eb[j][0]):
            p, a_at, a_after = ea[i]
            b_at = b_after
            i += 1
        elif i == na or eb[j][0] != ea[i][0]:
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
    return RSet(tuple(out))


def point_distance(rset: RSet, x) -> Fraction:
    """Distance from a point to a set (0 when the point belongs to it)."""
    x = rat(x)
    if rset.is_empty:
        raise ValueError("distance to the empty set is undefined")
    best: Optional[Fraction] = None
    for c in rset.components:
        if c.contains(x):
            return Fraction(0)
        d = c.lo - x if x < c.lo else x - c.hi
        d = abs(d)
        if best is None or d < best:
            best = d
    return best


@dataclass(frozen=True)
class DiscreteFamily:
    """A certified discrete family: pairwise disjoint member closures.

    ``min_gap`` is the exact smallest positive distance between closures
    of distinct members, or None for families of size <= 1 (the
    infinity sentinel).
    """

    members: tuple[RSet, ...]
    min_gap: Optional[Fraction]

    def union(self) -> RSet:
        return union_all(self.members)

    def __len__(self) -> int:
        return len(self.members)


def _tagged_components(rsets: Sequence[RSet]) -> list[tuple[Interval, int]]:
    tagged = [(c, i) for i, rs in enumerate(rsets) for c in rs.components]
    tagged.sort(key=lambda t: (t[0].lo, t[0].hi))
    return tagged


def is_discrete(members: Sequence[RSet]) -> DiscreteFamily:
    """Certify pairwise disjoint closures, or raise FamilyNotDiscrete.

    For finite families of sets on the line this is exactly
    discreteness: every point then has a ball meeting at most one
    member (see :func:`witness_radius`).
    """
    members = tuple(members)
    for i, m in enumerate(members):
        if m.is_empty:
            raise ValueError(f"family member {i} is empty")
    if len(members) <= 1:
        return DiscreteFamily(members, None)
    closures = [m.closure() for m in members]
    tagged = _tagged_components(closures)
    min_gap: Optional[Fraction] = None
    for (cur, ci), (nxt, ni) in zip(tagged, tagged[1:]):
        gap = nxt.lo - cur.hi
        if ci == ni:
            continue
        if gap <= 0:
            raise FamilyNotDiscrete(*_first_meeting_pair(closures))
        if min_gap is None or gap < min_gap:
            min_gap = gap
    return DiscreteFamily(members, min_gap)


def _first_meeting_pair(rsets: Sequence[RSet]) -> tuple[int, int, Fraction]:
    """The first pair i < j of meeting sets, with a shared point: the
    witness of `FamilyNotDiscrete` (on closures) and `FamilyNotDisjoint`."""
    for i in range(len(rsets)):
        for j in range(i + 1, len(rsets)):
            meet = rsets[i].intersect(rsets[j])
            if not meet.is_empty:
                return i, j, meet.representative()
    raise AssertionError("no meeting pair found")


def is_disjoint(members: Sequence[RSet]) -> tuple[RSet, ...]:
    """Check pairwise disjointness (as point sets); raise with a witness."""
    members = tuple(members)
    for i, m in enumerate(members):
        if m.is_empty:
            raise ValueError(f"family member {i} is empty")
    tagged = _tagged_components(members)
    for (cur, ci), (nxt, ni) in zip(tagged, tagged[1:]):
        if ci == ni:
            continue
        touching = nxt.lo < cur.hi or (
            nxt.lo == cur.hi and not cur.hi_open and not nxt.lo_open
        )
        if touching:
            raise FamilyNotDisjoint(*_first_meeting_pair(members))
    return members


def witness_radius(family: Sequence[RSet], x) -> Optional[Fraction]:
    """Supremum radius r with the open ball (x-r, x+r) meeting <= 1 member.

    Equals the second-smallest distance from x to the member closures;
    None (infinity) for families with at most one member.
    """
    family = tuple(family)
    if len(family) <= 1:
        return None
    dists = sorted(point_distance(m.closure(), x) for m in family)
    return dists[1]


def refines(
    family: Sequence[RSet], cover_members: Sequence[RSet]
) -> tuple[bool, list[Optional[int]]]:
    """Is every family member contained in some cover member?

    Returns the overall verdict plus, per member, the index of the
    first containing cover element (None when uncontained).  This is
    the definition-level scan, testing every element in index order;
    the referee asks `Cover.refinement_witnesses`, which the tests
    check against it.
    """
    witnesses = [
        next((i for i, cm in enumerate(cover_members) if m.is_subset(cm)), None)
        for m in family
    ]
    return None not in witnesses, witnesses


# --- canonical text syntax -------------------------------------------------

def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


def parse_interval(text: str) -> Interval:
    """Parse `(lo,hi)`, `[lo,hi]`, `[lo,hi)` or `(lo,hi]`."""
    s = text.strip()
    if len(s) < 5 or s[0] not in "([" or s[-1] not in ")]":
        raise InputError(f"not an interval: {text!r}")
    body = s[1:-1]
    if body.count(",") != 1:
        raise InputError(f"not an interval: {text!r}")
    lo_s, hi_s = body.split(",")
    lo, hi = parse_rational(lo_s), parse_rational(hi_s)
    try:
        return Interval(lo, hi, s[0] == "(", s[-1] == ")")
    except ValueError as exc:
        raise InputError(f"not an interval: {text!r}: {exc}") from exc


def parse_rset(text: str) -> RSet:
    """Parse a `;`-joined interval list; empty text means the empty set."""
    s = text.strip()
    if not s:
        return RSet.empty()
    return normalize(parse_interval(part) for part in s.split(";"))
