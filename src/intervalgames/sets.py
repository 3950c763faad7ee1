"""Exact set algebra for finite unions of rational intervals on the line.

Every endpoint, measure and certificate is a `fractions.Fraction` at
every API; there is no floating point anywhere in the package.  Inside,
endpoints are compared as exact integers: each `Interval` keeps its
endpoints' numerators and denominators, single comparisons cross-multiply
them, and sorts and sweeps scale them to one common denominator.  An
`RSet` is the canonical form of a finite union of intervals with rational
endpoints and is the universal currency the cover games trade in: open
covers, refinement families, residual sets and certificates are all
RSets.

Discreteness of a finite family (pairwise disjoint closures) is decided
exactly and certified with the minimal positive gap between closures; a
failed check carries the first offending pair and a shared closure
point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import InputError


def rat(value) -> Fraction:
    """Coerce ints, strings like '3/8' and Fractions to an exact rational."""
    return Fraction(value)


class _MeetingPair(ValueError):
    """Two members of a would-be family meet (`meeting` says how): the
    pair, with a shared point."""

    def __init__(self, index_a: int, index_b: int, point: Fraction):
        self.index_a = index_a
        self.index_b = index_b
        self.point = point
        super().__init__(
            f"members {index_a} and {index_b} {self.meeting} (shared point {point})"
        )


class FamilyNotDiscrete(_MeetingPair):
    """Two members of a would-be discrete family have meeting closures."""

    meeting = "have meeting closures"


class FamilyNotDisjoint(_MeetingPair):
    """Two members of a would-be disjoint family share a point."""

    meeting = "intersect"


@dataclass(frozen=True)
class Interval:
    """A nonempty rational interval.

    ``lo < hi`` with any combination of open/closed ends, or ``lo == hi``
    with both ends closed (a single point).  Degenerate open intervals do
    not exist.  ``_ends`` holds (lo.numerator, lo.denominator,
    hi.numerator, hi.denominator), on which endpoints are compared.
    """

    lo: Fraction
    hi: Fraction
    lo_open: bool = True
    hi_open: bool = True
    _ends: tuple[int, int, int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            lo = Fraction(lo)
            object.__setattr__(self, "lo", lo)
        if type(hi) is not Fraction:
            hi = Fraction(hi)
            object.__setattr__(self, "hi", hi)
        ends = (lo.numerator, lo.denominator, hi.numerator, hi.denominator)
        order = ends[2] * ends[1] - ends[0] * ends[3]  # the sign of hi - lo
        if order < 0:
            raise ValueError(f"interval endpoints out of order: {lo} > {hi}")
        if order == 0 and (self.lo_open or self.hi_open):
            raise ValueError("degenerate interval must be closed on both ends")
        object.__setattr__(self, "_ends", ends)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        ln, ld, hn, hd = self._ends
        return ln * hd == hn * ld

    def contains(self, x: Fraction) -> bool:
        ln, ld, hn, hd = self._ends
        xn, xd = x.numerator, x.denominator
        above = xn * ld - ln * xd  # the sign of x - lo
        if above < 0 or (above == 0 and self.lo_open):
            return False
        below = hn * xd - xn * hd  # the sign of hi - x
        return below > 0 or (below == 0 and not self.hi_open)

    def contains_interval(self, other: "Interval") -> bool:
        ln, ld, hn, hd = self._ends
        on, od, pn, pd = other._ends
        inside = on * ld - ln * od  # the sign of other.lo - lo
        if inside < 0 or (inside == 0 and self.lo_open and not other.lo_open):
            return False
        inside = hn * pd - pn * hd  # the sign of hi - other.hi
        return inside > 0 or (inside == 0 and (not self.hi_open or other.hi_open))

    def closure(self) -> "Interval":
        if not (self.lo_open or self.hi_open):
            return self
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
        cln, cld, chn, chd = cur._ends
        ln, ld, hn, hd = iv._ends
        gap = ln * chd - chn * ld  # the sign of iv.lo - cur.hi
        if gap > 0 or (gap == 0 and cur.hi_open and iv.lo_open):
            out.append(iv)
            continue
        if ln * cld == cln * ld:
            lo_open = cur.lo_open and iv.lo_open
        else:
            lo_open = cur.lo_open
        reach = hn * chd - chn * hd  # the sign of iv.hi - cur.hi
        if reach > 0:
            hi, hi_open = iv.hi, iv.hi_open
        elif reach == 0:
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

    @cached_property
    def _left_ends(self) -> tuple[int, tuple[int, ...]]:
        """The common denominator q of the endpoints, and the components'
        left ends times q: what `_candidates` bisects."""
        q = _common_denominator(self.components)
        return q, tuple(c._ends[0] * (q // c._ends[1]) for c in self.components)

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
        held = _candidates(self, x)
        return bool(held) and held[0].contains(x)

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
        """True if this set is open in the subspace topology of `ambient`:
        a closed end must be the ambient's own end (or lie beyond it)."""
        an, ad, bn, bd = ambient._ends
        for c in self.components:
            if c.is_point:
                return False
            ln, ld, hn, hd = c._ends
            if not c.lo_open and ln * ad > an * ld:  # lo > ambient.lo
                return False
            if not c.hi_open and hn * bd < bn * hd:  # hi < ambient.hi
                return False
        return True

    def __str__(self) -> str:
        return ";".join(str(c) for c in self.components)


def _candidates(rset: RSet, x: Fraction) -> tuple[Interval, ...]:
    """The component that alone can hold x, or a set whose first point is
    x: the last one starting at or before x.  A one-component set offers
    its component unsearched; the caller's containment test decides.
    Otherwise the left ends, integers over q, are searched for floor(x*q):
    an integer is at most x*q exactly when it is at most floor(x*q)."""
    comps = rset.components
    if len(comps) <= 1:
        return comps
    q, los = rset._left_ends
    idx = bisect_right(los, x.numerator * q // x.denominator) - 1
    return comps[idx : idx + 1] if idx >= 0 else ()


def _common_denominator(intervals: Iterable[Interval]) -> int:
    """The least common denominator of the intervals' endpoints (1 for none)."""
    return lcm(*{c._ends[k] for c in intervals for k in (1, 3)})


def normalize(intervals: Iterable[Interval]) -> RSet:
    """Canonicalize a collection of intervals into an RSet.

    The intervals are sorted by (lo, lo_open, hi), with lo and hi as
    integers over their common denominator q; one interval is sorted
    already."""
    ivs = list(intervals)
    if len(ivs) > 1:
        q = _common_denominator(ivs)

        def key(iv: Interval) -> tuple[int, bool, int]:
            ln, ld, hn, hd = iv._ends
            return ln * (q // ld), iv.lo_open, hn * (q // hd)

        ivs.sort(key=key)
    return RSet(_merge_sorted(ivs))


def union_all(rsets: Iterable[RSet]) -> RSet:
    """Union of many RSets in one merge pass."""
    return normalize(c for rs in rsets for c in rs.components)


def subtract_closure(x: RSet, family: Iterable[RSet]) -> RSet:
    """The nonempty set x minus the closure of the union of `family`.

    The closure of a finite union is the union of its components'
    closures, and a closure that misses x's closed hull [a, b] removes
    no point of x, so only the components whose closure meets [a, b]
    (lo <= b and hi >= a, as integers) are closed and merged."""
    an, ad = x.components[0]._ends[:2]
    bn, bd = x.components[-1]._ends[2:]
    near = [
        c.closure()
        for rs in family
        for c in rs.components
        if c._ends[0] * bd <= bn * c._ends[1] and c._ends[2] * ad >= an * c._ends[3]
    ]
    return x.subtract(normalize(near))


def gaps(rset: RSet, window: Interval) -> Iterator[Interval]:
    """The components of the closed interval `window` minus `rset`, in
    order: those of `RSet((window,)).subtract(rset)`, built one at a
    time, so a caller that stops at a gap has read only the components
    of `rset` up to it.

    The walk keeps x, where the uncovered part resumes (x itself is
    uncovered when `x_in`); ends are compared as integers.
    """
    xn, xd, bn, bd = window._ends
    x, x_in = window.lo, True
    for c in rset.components:
        ln, ld, hn, hd = c._ends
        ahead = hn * xd - xn * hd  # the sign of c.hi - x
        if ahead < 0 or (ahead == 0 and c.hi_open):
            continue  # c ends before x
        past = ln * bd - bn * ld  # the sign of c.lo - b
        if past > 0 or (past == 0 and c.lo_open):
            break
        start = ln * xd - xn * ld  # the sign of c.lo - x
        if start > 0 or (start == 0 and x_in and c.lo_open):
            yield Interval(x, c.lo, not x_in, not c.lo_open)
        reach = hn * bd - bn * hd  # the sign of c.hi - b
        if reach > 0 or (reach == 0 and not c.hi_open):
            return
        x, x_in, xn, xd = c.hi, c.hi_open, hn, hd
    if x_in or xn * bd < bn * xd:
        yield Interval(x, window.hi, not x_in, False)


def _events(rset: RSet, q: int) -> list[tuple[int, Fraction, bool, bool]]:
    """The distinct endpoints of a canonical RSet, in order, as (the
    point times q, the point, in the set at the point, in the set just
    right of it); q is a common multiple of the endpoints' denominators.

    In canonical form two components share an endpoint only when both
    are open there, so that point is one event: out at it, in after it.
    """
    out: list[tuple[int, Fraction, bool, bool]] = []
    for c in rset.components:
        ln, ld, hn, hd = c._ends
        lo, hi = ln * (q // ld), hn * (q // hd)
        if lo == hi:
            out.append((lo, c.lo, True, False))
            continue
        if c.lo_open and out and out[-1][0] == lo:
            out[-1] = (lo, c.lo, False, True)
        else:
            out.append((lo, c.lo, not c.lo_open, True))
        out.append((hi, c.hi, not c.hi_open, False))
    return out


def _combine(a: RSet, b: RSet, keep: Callable[[bool, bool], bool]) -> RSet:
    """Pointwise boolean combination by one merge sweep.

    The endpoints of both operands split the line into points and open
    gaps on which membership in each operand is constant.  Each
    operand's endpoints are already sorted (`_events`), so one merge
    visits every distinct endpoint once, with each operand's membership
    at that point and on the gap after it; an operand without an
    endpoint there keeps its membership from the gap before.  The merge
    orders endpoints by their integer numerators over the operands'
    common denominator; the output is built from the endpoints' own
    Fractions.  The kept points and gaps are glued into maximal
    components as the sweep goes, which is the canonical form, so the
    result needs no normalizing.  Work is linear in the operands' sizes.
    `keep(False, False)` must be False: the set is empty left of all
    endpoints and right of them.
    """
    q = _common_denominator(a.components + b.components)
    ea, eb = _events(a, q), _events(b, q)
    na, nb = len(ea), len(eb)
    i = j = 0
    a_after = b_after = False
    out: list[Interval] = []
    start: Optional[tuple[Fraction, bool]] = None  # open component: (lo, lo_open)
    while i < na or j < nb:
        if j == nb or (i < na and ea[i][0] < eb[j][0]):
            _, p, a_at, a_after = ea[i]
            b_at = b_after
            i += 1
        elif i == na or eb[j][0] != ea[i][0]:
            _, p, b_at, b_after = eb[j]
            a_at = a_after
            j += 1
        else:
            _, p, a_at, a_after = ea[i]
            _, _, b_at, b_after = eb[j]
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


def scaled_components(rsets: Sequence[RSet]) -> tuple[int, list[tuple]]:
    """The common denominator q of the sets' endpoints, and every
    component as (lo times q, hi times q, component, index of its set),
    set by set in order; a sweep sorts it by (lo, hi) itself."""
    comps = [(c, i) for i, rs in enumerate(rsets) for c in rs.components]
    q = _common_denominator(c for c, _ in comps)
    scaled = []
    for c, i in comps:
        ln, ld, hn, hd = c._ends
        scaled.append((ln * (q // ld), hn * (q // hd), c, i))
    return q, scaled


def _family_sweep(members: tuple[RSet, ...], closures: bool) -> Optional[Fraction]:
    """The least gap between components of different members (None when
    no two members have components), or raise on the first meeting pair:
    FamilyNotDiscrete when `closures` meet, FamilyNotDisjoint when the
    sets themselves do.

    The two rulesets differ only at a zero gap: closures always meet
    there, the sets only where both ends are closed.  The sweep reads the
    members' own components, whose closures have the same ends; no
    closure is built unless a witness is needed.  It relies on each
    member being canonical: two components of one member meet at most at
    a shared open end, which their closures share too, so the components
    of a member lie contiguous in the sweep and only pairs of different
    members are measured.
    """
    for i, m in enumerate(members):
        if m.is_empty:
            raise ValueError(f"family member {i} is empty")
    if len(members) <= 1:
        return None
    q, comps = scaled_components(members)
    comps.sort(key=itemgetter(0, 1))
    min_gap: Optional[int] = None  # times q
    for (_, cur_hi, cur, ci), (nxt_lo, _, nxt, ni) in zip(comps, comps[1:]):
        if ci == ni:
            continue
        gap = nxt_lo - cur_hi
        if gap < 0 or (gap == 0 and (closures or not (cur.hi_open or nxt.lo_open))):
            if closures:
                raise FamilyNotDiscrete(*_first_meeting_pair([m.closure() for m in members]))
            raise FamilyNotDisjoint(*_first_meeting_pair(members))
        if min_gap is None or gap < min_gap:
            min_gap = gap
    return None if min_gap is None else Fraction(min_gap, q)


def _first_meeting_pair(rsets: Sequence[RSet]) -> tuple[int, int, Fraction]:
    """The first pair i < j of meeting sets, with a shared point: the
    witness of `FamilyNotDiscrete` (on closures) and `FamilyNotDisjoint`."""
    for i in range(len(rsets)):
        for j in range(i + 1, len(rsets)):
            meet = rsets[i].intersect(rsets[j])
            if not meet.is_empty:
                return i, j, meet.representative()
    raise AssertionError("no meeting pair found")


def is_discrete(members: Sequence[RSet]) -> DiscreteFamily:
    """Certify pairwise disjoint closures, or raise FamilyNotDiscrete.

    For finite families of sets on the line this is exactly
    discreteness: every point then has a ball meeting at most one
    member (see :func:`witness_radius`).
    """
    members = tuple(members)
    return DiscreteFamily(members, _family_sweep(members, closures=True))


def is_disjoint(members: Sequence[RSet]) -> tuple[RSet, ...]:
    """Check pairwise disjointness (as point sets); raise with a witness."""
    members = tuple(members)
    _family_sweep(members, closures=False)
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
