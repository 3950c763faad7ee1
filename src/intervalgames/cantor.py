"""Middle-thirds construction on a closed interval, with exact queries.

Level n of the construction consists of 2^n closed pieces of length
len(ambient)/3^n separated by gaps of at least the same size.  The
point-set questions the referee needs ("does the construction meet this
closed interval?", "is it contained in this open union?") are decided
exactly through a successor function: the least point of the
construction at or above a given rational.  Termination of the descent
is guaranteed because the rescaled position of a rational in the
current piece can take only finitely many values before repeating, and
a repeat certifies membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .sets import Interval, RSet, rat

_THIRD = Fraction(1, 3)
_TWO_THIRDS = Fraction(2, 3)


@dataclass(frozen=True)
class CantorSpec:
    """Middle-thirds construction scaled to a closed ambient interval."""

    ambient: Interval

    def __post_init__(self):
        a = self.ambient
        if a.lo_open or a.hi_open or a.length <= 0:
            raise ValueError("ambient must be a closed interval of positive length")

    def pieces(self, level: int) -> list[Interval]:
        """The 2^level closed pieces at the given depth."""
        if level < 0:
            raise ValueError("level must be >= 0")
        current = [(self.ambient.lo, self.ambient.hi)]
        for _ in range(level):
            nxt = []
            for lo, hi in current:
                w = (hi - lo) / 3
                nxt.append((lo, lo + w))
                nxt.append((hi - w, hi))
            current = nxt
        return [Interval(lo, hi, False, False) for lo, hi in current]

    def piece_gap(self, level: int) -> Fraction:
        """Smallest distance between distinct pieces at this level."""
        return self.ambient.length / 3**level

    def successor(self, p) -> Optional[Fraction]:
        """Least point of the construction >= p, or None if p lies above it."""
        p = rat(p)
        if p <= self.ambient.lo:
            return self.ambient.lo
        if p > self.ambient.hi:
            return None
        t = (p - self.ambient.lo) / self.ambient.length
        s = _unit_successor(t)
        return None if s is None else self.ambient.lo + s * self.ambient.length

    def contains(self, p) -> bool:
        return self.successor(p) == rat(p)

    def uncovered_point(self, open_union: RSet, ambient_box: RSet) -> Optional[Fraction]:
        """A construction point outside `open_union`, or None if covered.

        `open_union` must be relatively open in the game ambient so that
        the complement is closed and the successor test is exact on its
        components.
        """
        complement = ambient_box.subtract(open_union)
        for c in complement.components:
            s = self.successor(c.lo)
            if s is not None and s <= c.hi:
                return s
        return None


def _unit_successor(t: Fraction) -> Optional[Fraction]:
    """Least point of the standard middle-thirds set >= t, for t in (0, 1]."""
    lo, width = Fraction(0), Fraction(1)
    seen: set[Fraction] = set()
    while True:
        if t <= lo:
            return lo
        if t > lo + width:
            return None
        rel = (t - lo) / width
        if rel in seen:
            return t  # eventually periodic descent: t is in the set
        seen.add(rel)
        third = width / 3
        if t <= lo + third:
            width = third
        elif t <= lo + 2 * third:
            return lo + 2 * third  # middle gap: jump to the right child
        else:
            lo = lo + 2 * third
            width = third
