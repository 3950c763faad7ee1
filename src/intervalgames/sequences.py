"""Fixed injective enumerations of countable dense subsets of [0, 1].

Used for countable cover targets, dense-G-delta deletions and the
first-category avoidance sequences.  Each enumeration is deterministic
and injective; `rationals` eventually lists every rational of [0, 1],
`triadic` lists the points k/3^n (and in particular never produces 1/2).
A game on a closed ambient interval uses the enumerated points carried
affinely from [0, 1] onto the ambient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd
from typing import Callable, Iterator, Optional

from .errors import InputError
from .sets import Interval


def _rationals() -> Iterator[Fraction]:
    yield Fraction(0)
    yield Fraction(1)
    q = 2
    while True:
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield Fraction(p, q)
        q += 1


def _triadic() -> Iterator[Fraction]:
    yield Fraction(0)
    yield Fraction(1)
    den = 3
    while True:
        for num in range(1, den):
            if num % 3 != 0:
                yield Fraction(num, den)
        den *= 3


def _triadic_point(q: Fraction) -> bool:
    den = q.denominator
    while den % 3 == 0:
        den //= 3
    return den == 1 and 0 <= q <= 1


class Enumeration:
    """Memoized view of an infinite injective point sequence of [0, 1].

    `contains(q)` tells whether the unit rational q is one of the points;
    `within(a, b)` gives one of them strictly between a < b in closed form.
    """

    def __init__(self, gen_factory: Callable[[], Iterator[Fraction]], contains, within):
        self.contains = contains
        self.within = within
        self._gen = gen_factory()
        self._cache: list[Fraction] = []

    def point(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("enumeration index must be >= 0")
        while len(self._cache) <= k:
            self._cache.append(next(self._gen))
        return self._cache[k]


@dataclass(frozen=True)
class EnumeratedPoints:
    """An enumeration's points carried affinely from [0, 1] onto `ambient`."""

    enum: Enumeration
    ambient: Interval

    @classmethod
    def named(cls, enum_id: str, ambient: Interval) -> "EnumeratedPoints":
        return cls(enumeration(enum_id), ambient)

    def _carry(self, unit: Fraction) -> Fraction:
        return self.ambient.lo + unit * self.ambient.length

    def _unit(self, x: Fraction) -> Fraction:
        return (x - self.ambient.lo) / self.ambient.length

    def point(self, k: int) -> Fraction:
        return self._carry(self.enum.point(k))

    def point_within(self, piece: Interval) -> Optional[Fraction]:
        """One of the points inside `piece`, an interval inside the ambient.

        The piece's representative when it is one, else (the points are
        dense) one strictly inside a piece of positive length; None for a
        single point that is not one.
        """
        x = piece.representative()
        if self.enum.contains(self._unit(x)):
            return x
        if piece.is_point:
            return None
        return self._carry(self.enum.within(self._unit(piece.lo), self._unit(piece.hi)))


def _triadic_within(a: Fraction, b: Fraction) -> Fraction:
    den = 3
    while den * (b - a) <= 1:
        den *= 3
    return Fraction(floor(a * den) + 1, den)  # a < k/den <= a + 1/den < b


_FACTORIES = {
    "rationals": (_rationals, lambda q: 0 <= q <= 1, lambda a, b: (a + b) / 2),
    "triadic": (_triadic, _triadic_point, _triadic_within),
}


def enumeration(name: str) -> Enumeration:
    if name not in _FACTORIES:
        raise InputError(
            f"unknown enumeration {name!r}; available: {sorted(_FACTORIES)}"
        )
    return Enumeration(*_FACTORIES[name])


def enumeration_names() -> list[str]:
    return sorted(_FACTORIES)
