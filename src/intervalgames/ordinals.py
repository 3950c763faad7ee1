"""Ordinals below w^w in Cantor normal form, and inning schedules.

Game lengths are ordinals written as sums of terms w^e * c with
strictly decreasing natural exponents.  The module provides exact
comparison, (non-commutative) ordinal addition, the length-reduction
operator used for successor-length transfer, and the finite schedule of
innings a simulation actually materializes, with explicit markers at
limit stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Iterator

from .errors import InputError


class OrdinalError(InputError):
    pass


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """Cantor normal form: terms (exponent, coefficient) with strictly
    decreasing exponents and coefficients >= 1.  Empty terms = 0."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        last_exp = None
        for exp, coeff in self.terms:
            if exp < 0 or coeff < 1:
                raise OrdinalError(f"bad term (w^{exp})*{coeff}")
            if last_exp is not None and exp >= last_exp:
                raise OrdinalError("exponents must strictly decrease")
            last_exp = exp

    @classmethod
    def of(cls, n: int) -> "Ordinal":
        if n < 0:
            raise OrdinalError("ordinals are non-negative")
        return cls(((0, n),)) if n else cls()

    @classmethod
    def omega(cls, coeff: int = 1, plus: int = 0) -> "Ordinal":
        terms = [(1, coeff)] if coeff else []
        if plus:
            terms.append((0, plus))
        return cls(tuple(terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return all(exp == 0 for exp, _ in self.terms)

    @property
    def finite_part(self) -> int:
        return self.terms[-1][1] if self.terms and self.terms[-1][0] == 0 else 0

    def coefficient(self, exp: int) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    def degree(self) -> int:
        return self.terms[0][0] if self.terms else 0

    def __lt__(self, other: "Ordinal") -> bool:
        return self.terms < other.terms

    def add(self, other: "Ordinal") -> "Ordinal":
        """Ordinal addition: terms of self below other's degree are absorbed."""
        if other.is_zero:
            return self
        lead = other.terms[0][0]
        kept = [t for t in self.terms if t[0] > lead]
        merged = list(other.terms)
        if self.coefficient(lead):
            merged[0] = (lead, self.coefficient(lead) + merged[0][1])
        return Ordinal(tuple(kept + merged))

    def successor(self) -> "Ordinal":
        return self.add(Ordinal.of(1))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for exp, coeff in self.terms:
            if exp == 0:
                parts.append(str(coeff))
            elif exp == 1:
                parts.append("w" if coeff == 1 else f"w*{coeff}")
            else:
                parts.append(f"w^{exp}*{coeff}")
        return "+".join(parts)


ZERO = Ordinal()
OMEGA = Ordinal.omega()


def parse_ordinal(text: str) -> Ordinal:
    """Parse the `w^2*1+w*2+3` grammar (coefficient optional after w^e)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise OrdinalError("empty ordinal string")
    if s == "0":
        return ZERO
    terms = []
    for part in s.split("+"):
        try:
            if part.startswith("w^"):
                rest = part[2:]
                if "*" in rest:
                    exp_s, coeff_s = rest.split("*", 1)
                else:
                    exp_s, coeff_s = rest, "1"
                terms.append((int(exp_s), int(coeff_s)))
            elif part.startswith("w*"):
                terms.append((1, int(part[2:])))
            elif part == "w":
                terms.append((1, 1))
            elif part.isdigit() or (part.startswith("-") and part[1:].isdigit()):
                terms.append((0, int(part)))
            else:
                raise ValueError
        except ValueError:
            raise OrdinalError(f"bad ordinal term: {part!r}") from None
    try:
        return Ordinal(tuple(terms))
    except OrdinalError as exc:
        raise OrdinalError(f"non-canonical ordinal {text!r}: {exc}") from exc


def reduced_length(alpha: Ordinal) -> Ordinal:
    """The shortest game length with the same guaranteed covering-player
    outcome on metrizable boards, for an infinite ordinal alpha.

    Three cases on the Cantor normal form
    alpha = w^b1*n1 + ... + w^bm*nm + k:
      k == 0 and bm > 1  ->  alpha itself;
      k == 0 and bm == 1 ->  drop one w from the last limit term, add 1;
      k > 0              ->  replace the finite tail with 1.
    """
    if alpha.is_finite:
        raise OrdinalError("reduction is defined for infinite ordinals only")
    k = alpha.finite_part
    limit_terms = [t for t in alpha.terms if t[0] > 0]
    bm, nm = limit_terms[-1]
    if k == 0 and bm > 1:
        return alpha
    if k == 0 and bm == 1:
        kept = limit_terms[:-1] + ([(1, nm - 1)] if nm > 1 else [])
        return Ordinal(tuple(kept + [(0, 1)]))
    return Ordinal(tuple(limit_terms + [(0, 1)]))


@dataclass(frozen=True)
class InningSchedule:
    """How transfinite play is truncated to a finite simulation.

    ``main_budget`` innings are materialized before each limit stage;
    at most ``extension_cap`` extra pre-limit innings may be requested
    by the covering player once a limit cover is revealed.
    """

    main_budget: int = 8
    extension_cap: int = 256

    def __post_init__(self):
        if self.main_budget < 1:
            raise InputError("main_budget must be >= 1")
        if self.extension_cap < 0:
            raise InputError("extension_cap must be >= 0")


@dataclass(frozen=True)
class InningLabel:
    """Either a materialized inning or a limit-stage marker."""

    kind: str  # "inning" | "limit"
    ordinal: Ordinal

    def __str__(self) -> str:
        return str(self.ordinal) if self.kind == "inning" else f"limit({self.ordinal})"


def inning_iterator(length: Ordinal, schedule: InningSchedule) -> Iterator[InningLabel]:
    """Enumerate the innings a simulation of the given length materializes.

    Before each limit point w*(j+1) <= length the first ``main_budget``
    innings of the block are produced, then an explicit marker at which
    the engine may insert extension innings; any trailing successor
    innings are enumerated fully.  Lengths of w^2 and above have
    infinitely many limit points and are rejected.
    """
    if length.is_zero:
        raise OrdinalError("length must be positive")
    if length.degree() >= 2:
        raise OrdinalError("lengths of w^2 and above are not simulated")
    blocks = length.coefficient(1)
    tail = length.finite_part
    for j in range(blocks):
        base = Ordinal.omega(j) if j else ZERO
        for i in range(schedule.main_budget):
            yield InningLabel("inning", base.add(Ordinal.of(i)))
        yield InningLabel("limit", Ordinal.omega(j + 1))
    base = Ordinal.omega(blocks) if blocks else ZERO
    for i in range(tail):
        yield InningLabel("inning", base.add(Ordinal.of(i)))
