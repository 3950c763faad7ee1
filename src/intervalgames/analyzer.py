"""Closed-core analysis of covering-player strategies.

Replaying a deterministic strategy against the dyadic grid covers
indexed by a finite sequence tau approximates, from above, the closed
core C_tau: the intersection over m of the closures of the strategy's
responses after history tau followed by grid m.  A strategy whose cores
miss a point can be refuted by a greedy escape search that extends the
history so the response closures never capture the point; the resulting
certificate replays exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .covers import Cover, ball_cover
from .errors import InputError, InvariantViolation
from .sets import (
    DiscreteFamily,
    Interval,
    RSet,
    is_discrete,
    rat,
    union_all,
)
from .two_strategies import largest_component


class IllegalResponse(ValueError):
    """A strategy's reply failed the discrete-refinement rules."""


def _checked_response(bot, inning: int, cover: Cover) -> list[RSet]:
    family = bot.respond(inning, cover)
    fam = [m for m in family]
    for i, m in enumerate(fam):
        if m.is_empty:
            raise IllegalResponse(f"response member {i} is empty")
    ok, _ = cover.refinement_witnesses(fam)
    if not ok:
        raise IllegalResponse("response does not refine the cover")
    is_discrete(fam)
    return fam


def _replay(two_factory: Callable[[], object], indices: Sequence[int], ambient: Interval) -> RSet:
    """Union of the strategy's response to the last cover of the sequence
    B_{i_1}, ..., B_{i_k}."""
    bot = two_factory()
    last: list[RSet] = []
    for j, idx in enumerate(indices):
        last = _checked_response(bot, j, ball_cover(idx, ambient))
    return union_all(last)


@dataclass(frozen=True)
class CoreApproximation:
    """Finite-depth superset of a closed strategy core."""

    tau: tuple[int, ...]
    depth_m: int
    rset: RSet

    def to_json(self) -> dict:
        return {
            "tau": list(self.tau),
            "depth_m": self.depth_m,
            "set": str(self.rset),
        }


def strategy_core(
    two_factory: Callable[[], object],
    tau: Sequence[int],
    depth_m: int,
    ambient: Interval,
) -> CoreApproximation:
    """Intersect response-union closures over grid indices m <= depth_m.

    The result is closed, shrinks as depth grows, and always contains
    the true core (an intersection over all m)."""
    if depth_m < 1:
        raise InputError("depth must be >= 1")
    tau = tuple(tau)
    approx = RSet((ambient.closure(),))
    for m in range(1, depth_m + 1):
        resp = _replay(two_factory, list(tau) + [m], ambient)
        approx = approx.intersect(resp.closure())
        if approx.is_empty:
            break
    return CoreApproximation(tau, depth_m, approx)


@dataclass(frozen=True)
class EscapeCertificate:
    """A truncated losing play for the covering player: after each prefix
    of the chosen grid indices, the response-union closure misses the
    witness."""

    indices: tuple[int, ...]
    witness: Fraction
    uncovered_check: tuple[str, ...]  # closure of the response union, per step

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "witness": str(self.witness),
            "uncovered_check": list(self.uncovered_check),
        }


@dataclass(frozen=True)
class ExhaustionReport:
    """No grid index kept the witness clear at the reported depth."""

    indices: tuple[int, ...]
    failed_depth: int
    searched_m: int

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "failed_depth": self.failed_depth,
            "searched_m": self.searched_m,
        }


def find_escape(
    two_factory: Callable[[], object],
    witness,
    depth_k: int,
    search_m: int,
    ambient: Interval,
) -> EscapeCertificate | ExhaustionReport:
    """Greedy escape search: at each step pick the smallest grid index
    whose response-union closure misses the witness.

    Failure to find an index is reported as exhaustion, never as a win
    for the strategy."""
    witness = rat(witness)
    if not ambient.closure().contains(witness):
        raise InputError("witness must lie in the ambient interval")
    indices: list[int] = []
    checks: list[str] = []
    for step in range(depth_k):
        found = None
        for m in range(1, search_m + 1):
            closure = _replay(two_factory, indices + [m], ambient).closure()
            if not closure.contains(witness):
                found = (m, closure)
                break
        if found is None:
            return ExhaustionReport(tuple(indices), step + 1, search_m)
        indices.append(found[0])
        checks.append(str(found[1]))
    return EscapeCertificate(tuple(indices), witness, tuple(checks))


def verify_escape(
    two_factory: Callable[[], object], cert: EscapeCertificate, ambient: Interval
) -> bool:
    """Replay the certificate's covers; every prefix's response-union
    closure must exclude the witness and match the recorded set."""
    for k in range(1, len(cert.indices) + 1):
        closure = _replay(two_factory, cert.indices[:k], ambient).closure()
        if closure.contains(cert.witness):
            return False
        if str(closure) != cert.uncovered_check[k - 1]:
            return False
    return True


@dataclass(frozen=True)
class UncoveredWitness:
    """Either an open interval or a single rational missed by a family."""

    kind: str  # "interval" | "point"
    interval: Optional[Interval] = None
    point: Optional[Fraction] = None

    def rational(self) -> Fraction:
        if self.kind == "point":
            return self.point
        return self.interval.midpoint()

    def __str__(self) -> str:
        return str(self.interval) if self.kind == "interval" else str(self.point)


def dense_discrete_witness(family: DiscreteFamily, ambient: Interval) -> UncoveredWitness:
    """Exhibit a part of the ambient interval missed by a discrete family.

    With two or more members the closures leave an open gap (a discrete
    family cannot cover a nontrivial connected set), reported as the
    largest gap component.  A single member whose closure is the whole
    ambient still misses an internal endpoint, reported as a point.  In
    particular every rational-endpoint family misses a rational, so no
    single discrete family covers the rationals of the ambient.
    """
    box = RSet((ambient.closure(),))
    closures = union_all([m.closure() for m in family.members])
    gap = box.subtract(closures)
    if not gap.is_empty:
        return UncoveredWitness("interval", interval=largest_component(gap))
    if len(family.members) >= 2:
        raise InvariantViolation(
            "closures of a multi-member discrete family covered the ambient"
        )
    missed = box.subtract(union_all(list(family.members)))
    if missed.is_empty:
        raise ValueError("the single member covers the ambient; nothing is missed")
    points = [c.lo for c in missed.components]
    interior = [p for p in points if ambient.lo < p < ambient.hi]
    return UncoveredWitness("point", point=interior[0] if interior else points[0])
