"""Workload definitions: which matches each workload plays, on which ambient.

Plain data only, so the driver and the independent re-referee can use it
without importing `intervalgames`.  A cell is one match configuration; the
child process turns it into a `GameConfig`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_SEED = 1

TWO_SWEEP = (
    "empty",
    "first-member",
    "greedy",
    "halving",
    "countable",
    "halving-omega-plus-1",
    "chain-puncture",
)
ONE_SWEEP = ("grid", "avoid-fixed", "main-compact")
LENGTHS_SWEEP = ("1", "2", "w", "w+1")
STANDARD_TWO = ("empty", "first-member", "greedy", "halving", "countable")


@dataclass(frozen=True)
class Cell:
    ruleset: str
    length: str
    one: str
    two: str
    budget: int
    target: str = "full"

    @property
    def key(self) -> str:
        return (
            f"{self.ruleset}/{self.length}/{self.one}/{self.two}"
            f"/{self.target}/{self.budget}"
        )

    @property
    def known_fault(self) -> bool:
        """`chain-puncture` against a two-member avoidance cover: the
        cover's members have two components on the ambient, which
        `chain_subcover` refuses with a `CoverError` that `play` lets
        escape.  These cells fail on every ambient."""
        return self.two == "chain-puncture" and self.one in (
            "avoid-fixed",
            "main-compact",
        )


def ambient_for(seed: int) -> tuple[Fraction, Fraction]:
    """The closed ambient [lo, hi] a seed picks.

    lo = n/q and hi - lo = m/q with q = 5 or 7, 0 < n < q and m odd with
    q < m < 2q.  The arithmetic is never dyadic, yet every seed's grid
    points print with about as many digits (an even m would halve every
    grid fraction), so every seed costs about as much.
    """
    rng = random.Random(seed)
    q = rng.choice((5, 7))
    lo = Fraction(rng.randint(1, q - 1), q)
    return lo, lo + Fraction(rng.choice(range(q + 2, 2 * q, 2)), q)


def cells(workload: str) -> list[Cell]:
    if workload == "grid-limit":
        return [Cell("discrete", "w+1", "grid", "halving-omega-plus-1", 12)]
    if workload == "certified-main":
        out = [Cell("discrete", "w", "main-compact", t, 25) for t in STANDARD_TWO]
        out += [
            Cell("discrete", "w", "main-gdelta", t, 25, "gdelta:rationals")
            for t in ("halving", "countable")
        ]
        return out
    if workload == "catalog-sweep":
        # main-compact cannot play a limit inning, so the engine refuses
        # its w+1 cells up front; they are not matches
        return [
            Cell(ruleset, length, one, two, 8)
            for ruleset in ("discrete", "disjoint")
            for length in LENGTHS_SWEEP
            for one in ONE_SWEEP
            if not (one == "main-compact" and length == "w+1")
            for two in TWO_SWEEP
        ]
    raise KeyError(workload)


WORKLOADS = ("grid-limit", "certified-main", "catalog-sweep")
