"""Referee and match driver for the cover-refinement games.

Every move of both players is validated exactly: covers must consist of
nonempty, relatively open member sets whose union contains the target;
families must refine the current cover and be discrete (disjoint member
closures) or merely disjoint, depending on the ruleset.  Violations
carry a concrete witness.  Plays of ordinal length are simulated with
a finite budget per limit block; at a limit stage the cover-picking
player moves as a function of a declared finite history digest, and the
covering player may materialize extra pre-limit innings (the skipped
innings count as legal empty-family moves, so a covered verdict always
corresponds to a genuine legal play).

Adjudication is exact and conservative: "covered" means the union of
all families contains the target with no tolerance; an uncovered
truncated run of limit length is only scored for the cover-picking
player when the nested-closure certificate of the main strategies
verifies; mere non-coverage at a truncation stays "truncated".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from . import catalog
from .cantor import CantorSpec
from .covers import Cover, GridCover
from .errors import InputError, InvariantViolation, ProtocolError
from .one_strategies import HistoryDigest
from .ordinals import (
    InningLabel,
    InningSchedule,
    Ordinal,
    inning_iterator,
)
from .sequences import EnumeratedPoints, enumeration
from .sets import (
    FamilyNotDiscrete,
    FamilyNotDisjoint,
    Interval,
    RSet,
    gaps,
    is_discrete,
    is_disjoint,
    subtract_closure,
    union_all,
)

RULESETS = ("discrete", "disjoint")


class ConfigError(InputError):
    pass


@dataclass(frozen=True)
class TargetSpec:
    """What the covering player must cover.

    kinds: full (the whole ambient), closed (an explicit closed RSet),
    cantor (the middle-thirds construction), countable / gdelta (an
    enumerated dense countable set, to be covered / avoided).
    """

    kind: str
    rset: Optional[RSet] = None
    param: Optional[str] = None

    @classmethod
    def full(cls) -> "TargetSpec":
        return cls("full")

    @classmethod
    def closed(cls, rs: RSet) -> "TargetSpec":
        if rs.is_empty or rs.closure() != rs:
            raise ConfigError("closed target must be a nonempty closed RSet")
        return cls("closed", rset=rs)

    @classmethod
    def cantor(cls) -> "TargetSpec":
        return cls("cantor")

    @classmethod
    def countable(cls, enum_id: str = "rationals") -> "TargetSpec":
        enumeration(enum_id)  # validate
        return cls("countable", param=enum_id)

    @classmethod
    def gdelta(cls, enum_id: str = "rationals") -> "TargetSpec":
        enumeration(enum_id)
        return cls("gdelta", param=enum_id)

    @classmethod
    def parse(cls, text: str) -> "TargetSpec":
        s = text.strip()
        if s == "full":
            return cls.full()
        if s == "cantor":
            return cls.cantor()
        # `countable`, `countable:` and `countable:NAME`; likewise `gdelta`
        kind, colon, rest = s.partition(":")
        if kind == "countable":
            return cls.countable(rest or "rationals")
        if kind == "gdelta":
            return cls.gdelta(rest or "rationals")
        if kind == "closed" and colon:
            from .sets import parse_rset

            return cls.closed(parse_rset(rest))
        raise ConfigError(f"unknown target {text!r}")

    def measured_set(self, ambient: Interval) -> RSet:
        """A closed target's own set, the ambient for the others: what a
        full or closed target's covers must contain, and whose uncovered
        part a certificate and `interactive` measure."""
        if self.kind == "closed":
            return self.rset
        return RSet((ambient.closure(),))

    def enumerated_points(self, ambient: Interval, n: int) -> list[Fraction]:
        """The first n points of the target's enumeration, on `ambient`."""
        points = EnumeratedPoints.named(self.param, ambient)
        return [points.point(k) for k in range(n)]

    def uncovered(
        self, union: RSet, ambient: Interval, materialized: Optional[int] = None
    ) -> Optional[Callable[[], dict]]:
        """None when `union` covers the target, else a function that
        builds a witness of the part it misses: the decision formats
        nothing, and a full or closed target's missed part is only
        computed when its witness is asked for.

        With `materialized` = n, a countable target is only its first n
        enumerated points, and a G-delta target is the ambient minus
        only its first n enumerated (deleted) points.
        """
        window = ambient.closure()
        box = RSet((window,))
        if self.kind == "cantor":
            pt = CantorSpec(window).uncovered_point(union, box)
            return None if pt is None else lambda: {"uncovered_point": str(pt)}
        if self.kind in ("full", "closed"):
            target = self.measured_set(ambient)
            if target.is_subset(union):
                return None
            return lambda: {"uncovered": str(target.subtract(union))}
        if materialized is not None:
            points = self.enumerated_points(ambient, materialized)
            if self.kind == "countable":
                q = next((q for q in points if not union.contains(q)), None)
                return None if q is None else lambda: {"uncovered_point": str(q)}
            # covered exactly when every gap of the union is a deleted point
            deleted = set(points)
            if all(gap.is_point and gap.lo in deleted for gap in gaps(union, window)):
                return None
            return lambda: {
                "uncovered": str(box.subtract(union).subtract(RSet.points(points)))
            }
        points = EnumeratedPoints.named(self.param, ambient)
        for comp in gaps(union, window):
            if self.kind == "countable":
                q = points.point_within(comp)
                if q is not None:
                    return lambda: {"uncovered_point": str(q)}
            elif not comp.is_point:
                return lambda: {"uncovered": str(comp), "note": "interval misses irrationals"}
            elif points.point_within(comp) is None:  # in the target: not deleted
                return lambda: {"uncovered_point": str(comp.lo)}
        return None

    def enum_id_for(self, kind: str) -> str:
        """The enumeration a bot made for `kind` targets follows: this
        target's own when it is of that kind, else the rationals."""
        return self.param if self.kind == kind else "rationals"

    def describe(self) -> str:
        if self.kind == "closed":
            return f"closed:{self.rset}"
        if self.param:
            return f"{self.kind}:{self.param}"
        return self.kind


@dataclass(frozen=True)
class GameConfig:
    ruleset: str
    length: Ordinal
    ambient: Interval
    target: TargetSpec
    one: str
    two: str
    schedule: InningSchedule = InningSchedule()

    def __post_init__(self):
        if self.ruleset not in RULESETS:
            raise ConfigError(f"ruleset must be one of {RULESETS}")
        if self.length.is_zero:
            raise ConfigError("length must be positive")
        amb = self.ambient
        if amb.lo_open or amb.hi_open or amb.length <= 0:
            raise ConfigError("ambient must be a closed interval of positive length")
        if self.target.kind == "closed" and not self.target.rset.is_subset(RSet((amb,))):
            raise ConfigError(f"closed target {self.target.rset} must lie inside the ambient {amb}")

    def describe(self) -> str:
        return (
            f"ruleset={self.ruleset} length={self.length} ambient={self.ambient} "
            f"target={self.target.describe()} one={self.one} two={self.two} "
            f"budget={self.schedule.main_budget}"
        )


class IllegalMove(Exception):
    """A validated rule was broken; carries side, predicate and witness."""

    def __init__(self, side: str, kind: str, detail: dict):
        self.side = side
        self.kind = kind
        self.detail = detail
        super().__init__(f"illegal {side} move: {kind} {detail}")


@dataclass(frozen=True)
class CheckedFamily:
    members: tuple[RSet, ...]
    ruleset: str
    min_gap: Optional[Fraction]


@dataclass(frozen=True)
class InningRecord:
    label: InningLabel
    cover: Cover
    family: CheckedFamily

    def to_json(self) -> dict:
        return {
            "inning": str(self.label.ordinal),
            "one": self.cover.member_texts(),
            "two": [str(m) for m in self.family.members],
            "checks": {
                "refines": True,
                "ruleset": self.family.ruleset,
                "min_gap": None
                if self.family.min_gap is None
                else str(self.family.min_gap),
            },
        }


@dataclass(frozen=True)
class Verdict:
    outcome: str
    certificate: dict

    def to_json(self) -> dict:
        return {"verdict": self.outcome, "certificate": self.certificate}


@dataclass(frozen=True)
class Transcript:
    config: GameConfig
    records: tuple[InningRecord, ...]
    verdict: Verdict

    @property
    def exit_code(self) -> int:
        return 2 if self.verdict.outcome.endswith("forfeit") else 0

    def jsonl_lines(self) -> list[str]:
        lines = [json.dumps(r.to_json(), sort_keys=True) for r in self.records]
        lines.append(json.dumps(self.verdict.to_json(), sort_keys=True))
        return lines

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.jsonl_lines()) + "\n")


# --- move validation ---------------------------------------------------------


def validate_cover(proposed: Cover, target: TargetSpec, ambient: Interval) -> Cover:
    """Referee a cover-picking move and return the proposed `Cover`.

    There must be at least one member, every member must be relatively
    open in the ambient, and their union must contain the target.  The
    `Cover` itself refuses an empty member and brings its union; a
    `GridCover` of this very ambient is open by construction.
    """
    if not (isinstance(proposed, GridCover) and proposed.ambient == ambient):
        if not proposed.members:
            raise IllegalMove("one", "EmptyCover", {})
        for i, m in enumerate(proposed.members):
            if not m.is_relatively_open(ambient):
                raise IllegalMove(
                    "one", "NotOpen", {"member": i, "set": str(m)}
                )
    missed = target.uncovered(proposed.union, ambient)
    if missed is not None:
        raise IllegalMove("one", "IncompleteCover", missed())
    return proposed


def referee_step(
    ruleset: str, cover: Cover, family: Sequence[RSet], ambient: Interval
) -> CheckedFamily:
    """Validate a covering-player family against the ruleset.

    Checks, in order: members nonempty and relatively open, refinement
    (with the first containing cover member as witness), then
    discreteness or disjointness.  The empty family is always legal.
    """
    fam = tuple(family)
    box = RSet((ambient.closure(),))
    for i, m in enumerate(fam):
        if m.is_empty:
            raise IllegalMove("two", "EmptyMember", {"member": i})
        if not m.is_subset(box):
            raise IllegalMove(
                "two", "OutsideAmbient", {"member": i, "set": str(m)}
            )
        if not m.is_relatively_open(ambient):
            raise IllegalMove("two", "NotOpen", {"member": i, "set": str(m)})
    ok, witnesses = cover.refinement_witnesses(fam)
    if not ok:
        bad = witnesses.index(None)
        raise IllegalMove(
            "two",
            "IllegalRefinement",
            {"member": bad, "set": str(fam[bad])},
        )
    min_gap = None
    try:
        if ruleset == "discrete":
            min_gap = is_discrete(fam).min_gap
        else:
            is_disjoint(fam)
    except (FamilyNotDiscrete, FamilyNotDisjoint) as exc:
        raise IllegalMove(
            "two",
            "NotDiscrete" if ruleset == "discrete" else "NotDisjoint",
            {"members": [exc.index_a, exc.index_b], "shared_point": str(exc.point)},
        ) from exc
    return CheckedFamily(fam, ruleset, min_gap)


# --- adjudication ------------------------------------------------------------


def _verify_certified_chain(
    one, records: Sequence[InningRecord], covered: RSet, config: GameConfig
) -> Optional[dict]:
    """Recheck the nested-closure chain of a certifying strategy.

    Verifies T_n = O_n minus the family closures, nonemptiness,
    closure(O_{n+1}) inside T_n, and that the final open set misses
    `covered`, the union of every family played.  Returns the
    certificate dict, or None.
    """
    if not getattr(one, "certifying", False):
        return None
    opens, ts = one.trace()
    if len(ts) != len(records) or len(opens) != len(ts) + 1:
        return None
    for n, rec in enumerate(records):
        expected_t = subtract_closure(RSet((opens[n],)), rec.family.members)
        if expected_t.is_empty or expected_t != ts[n]:
            raise InvariantViolation("certificate chain does not revalidate")
        if not RSet((opens[n + 1].closure(),)).is_subset(ts[n]):
            raise InvariantViolation("closure nesting fails in the chain")
    final_box = RSet((opens[-1],))
    if not final_box.intersect(covered).is_empty:
        raise InvariantViolation("final open set meets the covered region")
    cert = {
        "kind": "nested-closure",
        "innings_checked": len(ts),
        "uncovered_open": str(final_box),
        "chain_tail": {
            "last_open": str(opens[-1]),
            "last_remainder": str(ts[-1]) if ts else None,
        },
    }
    if config.target.kind == "gdelta":
        avoided = config.target.enumerated_points(config.ambient, len(ts))
        for q in avoided:
            if final_box.contains(q):
                raise InvariantViolation("deleted point inside the final open set")
        cert["avoided_points"] = [str(q) for q in avoided]
    return cert


def _adjudicate(
    config: GameConfig,
    one,
    records: Sequence[InningRecord],
    complete: bool,
) -> Verdict:
    union = union_all([m for r in records for m in r.family.members])
    materialized = len(records)
    box = config.target.measured_set(config.ambient)
    if config.target.uncovered(union, config.ambient, materialized) is None:
        return Verdict(
            "two-wins-covered",
            {
                "kind": "coverage",
                "union": str(union),
                "check": "exact",
                "materialized_innings": materialized,
            },
        )
    cert = _verify_certified_chain(one, records, union, config)
    if cert is not None:
        return Verdict("one-wins-certified", cert)
    uncovered = box.subtract(union)
    if complete:
        return Verdict(
            "one-wins-uncovered",
            {
                "kind": "uncovered-at-completion",
                "uncovered": str(uncovered),
                "uncovered_measure": str(uncovered.measure()),
            },
        )
    return Verdict(
        "truncated",
        {
            "kind": "partial-coverage",
            "covered_measure": str(union.intersect(box).measure()),
            "uncovered_measure": str(uncovered.measure()),
            "materialized_innings": materialized,
        },
    )


# --- match driver ------------------------------------------------------------


def _forfeit(config, records, exc: IllegalMove) -> Transcript:
    winner = "two" if exc.side == "one" else "one"
    verdict = Verdict(
        f"{winner}-wins-forfeit",
        {
            "kind": "illegal-move",
            "offender": exc.side,
            "rejection": exc.kind,
            "detail": {k: v for k, v in exc.detail.items()},
        },
    )
    return Transcript(config, tuple(records), verdict)


def innings(config: GameConfig, one, two) -> Iterator[InningRecord]:
    """Referee a match between the seated players, inning by inning.

    Each inning validates ONE's cover, asks TWO for its family, referees
    it, shows it to ONE and yields its `InningRecord`; a broken rule
    raises `IllegalMove`.  The first inning after a limit stage takes
    its cover from a finite history digest, and TWO may materialize
    extension innings before committing to its limit move.
    """
    records: list[InningRecord] = []

    def refereed(label: InningLabel, cover: Cover, family: Sequence[RSet]) -> InningRecord:
        """Referee TWO's family on a validated cover, record the inning
        and show ONE the family."""
        checked = referee_step(config.ruleset, cover, family, config.ambient)
        records.append(InningRecord(label, cover, checked))
        one.observe(checked.members)
        return records[-1]

    def inning(label: InningLabel, proposed: Cover) -> InningRecord:
        cover = validate_cover(proposed, config.target, config.ambient)
        return refereed(label, cover, two.respond(len(records), cover))

    after_limit = False
    for label in inning_iterator(config.length, config.schedule):
        if label.kind == "limit":
            if label.ordinal == config.length:
                return  # the play is adjudicated at its own length
            after_limit = True
        elif not after_limit:
            yield inning(label, one.next_cover())
        else:
            after_limit = False
            covered = union_all([m for r in records for m in r.family.members])
            digest = HistoryDigest(len(records), covered.measure())
            limit_cover = validate_cover(one.limit_cover(digest), config.target, config.ambient)
            base = Ordinal.omega(label.ordinal.coefficient(1) - 1)
            extensions = 0
            while (move := two.at_limit(limit_cover)) == "extend":
                extensions += 1
                if extensions > config.schedule.extension_cap:
                    raise ProtocolError(
                        "extension budget exhausted before the limit move"
                    )
                ext = Ordinal.of(config.schedule.main_budget + extensions - 1)
                yield inning(InningLabel("inning", base.add(ext)), one.next_cover())
            yield refereed(label, limit_cover, move)


def play(config: GameConfig) -> Transcript:
    """Drive a full match and adjudicate it.

    Raises ConfigError for unplayable configurations (unknown ids, a
    limit inning without a digest-capable cover picker, lengths at or
    above w^2).  Illegal moves terminate the transcript with a forfeit
    verdict instead of raising.
    """
    try:
        one = catalog.make_one(config.one, config.ambient, config.target)
        two = catalog.make_two(config.two, config.ambient, config.target)
    except catalog.UnknownStrategy as exc:
        raise ConfigError(str(exc)) from exc

    needs_limit_move = any(
        lab.kind == "limit" and lab.ordinal < config.length
        for lab in inning_iterator(config.length, config.schedule)
    )
    if needs_limit_move and not getattr(one, "supports_limit", False):
        raise ConfigError(
            f"{config.one!r} cannot declare a finite history digest for limit "
            "innings; choose an oblivious/digest strategy or a shorter length"
        )

    records: list[InningRecord] = []
    try:
        for record in innings(config, one, two):
            records.append(record)
    except IllegalMove as exc:
        return _forfeit(config, records, exc)

    complete = config.length.is_finite
    return Transcript(config, tuple(records), _adjudicate(config, one, records, complete))


def lift_to_closed_subspace(config: GameConfig, subspace: RSet) -> GameConfig:
    """Restrict a game to a closed subspace.

    A single-interval subspace becomes the new ambient (covers and
    targets then live on it natively); a multi-component closed set
    keeps the ambient and becomes an explicit closed target.
    """
    if subspace.is_empty:
        raise ConfigError("subspace must be nonempty")
    if subspace.closure() != subspace:
        raise ConfigError("subspace must be closed")
    if len(subspace.components) == 1 and subspace.components[0].length > 0:
        return replace(config, ambient=subspace.components[0])
    return replace(config, target=TargetSpec.closed(subspace))


def replay_families_under_ruleset(transcript: Transcript, ruleset: str) -> list[str]:
    """Re-referee every recorded family under another ruleset; returns a
    list of per-record outcomes ("accepted" or the rejection kind)."""
    outcomes = []
    for rec in transcript.records:
        try:
            referee_step(
                ruleset, rec.cover, list(rec.family.members), transcript.config.ambient
            )
            outcomes.append("accepted")
        except IllegalMove as exc:
            outcomes.append(exc.kind)
    return outcomes


def length_bracket_report(
    ambient: Interval,
    target: TargetSpec,
    one_ids: Sequence[str],
    two_ids: Sequence[str],
    lengths: Sequence[Ordinal],
    schedule: InningSchedule,
    ruleset: str = "discrete",
) -> dict:
    """Verdict matrix over (length, one, two) with the experimental
    winning-length bracket.

    The bracket is catalog-relative: "smallest length at which some TWO
    bot beat every playable ONE bot" and dually.  It brackets, but is
    not, the true minimal winning length; configurations whose limit
    innings exceed a strategy's digest protocol are reported as
    unplayable and excluded.
    """
    cells: dict[str, dict[str, dict[str, str]]] = {}
    for length in lengths:
        key = str(length)
        cells[key] = {}
        for one_id in one_ids:
            cells[key][one_id] = {}
            for two_id in two_ids:
                config = GameConfig(
                    ruleset=ruleset,
                    length=length,
                    ambient=ambient,
                    target=target,
                    one=one_id,
                    two=two_id,
                    schedule=schedule,
                )
                try:
                    verdict = play(config).verdict.outcome
                except ConfigError as exc:
                    verdict = f"unplayable({exc})"
                cells[key][one_id][two_id] = verdict

    def playable(length_key: str, one_id: str) -> bool:
        return not any(
            v.startswith("unplayable")
            for v in cells[length_key][one_id].values()
        )

    two_sweeps, one_sweeps = [], []
    for length in lengths:
        key = str(length)
        ones = [o for o in one_ids if playable(key, o)]
        if ones and any(
            all(cells[key][o][t].startswith("two-wins") for o in ones)
            for t in two_ids
        ):
            two_sweeps.append(length)
        if ones and any(
            all(cells[key][o][t].startswith("one-wins") for t in two_ids)
            for o in ones
        ):
            one_sweeps.append(length)

    return {
        "ruleset": ruleset,
        "target": target.describe(),
        "lengths": [str(x) for x in lengths],
        "cells": cells,
        "two_sweep_lengths": [str(x) for x in sorted(two_sweeps)],
        "one_sweep_lengths": [str(x) for x in sorted(one_sweeps)],
        "bracket": {
            "smallest_two_sweep": str(min(two_sweeps)) if two_sweeps else None,
            "largest_one_sweep": str(max(one_sweeps)) if one_sweeps else None,
        },
        "note": (
            "experimental bracket over the built-in catalogs; not the "
            "game-theoretic minimal winning length"
        ),
    }
