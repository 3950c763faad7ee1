"""Strategy identifiers and factories.

Identifiers are accepted with or without their side prefix ("one:grid"
or just "grid").  Parametrized ids carry their parameter after a colon,
e.g. "countable:triadic", "main-gdelta:rationals".
"""

from __future__ import annotations

from .cantor import CantorSpec
from .errors import InputError
from .one_strategies import (
    AvoidFixedOne,
    CompactIntersection,
    DenseGDeltaIntersection,
    GridOne,
    OneBot,
    OneMain,
)
from .sequences import EnumeratedPoints, enumeration_names
from .sets import Interval
from .two_strategies import (
    CantorOneShotTwo,
    ChainPunctureTwo,
    CountableTargetTwo,
    EmptyTwo,
    FirstMemberTwo,
    GreedyTwo,
    HalvingOmegaPlusOneTwo,
    HalvingTwo,
    TwoBot,
)


class UnknownStrategy(InputError):
    pass


TWO_IDS = (
    "empty",
    "first-member",
    "greedy",
    "halving",
    "halving-omega-plus-1",
    "cantor-oneshot",
    "countable[:rationals|:triadic]",
    "chain-puncture",
    "bm-first-category:<seq>  (Banach-Mazur game only)",
)
ONE_IDS = ("grid", "avoid-fixed", "main-compact", "main-gdelta:<seq>")

#: bots used by catalog-wide sweeps and reports
STANDARD_TWO_CATALOG = ("empty", "first-member", "greedy", "halving", "countable")
STANDARD_ONE_CATALOG = ("grid", "avoid-fixed", "main-compact")


def _strip(side: str, ident: str) -> str:
    prefix = side + ":"
    return ident[len(prefix):] if ident.startswith(prefix) else ident


def _target_enum_id(target, kind: str) -> str:
    return "rationals" if target is None else target.enum_id_for(kind)


def make_two(ident: str, ambient: Interval, target=None) -> TwoBot:
    """Build a fresh covering-player bot.

    `target` (a TargetSpec, optional) supplies a default for the
    countable bot: it follows the target's enumeration when it matches.
    """
    name = _strip("two", ident)
    if name == "empty":
        return EmptyTwo(ambient)
    if name == "first-member":
        return FirstMemberTwo(ambient)
    if name == "greedy":
        return GreedyTwo(ambient)
    if name == "halving":
        return HalvingTwo(ambient)
    if name == "halving-omega-plus-1":
        return HalvingOmegaPlusOneTwo(ambient)
    if name == "cantor-oneshot":
        return CantorOneShotTwo(ambient, CantorSpec(ambient.closure()))
    if name == "countable" or name.startswith("countable:"):
        enum_id = name.partition(":")[2] or _target_enum_id(target, "countable")
        return CountableTargetTwo(
            ambient, EnumeratedPoints.named(enum_id, ambient)
        )
    if name == "chain-puncture":
        return ChainPunctureTwo(ambient)
    if name.startswith("bm-first-category"):
        raise UnknownStrategy(
            f"{ident!r} plays the Banach-Mazur game, not the cover game; "
            "it is exercised by `check` and the test suite"
        )
    raise UnknownStrategy(f"unknown TWO strategy {ident!r}; known: {TWO_IDS}")


def make_one(ident: str, ambient: Interval, target=None) -> OneBot:
    name = _strip("one", ident)
    if name == "grid":
        return GridOne(ambient)
    if name == "avoid-fixed":
        return AvoidFixedOne(ambient)
    if name == "main-compact":
        return OneMain(CompactIntersection(ambient), ambient)
    if name == "main-gdelta" or name.startswith("main-gdelta:"):
        enum_id = name.partition(":")[2] or _target_enum_id(target, "gdelta")
        if enum_id not in enumeration_names():
            raise UnknownStrategy(f"unknown deletion sequence {enum_id!r}")
        return OneMain(
            DenseGDeltaIntersection(EnumeratedPoints.named(enum_id, ambient)), ambient
        )
    raise UnknownStrategy(f"unknown ONE strategy {ident!r}; known: {ONE_IDS}")
