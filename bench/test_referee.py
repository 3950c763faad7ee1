"""The independent re-referee accepts real transcripts and rejects broken ones.

    PYTHONPATH=src python -m pytest bench -q

Transcripts are played with the package on a seeded ambient, then edited
as text: each edit breaks one rule, and the re-referee must name it.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import intervalgames as ig  # noqa: E402
from referee import (  # noqa: E402
    RefereeError,
    _CoverIndex,
    check_transcript,
    complement_in,
    measure,
    merge,
    parse_interval,
    parse_set,
)
from workloads import ambient_for  # noqa: E402

LO, HI = ambient_for(3)
AMB = (LO, HI, False, False)


def transcript(ruleset, length, one, two, budget, target="full") -> list[str]:
    config = ig.GameConfig(
        ruleset=ruleset,
        length=ig.parse_ordinal(length),
        ambient=ig.closed(LO, HI),
        target=ig.TargetSpec.parse(target),
        one=one,
        two=two,
        schedule=ig.InningSchedule(main_budget=budget),
    )
    return ig.play(config).jsonl_lines()


def edited(lines: list[str], index: int, edit) -> list[str]:
    index %= len(lines)
    record = json.loads(lines[index])
    edit(record)
    return lines[:index] + [json.dumps(record, sort_keys=True)] + lines[index + 1:]


@pytest.mark.parametrize(
    "args, verdict",
    [
        (("discrete", "w+1", "grid", "halving-omega-plus-1", 5), "two-wins-covered"),
        (("discrete", "w", "main-compact", "halving", 6), "one-wins-certified"),
        (("discrete", "w", "main-gdelta", "countable", 6, "gdelta:rationals"), "one-wins-certified"),
        (("disjoint", "2", "grid", "chain-puncture", 4), "two-wins-covered"),
        (("discrete", "2", "grid", "chain-puncture", 4), "one-wins-forfeit"),
        (("discrete", "3", "avoid-fixed", "halving", 4), "one-wins-uncovered"),
        (("disjoint", "w", "grid", "greedy", 4), "truncated"),
    ],
)
def test_real_transcripts_are_accepted(args, verdict):
    result = check_transcript(transcript(*args), AMB, args[0])
    assert result["verdict"] == verdict


def test_grid_limit_halves_the_uncovered_measure():
    result = check_transcript(
        transcript("discrete", "w+1", "grid", "halving-omega-plus-1", 5), AMB, "discrete"
    )
    length = HI - LO
    after = result["uncovered_after"]
    assert after == [length / 2**n for n in range(1, len(after) + 1)]


def test_member_widened_until_closures_meet_is_rejected():
    lines = transcript("discrete", "w", "avoid-fixed", "halving", 3)
    record = json.loads(lines[0])
    ones = [parse_set(t) for t in record["one"]]
    family = [parse_set(t) for t in record["two"]]
    # widen member k up to the left end of member k+1, where it still
    # lies inside one of ONE's members
    k = next(
        k
        for k in range(len(family) - 1)
        if _CoverIndex(ones).holder([(family[k][0][0], family[k + 1][0][0], True, True)])
        is not None
    )
    widened = f"({family[k][0][0]},{family[k + 1][0][0]})"

    def widen(rec):
        rec["two"][k] = widened

    with pytest.raises(RefereeError, match="break the discrete rule"):
        check_transcript(edited(lines, 0, widen), AMB, "discrete")


def test_dropped_one_member_is_rejected():
    lines = transcript("discrete", "w", "avoid-fixed", "halving", 3)

    def drop(rec):
        del rec["one"][0]

    with pytest.raises(RefereeError, match="do not cover the ambient"):
        check_transcript(edited(lines, 1, drop), AMB, "discrete")


def test_certificate_moved_onto_a_covered_point_is_rejected():
    lines = transcript("discrete", "w", "main-compact", "halving", 6)
    covered = parse_set(json.loads(lines[0])["two"][0])[0]
    centre = (covered[0] + covered[1]) / 2

    def move(rec):
        (hole,) = parse_set(rec["certificate"]["uncovered_open"])
        r = min((hole[1] - hole[0]) / 2, (covered[1] - covered[0]) / 2)
        rec["certificate"]["uncovered_open"] = f"({centre - r},{centre + r})"

    with pytest.raises(RefereeError, match="meets a family member"):
        check_transcript(edited(lines, -1, move), AMB, "discrete")


def test_member_outside_every_one_member_is_rejected():
    lines = transcript("discrete", "w", "avoid-fixed", "halving", 3)

    def stretch(rec):
        rec["two"] = [f"({LO},{HI})"]

    with pytest.raises(RefereeError, match="lies in no ONE member"):
        check_transcript(edited(lines, 0, stretch), AMB, "discrete")


def test_wrong_measure_and_wrong_verdict_are_rejected():
    lines = transcript("disjoint", "w", "grid", "greedy", 4)

    def nudge(rec):
        rec["certificate"]["uncovered_measure"] = str(
            Fraction(rec["certificate"]["uncovered_measure"]) + Fraction(1, 10**6)
        )

    with pytest.raises(RefereeError, match="uncovered_measure disagrees"):
        check_transcript(edited(lines, -1, nudge), AMB, "disjoint")

    def flip(rec):
        rec["verdict"] = "two-wins-covered"

    with pytest.raises(RefereeError, match="covered=False"):
        check_transcript(edited(lines, -1, flip), AMB, "disjoint")


def test_set_algebra_against_the_package():
    texts = ["(0,1/3);[1/2,2/3]", "[1/3,1/2)", "(1/5,1/4];(2/3,1]", "[3/4,3/4]"]
    mine = merge(iv for t in texts for iv in parse_set(t))
    theirs = ig.union_all(ig.parse_rset(t) for t in texts)
    assert mine == merge(parse_set(str(theirs)))
    amb = parse_interval("[0,1]")
    gap = complement_in(amb, mine)
    box = ig.parse_rset("[0,1]")
    assert merge(parse_set(str(box.subtract(theirs)))) == gap
    assert measure(gap) == box.subtract(theirs).measure()
