"""An independent re-referee for `play` transcripts.

It uses nothing from `intervalgames`: intervals are parsed from the
transcript text with this module's own parser and compared with
`fractions.Fraction` only.  An interval is a tuple (lo, hi, lo_open,
hi_open); a set is a list of such tuples.

`check_transcript` re-checks every inning and the verdict against a union
computed here; it raises `RefereeError` on the first fault and otherwise
returns what the per-workload property checks need.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction


class RefereeError(Exception):
    pass


def parse_interval(text: str) -> tuple:
    s = text.strip()
    if len(s) < 5 or s[0] not in "([" or s[-1] not in ")]" or s.count(",") != 1:
        raise RefereeError(f"not an interval: {text!r}")
    lo_s, hi_s = s[1:-1].split(",")
    lo, hi = Fraction(lo_s), Fraction(hi_s)
    lo_open, hi_open = s[0] == "(", s[-1] == ")"
    if lo > hi or (lo == hi and (lo_open or hi_open)):
        raise RefereeError(f"empty or reversed interval: {text!r}")
    return (lo, hi, lo_open, hi_open)


def parse_set(text: str) -> list:
    return [parse_interval(p) for p in text.split(";")] if text.strip() else []


def _meets(x: tuple, y: tuple) -> bool:
    """Do two intervals share a point?  Requires x.lo <= y.lo."""
    return y[0] < x[1] or (y[0] == x[1] and not x[3] and not y[2])


def merge(intervals) -> list:
    """Union of intervals as sorted, pairwise non-meeting, non-adjacent pieces."""
    out: list = []
    for iv in sorted(intervals, key=lambda t: (t[0], t[2])):
        if out:
            lo, hi, lo_open, hi_open = out[-1]
            # adjacent pieces like (0,1) and [1,2) also merge
            if iv[0] < hi or (iv[0] == hi and not (hi_open and iv[2])):
                if iv[1] > hi or (iv[1] == hi and not iv[3]):
                    hi, hi_open = iv[1], iv[3]
                out[-1] = (lo, hi, lo_open, hi_open)
                continue
        out.append(iv)
    return out


def contains_interval(outer: tuple, inner: tuple) -> bool:
    lo_ok = outer[0] < inner[0] or (outer[0] == inner[0] and (not outer[2] or inner[2]))
    hi_ok = outer[1] > inner[1] or (outer[1] == inner[1] and (not outer[3] or inner[3]))
    return lo_ok and hi_ok


def measure(pieces) -> Fraction:
    return sum((iv[1] - iv[0] for iv in pieces), Fraction(0))


def covers(union: list, amb: tuple) -> bool:
    """Does a merged union contain the closed ambient?"""
    return any(contains_interval(iv, amb) for iv in union)


def intersect_with(union: list, amb: tuple) -> list:
    """A merged union clipped to the closed ambient."""
    out = []
    for lo, hi, lo_open, hi_open in union:
        if hi < amb[0] or lo > amb[1]:
            continue
        if lo < amb[0]:
            lo, lo_open = amb[0], False
        if hi > amb[1]:
            hi, hi_open = amb[1], False
        if lo < hi or not (lo_open or hi_open):
            out.append((lo, hi, lo_open, hi_open))
    return out


def complement_in(amb: tuple, union: list) -> list:
    """The closed ambient minus a merged union, as merged pieces."""
    out = []
    lo, lo_open = amb[0], False
    for ulo, uhi, ulo_open, uhi_open in intersect_with(union, amb):
        # the gap [lo, ulo] before this piece, ends as the piece leaves them
        if lo < ulo or (lo == ulo and not lo_open and ulo_open):
            out.append((lo, ulo, lo_open, not ulo_open))
        lo, lo_open = uhi, not uhi_open
    if lo < amb[1] or (lo == amb[1] and not lo_open):
        out.append((lo, amb[1], lo_open, False))
    return out


def relatively_open(member: list, amb: tuple) -> bool:
    return all(
        iv[0] < iv[1]
        and (iv[2] or iv[0] <= amb[0])
        and (iv[3] or iv[1] >= amb[1])
        for iv in member
    )


class _CoverIndex:
    """ONE's members, searchable for the members containing an interval."""

    def __init__(self, members: list):
        comps = sorted(
            ((iv, i) for i, m in enumerate(members) for iv in m),
            key=lambda t: (t[0][0], t[0][2]),
        )
        self.members = members
        self.comps = comps
        self.los = [iv[0] for iv, _ in comps]
        reach, self.max_hi = None, []
        for iv, _ in comps:
            reach = iv[1] if reach is None or iv[1] > reach else reach
            self.max_hi.append(reach)

    def holder(self, member: list):
        """Index of a ONE member containing every piece of `member`, or None."""
        first = member[0]
        for k in range(bisect_right(self.los, first[0]) - 1, -1, -1):
            if self.max_hi[k] < first[1]:
                break
            iv, i = self.comps[k]
            if contains_interval(iv, first) and all(
                any(contains_interval(c, p) for c in self.members[i]) for p in member
            ):
                return i
        return None


def _family_fault(family: list, ruleset: str):
    """A pair of members whose closures meet (discrete) or that meet
    (disjoint), or None.  Pieces are swept in order; a cluster of pieces
    that meet in a chain must belong to one member."""
    pieces = sorted(
        (
            ((iv[0], iv[1], False, False) if ruleset == "discrete" else iv, i)
            for i, m in enumerate(family)
            for iv in m
        ),
        key=lambda t: (t[0][0], t[0][2]),
    )
    cluster_owner, reach = None, None
    for iv, i in pieces:
        if reach is not None and _meets(reach, iv):
            if i != cluster_owner:
                return cluster_owner, i
            if iv[1] > reach[1] or (iv[1] == reach[1] and not iv[3]):
                reach = iv
        else:
            cluster_owner, reach = i, iv
    return None


def check_transcript(lines: list[str], amb: tuple, ruleset: str) -> dict:
    """Re-referee one transcript on the closed ambient `amb` = (a, b, False, False).

    Returns {"verdict", "certificate", "uncovered_after": [...]}, where
    uncovered_after[n] is the ambient's uncovered measure after the n-th
    finite-labelled inning.
    """
    records = [json.loads(line) for line in lines]
    if not records or "verdict" not in records[-1]:
        raise RefereeError("transcript has no verdict line")
    *innings, final = records
    parsed: dict[str, list] = {}

    def member_of(text: str) -> list:
        if text not in parsed:
            parsed[text] = parse_set(text)
        return parsed[text]

    played: list = []
    uncovered_after: list[Fraction] = []
    for n, rec in enumerate(innings):
        where = f"inning {rec.get('inning')} (record {n})"
        ones = [member_of(t) for t in rec["one"]]
        if not ones or any(not m or not relatively_open(m, amb) for m in ones):
            raise RefereeError(f"{where}: ONE has an empty or non-open member")
        if not covers(merge(iv for m in ones for iv in m), amb):
            raise RefereeError(f"{where}: ONE's members do not cover the ambient")
        family = [member_of(t) for t in rec["two"]]
        index = _CoverIndex(ones)
        for j, m in enumerate(family):
            if not m or not relatively_open(m, amb):
                raise RefereeError(f"{where}: TWO member {j} is empty or not open")
            if not all(contains_interval(amb, iv) for iv in m):
                raise RefereeError(f"{where}: TWO member {j} leaves the ambient")
            if index.holder(m) is None:
                raise RefereeError(f"{where}: TWO member {j} lies in no ONE member")
        fault = _family_fault(family, ruleset)
        if fault is not None:
            raise RefereeError(f"{where}: TWO members {fault} break the {ruleset} rule")
        played.extend(iv for m in family for iv in m)
        if rec["inning"].isdigit():
            uncovered_after.append(measure(complement_in(amb, merge(played))))

    union = merge(played)
    verdict, cert = final["verdict"], final["certificate"]
    covered = covers(union, amb)
    if verdict.endswith("-forfeit"):
        if cert.get("offender") != ("two" if verdict.startswith("one") else "one"):
            raise RefereeError("forfeit verdict names the wrong offender")
    elif (verdict == "two-wins-covered") != covered:
        raise RefereeError(f"verdict {verdict} but covered={covered}")
    if verdict == "one-wins-certified":
        (hole,) = parse_set(cert["uncovered_open"])
        if not (hole[2] and hole[3]) or not contains_interval(amb, hole):
            raise RefereeError("uncovered_open is not an open subinterval of the ambient")
        if any(_meets(*sorted((hole, iv), key=lambda t: (t[0], t[2]))) for iv in union):
            raise RefereeError("uncovered_open meets a family member")
        for q in cert.get("avoided_points", []):
            if hole[0] < Fraction(q) < hole[1]:
                raise RefereeError(f"uncovered_open contains the deleted point {q}")
    uncovered = complement_in(amb, union)
    if verdict == "truncated":
        if Fraction(cert["covered_measure"]) != measure(intersect_with(union, amb)):
            raise RefereeError("covered_measure disagrees")
    if verdict in ("truncated", "one-wins-uncovered"):
        if Fraction(cert["uncovered_measure"]) != measure(uncovered):
            raise RefereeError("uncovered_measure disagrees")
    if verdict == "one-wins-uncovered" and merge(parse_set(cert["uncovered"])) != uncovered:
        raise RefereeError("uncovered set disagrees")
    return {"verdict": verdict, "certificate": cert, "uncovered_after": uncovered_after}
