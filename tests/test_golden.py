"""Transcript bytes pinned by SHA-256 digests.

Each config is a small match; the digest is of the JSONL text that
`Transcript.write_jsonl` writes.  Together the configs span both
rulesets, every target kind, a forfeit, every verdict kind and a `w+1`
grid match, so any change to a referee check, a strategy move or the
transcript format shows up here.
"""

import hashlib

import pytest

from intervalgames.engine import GameConfig, TargetSpec, play
from intervalgames.ordinals import InningSchedule, parse_ordinal
from intervalgames.sets import parse_interval

GOLDEN = [
    # ruleset, length, ambient, target, one, two, budget, sha256
    ("discrete", "w+1", "[0,1]", "full", "grid", "halving-omega-plus-1", 6,
     "d9df49a6a29683c5b5dd237ea9703b17834ca77494a09064f4b6c668b561965b"),
    ("disjoint", "w+1", "[1/5,8/5]", "full", "avoid-fixed", "halving-omega-plus-1", 4,
     "02fa4d7eafbca2bb784206300c9c4c03b4252679afff4b3e84cf422101e39e8f"),
    ("disjoint", "2", "[0,1]", "full", "grid", "chain-puncture", 8,
     "15f4b3ab9b2c592397cc588c67fa81f22cde262ab3020c8dbe2a66dfb37abadd"),
    ("discrete", "2", "[0,1]", "full", "grid", "chain-puncture", 8,
     "2b7828f52bac5c05770e84f329a764a52ac43022f5e22f11dbe1e8c16df6e485"),
    ("discrete", "w", "[2/7,9/7]", "full", "main-compact", "greedy", 8,
     "ba513cf6736a1c39f3d4428e4396185c33eff58c50ec19e8c2bb5adf2e265c94"),
    ("disjoint", "3", "[0,1]", "closed:[0,1/4];[1/2,1]", "grid", "halving", 4,
     "10179a4a08a9799c70d1de720f1c0555189fd22d1b12887f2dbb093d2d012452"),
    ("discrete", "1", "[0,1]", "cantor", "avoid-fixed", "cantor-oneshot", 4,
     "ea70bdca6a194c978386c2f04366d9a849fb5a9e8660b9619529e5d41043c6e1"),
    ("disjoint", "w", "[0,1]", "countable:rationals", "grid", "countable", 6,
     "ad1b7128e6b43099e4891f88572daa57b85325ab515c69387281d485f7230402"),
    ("discrete", "w", "[1/3,2]", "countable:triadic", "avoid-fixed", "countable", 6,
     "f0d64f202d28356863984cda38d111fac58a7bf7bb2b8ca33d0c42210cd47ac9"),
    ("discrete", "w", "[0,1]", "gdelta:rationals", "main-gdelta", "halving", 6,
     "17a4502afc3bd1c49808a7c0760cf78ad6bb8d0ee1c75d683fe3b1ba020ded63"),
    ("discrete", "w", "[0,1]", "full", "grid", "halving", 4,
     "4261ed45128f26cbf56529a9efd683a44a95cbce3f47ad7039c0077b3505d84f"),
    ("disjoint", "w", "[1/5,8/5]", "countable:rationals", "grid", "halving", 4,
     "50d94980b6c2bb28127a5662a9cd055106ce20bd5cd2ad2c7602f01b49769c14"),
    ("discrete", "w", "[0,1]", "gdelta:rationals", "grid", "greedy", 4,
     "828dc4fc4ccb16868e28841c2d8dd9f509bc3d1fab72aec9d00f21a860029634"),
]


@pytest.mark.parametrize(
    "ruleset,length,ambient,target,one,two,budget,digest",
    GOLDEN,
    ids=[f"{g[0]}-{g[1]}-{g[3]}-{g[4]}-{g[5]}" for g in GOLDEN],
)
def test_transcript_digest(ruleset, length, ambient, target, one, two, budget, digest):
    transcript = play(
        GameConfig(
            ruleset=ruleset,
            length=parse_ordinal(length),
            ambient=parse_interval(ambient),
            target=TargetSpec.parse(target),
            one=one,
            two=two,
            schedule=InningSchedule(main_budget=budget),
        )
    )
    text = "\n".join(transcript.jsonl_lines()) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
