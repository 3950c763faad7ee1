"""The benchmark's transcripts are pinned.

Each workload's pass is played by `bench/child.py` in a fresh process, as
`bench/run.py` plays it.  The test pins the cells that fail and one
SHA-256 over the written transcripts, so a change that alters a move, a
verdict or the transcript format shows here.  One traced pass checks
that every name `bench/tracer.py` wraps is still bound.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"

# seed 1: failed cells and the SHA-256 over the sorted NNN.jsonl files
PINNED = {
    "grid-limit": (
        [],
        "76a10eb976236ede8b46027fe4987b5ff487410332b0815122569f483f815173",
    ),
    "certified-main": (
        [],
        "c31299748912f24ffca0c58c074c87ae1fadb241e1ca3058787728418fb7ae4f",
    ),
    # the chain-puncture cells against two-component avoidance covers
    "catalog-sweep": (
        [13, 20, 34, 41, 55, 62, 76, 90, 97, 111, 118, 132, 139, 153],
        "0f7fb6bee422016ce4b66c0fee0071f7f8367422a1efcefe800e9e32ef9384c7",
    ),
}


def run_child(workload: str, trace: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), "--workload", workload, "--seed", "1",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ready, result = proc.stdout.splitlines()
    assert ready == "ready"
    return json.loads(result)


def transcripts_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.jsonl")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_benchmark_transcripts_are_pinned(workload, tmp_path):
    failed, sha = PINNED[workload]
    result = run_child(workload, 0, tmp_path)
    assert result["failed"] == failed
    assert transcripts_digest(tmp_path) == sha


def test_traced_benchmark_pass_runs(tmp_path):
    # the tracer raises when a name it wraps is bound nowhere
    result = run_child("grid-limit", 1, tmp_path)
    assert result["failed"] == []
    assert result["layers"]["engine.validate_cover.calls"] > 0
