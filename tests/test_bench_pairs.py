"""The pair runner's arithmetic: seed lists and the per-workload summary
that a performance claim is read from."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = {
    "matches_per_s": {"name": "matches_per_s", "better": "higher", "bound": 0.25},
    "setup_s": {"name": "setup_s", "better": "lower", "bound": 0.25},
}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1301-1305") == [1301, 1302, 1303, 1304, 1305]
    assert bench_pairs.parse_seeds("7,9,11") == [7, 9, 11]
    assert bench_pairs.parse_seeds("4") == [4]


def runs(parent: list[tuple[float, float]], change: list[tuple[float, float]]) -> list[dict]:
    """Alternating parent/change runs with (matches_per_s, setup_s)."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, (rate, setup) in (("parent", p), ("change", c)):
            out.append({
                "pair": pair, "seed": pair, "side": side, "correct": True,
                "attempted": 7, "failed": 0,
                "metrics": {"matches_per_s": rate, "setup_s": setup},
            })
    return out


def test_summarize_counts_wins_and_reads_each_metric_in_its_worse_direction():
    parent = [(4.0, 0.10), (5.0, 0.10), (6.0, 0.10)]
    change = [(6.0, 0.12), (5.0, 0.09), (7.5, 0.12)]
    s = bench_pairs.summarize(runs(parent, change), METRICS)
    assert s["change_wins"] == {"matches_per_s": "2/3", "setup_s": "1/3"}
    assert s["parent"]["matches_per_s"]["median"] == 5.0
    assert s["change"]["matches_per_s"]["median"] == 6.0
    assert s["parent"]["correct"] and s["change"]["correct"]
    assert s["change"]["failed_per_attempted"] == ["0/7"] * 3
    rate, setup = s["against_bound"]["matches_per_s"], s["against_bound"]["setup_s"]
    # higher is better: a faster change is negative worse_by
    assert rate["worse_by"] == pytest.approx(-0.2)
    assert rate["within_bound"] and rate["bound"] == 0.25
    assert rate["parent_iqr"] == pytest.approx(1.0)
    # lower is better: a slower setup is positive worse_by
    assert setup["worse_by"] == pytest.approx(0.2)
    assert setup["within_bound"]


def test_summarize_flags_a_metric_beyond_its_bound():
    parent = [(8.0, 0.10), (8.0, 0.10)]
    change = [(5.0, 0.20), (5.0, 0.20)]
    against = bench_pairs.summarize(runs(parent, change), METRICS)["against_bound"]
    assert against["matches_per_s"]["worse_by"] == pytest.approx(0.375)
    assert not against["matches_per_s"]["within_bound"]
    assert against["setup_s"]["worse_by"] == pytest.approx(1.0)
    assert not against["setup_s"]["within_bound"]


@pytest.mark.parametrize("seeds", ["1001-1005", "7,9,11", "4"])
def test_an_odd_seed_count_is_refused_before_anything_runs(tmp_path, seeds):
    """With an odd count one side would run first in more pairs than the
    other, and the run order would bias the medians."""
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", "HEAD", "--seeds", seeds, "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "even count" in proc.stderr, proc.stderr
    assert not out.exists()


def test_an_out_in_a_missing_directory_is_refused_before_anything_runs(tmp_path):
    """Otherwise every pair would run and the report would be lost when
    it is written."""
    out = tmp_path / "no_such_dir" / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", "HEAD", "--seeds", "1-2", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "does not exist" in proc.stderr, proc.stderr
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "args, refusal",
    [
        (["--seeds", "1010-1001"], "gives no seeds"),
        (["--seeds", "7-x"], "is not 1001-1010 or 7,9,11"),
        (["--seeds", "1001-1002", "--workloads", "grid-limit,nope"], "names nope"),
        (["--seeds", "1001-1002", "--parent", "no-such-ref"], "no-such-ref names no commit"),
    ],
)
def test_bad_seeds_workloads_or_parent_are_refused_before_anything_runs(
    tmp_path, args, refusal
):
    """An empty seed list would leave nothing to summarize, seeds that are
    not numbers and a parent that names no commit would end in a
    traceback, and an unknown workload would fail only after the known
    ones had run every pair."""
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--parent", "HEAD", *args, "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and refusal in proc.stderr, proc.stderr
    assert not out.exists()


def test_summary_lines_read_medians_change_wins_and_bound():
    parent = [(4.0, 0.10), (5.0, 0.10), (6.0, 0.10)]
    change = [(6.0, 0.12), (5.0, 0.09), (7.5, 0.12)]
    s = bench_pairs.summarize(runs(parent, change), METRICS)
    assert bench_pairs.summary_lines("certified-main", s) == [
        "certified-main matches_per_s: 5 -> 6 (+20.0%), change won 2/3 pairs, within_bound True",
        "certified-main setup_s: 0.1 -> 0.12 (+20.0%), change won 1/3 pairs, within_bound True",
    ]
    s["parent"]["matches_per_s"]["median"] = 4123456.0
    s["change"]["matches_per_s"]["median"] = 4123456.0
    assert bench_pairs.summary_lines("grid-limit", s)[0] == (
        "grid-limit matches_per_s: 4123456 -> 4123456 (+0.0%), change won 2/3 pairs, "
        "within_bound True"
    )
