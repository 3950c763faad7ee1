"""Alternating parent/change pairs of the benchmark, written to one JSON file.

    python3 tools/bench_pairs.py --parent HEAD~1 --seeds 1001-1010 --seconds 36 \
        --out BENCH_16.json [--workloads grid-limit,certified-main,catalog-sweep]

The change side is this working tree.  The parent side is the committed
files of `--parent`, exported with `git archive` into a temporary
directory that is removed when the script ends, so an interrupted run
leaves nothing in the repository's git metadata.  For every workload and
every seed the script runs `python3 bench/run.py --workload W --seed S
--seconds T --trace 0` once on each side, one run at a time, in each
side's own directory; even pairs run the parent first, odd pairs the
change.  The seed count must be even, so that each side runs first in
half the pairs and the run order cannot bias the medians.  A seed list
that is odd, empty or not numbers, a workload that `BENCHMARK.json` does
not list, and a `--parent` that names no commit are refused, each with
one line, before anything runs.  The output holds the machine, the
Python version, every run's metrics, each side's median and quartiles
per metric, and how many pairs the change won per metric (better as
`BENCHMARK.json` defines it, ties counting for neither side).  Per
workload, `against_bound` reads each end-to-end metric against its
`BENCHMARK.json` bound: `worse_by` is the change median's relative
change from the parent median in the metric's worse direction (negative
when it got better), `within_bound` whether that stays at or below
`bound`, and `parent_iqr` the distance between the parent's quartiles.
Once the file is written, stderr gets one line per workload and metric:
parent median -> change median, the relative change, the pairs the
change won and `within_bound`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """`1001-1005` or `7,9,11`."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def commit_of(ref: str) -> str:
    """The full commit id that `ref` names; refuses a ref that names none."""
    proc = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", f"{ref}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs.py: --parent {ref} names no commit")
    return proc.stdout.strip()


def export(sha: str, into: Path) -> None:
    """The committed files of commit `sha` under `into`."""
    archive = into / "parent.tar"
    subprocess.run(["git", "archive", "-o", str(archive), sha], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: dict[str, dict]) -> dict:
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    out = {}
    for side, rs in sides.items():
        out[side] = {name: spread([r["metrics"][name] for r in rs]) for name in metrics}
        out[side]["correct"] = all(r["correct"] for r in rs)
        out[side]["failed_per_attempted"] = [f"{r['failed']}/{r['attempted']}" for r in rs]
    wins, against = {}, {}
    for name, spec in metrics.items():
        higher = spec["better"] == "higher"
        won = 0
        for p, c in zip(sides["parent"], sides["change"]):
            a, b = p["metrics"][name], c["metrics"][name]
            won += (b > a) if higher else (b < a)
        wins[name] = f"{won}/{len(sides['parent'])}"
        parent, change = out["parent"][name], out["change"][name]["median"]
        worse = parent["median"] - change if higher else change - parent["median"]
        worse_by = worse / parent["median"]
        against[name] = {
            "worse_by": worse_by,
            "bound": spec["bound"],
            "within_bound": worse_by <= spec["bound"],
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    out["change_wins"] = wins
    out["against_bound"] = against
    return out


def number(v: float) -> str:
    return f"{v:.4g}" if abs(v) < 1e4 else f"{v:.0f}"


def summary_lines(workload: str, summary: dict) -> list[str]:
    """One line per metric of one workload's `summarize` result."""
    lines = []
    for name, against in summary["against_bound"].items():
        p, c = summary["parent"][name]["median"], summary["change"][name]["median"]
        lines.append(
            f"{workload} {name}: {number(p)} -> {number(c)} ({(c - p) / p:+.1%}), "
            f"change won {summary['change_wins'][name]} pairs, "
            f"within_bound {against['within_bound']}"
        )
    return lines


def machine() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{platform.machine()}, {os.cpu_count()} CPUs, {model}"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git ref of the parent commit")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", required=True, help="e.g. 1001-1005 or 7,9,11")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out", required=True, type=Path, help="e.g. BENCH_10.json")
    args = ap.parse_args()
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        raise SystemExit(f"bench_pairs.py: --seeds {args.seeds} is not 1001-1010 or 7,9,11")
    if not seeds:
        raise SystemExit(f"bench_pairs.py: --seeds {args.seeds} gives no seeds")
    if len(seeds) % 2:
        raise SystemExit(
            f"bench_pairs.py: --seeds {args.seeds} gives {len(seeds)} seeds; "
            "give an even count, so each side runs first in half the pairs"
        )
    workloads = args.workloads.split(",")
    known = [w["name"] for w in spec["workloads"]]
    unknown = [w for w in workloads if w not in known]
    if unknown:
        raise SystemExit(
            f"bench_pairs.py: --workloads names {', '.join(unknown)}, which "
            f"BENCHMARK.json does not list; it lists {', '.join(known)}"
        )
    parent = commit_of(args.parent)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {
        "machine": machine(),
        "python": platform.python_version(),
        "command": f"python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} --trace 0",
        "method": "alternating pairs: even pairs run the parent first, odd pairs the change "
                  "first; each side in its own directory; one run at a time",
        "seeds": seeds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        report["parent"] = parent
        export(parent, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        for workload in workloads:
            runs = []
            for pair, seed in enumerate(seeds):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], workload, seed, args.seconds)
                    runs.append({"pair": pair, "seed": seed, "side": side, **run})
                    print(f"{workload} pair {pair} seed {seed} {side}: "
                          f"{json.dumps(run['metrics'])}", file=sys.stderr, flush=True)
            report["workloads"][workload] = {"runs": runs, **summarize(runs, metrics)}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, summary in report["workloads"].items():
        print("\n".join(summary_lines(workload, summary)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
