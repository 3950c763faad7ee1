"""Benchmark driver: time a workload's matches in fresh processes.

    python3 bench/run.py --workload grid-limit --seed 1 --seconds 20 --trace 0

One child process at a time (`child.py`) plays one pass over the
workload's matches; children are started while a pass of median length
still fits in `--seconds`, so every run attempts whole passes.  Each child's transcripts are checked:
the first pass's by the independent re-referee (`referee.py`) and the
workload's property checks, every later pass's by byte identity with the
first.

With `--trace 0` the result holds the end-to-end metrics: the median over
passes of each child's set-up time (spawn to `ready`), matches adjudicated
per second (scaled to a reference host speed, see PROBE_REFERENCE_S) and
peak RSS, and the transcript bytes of one pass.  With
`--trace 1` the children run with every layer wrapped and the result holds
the per-layer metrics: counts (which must repeat exactly in every pass)
and median self times.  The last line of standard output is the result
as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from referee import RefereeError, check_transcript  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, ambient_for, cells  # noqa: E402

CHILD_TIMEOUT_S = 150
# The host's speed drifts by a fifth over tens of seconds on a shared VM.
# Each child times a fixed integer loop just before and just after its
# pass (`probe_host_speed` in child.py); rates are scaled to a host on
# which the two probes take PROBE_REFERENCE_S together.
PROBE_REFERENCE_S = 0.2

PER_LAYER_COUNTS = (
    "covers.build.calls",
    "covers.build.members",
    "covers.ball_cover.calls",
    "covers.ball_cover.built",
    "covers.window_supremum.calls",
    "sets.normalize.calls",
    "sets.normalize.components_in",
    "engine.validate_cover.calls",
    "engine.validate_cover.members",
    "sets.combine.calls",
    "sets.combine.endpoints",
    "sets.subset.calls",
    "sets.discrete.calls",
    "sets.discrete.members",
    "engine.referee_step.calls",
    "engine.referee_step.family_members",
    "two_strategies.at_limit.calls",
    "covers.query.calls",
)
PER_LAYER_TIMES = (
    "covers.build.self_s",
    "covers.ball_cover.self_s",
    "covers.window_supremum.self_s",
    "sets.normalize.self_s",
    "engine.validate_cover.self_s",
    "engine.transcript.self_s",
    "sets.combine.self_s",
    "sets.subset.self_s",
    "sets.discrete.self_s",
    "engine.referee_step.self_s",
    "engine.adjudicate.self_s",
    "one_strategies.observe.self_s",
    "two_strategies.respond.self_s",
    "one_strategies.next_cover.self_s",
    "one_strategies.limit_cover.self_s",
    "two_strategies.at_limit.self_s",
    "covers.query.self_s",
)


class BenchError(Exception):
    pass


def run_child(workload: str, seed: int, trace: int, out: Path) -> dict:
    """Start one child, time its set-up, and return its pass figures."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--out", str(out),
    ]
    spawned = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            setup_s = perf_counter() - spawned
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"child exited with {proc.returncode} ({first.strip()!r})")
    result = json.loads(rest.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["wall_s"] = perf_counter() - spawned
    return result


def digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.glob("*.jsonl"))
    }


def check_properties(workload: str, verdicts: dict, amb: tuple) -> None:
    """The workload's claims about the method, on the re-refereed transcripts."""
    if workload == "grid-limit":
        (res,) = verdicts.values()
        length = amb[1] - amb[0]
        want = [length / 2 ** n for n in range(1, len(res["uncovered_after"]) + 1)]
        if res["uncovered_after"] != want:
            raise RefereeError("grid-limit: uncovered measure is not L*2^-n after inning n")
        if res["verdict"] != "two-wins-covered":
            raise RefereeError(f"grid-limit: verdict {res['verdict']}")
    elif workload == "certified-main":
        bad = [k for k, r in verdicts.items() if r["verdict"] != "one-wins-certified"]
        if bad:
            raise RefereeError(f"certified-main: not certified: {bad}")
    elif workload == "catalog-sweep":
        want = {
            f"{rs}/w+1/{one}/halving-omega-plus-1/full/8": "two-wins-covered"
            for rs in ("discrete", "disjoint")
            for one in ("grid", "avoid-fixed")
        }
        want["disjoint/2/grid/chain-puncture/full/8"] = "two-wins-covered"
        want["discrete/2/grid/chain-puncture/full/8"] = "one-wins-forfeit"
        for key, verdict in want.items():
            if verdicts[key]["verdict"] != verdict:
                raise RefereeError(f"catalog-sweep: {key} gave {verdicts[key]['verdict']}")
        rejection = verdicts["discrete/2/grid/chain-puncture/full/8"]["certificate"]
        if rejection.get("rejection") != "NotDiscrete":
            raise RefereeError("catalog-sweep: discrete chain-puncture forfeit is not NotDiscrete")


def referee_pass(workload: str, seed: int, directory: Path, failed: list[int]) -> None:
    """Re-referee every transcript of one pass and check the known faults."""
    lo, hi = ambient_for(seed)
    amb = (lo, hi, False, False)
    work = cells(workload)
    expected_faults = [i for i, c in enumerate(work) if c.known_fault]
    if failed != expected_faults:
        raise RefereeError(f"failed cells {failed}, expected {expected_faults}")
    verdicts = {}
    for i, cell in enumerate(work):
        if i in failed:
            continue
        lines = (directory / f"{i:03d}.jsonl").read_text(encoding="utf-8").splitlines()
        verdicts[cell.key] = check_transcript(lines, amb, cell.ruleset)
    check_properties(workload, verdicts, amb)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "intervalgames" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    passes, reference = [], None
    correct = True
    began = perf_counter()
    try:
        # start a pass only if a pass of typical length still fits
        while not passes or (
            perf_counter() - began + median(p["wall_s"] for p in passes) <= args.seconds
        ):
            directory = out / f"pass{len(passes)}"
            passes.append(run_child(args.workload, args.seed, args.trace, directory))
            if reference is None:
                reference = digests(directory)
            else:
                if digests(directory) != reference or passes[-1]["failed"] != passes[0]["failed"]:
                    print(f"pass {len(passes) - 1} differs from pass 0", file=sys.stderr)
                    correct = False
                shutil.rmtree(directory)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    try:
        referee_pass(args.workload, args.seed, out / "pass0", passes[0]["failed"])
    except RefereeError as exc:
        print(f"re-referee rejected pass 0: {exc}", file=sys.stderr)
        correct = False

    n_cells = len(cells(args.workload))
    attempted = n_cells * len(passes)
    failed = len(passes[0]["failed"]) * len(passes)
    rate = median(
        p["adjudicated"] / p["pass_s"] * p["probe_s"] / PROBE_REFERENCE_S for p in passes
    )
    if args.trace:
        layers = [p["layers"] for p in passes]
        for name in PER_LAYER_COUNTS:
            if len({layer[name] for layer in layers}) != 1:
                print(f"count {name} differs between passes", file=sys.stderr)
                correct = False
        metrics = {name: (layers[0][name], "count") for name in PER_LAYER_COUNTS}
        metrics.update(
            {name: (median(layer[name] for layer in layers), "s") for name in PER_LAYER_TIMES}
        )
        metrics["traced.matches_per_s"] = (rate, "1/s")
    else:
        pass_bytes = sum(p.stat().st_size for p in (out / "pass0").glob("*.jsonl"))
        metrics = {
            "setup_s": (median(p["setup_s"] for p in passes), "s"),
            "matches_per_s": (rate, "1/s"),
            "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
            "transcript_bytes": (pass_bytes, "bytes"),
        }

    lo, hi = ambient_for(args.seed)
    print(f"workload {args.workload}, seed {args.seed}, ambient [{lo},{hi}], "
          f"{len(passes)} passes of {n_cells} matches")
    print(f"attempted {attempted}, failed {failed}")
    print("pass seconds " + " ".join(f"{p['pass_s']:.3f}" for p in passes))
    print("probe seconds " + " ".join(f"{p['probe_s']:.3f}" for p in passes))
    print(f"unscaled matches_per_s {median(p['adjudicated'] / p['pass_s'] for p in passes):.6g} 1/s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
