"""One pass over a workload's matches, in a fresh process.

Started by `run.py`.  Prints `ready` once the package is imported and the
workload's configurations are built, then plays every cell through the
package's public `play`, writes each transcript as `play --json` does, and
prints one JSON line with the pass's figures.  With `--trace 1` the layers
are wrapped first (see `tracer.py`) and the per-layer figures are added.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import intervalgames as ig  # noqa: E402
from workloads import ambient_for, cells  # noqa: E402


def probe_host_speed() -> float:
    """Seconds this process takes for a fixed integer loop that touches
    nothing from the package: a measure of the host's speed right now."""
    start = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return perf_counter() - start


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    lo, hi = ambient_for(args.seed)
    ambient = ig.closed(lo, hi)
    work = cells(args.workload)
    configs = [
        ig.GameConfig(
            ruleset=c.ruleset,
            length=ig.parse_ordinal(c.length),
            ambient=ambient,
            target=ig.TargetSpec.parse(c.target),
            one=c.one,
            two=c.two,
            schedule=ig.InningSchedule(main_budget=c.budget),
        )
        for c in work
    ]
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    print("ready", flush=True)

    failed = []
    probe_s = probe_host_speed()
    start = perf_counter()
    for i, config in enumerate(configs):
        try:
            transcript = ig.play(config)
        except ig.CoverError:
            failed.append(i)
            continue
        transcript.write_jsonl(out / f"{i:03d}.jsonl")
    pass_s = perf_counter() - start
    probe_s += probe_host_speed()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "pass_s": pass_s,
        "probe_s": probe_s,
        "adjudicated": len(configs) - len(failed),
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["layers"]["covers.ball_cover.built"] = tracer.count_parents(
            "covers.build", "covers.ball_cover"
        )
        tracer.dump(out / "spans.json")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
