"""The repository benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload counts-small-k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --compare BASE.jsonl HEAD.jsonl

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload with spans and telemetry on and reports the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); every run
also appends a record with its provenance to a result file under
``.perfbench/results/``.  The exit code is non-zero when any output
mismatches its pinned or reference value.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from common import (
    BETTER,
    END_TO_END,
    PER_LAYER,
    UNITS,
    WORK,
    load_pins,
    provenance,
    require_source,
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="result file to append to (default .perfbench/results/<workload>.jsonl)",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        type=Path,
        metavar=("BASE", "HEAD"),
        help="compare two result files instead of running",
    )
    parser.add_argument(
        "--allow-dirty",
        action="store_true",
        help="let --compare read results that are not one clean commit's numbers",
    )
    return parser.parse_args(argv)


def _print_report(name: str, outcome, metrics, record) -> None:
    print(f"workload {name}  seed {record['provenance']['seed']}  "
          f"trace {int(record['provenance']['trace'])}")
    for metric, entry in metrics.items():
        print(f"  {metric:<42} {entry['value']:>14.6g} {entry['unit']}")
    for label, stats in sorted(outcome.get("timings", {}).items()):
        if "tail_pct" in stats:
            print(f"  [{label}: median {stats['p50']:.6g} s, p{stats['tail_pct']} "
                  f"{stats['tail']:.6g} s, {stats['samples']} samples]")
        else:
            print(f"  [{label}: median {stats['p50']:.6g} s of {stats['samples']} samples]")
    for label, value in sorted(outcome.get("extra", {}).items()):
        print(f"  [{label}: {value:.6g}]")
    for name, stats in record["spans"].items():
        print(f"  [span {name}: {stats['calls']} calls, median {stats['median_s']:.6g} s, "
              f"self median {stats['self_median_s']:.6g} s]")
    share = metrics.get("kernels.share_of_answer", {}).get("value", 0.0)
    if share:
        print(f"  [kernel ceiling: a kernel that saves a share g of its own time "
              f"shortens answer_s by at most about g x {share:.3f}]")
    print(f"  [simulated interactions: {outcome['interactions']}]")
    print(f"  [failed_share: {record['failed']}/{record['attempted']}]")
    for failure in record["failures"][:20]:
        print(f"  MISMATCH {failure}")


def main(argv=None) -> int:
    args = _parse(argv)
    if args.compare:
        from compare import compare

        return compare(args.compare[0], args.compare[1], args.allow_dirty)
    require_source()
    from workloads import WORKLOADS, Ctx

    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        print("perfbench: --seconds must lie in 1..60", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    work = WORK / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    ctx = Ctx(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=trace,
        work=work,
        pins=load_pins(),
    )
    started = time.time()
    try:
        outcome = WORKLOADS[args.workload][1](ctx)
        if trace:
            import startup
            from workloads import STARTUP_LAUNCHES

            outcome["layers"].update(startup.startup_layers(STARTUP_LAUNCHES))
            outcome["layers"]["trace.spans"] = float(len(ctx.tracer.spans))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [n for n, *_ in (PER_LAYER if trace else END_TO_END)]
    values = outcome["layers"] if trace else outcome["e2e"]
    metrics = {name: {"value": float(values[name]), "unit": UNITS[name]} for name in names}
    record = {
        "provenance": provenance(args.workload, args.seed, args.seconds, trace),
        "started": started,
        "metrics": metrics,
        "better": {name: BETTER[name] for name in names},
        "timings": outcome.get("timings", {}),
        "extra": outcome.get("extra", {}),
        "interactions": outcome["interactions"],
        "attempted": ctx.attempted,
        "failed": len(ctx.failures),
        "failures": ctx.failures,
        "spans": ctx.tracer.summary() if trace else {},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = args.out or results / f"{args.workload}.jsonl"
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if trace:
        ctx.tracer.write(results / f"spans-{args.workload}-seed{args.seed}.jsonl")

    _print_report(args.workload, outcome, metrics, record)
    correct = not ctx.failures
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": len(ctx.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
