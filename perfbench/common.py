"""Shared pieces of the benchmark: paths, spec documents, statistics,
metric table, provenance and process accounting.

Nothing here imports ``repro``: the benchmark must be able to refuse a
checkout without ``src/repro`` before touching the program.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space and result files; everything the benchmark writes
#: lives here, inside the checkout.
WORK = ROOT / ".perfbench"
PINS_PATH = BENCH_DIR / "pins.json"

#: The paper's own hard start, default bias, for every simulated spec.
HORIZON_PARALLEL_TIME = 1000.0

# ----------------------------------------------------------------------
# Metric table: the single definition BENCHMARK.json mirrors
# ----------------------------------------------------------------------

#: (name, unit, better, bound) of every end-to-end metric; every
#: workload reports all of them from its untraced run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("answer_s_p50", "s", "lower", 0.25),
    ("answer_s_tail", "s", "lower", 0.25),
    ("requests_per_s", "1/s", "higher", 0.25),
    ("interactions_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: (name, unit, better) of every per-layer metric; every traced run
#: reports all of them (0 for a layer the workload bypasses).
PER_LAYER = (
    ("startup.import_s", "s", "lower"),
    ("startup.networkx_import_s", "s", "lower"),
    ("startup.networkx_share", "ratio", "lower"),
    ("startup.cli_help_s", "s", "lower"),
    ("specs.load_s", "s", "lower"),
    ("specs.hash_s", "s", "lower"),
    ("specs.run_spec_s", "s", "lower"),
    ("specs.run_spec_self_s", "s", "lower"),
    ("core.engine_build_s", "s", "lower"),
    ("core.engine_run_s", "s", "lower"),
    ("core.loop_self_s", "s", "lower"),
    ("core.chunks", "count", "lower"),
    ("kernels.counts_step_s", "s", "lower"),
    ("kernels.batch_step_s", "s", "lower"),
    ("kernels.s_per_Minteraction", "s/Minteraction", "lower"),
    ("kernels.interactions", "count", "higher"),
    ("kernels.share_of_engine_run", "ratio", "lower"),
    ("kernels.share_of_answer", "ratio", "lower"),
    ("persist.spill_chunks", "count", "lower"),
    ("persist.bytes", "B", "lower"),
    ("io.stream_read_s", "s", "lower"),
    ("document.render_s", "s", "lower"),
    ("serve.submit_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.job_s", "s", "lower"),
    ("serve.worker_overhead_s", "s", "lower"),
    ("serve.notify_lag_s", "s", "lower"),
    ("serve.fetch_s", "s", "lower"),
    ("serve.polls", "count", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.hit_s_p50", "s", "lower"),
    ("serve.miss_s_p50", "s", "lower"),
    ("serve.miss_s_tail", "s", "lower"),
    ("analytics.export_s", "s", "lower"),
    ("analytics.rows_exported", "count", "higher"),
    ("analytics.query_s", "s", "lower"),
    ("analytics.query_s.hitting_time_quantiles", "s", "lower"),
    ("analytics.query_s.undecided_envelope", "s", "lower"),
    ("analytics.query_s.winner_breakdown", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BETTER = {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}


def require_source() -> None:
    """Exit non-zero, printing no result, unless ``src/repro`` exists."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {SRC / 'repro'}; run the "
            "benchmark from the root of a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # keep every temporary file inside the checkout
    env["TMPDIR"] = str(WORK / "tmp")
    return env


# ----------------------------------------------------------------------
# Spec documents
# ----------------------------------------------------------------------


def usd_spec(
    n: int,
    k: int,
    seed: int,
    engine: str,
    *,
    recording: Optional[Dict[str, Any]] = None,
    obs: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """A seeded USD run on the paper's start, with an explicit engine.

    ``engine`` is never ``auto``: retuning the auto threshold must not
    move a workload onto another engine.
    """
    doc: Dict[str, Any] = {
        "schema_version": 1,
        "kind": "run",
        "protocol": {"name": "usd", "k": k, "params": {}},
        "initial": {"kind": "paper", "n": n, "params": {}},
        "engine": engine,
        "seed": seed,
        "max_parallel_time": HORIZON_PARALLEL_TIME,
    }
    if recording:
        doc["recording"] = dict(recording)
    if obs:
        doc["obs"] = dict(obs)
    return doc


def pin_key(n: int, k: int, seed: int, engine: str) -> str:
    return f"n={n},k={k},seed={seed},engine={engine}"


def outcome_tuple(interactions, stabilization, winner, final_counts) -> List[Any]:
    """The pinned per-request outcome: what a correct run must reproduce."""
    return [
        int(interactions),
        None if stabilization is None else int(stabilization),
        None if winner is None else int(winner),
        [int(c) for c in final_counts],
    ]


def load_pins() -> Dict[str, List[Any]]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (NumPy's default definition)."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_pct(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it.

    Workloads are sized so a full-length run has at least 20 samples
    per timing; shorter runs fall back to the median.
    """
    return max(50, int(math.floor(100.0 * (samples - 10) / samples)))


def timing(values: Sequence[float]) -> Dict[str, Any]:
    """Median, tail percentile, its rank and the sample count."""
    pct = tail_pct(len(values))
    return {
        "p50": median(values),
        "tail": percentile(values, pct),
        "tail_pct": pct,
        "samples": len(values),
    }


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    return {
        "q1": percentile(values, 25.0),
        "median": median(values),
        "q3": percentile(values, 75.0),
    }


# ----------------------------------------------------------------------
# Provenance and process accounting
# ----------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    """Where and on what these numbers were measured.

    A result is a commit's numbers only when the commit is known and
    the tree is clean; everything else is kept but flagged, and the
    compare mode refuses it unless told otherwise.
    """
    import numpy

    from repro.core.kernels import default_backend

    commit = dirty = None
    toplevel = _git("rev-parse", "--show-toplevel")
    # only the checkout's own repository counts, never an enclosing one
    if toplevel is not None and Path(toplevel.strip()).resolve() == ROOT:
        head = _git("rev-parse", "HEAD")
        status = _git("status", "--porcelain")
        commit = head.strip() if head else None
        dirty = None if status is None else bool(status.strip())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "dirty": dirty,
        "commit_numbers": commit is not None and dirty is False,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": default_backend(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    """The largest process this run started: itself or any waited child.

    ``RUSAGE_CHILDREN`` reports the largest descendant that has been
    reaped, which covers the serve daemon and, through the daemon's
    own joins, its job workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
