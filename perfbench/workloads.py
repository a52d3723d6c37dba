"""The four workloads, each a closed loop with a single caller.

Every request pool is fixed, so every run does identical simulated work
and the pinned outcomes in ``pins.json`` check it; the workload seed
only permutes the order of requests, so request classes stay mixed
across the whole run and host drift hits them all alike.  Run length
is set by passes over the pool: ``--seconds`` picks how many.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import (
    PER_LAYER,
    median,
    outcome_tuple,
    peak_rss_mb,
    pin_key,
    timing,
    usd_spec,
)
from spans import Tracer
import startup

# ----------------------------------------------------------------------
# Request pools: (n, k, simulation seed)
# ----------------------------------------------------------------------

# Every pass has its own seeds, so no request repeats within a run: the
# latencies then spread densely around their median instead of piling
# up on a few repeated values, and a fleet dataset (one record per spec
# hash) gains a record from every batch run.


def small_k_pass(index: int) -> Tuple[Tuple[int, int, int], ...]:
    """k=4: E=20 effective pairs, so per-event numpy overhead and the
    fixed per-request costs dominate; ~0.15-0.35 s per request."""
    return tuple((n, 4, 5 * index + s) for n in (2000, 3000, 4000) for s in range(1, 6))


def large_k_pass(index: int) -> Tuple[Tuple[int, int, int], ...]:
    """k=16 and k=32: E=272 and E=1056 pair weights recomputed per
    effective interaction; ~0.3-1.4 s per request.  n stays small enough
    that a run holds the 20 samples a tail percentile needs."""
    return tuple(
        (n, 16, 2 * index + s) for n in (2000, 3000) for s in (1, 2)
    ) + tuple((n, 32, index + 1) for n in (2000, 3000))


BATCH_N = 10**6


def batch_pass(index: int) -> Tuple[Tuple[int, int, int], ...]:
    """tau-leaping at n=10^6, five k=8 runs (~0.5 s) and one k=16 run
    (~1.3 s)."""
    return tuple((BATCH_N, 8, 5 * index + s) for s in range(1, 6)) + (
        (BATCH_N, 16, index + 1),
    )


#: Snapshots every tenth of a round (the default is half a round) and
#: small chunks, so each run spills several chunks to disk.
BATCH_RECORDING = {"snapshot_every": BATCH_N // 10, "persist_chunk_snapshots": 64}
QUERY_SETS = 30
HITTING_QUANTILES = (0.1, 0.5, 0.9)
ENVELOPE_QUANTILES = (0.1, 0.5, 0.9)
ENVELOPE_POINTS = 50

HITS_PER_MISS = 3
BLOCKS_PER_PASS = 4
#: Client poll interval for a pending job.  The client library's 0.2 s
#: default quantises a ~1 s miss into 0.2 s steps; a 10 ms interval made
#: misses ~5% slower, because every poll is an HTTP round trip that takes
#: CPU from the job worker on a two-CPU host.
POLL_S = 0.025

#: Cold launches whose median is ``setup_s``.
SETUP_LAUNCHES = 5
SERVE_SETUP_LAUNCHES = 5
STARTUP_LAUNCHES = 3


def passes_for(seconds: int) -> int:
    """Whole passes over a workload's pool (each ~4 s on two CPUs)."""
    return max(1, round(seconds / 5))


MAX_PASSES = passes_for(60)

#: One distinct miss spec per block; a fresh daemon root per run makes
#: each a miss.
SERVE_MISSES = tuple((2000, 4, 1000 + i) for i in range(BLOCKS_PER_PASS * MAX_PASSES))


def pool_keys() -> List[Tuple[int, int, int, str]]:
    """Every pinned request: (n, k, seed, engine)."""
    counts = [
        request
        for p in range(MAX_PASSES)
        for request in small_k_pass(p) + large_k_pass(p)
    ]
    return (
        [(n, k, s, "counts") for n, k, s in counts + list(SERVE_MISSES)]
        + [(n, k, s, "batch") for p in range(MAX_PASSES) for n, k, s in batch_pass(p)]
    )


def pin_spec(n: int, k: int, seed: int, engine: str) -> Dict[str, Any]:
    """The spec document a pinned outcome belongs to (no persistence)."""
    recording = None
    if engine == "batch":
        recording = {"snapshot_every": BATCH_RECORDING["snapshot_every"]}
    return usd_spec(n, k, seed, engine, recording=recording)


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: int
    trace: bool
    work: Path
    pins: Dict[str, List[Any]]
    tracer: Tracer = field(default_factory=Tracer)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def rng(self) -> random.Random:
        """A fresh generator: the same workload and seed, the same order."""
        return random.Random(f"{self.workload}:{self.seed}")

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; record it when it failed or mismatched."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def check_outcome(self, key: Tuple[int, int, int, str], outcome: List[Any]) -> None:
        label = pin_key(*key)
        pinned = self.pins.get(label)
        self.op(
            pinned == outcome, f"{label}: outcome {outcome[:3]} != pinned "
            f"{None if pinned is None else pinned[:3]}"
        )


def shuffled_passes(pools: Sequence[Sequence[Any]], rng: random.Random) -> List[Any]:
    """The passes one after another, each in its own seeded order."""
    schedule: List[Any] = []
    for pool in pools:
        order = list(pool)
        rng.shuffle(order)
        schedule.extend(order)
    return schedule


def _passes(ctx: "Ctx") -> int:
    """Traced runs execute every request twice, so they make half the passes."""
    passes = passes_for(ctx.seconds)
    return max(1, passes // 2) if ctx.trace else passes


def result_outcome(result: Any) -> List[Any]:
    return outcome_tuple(
        result.interactions,
        result.stabilization_interactions,
        result.winner,
        result.final_counts,
    )


def _check_outcomes(ctx: Ctx, outcomes, scheduled) -> int:
    """Check each outcome against its pin and the total against the
    pinned total of everything scheduled; returns the observed total."""
    for key, outcome in outcomes:
        ctx.check_outcome(key, outcome)
    runs_per_request = 2 if ctx.trace else 1
    expected = runs_per_request * sum(ctx.pins[pin_key(*key)][0] for key in scheduled)
    total = sum(outcome[0] for _, outcome in outcomes)
    ctx.op(total == expected, f"interaction total {total} != pinned {expected}")
    return total


def _layers() -> Dict[str, float]:
    return {name: 0.0 for name, *_ in PER_LAYER}


def _engine_span(journal_path: Path) -> Tuple[float, int]:
    """(seconds, chunks) of the journal's ``engine.run`` span."""
    from repro.obs.journal import read_journal

    begin = end = None
    for record in read_journal(journal_path):
        if record.get("span") != "engine.run":
            continue
        if record.get("event") == "span_begin":
            begin = record
        elif record.get("event") == "span_end":
            end = record
    if begin is None or end is None:
        raise RuntimeError(f"no closed engine.run span in {journal_path}")
    return end["t"] - begin["t"], int(end.get("chunks", 0))


def _obs_numbers(result: Any) -> Tuple[float, float, float]:
    """(kernel seconds, interactions, spill chunks) from the run's metrics."""
    snap = result.metadata.get("obs_metrics") or {}
    hist = snap.get("histograms", {}).get("kernel_step_seconds", {})
    counters = snap.get("counters", {})
    return (
        float(hist.get("sum", 0.0)),
        float(counters.get("interactions_total", {}).get("", 0.0)),
        float(counters.get("spill_chunks_total", {}).get("", 0.0)),
    )


class _TracedRuns:
    """Per-request numbers of traced ``run_spec`` calls."""

    def __init__(self) -> None:
        self.kernel: Dict[str, List[float]] = {"counts": [], "batch": []}
        self.engine_run: List[float] = []
        self.loop_self: List[float] = []
        self.chunks = 0
        self.interactions = 0.0
        self.spill_chunks = 0.0
        self.untraced: List[float] = []
        self.traced: List[float] = []

    def run(self, ctx: Ctx, index: int, doc: Dict[str, Any], journal: Path) -> Any:
        """One traced request: load, hash, run, each in its own span."""
        from repro.core import engine as engine_mod
        from repro.core import run as run_mod
        from repro.specs import load_spec, run_spec

        tracer = ctx.tracer
        tracer.request = index
        start = time.perf_counter()
        with tracer.wrapped(run_mod, "make_engine", "core.engine_build"), \
                tracer.wrapped(engine_mod.BaseEngine, "run", "core.engine_run"), \
                tracer.span("request"):
            with tracer.span("specs.load"):
                spec = load_spec(doc)
            with tracer.span("specs.hash"):
                spec.spec_hash()
            with tracer.span("specs.run_spec"):
                result = run_spec(spec)
        self.traced.append(time.perf_counter() - start)
        tracer.request = None
        engine_s, chunks = _engine_span(journal)
        kernel_s, interactions, spills = _obs_numbers(result)
        self.kernel[result.engine_name].append(kernel_s)
        self.engine_run.append(engine_s)
        self.loop_self.append(engine_s - kernel_s)
        self.chunks += chunks
        self.interactions += interactions
        self.spill_chunks += spills
        return spec, result

    def layers(self, ctx: Ctx) -> Dict[str, float]:
        tracer = ctx.tracer
        kernel_total = sum(self.kernel["counts"]) + sum(self.kernel["batch"])
        out = {
            "specs.load_s": median(tracer.durations("specs.load")),
            "specs.hash_s": median(tracer.durations("specs.hash")),
            "specs.run_spec_s": median(tracer.durations("specs.run_spec")),
            "specs.run_spec_self_s": median(tracer.self_times("specs.run_spec")),
            "core.engine_build_s": median(tracer.durations("core.engine_build")),
            "core.engine_run_s": median(self.engine_run),
            "core.loop_self_s": median(self.loop_self),
            "core.chunks": float(self.chunks),
            "kernels.interactions": self.interactions,
            "kernels.s_per_Minteraction": kernel_total / self.interactions * 1e6,
            "kernels.share_of_engine_run": kernel_total / sum(self.engine_run),
            "kernels.share_of_answer": kernel_total / sum(self.traced),
            "persist.spill_chunks": self.spill_chunks,
            "trace.overhead_s": median(self.traced) - median(self.untraced),
            "trace.overhead_share": (median(self.traced) - median(self.untraced))
            / median(self.untraced),
        }
        for engine in ("counts", "batch"):
            if self.kernel[engine]:
                out[f"kernels.{engine}_step_s"] = median(self.kernel[engine])
        return out


def _traced_doc(doc: Dict[str, Any], journal: Optional[Path]) -> Dict[str, Any]:
    obs: Dict[str, Any] = {"metrics": True, "journal": True}
    if journal is not None:
        obs["journal_path"] = str(journal)
    return {**doc, "obs": obs}


def _timed_run(doc: Dict[str, Any]) -> Tuple[float, Any, Any]:
    """An untraced request: validate the document and run it."""
    from repro.specs import load_spec, run_spec

    start = time.perf_counter()
    spec = load_spec(doc)
    result = run_spec(spec)
    return time.perf_counter() - start, spec, result


def _render(ctx: Ctx, spec: Any, result: Any) -> bytes:
    from repro.specs import document_bytes, to_document

    with ctx.tracer.span("document.render"):
        return document_bytes(to_document(result, spec))


# ----------------------------------------------------------------------
# counts-small-k / counts-large-k
# ----------------------------------------------------------------------


def counts_workload(ctx: Ctx, pass_pool: Callable[[int], Sequence[Tuple[int, int, int]]]) -> Dict[str, Any]:
    schedule = shuffled_passes([pass_pool(p) for p in range(_passes(ctx))], ctx.rng)
    docs = [usd_spec(n, k, s, "counts") for n, k, s in schedule]
    setup = startup.cold_ready(docs[0], SETUP_LAUNCHES) if not ctx.trace else []

    latencies: List[float] = []
    outcomes: List[Tuple[Tuple[int, int, int, str], List[Any]]] = []
    traced = _TracedRuns()
    kept: List[Tuple[Any, Any]] = []
    journals = ctx.work / "journals"
    journals.mkdir(parents=True, exist_ok=True)
    loop_start = time.perf_counter()
    for index, ((n, k, s), doc) in enumerate(zip(schedule, docs)):
        key = (n, k, s, "counts")
        try:
            elapsed, spec, result = _timed_run(doc)
            latencies.append(elapsed)
            outcomes.append((key, result_outcome(result)))
            if ctx.trace:
                traced.untraced.append(elapsed)
                journal = journals / f"{index:04d}.jsonl"
                spec, result = traced.run(ctx, index, _traced_doc(doc, journal), journal)
                outcomes.append((key, result_outcome(result)))
                kept.append((spec, result))
        except Exception as exc:  # noqa: BLE001 - one failed request is a count
            ctx.op(False, f"{pin_key(*key)} raised {type(exc).__name__}: {exc}")
    loop_s = time.perf_counter() - loop_start

    total = _check_outcomes(ctx, outcomes, [(n, k, s, "counts") for n, k, s in schedule])

    if ctx.trace:
        for spec, result in kept:
            _render(ctx, spec, result)
        layers = _layers()
        layers.update(traced.layers(ctx))
        layers["document.render_s"] = median(ctx.tracer.durations("document.render"))
        return {"layers": layers, "interactions": total}
    answer = timing(latencies)
    return {
        "e2e": {
            "setup_s": median(setup),
            "answer_s_p50": answer["p50"],
            "answer_s_tail": answer["tail"],
            "requests_per_s": len(latencies) / loop_s,
            "interactions_per_s": total / loop_s,
            "peak_rss_mb": peak_rss_mb(),
        },
        "timings": {"answer_s": answer, "setup_s": _samples(setup)},
        "interactions": total,
    }


def _samples(values: Sequence[float]) -> Dict[str, Any]:
    return {"p50": median(values), "samples": len(values), "values": list(values)}


# ----------------------------------------------------------------------
# batch-fleet
# ----------------------------------------------------------------------


def _query_set(dataset_dir: Path, tracer: Optional[Tracer]) -> Tuple[float, Dict[str, Any]]:
    """Open the dataset and answer the fixed query set."""
    from repro import analytics

    asks = (
        ("hitting_time_quantiles", lambda q: q.hitting_time_quantiles(HITTING_QUANTILES)),
        ("undecided_envelope", lambda q: q.undecided_envelope(
            grid_points=ENVELOPE_POINTS, quantiles=ENVELOPE_QUANTILES)),
        ("winner_breakdown", lambda q: q.winner_breakdown()),
    )
    start = time.perf_counter()
    query = analytics.dataset(dataset_dir).query()
    answers = {}
    for name, ask in asks:
        if tracer is None:
            answers[name] = ask(query)
        else:
            with tracer.span(f"analytics.query.{name}"):
                answers[name] = ask(query)
    return time.perf_counter() - start, answers


def _fleet_reference(ctx: Ctx, runs: List[Tuple[Path, Any]]) -> Dict[str, Any]:
    """The query answers, recomputed from the in-memory results and the
    streams on disk through the same NumPy helpers the queries use."""
    import numpy as np

    from repro.analytics import quantiles_exact, sample_step_function, time_grid
    from repro.io.streaming import StreamedTrace

    series = []
    for run_dir, result in runs:
        with ctx.tracer.span("io.stream_read"):
            stream = StreamedTrace(run_dir)
            parts = list(stream.iter_chunks())
        times = np.concatenate([t for t, _ in parts]).astype(np.float64)
        counts = np.concatenate([c for _, c in parts])
        undecided = counts[:, int(stream.undecided_index)].astype(np.float64)
        series.append((times, undecided / np.float64(result.trace.n)))
    grid = time_grid(max(float(t[-1]) for t, _ in series), ENVELOPE_POINTS)
    matrix = np.stack([sample_step_function(t, v, grid) for t, v in series])
    qs = np.asarray(ENVELOPE_QUANTILES, dtype=np.float64)
    bands = np.quantile(matrix, qs, axis=0)
    winners = Counter(
        "none" if r.winner is None else str(r.winner) for _, r in runs
    )
    return {
        "hitting": quantiles_exact(
            [float(r.stabilization_interactions) for _, r in runs], HITTING_QUANTILES
        ),
        "envelope": {
            repr(float(q)): [float(v) for v in band] for q, band in zip(qs, bands)
        },
        "winners": dict(sorted(winners.items())),
    }


def batch_fleet(ctx: Ctx) -> Dict[str, Any]:
    from repro import analytics

    schedule = shuffled_passes([batch_pass(p) for p in range(_passes(ctx))], ctx.rng)
    fleet = ctx.work / "fleet"

    def doc_for(index: int, n: int, k: int, s: int, tag: str) -> Dict[str, Any]:
        # a fresh directory per request: a completed stream under the
        # persist root would answer the spec without simulating it
        recording = {**BATCH_RECORDING, "persist_to": str(fleet / f"{tag}{index:03d}")}
        return usd_spec(n, k, s, "batch", recording=recording)

    setup = (
        startup.cold_ready(doc_for(0, *schedule[0], "run"), SETUP_LAUNCHES)
        if not ctx.trace
        else []
    )
    latencies: List[float] = []
    outcomes = []
    measured: List[Tuple[Path, Any]] = []
    traced = _TracedRuns()
    run_start = time.perf_counter()
    for index, (n, k, s) in enumerate(schedule):
        key = (n, k, s, "batch")
        try:
            doc = doc_for(index, n, k, s, "run")
            elapsed, spec, result = _timed_run(doc)
            latencies.append(elapsed)
            outcomes.append((key, result_outcome(result)))
            if ctx.trace:
                traced.untraced.append(elapsed)
                doc = doc_for(index, n, k, s, "traced")
                journal = Path(doc["recording"]["persist_to"]) / "journal.jsonl"
                spec, result = traced.run(ctx, index, _traced_doc(doc, None), journal)
                outcomes.append((key, result_outcome(result)))
            measured.append((Path(doc["recording"]["persist_to"]), result))
        except Exception as exc:  # noqa: BLE001 - one failed request is a count
            ctx.op(False, f"{pin_key(*key)} raised {type(exc).__name__}: {exc}")
    run_s = time.perf_counter() - run_start

    # the fleet is exported once, from the measured runs only
    dataset_dir = ctx.work / "dataset"
    roots = [path for path, _ in measured]
    export_start = time.perf_counter()
    with ctx.tracer.span("analytics.export"):
        report = analytics.export_dataset(dataset_dir, runs_roots=roots, format="npz")
    export_s = time.perf_counter() - export_start
    ctx.op(
        report.exported == len(measured) and not report.skipped,
        f"export: {report.exported} of {len(measured)} runs, skips {report.skipped}",
    )
    query_times = []
    answers = []
    for _ in range(QUERY_SETS):
        elapsed, answer = _query_set(dataset_dir, ctx.tracer if ctx.trace else None)
        query_times.append(elapsed)
        answers.append(answer)

    total = _check_outcomes(ctx, outcomes, [(n, k, s, "batch") for n, k, s in schedule])
    reference = _fleet_reference(ctx, measured)
    for answer in answers:
        ctx.op(
            answer["hitting_time_quantiles"]["quantiles"] == reference["hitting"],
            "hitting_time_quantiles != quantiles_exact reference",
        )
        ctx.op(
            answer["undecided_envelope"]["quantiles"] == reference["envelope"]
            and answer["undecided_envelope"]["runs"] == len(measured),
            "undecided_envelope != stream reference",
        )
        ctx.op(
            answer["winner_breakdown"]["winners"] == reference["winners"],
            "winner_breakdown != in-memory winners",
        )

    spilled_bytes = sum(
        f.stat().st_size for root in roots for f in root.rglob("*") if f.is_file()
    )
    query = timing(query_times)
    if ctx.trace:
        layers = _layers()
        layers.update(traced.layers(ctx))
        layers.update(
            {
                "persist.bytes": float(spilled_bytes),
                "io.stream_read_s": median(ctx.tracer.durations("io.stream_read")),
                "analytics.export_s": export_s,
                "analytics.rows_exported": float(report.rows),
                "analytics.query_s": query["p50"],
            }
        )
        for name in ("hitting_time_quantiles", "undecided_envelope", "winner_breakdown"):
            layers[f"analytics.query_s.{name}"] = median(
                ctx.tracer.durations(f"analytics.query.{name}")
            )
        return {"layers": layers, "interactions": total}
    answer_t = timing(latencies)
    return {
        "e2e": {
            "setup_s": median(setup),
            "answer_s_p50": answer_t["p50"],
            "answer_s_tail": answer_t["tail"],
            "requests_per_s": len(latencies) / run_s,
            "interactions_per_s": total / run_s,
            "peak_rss_mb": peak_rss_mb(),
        },
        "timings": {
            "answer_s": answer_t,
            "query_s": query,
            "setup_s": _samples(setup),
        },
        "extra": {
            "export_s": export_s,
            "rows_exported": report.rows,
            "persist_bytes": spilled_bytes,
        },
        "interactions": total,
    }


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------


def serve_schedule(ctx: Ctx) -> List[Tuple[str, int]]:
    """Blocks of one miss and three hits; a hit repeats an earlier miss.

    The first request is a miss; after it, the miss takes a seeded
    position in each block.
    """
    rng = ctx.rng
    blocks = BLOCKS_PER_PASS * passes_for(ctx.seconds)
    schedule: List[Tuple[str, int]] = []
    misses_done = 0
    for block in range(blocks):
        slots = ["hit"] * HITS_PER_MISS
        slots.insert(0 if block == 0 else rng.randrange(HITS_PER_MISS + 1), "miss")
        for slot in slots:
            if slot == "miss":
                schedule.append(("miss", block))
                misses_done = block + 1
            else:
                schedule.append(("hit", rng.randrange(misses_done)))
    return schedule


def _strip_volatile(value: Any, top: bool = True) -> Any:
    """A result document without its timings (``wall_seconds``, obs)."""
    if isinstance(value, dict):
        return {
            key: _strip_volatile(item, False)
            for key, item in value.items()
            if key != "wall_seconds" and not (top and key == "obs_metrics")
        }
    if isinstance(value, list):
        return [_strip_volatile(item, False) for item in value]
    return value


def _metric_total(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and line[len(name):len(name) + 1] in (" ", "{"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def serve_mixed(ctx: Ctx) -> Dict[str, Any]:
    from repro.serve import ServeClient
    from repro.specs import document_bytes, load_spec, run_spec, to_document

    schedule = serve_schedule(ctx)
    docs = [usd_spec(*spec, "counts") for spec in SERVE_MISSES]
    tracer = ctx.tracer
    launches = SERVE_SETUP_LAUNCHES if not ctx.trace else 1
    setup: List[float] = []
    proc = None
    try:
        for attempt in range(launches):
            if proc is not None:
                startup.stop_daemon(proc)
            proc, url, elapsed = startup.launch_daemon(ctx.work / f"serve{attempt}")
            setup.append(elapsed)
        client = ServeClient(url, timeout=60.0)
        latencies: Dict[str, List[Tuple[bool, float]]] = {"hit": [], "miss": []}
        miss_bytes: Dict[int, bytes] = {}
        hit_bytes: List[Tuple[int, bytes]] = []
        jobs: List[Dict[str, Any]] = []
        polls: List[int] = []
        deadline = time.perf_counter() + 150.0
        loop_start = time.perf_counter()
        for position, (kind, index) in enumerate(schedule):
            # traced runs alternate untraced and traced blocks
            traced = ctx.trace and (position // (HITS_PER_MISS + 1)) % 2 == 1
            tracer.request = position if traced else None
            try:
                start = time.perf_counter()
                with _maybe(tracer, traced, "serve.request"):
                    with _maybe(tracer, traced, "serve.submit"):
                        response = client.submit(docs[index])
                    if kind == "hit":
                        ctx.op(response.get("status") == "cached",
                               f"hit on spec {index} answered {response.get('status')!r}")
                    else:
                        ctx.op(response.get("status") == "accepted",
                               f"miss on spec {index} answered {response.get('status')!r}")
                        job_id = response["job"]["id"]
                        count = 0
                        while True:
                            with _maybe(tracer, traced, "serve.poll"):
                                status = client.job(job_id)
                            count += 1
                            if status.get("status") in ("done", "failed"):
                                break
                            if time.perf_counter() > deadline:
                                raise TimeoutError(f"job {job_id} still pending")
                            time.sleep(POLL_S)
                        seen = time.time()
                        polls.append(count)
                        if status.get("status") != "done":
                            raise RuntimeError(f"job {job_id} failed: {status.get('error')}")
                    with _maybe(tracer, traced, "serve.fetch"):
                        body = client.result_bytes(response["spec_hash"])
                elapsed = time.perf_counter() - start
            except Exception as exc:  # noqa: BLE001 - one failed request is a count
                ctx.op(False, f"{kind} on spec {index} raised {type(exc).__name__}: {exc}")
                continue
            latencies[kind].append((traced, elapsed))
            if kind == "miss":
                miss_bytes[index] = body
                jobs.append({**status, "seen": seen, "document": json.loads(body)})
            else:
                hit_bytes.append((index, body))
        loop_s = time.perf_counter() - loop_start
        tracer.request = None
        metrics_text = client.metrics_text()
    finally:
        startup.stop_daemon(proc)

    hits = _metric_total(metrics_text, "serve_cache_hits_total")
    misses = _metric_total(metrics_text, "serve_cache_misses_total")
    designed = HITS_PER_MISS / (HITS_PER_MISS + 1)
    hit_ratio = hits / (hits + misses) if hits + misses else 0.0
    ctx.op(
        hit_ratio == designed and hits + misses == len(schedule),
        f"cache hit ratio {hits:g}/{hits + misses:g} != designed {designed}",
    )
    for index, body in hit_bytes:
        ctx.op(body == miss_bytes.get(index), f"hit bytes for spec {index} differ from its miss")
    total = 0
    for index, body in sorted(miss_bytes.items()):
        served = json.loads(body)
        n, k, s = SERVE_MISSES[index]
        outcome = served["outcome"]
        ctx.check_outcome(
            (n, k, s, "counts"),
            outcome_tuple(outcome["interactions"], outcome["stabilization_interactions"],
                          outcome["winner"], outcome["final_counts"]),
        )
        total += int(outcome["interactions"])
        # the daemon's layers, run in process: the reference document
        with tracer.span("specs.load"):
            spec = load_spec(docs[index])
        with tracer.span("specs.hash"):
            spec.spec_hash()
        with tracer.span("specs.run_spec"):
            result = run_spec(spec)
        with tracer.span("document.render"):
            reference = to_document(result, spec)
            document_bytes(reference)
        ctx.op(
            _strip_volatile(served) == _strip_volatile(reference),
            f"served document for spec {index} != in-process run_spec",
        )
    expected = sum(
        ctx.pins[pin_key(*SERVE_MISSES[i], "counts")][0] for kind, i in schedule if kind == "miss"
    )
    ctx.op(total == expected, f"interaction total {total} != pinned {expected}")

    every = [t for kind in ("hit", "miss") for _, t in latencies[kind]]
    hit_t = timing([t for _, t in latencies["hit"]])
    miss_t = timing([t for _, t in latencies["miss"]])
    if ctx.trace:
        layers = _layers()
        untraced = [t for kind in latencies for flag, t in latencies[kind] if not flag]
        traced_l = [t for kind in latencies for flag, t in latencies[kind] if flag]
        overhead = median(traced_l) - median(untraced)
        layers.update(
            {
                "serve.submit_s": median(tracer.durations("serve.submit")),
                "serve.fetch_s": median(tracer.durations("serve.fetch")),
                "serve.queue_wait_s": median([j["started"] - j["created"] for j in jobs]),
                "serve.job_s": median([j["finished"] - j["started"] for j in jobs]),
                "serve.worker_overhead_s": median(
                    [j["finished"] - j["started"] - j["document"]["wall_seconds"] for j in jobs]
                ),
                "serve.notify_lag_s": median([j["seen"] - j["finished"] for j in jobs]),
                "serve.polls": median(polls),
                "serve.cache_hit_ratio": hit_ratio,
                "serve.hit_s_p50": hit_t["p50"],
                "serve.miss_s_p50": miss_t["p50"],
                "serve.miss_s_tail": miss_t["tail"],
                "specs.load_s": median(tracer.durations("specs.load")),
                "specs.hash_s": median(tracer.durations("specs.hash")),
                "specs.run_spec_s": median(tracer.durations("specs.run_spec")),
                "document.render_s": median(tracer.durations("document.render")),
                "trace.overhead_s": overhead,
                "trace.overhead_share": overhead / median(untraced),
            }
        )
        return {"layers": layers, "interactions": total}
    answer = timing(every)
    return {
        "e2e": {
            "setup_s": median(setup),
            "answer_s_p50": answer["p50"],
            "answer_s_tail": answer["tail"],
            "requests_per_s": len(every) / loop_s,
            "interactions_per_s": total / loop_s,
            "peak_rss_mb": peak_rss_mb(),
        },
        "timings": {
            "answer_s": answer,
            "hit_s": hit_t,
            "miss_s": miss_t,
            "setup_s": _samples(setup),
        },
        "extra": {
            "polls_p50": median(polls),
            "cache_hit_ratio": hit_ratio,
        },
        "interactions": total,
    }


def _maybe(tracer: Tracer, on: bool, name: str):
    return tracer.span(name) if on else nullcontext()


WORKLOADS: Dict[str, Tuple[str, Callable[[Ctx], Dict[str, Any]]]] = {
    "counts-small-k": (
        "exact counts kernel at k=4 (E=20): per-event numpy overhead and fixed per-request costs",
        lambda ctx: counts_workload(ctx, small_k_pass),
    ),
    "counts-large-k": (
        "exact counts kernel at k=16/32: O(k^2) pair-weight recompute per event dominates",
        lambda ctx: counts_workload(ctx, large_k_pass),
    ),
    "batch-fleet": (
        "tau-leaping at n=1e6 with spill to disk, then one export and repeated fleet queries",
        batch_fleet,
    ),
    "serve-mixed": (
        "repro serve in process job mode, 1 miss to 3 hits: worker spawn, import, store, HTTP",
        serve_mixed,
    ),
}
