"""Job execution for the simulation service.

One submitted spec runs through :func:`execute_job`: an observability
scope wraps the whole execution (metrics + a per-job journal, so
``GET /runs/{id}/progress`` can stream heartbeats and a crashed job
leaves its timeline on disk), and the finished result lands as the
canonical result-document bytes in ``result.json``.

:func:`_job_entry` is the job worker's process entry point: it is
module-level (picklable by qualified name), reports failure through
``error.json`` + a non-zero exit code, and ships the job's metric
counters home through ``metrics.json`` — a worker process has its own
registry, so deltas travel by file exactly like pool workers ship
theirs through the result plumbing.

The daemon's ``forkserver`` preloads this module, so importing it must
stay free of side effects beyond imports: no registry activation, no
kernel-backend resolution, no RNG draws.  The one state a fork does
copy, numpy's legacy global RNG, :func:`_job_entry` reseeds, so every
forked job starts from the state a freshly spawned interpreter would
have.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Union

import numpy as np

from ..errors import ReproError
from ..obs import metrics as obs_metrics
from ..obs.config import ObsConfig
from ..obs.journal import JOURNAL_NAME
from ..obs.runtime import activated
from ..specs import document_bytes, load_spec, run_spec, to_document

__all__ = [
    "ERROR_NAME",
    "JOURNAL_NAME",
    "METRICS_NAME",
    "RESULT_NAME",
    "SPEC_NAME",
    "execute_job",
]

#: Files a job directory may contain, all written atomically.
SPEC_NAME = "spec.json"
RESULT_NAME = "result.json"
ERROR_NAME = "error.json"
METRICS_NAME = "metrics.json"


def _atomic_write(path: Path, data: bytes) -> None:
    """Write-then-rename so readers never observe a torn file."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def execute_job(
    payload: Mapping[str, Any],
    job_dir: Union[str, Path],
    *,
    progress_interval: float = 2.0,
) -> Dict[str, Any]:
    """Run one submitted spec document and persist its result document.

    The job directory receives ``journal.jsonl`` (live while the job
    runs — the progress endpoint tails it), ``result.json`` (the
    canonical document bytes) and ``metrics.json`` (the metric counters
    this job produced, as a snapshot delta for the daemon to merge).
    Returns the result document.
    """
    job_dir = Path(job_dir)
    job_dir.mkdir(parents=True, exist_ok=True)
    spec = load_spec(payload)
    config = ObsConfig(
        metrics=True, journal=True, progress_interval=progress_interval
    )
    with activated(
        config,
        journal_path=job_dir / JOURNAL_NAME,
        journal_meta={
            "spec_hash": spec.spec_hash(),
            "kind": payload.get("kind"),
            "job_dir": str(job_dir),
        },
    ):
        baseline = obs_metrics.REGISTRY.snapshot()
        result = run_spec(spec)
        delta = obs_metrics.snapshot_delta(
            baseline, obs_metrics.REGISTRY.snapshot()
        )
    doc = to_document(result, spec)
    _atomic_write(job_dir / METRICS_NAME, _json_bytes(delta))
    # the result lands last: its presence certifies the job completed
    _atomic_write(job_dir / RESULT_NAME, document_bytes(doc))
    return doc


def _json_bytes(value: Any) -> bytes:
    return (json.dumps(value, sort_keys=True) + "\n").encode("utf-8")


def _job_entry(
    payload: Dict[str, Any], job_dir: str, progress_interval: float
) -> None:
    """Job-process entry point: execute, or leave an ``error.json``."""
    # a forked worker inherits the forkserver's legacy global numpy RNG
    # (``random`` reseeds itself at fork, numpy does not): draw it from
    # OS entropy as a freshly spawned interpreter would
    np.random.seed()
    directory = Path(job_dir)
    try:
        execute_job(payload, directory, progress_interval=progress_interval)
    except BaseException as exc:  # noqa: BLE001 — the file IS the report
        try:
            _atomic_write(
                directory / ERROR_NAME,
                _json_bytes(
                    {
                        "error": type(exc).__name__,
                        "message": str(exc),
                        "repro_error": isinstance(exc, ReproError),
                    }
                ),
            )
        except OSError:
            pass
        raise SystemExit(1) from exc
