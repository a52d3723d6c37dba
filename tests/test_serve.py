"""The simulation service: store, job manager, daemon, client.

The contracts under test, layer by layer:

* ``ResultStore`` — content-addressed byte identity, refusal of
  mis-keyed documents, index rebuild from the documents directory and
  from plain persisted run directories (skipping unseeded runs, whose
  outcomes must never answer for a fresh random draw), corrupt-entry
  skips with recorded reasons;
* ``JobManager`` — duplicate submissions of an active ``spec_hash``
  coalesce onto one job instead of simulating twice;
* the HTTP daemon end to end — submit/miss/hit, byte-identical result
  fetches, live ``/metrics``, job status and journal progress, 400 on
  invalid specs, 404 on unknown routes; plus a process-mode smoke test
  (the production configuration);
* waiting — ``ServeClient.wait`` holds one ``?follow=1`` stream that
  closes when the job settles, then fetches the status once;
* process-mode job workers — forked from a pre-imported ``forkserver``
  (``spawn`` only where it is not offered), one process per job with no
  state leaking between jobs, a SIGKILLed worker still legible as a
  ``(killed)`` failure with an open ``engine.run`` span, and the
  forkserver reaped when the daemon exits.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.io.streaming import find_persisted_by_hash
from repro.serve import (
    JobManager,
    ResultStore,
    ServeClient,
    ServeConfig,
    make_server,
    shutdown_server,
)
from repro.specs import RunSpec, run_spec, to_document

FAST_PAYLOAD = {
    "schema_version": 1,
    "kind": "run",
    "protocol": {"name": "usd", "k": 3},
    "initial": {"kind": "equal-minorities", "n": 2000, "params": {"bias": 150}},
    "engine": "batch",
    "seed": 31,
    "max_parallel_time": 300.0,
    "stop_when_stable": True,
}


def fast_document():
    spec = RunSpec.from_dict(FAST_PAYLOAD)
    return spec.spec_hash(), to_document(run_spec(spec), spec)


# ---------------------------------------------------------------- store


class TestResultStore:
    def test_put_get_byte_identity(self, tmp_path):
        spec_hash, document = fast_document()
        store = ResultStore(tmp_path / "store")
        store.put(spec_hash, document)
        first = store.get_bytes(spec_hash)
        assert first == store.get_bytes(spec_hash)
        assert store.get(spec_hash) == document
        assert spec_hash in store and len(store) == 1

    def test_put_rejects_non_hash_keys(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ServeError, match="non-hash"):
            store.put("../escape", {"spec_hash": "../escape"})

    def test_put_rejects_mismatched_document(self, tmp_path):
        spec_hash, document = fast_document()
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ServeError, match="cannot store"):
            store.put("f" * 64, document)

    def test_rebuild_after_index_delete(self, tmp_path):
        spec_hash, document = fast_document()
        root = tmp_path / "store"
        first = ResultStore(root)
        first.put(spec_hash, document)
        reference = first.get_bytes(spec_hash)
        (root / "index.json").unlink()
        # a fresh store (daemon restart) rebuilds the index from the
        # document files and serves the identical bytes
        rebuilt = ResultStore(root)
        assert spec_hash in rebuilt
        assert rebuilt.get_bytes(spec_hash) == reference

    def test_rebuild_from_persisted_runs(self, tmp_path):
        runs_root = tmp_path / "runs"
        spec = RunSpec.from_dict(
            {**FAST_PAYLOAD, "recording": {"persist_to": str(runs_root)}}
        )
        result = run_spec(spec)
        store = ResultStore(tmp_path / "store", runs_roots=[runs_root])
        assert spec.spec_hash() in store
        stored = store.get(spec.spec_hash())
        assert stored["outcome"]["winner"] == result.winner

    def test_rebuild_skips_unseeded_runs(self, tmp_path):
        runs_root = tmp_path / "runs"
        spec = RunSpec.from_dict(
            {
                **FAST_PAYLOAD,
                "seed": None,
                "recording": {"persist_to": str(runs_root)},
            }
        )
        run_spec(spec)
        store = ResultStore(tmp_path / "store", runs_roots=[runs_root])
        # an unseeded run is a fresh draw every time; its recorded
        # outcome must never be served as the answer to a new submission
        assert len(store) == 0

    def test_rebuild_records_skip_reasons(self, tmp_path):
        runs_root = tmp_path / "runs"
        bad = runs_root / "corrupt"
        bad.mkdir(parents=True)
        (bad / "manifest.json").write_text("{torn")
        store = ResultStore(tmp_path / "store", runs_roots=[runs_root])
        assert any("corrupt" in path for path, _reason in store.skipped)


def test_find_persisted_by_hash_skips_corrupt_with_reason(tmp_path):
    runs_root = tmp_path / "runs"
    spec = RunSpec.from_dict(
        {**FAST_PAYLOAD, "recording": {"persist_to": str(runs_root / "real")}}
    )
    result = run_spec(spec)
    bad = runs_root / "aaa-corrupt"  # sorts before the valid run dir
    bad.mkdir()
    (bad / "manifest.json").write_text("{torn")
    skips = []
    found = find_persisted_by_hash(
        runs_root, spec.spec_hash(), on_skip=lambda p, r: skips.append((p, r))
    )
    assert found is not None
    assert str(found) == str(result.persist_dir)
    assert any("aaa-corrupt" in str(path) for path, _reason in skips)


# ------------------------------------------------------------- coalescing


def test_concurrent_duplicate_submissions_coalesce(tmp_path, monkeypatch):
    from repro.serve import worker

    release = threading.Event()
    spec_hash = "ab" * 32

    def slow_execute(payload, job_dir, *, progress_interval=2.0):
        release.wait(timeout=30.0)
        return {"spec_hash": spec_hash, "kind": "result"}

    monkeypatch.setattr(worker, "execute_job", slow_execute)
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=2, mode="thread")
    try:
        first, coalesced_first = jobs.submit(
            {}, spec_hash=spec_hash, kind="run", cacheable=True
        )
        assert not coalesced_first
        second, coalesced_second = jobs.submit(
            {}, spec_hash=spec_hash, kind="run", cacheable=True
        )
        # while the first job is active, the same hash coalesces onto it
        assert coalesced_second and second.id == first.id
        release.set()
        deadline = threading.Event()
        for _ in range(100):
            if first.status == "done":
                break
            deadline.wait(0.05)
        assert first.status == "done"
        assert spec_hash in store
        # once settled, a resubmission is a cache hit, not a new job
        third, coalesced_third = jobs.submit(
            {}, spec_hash=spec_hash, kind="run", cacheable=True
        )
        assert not coalesced_third and third.id != first.id
    finally:
        release.set()
        jobs.shutdown()


def test_non_cacheable_submissions_never_coalesce(tmp_path, monkeypatch):
    from repro.serve import worker

    release = threading.Event()
    monkeypatch.setattr(
        worker,
        "execute_job",
        lambda payload, job_dir, *, progress_interval=2.0: (
            release.wait(timeout=30.0),
            {"spec_hash": "cd" * 32, "kind": "result"},
        )[1],
    )
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=2, mode="thread")
    try:
        first, _ = jobs.submit(
            {}, spec_hash="cd" * 32, kind="run", cacheable=False
        )
        second, coalesced = jobs.submit(
            {}, spec_hash="cd" * 32, kind="run", cacheable=False
        )
        assert not coalesced and second.id != first.id
    finally:
        release.set()
        jobs.shutdown()


def _wait_settled(job, *, timeout=10.0):
    gate = threading.Event()
    for _ in range(int(timeout / 0.02)):
        if job.status in ("done", "failed"):
            return
        gate.wait(0.02)
    raise AssertionError(f"job {job.id} never settled (status {job.status})")


def test_settled_jobs_evicted_beyond_retention_bound(tmp_path, monkeypatch):
    from repro.serve import worker

    monkeypatch.setattr(
        worker,
        "execute_job",
        lambda payload, job_dir, *, progress_interval=2.0: {
            "spec_hash": "ee" * 32,
            "kind": "result",
        },
    )
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(
        store, tmp_path, max_workers=1, mode="thread", max_retained_jobs=2
    )
    try:
        settled = []
        for index in range(5):
            job, _ = jobs.submit(
                {"index": index},
                spec_hash=f"{index:02d}" * 32,
                kind="run",
                cacheable=False,
            )
            _wait_settled(job)
            settled.append(job)
        # the status flip precedes the evicting thread's cleanup by a
        # hair: give the final eviction a moment to land
        gate = threading.Event()
        for _ in range(200):
            if jobs.counts()["done"] == 2 and not settled[2].dir.exists():
                break
            gate.wait(0.02)
        # only the two newest settled jobs survive: older ones vanish
        # from the status view and their directories are deleted
        assert jobs.counts()["done"] == 2
        for job in settled[:3]:
            assert jobs.get(job.id) is None
            assert not job.dir.exists()
        for job in settled[3:]:
            assert jobs.get(job.id) is job
            assert job.dir.exists()
        job_dirs = [p for p in (tmp_path / "jobs").iterdir() if p.is_dir()]
        assert len(job_dirs) == 2
    finally:
        jobs.shutdown()


def test_eviction_counts_failed_jobs_and_records_metric(tmp_path, monkeypatch):
    from repro.obs import metrics as obs_metrics
    from repro.serve import worker

    def failing_execute(payload, job_dir, *, progress_interval=2.0):
        raise ServeError("synthetic job failure")

    monkeypatch.setattr(worker, "execute_job", failing_execute)
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(
        store, tmp_path, max_workers=1, mode="thread", max_retained_jobs=1
    )
    obs_metrics.REGISTRY.activate()
    try:
        first, _ = jobs.submit({}, spec_hash="aa" * 32, kind="run", cacheable=False)
        _wait_settled(first)
        second, _ = jobs.submit({}, spec_hash="bb" * 32, kind="run", cacheable=False)
        _wait_settled(second)
        gate = threading.Event()
        for _ in range(200):
            counters = obs_metrics.REGISTRY.snapshot()["counters"]
            if "serve_jobs_evicted_total" in counters:
                break
            gate.wait(0.02)
        assert jobs.get(first.id) is None and not first.dir.exists()
        assert jobs.get(second.id) is second
        counters = obs_metrics.REGISTRY.snapshot()["counters"]
        assert counters["serve_jobs_evicted_total"][""] == 1.0
    finally:
        obs_metrics.REGISTRY.deactivate()
        jobs.shutdown()


def test_unbounded_retention_keeps_every_settled_job(tmp_path, monkeypatch):
    from repro.serve import worker

    monkeypatch.setattr(
        worker,
        "execute_job",
        lambda payload, job_dir, *, progress_interval=2.0: {
            "spec_hash": "ff" * 32,
            "kind": "result",
        },
    )
    store = ResultStore(tmp_path / "store")
    jobs = JobManager(store, tmp_path, max_workers=1, mode="thread")
    try:
        for index in range(4):
            job, _ = jobs.submit(
                {}, spec_hash=f"{index:02d}" * 32, kind="run", cacheable=False
            )
            _wait_settled(job)
        assert jobs.counts()["done"] == 4
    finally:
        jobs.shutdown()


def test_retention_bound_must_be_positive(tmp_path):
    store = ResultStore(tmp_path / "store")
    with pytest.raises(ServeError, match="max_retained_jobs"):
        JobManager(store, tmp_path, mode="thread", max_retained_jobs=0)


# ------------------------------------------------------------ HTTP daemon


@pytest.fixture()
def daemon(tmp_path):
    httpd = make_server(
        ServeConfig(
            port=0, root=tmp_path / "serve", job_mode="thread", max_jobs=2
        )
    )
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    yield client, httpd
    shutdown_server(httpd)
    thread.join(timeout=5.0)


class TestDaemon:
    def test_health(self, daemon):
        client, _httpd = daemon
        health = client.health()
        assert health["status"] == "ok"
        assert health["store_documents"] == 0

    def test_miss_then_hit_byte_identical(self, daemon):
        client, _httpd = daemon
        first = client.submit_and_wait(FAST_PAYLOAD, timeout=60.0)
        assert first["status"] == "accepted"
        reference = client.result_bytes(first["spec_hash"])

        second = client.submit(FAST_PAYLOAD)
        assert second["status"] == "cached"
        assert client.result_bytes(second["spec_hash"]) == reference

        metrics = client.metrics_text()
        assert "serve_cache_hits_total 1" in metrics
        assert "serve_cache_misses_total 1" in metrics

    def test_unseeded_specs_are_never_cached(self, daemon):
        client, _httpd = daemon
        payload = {**FAST_PAYLOAD, "seed": None}
        first = client.submit_and_wait(payload, timeout=60.0)
        assert first["status"] == "accepted"
        assert first["result"] is not None
        # the result exists on the job, but a resubmission simulates anew
        second = client.submit(payload)
        assert second["status"] == "accepted"
        client.wait(second["job"]["id"], timeout=60.0)

    def test_invalid_spec_is_a_400(self, daemon):
        client, _httpd = daemon
        with pytest.raises(ServeError, match="HTTP 400"):
            client.submit({**FAST_PAYLOAD, "protocol": {"name": "nope"}})
        with pytest.raises(ServeError, match="HTTP 400"):
            client.submit({"kind": "run"})

    def test_unknown_routes_are_404(self, daemon):
        client, _httpd = daemon
        with pytest.raises(ServeError, match="HTTP 404"):
            client.job("job-does-not-exist")
        with pytest.raises(ServeError, match="HTTP 404"):
            client.result_bytes("0" * 64)
        with pytest.raises(ServeError, match="HTTP 404"):
            client._request("GET", "/no/such/route")

    def test_progress_serves_the_job_journal(self, daemon):
        client, _httpd = daemon
        response = client.submit(FAST_PAYLOAD)
        job_id = response["job"]["id"]
        client.wait(job_id, timeout=60.0)
        records = list(client.progress(job_id))
        events = {record.get("event") for record in records}
        assert "journal.open" in events
        assert any(record.get("span") == "engine.run" for record in records)

    def test_job_status_carries_result_when_done(self, daemon):
        client, _httpd = daemon
        response = client.submit(FAST_PAYLOAD)
        final = client.wait(response["job"]["id"], timeout=60.0)
        assert final["result"]["spec_hash"] == response["spec_hash"]
        assert final["result"]["kind"] == "result"


def test_process_mode_smoke(tmp_path):
    """The production configuration: one worker process per job."""
    httpd = make_server(
        ServeConfig(
            port=0, root=tmp_path / "serve", job_mode="process", max_jobs=1
        )
    )
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
        first = client.submit_and_wait(FAST_PAYLOAD, timeout=120.0)
        assert first["status"] == "accepted"
        assert client.submit(FAST_PAYLOAD)["status"] == "cached"
        document = json.loads(
            client.result_bytes(first["spec_hash"]).decode("utf-8")
        )
        assert document["outcome"]["stabilized"] is True
    finally:
        shutdown_server(httpd)
        thread.join(timeout=5.0)


# ----------------------------------------------------------------- waiting


def _hold_jobs(monkeypatch, *, fail=False):
    """Make thread-mode jobs block until the returned event is set."""
    from repro.serve import worker

    release = threading.Event()
    spec_hash = RunSpec.from_dict(FAST_PAYLOAD).spec_hash()

    def held_execute(payload, job_dir, *, progress_interval=2.0):
        release.wait(timeout=30.0)
        if fail:
            raise ServeError("synthetic job failure")
        return {"spec_hash": spec_hash, "kind": "result"}

    monkeypatch.setattr(worker, "execute_job", held_execute)
    return release


def _metric(text, name, **labels):
    """One sample's value from a Prometheus exposition (0 if absent)."""
    series = name + (
        "{" + ",".join(f'{k}="{v}"' for k, v in labels.items()) + "}"
        if labels
        else ""
    )
    for line in text.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def _wait_requests(client):
    text = client.metrics_text()
    return tuple(
        _metric(text, "serve_requests_total", endpoint=endpoint)
        for endpoint in ("progress", "get_run")
    )


class TestWait:
    def test_wait_follows_until_done_then_fetches_status_once(
        self, daemon, monkeypatch
    ):
        client, _httpd = daemon
        release = _hold_jobs(monkeypatch)
        job_id = client.submit(FAST_PAYLOAD)["job"]["id"]
        before = _wait_requests(client)
        threading.Timer(0.3, release.set).start()
        final = client.wait(job_id, timeout=30.0)
        assert final["status"] == "done"
        assert final["finished"] is not None
        # one follow stream held open across the whole wait, one status
        # fetch after it closed — no polling
        progress, get_run = _wait_requests(client)
        assert (progress - before[0], get_run - before[1]) == (1, 1)

    def test_wait_raises_once_the_job_fails(self, daemon, monkeypatch):
        client, _httpd = daemon
        release = _hold_jobs(monkeypatch, fail=True)
        job_id = client.submit(FAST_PAYLOAD)["job"]["id"]
        before = _wait_requests(client)
        threading.Timer(0.3, release.set).start()
        with pytest.raises(ServeError, match="failed: synthetic job failure"):
            client.wait(job_id, timeout=30.0)
        progress, get_run = _wait_requests(client)
        assert (progress - before[0], get_run - before[1]) == (1, 1)

    def test_wait_times_out_on_a_job_still_running(self, daemon, monkeypatch):
        client, _httpd = daemon
        release = _hold_jobs(monkeypatch)
        try:
            job_id = client.submit(FAST_PAYLOAD)["job"]["id"]
            with pytest.raises(ServeError, match="still 'running' after"):
                client.wait(job_id, timeout=0.3)
        finally:
            release.set()


# ------------------------------------------------- process-mode job workers


@pytest.mark.parametrize(
    "offered, expected",
    [
        (["fork", "spawn", "forkserver"], "forkserver"),
        (["fork", "spawn"], "spawn"),
    ],
)
def test_process_workers_start_method(tmp_path, monkeypatch, offered, expected):
    if expected not in multiprocessing.get_all_start_methods():
        pytest.skip(f"{expected} is not offered on this platform")
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: list(offered)
    )
    jobs = JobManager(ResultStore(tmp_path / "store"), tmp_path, mode="process")
    try:
        assert jobs._context.get_start_method() == expected
    finally:
        jobs.shutdown()


def test_forkserver_preload_only_imports():
    """Importing the preload leaves no state a spawned job would lack."""
    code = (
        "from repro.serve.jobs import FORKSERVER_PRELOAD\n"
        "for name in FORKSERVER_PRELOAD:\n"
        "    __import__(name)\n"
        "from repro.core.kernels import registry\n"
        "from repro.obs import metrics\n"
        "assert not registry._RESOLVED, registry._RESOLVED\n"
        "assert not metrics.REGISTRY.enabled\n"
        "assert not any(metrics.REGISTRY.snapshot().values())\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr


def test_job_entry_reseeds_the_inherited_numpy_rng(tmp_path):
    """A forked worker must not replay the forkserver's legacy RNG."""
    import numpy as np

    from repro.serve import worker

    saved = np.random.get_state()
    try:
        np.random.seed(0)
        inherited = np.random.get_state()[1].copy()
        with pytest.raises(SystemExit):
            worker._job_entry({"kind": "run"}, str(tmp_path / "job"), 2.0)
        assert (tmp_path / "job" / worker.ERROR_NAME).is_file()
        assert not np.array_equal(np.random.get_state()[1], inherited)
    finally:
        np.random.set_state(saved)


#: Alive long enough to be killed mid-run.
SLOW_PAYLOAD = {
    "schema_version": 1,
    "kind": "run",
    "protocol": {"name": "voter", "k": 2},
    "initial": {"kind": "equal-minorities", "n": 400_000, "params": {"bias": 1}},
    "engine": "counts",
    "seed": 7,
    "max_parallel_time": 1_000_000.0,
    "stop_when_stable": True,
}


def test_killed_process_job_is_legible(tmp_path):
    from repro.obs.journal import JOURNAL_NAME, read_journal, summarize_journal

    jobs = JobManager(
        ResultStore(tmp_path / "store"),
        tmp_path,
        max_workers=1,
        mode="process",
        progress_interval=0.2,
    )
    try:
        job, _ = jobs.submit(
            SLOW_PAYLOAD,
            spec_hash=RunSpec.from_dict(SLOW_PAYLOAD).spec_hash(),
            kind="run",
            cacheable=True,
        )
        journal = job.dir / JOURNAL_NAME
        deadline = time.monotonic() + 60.0
        while not (
            job.pid is not None
            and journal.is_file()
            and "engine.run" in summarize_journal(read_journal(journal)).spans
        ):
            assert job.status != "failed", job.error
            assert time.monotonic() < deadline, "worker never entered engine.run"
            time.sleep(0.05)
        os.kill(job.pid, signal.SIGKILL)
        assert job.settled.wait(30.0), "killed job never settled"
        assert job.status == "failed"
        assert "(killed)" in job.error, job.error
        summary = summarize_journal(read_journal(journal))
        assert summary.spans["engine.run"].open > 0
        assert not summary.closed
    finally:
        jobs.shutdown()


def _child_processes(pid):
    """``(pid, cmdline)`` of the live children of ``pid``, from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(
                (int(entry), cmdline.replace(b"\0", b" ").decode(errors="replace"))
            )
    return children


@pytest.fixture()
def process_daemon(tmp_path):
    """A real ``repro serve`` subprocess in its default process job mode."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--root", str(tmp_path / "serve"), "--jobs", "1",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        match = re.search(r"http://[\d.]+:(\d+)", proc.stdout.readline())
        assert match, "daemon did not announce a port"
        client = ServeClient(f"http://127.0.0.1:{match.group(1)}")
        deadline = time.monotonic() + 30.0
        while True:
            try:
                client.health()
                break
            except ServeError:
                assert time.monotonic() < deadline, "daemon never healthy"
                time.sleep(0.05)
        yield proc, client
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


def test_back_to_back_process_jobs_run_in_fresh_workers(process_daemon):
    proc, client = process_daemon
    finals = [
        client.submit_and_wait({**FAST_PAYLOAD, "seed": seed}, timeout=120.0)
        for seed in (41, 42)
    ]
    assert [final["status"] for final in finals] == ["accepted", "accepted"]
    pids = [final["job"]["pid"] for final in finals]
    assert len(set(pids)) == 2 and proc.pid not in pids
    # each worker's counters arrive as a delta and fold into the daemon:
    # the total is exactly the two outcomes, so nothing leaked between
    # forked jobs
    expected = sum(final["result"]["outcome"]["interactions"] for final in finals)
    assert _metric(client.metrics_text(), "interactions_total") == expected


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists()
    or "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="needs /proc and the forkserver start method",
)
def test_daemon_exit_reaps_the_forkserver(process_daemon):
    proc, _client = process_daemon
    deadline = time.monotonic() + 30.0
    while True:
        servers = [
            pid
            for pid, cmdline in _child_processes(proc.pid)
            if "multiprocessing.forkserver" in cmdline
        ]
        if servers:
            break
        assert time.monotonic() < deadline, "daemon never started a forkserver"
        time.sleep(0.05)
    proc.send_signal(signal.SIGINT)
    assert proc.wait(timeout=20.0) == 0
    # waited for by the daemon itself, not left to exit on its own
    assert not [pid for pid in servers if Path(f"/proc/{pid}").exists()]


def test_client_reports_unreachable_server():
    client = ServeClient("http://127.0.0.1:9", timeout=2.0)
    with pytest.raises(ServeError, match="could not reach"):
        client.health()
