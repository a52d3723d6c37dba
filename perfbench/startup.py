"""Cold-start probes: fresh interpreters timed from launch to ready.

A single cold start ranged from 0.53 s to 0.76 s on the same code, so
every figure here is the median of several launches.  The median also
discards the first launch in a fresh checkout, which compiles the
bytecode cache (a cost users pay once per install, not per run).
"""

from __future__ import annotations

import json
import selectors
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import ROOT, child_env, median

#: Seconds any single launch may take before the run is abandoned.
LAUNCH_TIMEOUT = 60.0

_READY_CODE = (
    "import json, sys\n"
    "import repro\n"
    "from repro.specs import load_spec\n"
    "load_spec(json.loads(sys.argv[1]))\n"
    "print('ready', flush=True)\n"
)


def _readline(proc: subprocess.Popen, deadline: float) -> str:
    """One line of the child's stdout, or '' on exit or deadline."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        remaining = deadline - time.perf_counter()
        if remaining <= 0 or not sel.select(timeout=remaining):
            return ""
    return proc.stdout.readline()


def _finish(proc: subprocess.Popen) -> None:
    try:
        proc.wait(timeout=LAUNCH_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def cold_ready(first_spec: Dict[str, Any], launches: int) -> List[float]:
    """Launch → ``import repro`` + first spec loaded, per launch."""
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _READY_CODE, json.dumps(first_spec)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=child_env(),
        )
        try:
            line = _readline(proc, start + LAUNCH_TIMEOUT)
            elapsed = time.perf_counter() - start
            if line.strip() != "ready":
                raise RuntimeError("cold start did not reach ready")
        finally:
            proc.stdout.close()
            _finish(proc)
        times.append(elapsed)
    return times


def cold_run(args: List[str], launches: int) -> List[float]:
    """Launch → exit of ``python <args>``, per launch."""
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *args],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            cwd=ROOT,
            env=child_env(),
            timeout=LAUNCH_TIMEOUT,
        )
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"python {' '.join(args)} exited {done.returncode}")
    return times


def import_profile() -> Tuple[float, float]:
    """(networkx cumulative import s, ``import repro`` cumulative s).

    From ``python -X importtime``; networkx reads 0 once nothing on the
    ``import repro`` path pulls it in.
    """
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        timeout=LAUNCH_TIMEOUT,
    )
    cumulative: Dict[str, float] = {}
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        name = parts[2].strip()
        try:
            cumulative.setdefault(name, int(parts[1]) / 1e6)
        except ValueError:
            continue  # the header line
    if "repro" not in cumulative:
        raise RuntimeError("python -X importtime did not report 'import repro'")
    return cumulative.get("networkx", 0.0), cumulative["repro"]


def startup_layers(launches: int) -> Dict[str, float]:
    """The startup per-layer metrics (medians of cold launches)."""
    nx_runs = [import_profile() for _ in range(launches)]
    networkx_s = median([nx for nx, _ in nx_runs])
    repro_s = median([total for _, total in nx_runs])
    return {
        "startup.import_s": median(cold_run(["-c", "import repro"], launches)),
        "startup.networkx_import_s": networkx_s,
        "startup.networkx_share": networkx_s / repro_s if repro_s else 0.0,
        "startup.cli_help_s": median(cold_run(["-m", "repro", "--help"], launches)),
    }


# ----------------------------------------------------------------------
# The serve daemon
# ----------------------------------------------------------------------


def launch_daemon(root: Path) -> Tuple[subprocess.Popen, str, float]:
    """Start ``repro serve --port 0`` and wait until ``/healthz`` answers.

    Returns the process, its base URL and the launch-to-healthy time.
    The daemon runs in its default process job mode with one job in
    flight, so the benchmark never keeps more processes busy than the
    two CPUs it was sized on.
    """
    start = time.perf_counter()
    deadline = start + LAUNCH_TIMEOUT
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--root", str(root), "--jobs", "1",
        ],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    try:
        line = _readline(proc, deadline)
        marker = "listening on "
        if marker not in line:
            raise RuntimeError(f"serve daemon did not announce its port: {line!r}")
        url = line.split(marker, 1)[1].strip()
        while True:
            try:
                with urllib.request.urlopen(url + "/healthz", timeout=5) as resp:
                    if resp.status == 200:
                        break
            except (urllib.error.URLError, ConnectionError):
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("serve daemon never answered /healthz")
            time.sleep(0.002)
        return proc, url, time.perf_counter() - start
    except BaseException:
        stop_daemon(proc)
        raise


def stop_daemon(proc: Optional[subprocess.Popen]) -> None:
    """Interrupt the daemon (it settles its jobs), wait, kill if stuck."""
    if proc is None:
        return
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
