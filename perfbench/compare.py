"""Compare two result files metric by metric.

Each file holds one JSON record per benchmark run (``run.py`` appends
them).  For every workload and metric both sides get a median and
quartiles, and the delta of the medians is printed.  A metric is
``unresolved`` when either side's spread (quartile distance over
median) exceeds its bound: then the runs cannot tell the sides apart.
Per-layer metrics have no bound of their own and are judged against
``PER_LAYER_BOUND``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import BETTER, BOUNDS, UNITS, quartiles

PER_LAYER_BOUND = 0.25


def load_records(path: Path) -> List[Dict[str, Any]]:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(json.loads(line))
    if not records:
        raise SystemExit(f"compare: {path} holds no results")
    return records


def _refusal(path: Path, records: List[Dict[str, Any]]) -> str:
    """Why these records are not one commit's numbers ('' when they are)."""
    commits = {r["provenance"].get("commit") for r in records}
    if any(not r["provenance"].get("commit_numbers") for r in records):
        return f"{path} holds results from a dirty or unknown tree"
    if len(commits) != 1:
        return f"{path} mixes results of {len(commits)} commits"
    return ""


def _group(records: List[Dict[str, Any]]) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        workload = record["provenance"]["workload"]
        for name, metric in record["metrics"].items():
            values.setdefault((workload, name), []).append(float(metric["value"]))
    return values


def compare(base_path: Path, head_path: Path, allow_dirty: bool) -> int:
    base = load_records(base_path)
    head = load_records(head_path)
    for path, records in ((base_path, base), (head_path, head)):
        reason = _refusal(path, records)
        if reason and not allow_dirty:
            print(f"compare: refused: {reason} (pass --allow-dirty to compare anyway)")
            return 2
        if reason:
            print(f"compare: warning: {reason}")
    base_values = _group(base)
    head_values = _group(head)
    header = (
        f"{'workload':<15} {'metric':<42} {'base q1/med/q3':>32} "
        f"{'head q1/med/q3':>32} {'delta':>8}  verdict"
    )
    print(header)
    print("-" * len(header))
    for key in sorted(set(base_values) & set(head_values)):
        workload, name = key
        b = quartiles(base_values[key])
        h = quartiles(head_values[key])
        bound = BOUNDS.get(name, PER_LAYER_BOUND)
        spreads = [
            (q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else 0.0
            for q in (b, h)
        ]
        delta = (h["median"] - b["median"]) / abs(b["median"]) if b["median"] else 0.0
        worse = delta > 0 if BETTER.get(name, "lower") == "lower" else delta < 0
        if max(spreads) > bound:
            verdict = "unresolved"
        elif abs(delta) > bound:
            verdict = "worse" if worse else "better"
        else:
            verdict = "within bound"
        unit = UNITS.get(name, "")
        print(
            f"{workload:<15} {name:<42} {_fmt(b, unit):>32} {_fmt(h, unit):>32} "
            f"{delta:>+8.1%}  {verdict}"
        )
    return 0


def _fmt(q: Dict[str, float], unit: str) -> str:
    return f"{q['q1']:.4g}/{q['median']:.4g}/{q['q3']:.4g} {unit}"
