"""In-memory spans recorded around calls into the program's layers.

The benchmark never instruments ``src/``: spans are opened here, around
public calls, and two internal boundaries (``make_engine`` and
``BaseEngine.run``) are reached by wrapping those public names for the
duration of a traced request only.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from common import median


class Tracer:
    """A span list with parent links and a current request id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.request: Optional[int] = None

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[Dict[str, Any]]:
        record: Dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "request": self.request,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(fields)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrapped(self, owner: Any, attr: str, name: str) -> Iterator[None]:
        """Open a ``name`` span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, name: str) -> List[float]:
        """Each ``name`` span minus the time its child spans cover."""
        children: Dict[int, List[Dict[str, Any]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        out = []
        for span in self.spans:
            if span["name"] != name:
                continue
            covered = 0.0
            cursor = span["start"]
            for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
                lo = max(child["start"], cursor)
                hi = min(child["end"], span["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span["end"] - span["start"] - covered)
        return out

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, median duration and median self time."""
        out = {}
        for name in sorted({s["name"] for s in self.spans}):
            selfs = self.self_times(name)
            out[name] = {
                "calls": len(selfs),
                "median_s": median(self.durations(name)),
                "self_median_s": median(selfs),
                "self_total_s": sum(selfs),
            }
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
