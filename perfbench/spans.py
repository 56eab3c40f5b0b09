"""In-memory spans for the traced benchmark run.

A span has a name, a start, an end, a parent span and the id of the job it
belongs to; every span of one job shares that id. Spans stay in memory and
are written as JSON lines when the run ends. A layer's self time is its
span's duration minus the part covered by its child spans.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Records spans when ``enabled``; otherwise every span is a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._jobs = 0

    @contextmanager
    def job(self, name: str):
        """Root span of one job; spans opened inside it share its id."""
        self._jobs += 1
        with self.span(name, job=self._jobs):
            yield

    @contextmanager
    def span(self, name: str, job: int | None = None):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = {
            "id": len(self.spans),
            "job": job if parent is None else parent["job"],
            "parent": None if parent is None else parent["id"],
            "name": name,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def _children(self) -> dict:
        kids = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append(s)
        return kids

    @staticmethod
    def _covered(span: dict, kids: list[dict]) -> float:
        """Length of the union of the children's intervals within ``span``."""
        total, reach = 0.0, span["start"]
        for k in sorted(kids, key=lambda s: s["start"]):
            lo, hi = max(k["start"], reach), min(k["end"], span["end"])
            if hi > lo:
                total += hi - lo
                reach = hi
        return total

    def self_times(self) -> dict:
        """Total self time in seconds by span name."""
        kids = self._children()
        out: dict = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - self._covered(s, kids[s["id"]])
        return dict(out)

    def coverage(self, prefix: str) -> dict:
        """Covered share of each root span whose name starts with ``prefix``."""
        kids = self._children()
        return {
            s["name"]: self._covered(s, kids[s["id"]]) / (s["end"] - s["start"])
            for s in self.spans
            if s["parent"] is None and s["name"].startswith(prefix)
        }

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
