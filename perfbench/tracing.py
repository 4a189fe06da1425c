"""Spans recorded from the benchmark process around calls into netgeom.

``Tracer.install`` replaces, in the namespace of every netgeom module, each
public function defined in one of the library layers with a wrapper that
records a span. Calls the CLI makes (``netgeom.cli.depth_map``) and calls
between layers (``netgeom.structure.components``) are caught alike, so spans
nest the way the calls do. The CLI module's own functions are not wrapped:
the job span stands for them, and its self time is the CLI's own work
(argument parsing, report formatting and writing, meta.json hashing).

Spans stay in memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("graph", "generators", "stats", "structure", "embedding", "crawl")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._job: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "job": self._job,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def job(self, job: str, call):
        """Run ``call()`` as the parent span of job ``job``."""
        self._job = job
        span = self._open(f"job.{job}")
        try:
            return call()
        finally:
            self._close(span)
            self._job = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def install(self) -> None:
        for module_name in ("cli",) + LAYERS:
            module = importlib.import_module(f"netgeom.{module_name}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                package, _, layer = fn.__module__.rpartition(".")
                if package != "netgeom" or layer not in LAYERS:
                    continue
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(f"{layer}.{fn.__name__}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()


def span_seconds(spans: list[dict]) -> dict[str, float]:
    """Total duration per span name, nested calls included."""
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"]] += s["end"] - s["start"]
    return dict(totals)


def job_self_seconds(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per job: its span, the sum of its direct children and its self time."""
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] += s["end"] - s["start"]
    out = {}
    for s in spans:
        if s["parent"] is None:
            total = s["end"] - s["start"]
            out[s["job"]] = {
                "span_s": total,
                "children_s": children[s["id"]],
                "self_s": total - children[s["id"]],
            }
    return out
