"""Spans around the package's public functions, recorded from outside the package.

``Tracer.installed`` replaces each traced function, at its defining module and
at the name ``factoralign.cli`` imported, with one wrapper that records a
span: name, start, end, parent span and the run it belongs to.  Spans stay in
memory until ``write``.  ``varimax_rotate`` gets a counting wrapper instead of
a span, because it runs once per sample and inside the worker threads.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

# Public functions the CLI calls, by defining module.  The module is the layer.
TRACED = {
    "chainio": ("read_chain", "write_chain", "write_report", "read_dataset", "write_traces"),
    "factor_model": ("gibbs_sample",),
    "varimax": ("orthogonalize_chain",),
    "pivot": ("select_pivot",),
    "align": ("align_chain",),
    "diagnostics": (
        "build_report",
        "covariance_discrepancy",
        "mean_ess_ratio",
        "per_entry_ess",
        "export_traces",
    ),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run: str
    start: float
    end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        # (command span id, sweeps, converged) per varimax_rotate call
        self.varimax_calls: list[tuple[int, int, bool]] = []
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.run, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def command(self, name: str):
        """The root span of one CLI command."""
        return self.span(f"cli.{name}")

    def _traced(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            # list.append is atomic, and the command span is set before the
            # worker threads start and unchanged while they run.
            self.varimax_calls.append((self._stack[0].id, result.iterations, result.converged))
            return result

        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        cli = importlib.import_module("factoralign.cli")
        try:
            for layer, names in TRACED.items():
                module = importlib.import_module(f"factoralign.{layer}")
                for name in names:
                    original = getattr(module, name)
                    wrapper = self._traced(f"{layer}.{name}", original)
                    self._patch(module, name, wrapper)
                    if getattr(cli, name, None) is original:
                        self._patch(cli, name, wrapper)
            varimax = importlib.import_module("factoralign.varimax")
            self._patch(varimax, "varimax_rotate", self._counted(varimax.varimax_rotate))
            yield self
        finally:
            while self._restore:
                owner, name, original = self._restore.pop()
                setattr(owner, name, original)

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own
