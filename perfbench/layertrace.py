"""In-memory span tracing of the solver's layers, installed from outside.

``Tracer`` replaces the module attributes that ``engine.run`` looks up at call
time with timing wrappers, and puts the originals back on exit:

- ``engine.add_site`` and ``engine.truncate`` (module globals of ``run``);
- ``observables.propagate`` and ``observables.ground_expectation_raw``
  (imported inside ``run`` on every call);
- ``numpy.linalg.eigh`` (looked up through ``np.linalg`` by the engine).

A span is (name, start, end, parent, point, size): ``parent`` is the index of
the enclosing span, ``point`` the id set by ``Tracer.point``, and ``size`` the
matrix dimension of an ``eigh`` call or the total kept states that
``truncate`` returns.  Spans stay in memory until ``write`` is called.
Wrappers are process-local: pool workers never see them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from spinboson_nrg import engine, observables


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    point: int | None
    size: int | None


def _eigh_size(args, result) -> int:
    return int(args[0].shape[0])


def _kept_size(args, result) -> int:
    return sum(b.kept for b in result.blocks.values())


# (owner, attribute, span name, size extractor)
TARGETS = (
    (engine, "add_site", "engine.add_site", None),
    (engine, "truncate", "engine.truncate", _kept_size),
    (observables, "propagate", "observables.propagate", None),
    (observables, "ground_expectation_raw", "observables.readout", None),
    (np.linalg, "eigh", "engine.eigh", _eigh_size),
)


class Tracer:
    """Context manager that records a span around every wrapped call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._point: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, size in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, size))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._point, None))
        self._stack.append(index)
        return index

    def _close(self, index: int, size: int | None = None) -> None:
        self._stack.pop()
        self.spans[index] = self.spans[index]._replace(end=time.perf_counter(), size=size)

    def _wrap(self, fn, name, size_of):
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                size = size_of(args, result) if size_of and result is not None else None
                self._close(index, size)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def point(self, point_id: int):
        """Tag every span opened inside the block with point_id."""
        self._point = point_id
        index = self._open("point")
        try:
            yield
        finally:
            self._close(index)
            self._point = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self) -> dict[str, float]:
        own = self.self_times()

        def spans(name):
            return [(s, t) for s, t in zip(self.spans, own) if s.name == name]

        eigh = spans("engine.eigh")
        kept = [s.size for s, _ in spans("engine.truncate")]
        add_site = spans("engine.add_site")
        return {
            "engine.eigh_s": sum(s.end - s.start for s, _ in eigh),
            "engine.eigh_dim3": sum(s.size**3 for s, _ in eigh),
            "engine.eigh_calls": len(eigh),
            "engine.max_block_dim": max(s.size for s, _ in eigh),
            "engine.add_site.self_s": sum(t for _, t in add_site),
            "engine.truncate_s": sum(t for _, t in spans("engine.truncate")),
            "engine.kept_mean": sum(kept) / len(kept),
            "engine.iterations": len(add_site),
            "observables.propagate_s": sum(t for _, t in spans("observables.propagate")),
            "observables.readout_s": sum(t for _, t in spans("observables.readout")),
        }

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
        return path
