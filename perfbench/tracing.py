"""Spans around the program's public entry points, recorded from outside.

The benchmark does not instrument the library: :func:`install` replaces a
fixed set of public functions and methods with wrappers that record one
span (layer name, start, end, parent, op label) per call while the
:class:`Tracer` is enabled, and pass straight through while it is not.
Spans stay in memory and are written out once, when the run ends.

A layer's *self time* is its span's duration minus the part covered by
its child spans, so the self times of one op add up to the traced part
of that op and no second is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span and counter recorder (thread-aware)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.enabled = False
        self.op: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_layer(self, name: str) -> bool:
        """Whether a span of layer ``name`` is open on this thread."""
        return any(self.spans[i]["name"] == name for i in self._stack())

    def count(self, name: str, value) -> None:
        """Add ``value`` to counter ``name`` of the current op."""
        if self.enabled:
            with self._lock:
                self.counters[self.op][name] += value

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (when enabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append({
                "name": name,
                "op": self.op,
                "parent": stack[-1] if stack else None,
                "start": time.perf_counter(),
                "end": None,
            })
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[index]["end"] = time.perf_counter()

    def self_times(self) -> dict[str | None, dict[str, float]]:
        """Per op label, the summed self time of every layer."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, span in enumerate(self.spans):
            if span["end"] is None:
                continue
            own = span["end"] - span["start"] - child_time[i]
            out[span["op"]][span["name"]] += own
        return out

    def dump(self, path: str) -> None:
        """Write spans and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counters": {
                        str(op): dict(c) for op, c in self.counters.items()
                    },
                },
                fh,
            )

    def load(self, path: str) -> None:
        """Merge a document written by :meth:`dump` (another process)."""
        with open(path) as fh:
            doc = json.load(fh)
        offset = len(self.spans)
        for span in doc["spans"]:
            if span["parent"] is not None:
                span["parent"] += offset
            self.spans.append(span)
        for op, counts in doc["counters"].items():
            self.counters[None if op == "None" else op].update(counts)


# -- wrappers ---------------------------------------------------------------


def _after_put_block(tracer, result, args, kwargs) -> None:
    _self, _piece, _block, ptr, nodes = args[:5]
    tracer.count("sampling.rr_sets", len(ptr) - 1)
    tracer.count("sampling.rr_nodes", len(nodes))
    tracer.count("store.put_block_count", 1)
    tracer.count(
        "store.bytes_written",
        int(getattr(ptr, "nbytes", 0)) + int(getattr(nodes, "nbytes", 0)),
    )


def _after_generate(tracer, result, args, kwargs) -> None:
    # Shard-store sampling is counted block by block in put_block; an
    # in-RAM collection is counted here, once, when the stage really ran.
    collection, events, _key = result
    if tuple(events[0]) != ("sample", "run"):
        return
    if type(collection.store).__name__ == "ShardStore":
        return
    for piece in range(collection.num_pieces):
        sizes = collection.store.rr_set_sizes(piece)
        tracer.count("sampling.rr_sets", int(sizes.size))
        tracer.count("sampling.rr_nodes", int(sizes.sum()))


def _after_bab(tracer, result, args, kwargs) -> None:
    diag = result.diagnostics
    tracer.count("bab.nodes_expanded", diag.nodes_expanded)
    tracer.count("bab.bounds_computed", diag.bounds_computed)
    tracer.count("bab.tau_evaluations", diag.tau_evaluations)


def _solve_layer(tracer) -> str | None:
    # Session.solve is a layer of its own only as an update's re-solve;
    # elsewhere its time belongs to the solver spans beneath it.
    return "incremental.solve" if tracer.in_layer("incremental.update") else None


#: (module, owner attribute or None, function attribute, layer, after-hook)
_TARGETS = (
    ("repro.api", None, "load_dataset", "datasets.load", None),
    ("repro.api", None, "project_campaign", "projection", None),
    ("repro.sampling.mrr", "MRRCollection", "generate_traced",
     "sampling.generate", _after_generate),
    ("repro.incremental.update", None, "generate_keyed",
     "sampling.generate", None),
    ("repro.sampling.mrr", "MRRCollection", "estimate",
     "coverage.estimate", None),
    ("repro.api", None, "solve_bab_progressive", "bab.solve", _after_bab),
    ("repro.core.bab", None, "solve_bab_progressive", "bab.solve", _after_bab),
    ("repro.sampling.store", "ShardStore", "put_block", "store.put_block",
     _after_put_block),
    ("repro.sampling.store", "ShardStore", "finalize", "store.finalize", None),
    ("repro.artifacts", "DiskArtifactStore", "get", "artifacts.get", None),
    ("repro.artifacts", "DiskArtifactStore", "put", "artifacts.put", None),
    ("repro.artifacts", "DiskArtifactStore", "commit", "artifacts.put", None),
    ("repro.api", "Session", "update", "incremental.update", None),
    ("repro.api", "Session", "solve", _solve_layer, None),
)


def _wrap(tracer: Tracer, fn, layer, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        name = layer(tracer) if callable(layer) else layer
        if name is None:
            return fn(*args, **kwargs)
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(tracer, result, args, kwargs)
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every target entry point for the life of the process."""
    for module_name, owner_name, attr, layer, after in _TARGETS:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            patched = classmethod(_wrap(tracer, raw.__func__, layer, after))
        else:
            patched = _wrap(tracer, raw, layer, after)
        setattr(owner, attr, patched)
