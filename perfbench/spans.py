"""Span tracer installed from the benchmark's own files.

:func:`install` wraps the public functions of each layer (listed in
:data:`LAYERS`) so that every call made while the tracer is active
records one span: layer, function, start, end, parent span, thread, and
the session and round the benchmark (or the server launcher) set as
context.  Spans stay in memory and :meth:`Tracer.write` dumps them as
JSON lines when the run ends.

A layer's *self time* is the duration of its spans minus the part their
child spans cover.  Children always run on the parent's thread and
inside its interval, so the covered part is the sum of the children's
durations.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: layer -> the public calls timed, as ``module:attribute``.
LAYERS = {
    "sim.render": ["repro.vision.frames:VideoClip.get"],
    "vision.background": ["repro.vision.background:BackgroundModel.learn",
                          "repro.vision.background:BackgroundModel.apply"],
    "vision.morphology": ["repro.vision.blobs:clean_mask"],
    "vision.blobs": ["repro.vision.blobs:extract_blobs"],
    "tracking.update": ["repro.tracking.tracker:CentroidTracker.update",
                        "repro.tracking.tracker:CentroidTracker.finish"],
    "events.windows": ["repro.events.features:extract_series",
                       "repro.events.streaming:StreamingWindowEmitter.emit"],
    "db.append": ["repro.db.database:VideoDatabase.append_dataset",
                  "repro.db.database:VideoDatabase.record_ingest_event",
                  "repro.db.database:VideoDatabase.ingest_state",
                  "repro.db.database:VideoDatabase.add_clip",
                  "repro.db.database:VideoDatabase.add_tracks"],
    "db.dataset": ["repro.db.database:VideoDatabase.dataset",
                   "repro.db.database:VideoDatabase.dataset_meta"],
    "core.shard_build": ["repro.core.sharded:CorpusShard.__init__"],
    "core.heuristic": ["repro.core.heuristics:heuristic_scores"],
    "core.feed": ["repro.core.sharded:ShardedRetrievalEngine.feed"],
    "core.rank": ["repro.core.sharded:ShardedRetrievalEngine.top_k"],
    "svm.fit": ["repro.svm.one_class:OneClassSVM.fit"],
    "svm.kernel": ["repro.svm.gram_cache:GramCache.ensure",
                   "repro.svm.gram_cache:GramCache.ensure_vectors",
                   "repro.svm.gram_cache:GramCache.cross"],
    "db.labels": ["repro.db.database:VideoDatabase.add_labels",
                  "repro.db.database:VideoDatabase.labels",
                  "repro.db.database:VideoDatabase.accumulated_labels"],
    "db.ledger": ["repro.db.database:VideoDatabase.record_query_round"],
    "db.session": ["repro.db.database:VideoDatabase.register_session",
                   "repro.db.database:VideoDatabase.session_record"],
    "service.handle": ["repro.service.core:RetrievalService.handle"],
}


class Span:
    __slots__ = ("id", "layer", "func", "parent", "thread", "session",
                 "round", "start", "end", "child_ns", "hits", "misses")

    def __init__(self, id_, layer, func, parent, session, round_):
        self.id = id_
        self.layer = layer
        self.func = func
        self.parent = parent
        self.thread = threading.get_ident()
        self.session = session
        self.round = round_
        self.start = self.end = self.child_ns = 0
        self.hits = self.misses = 0

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns

    def to_dict(self) -> dict:
        return {"id": self.id, "layer": self.layer, "func": self.func,
                "parent": self.parent.id if self.parent else None,
                "thread": self.thread, "session": self.session,
                "round": self.round, "start_ns": self.start,
                "end_ns": self.end, "self_ns": self.self_ns,
                "gram_hits": self.hits, "gram_misses": self.misses}


class Tracer:
    """In-memory span recorder; records only while :attr:`active`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()

    def set_context(self, session=None, round_=None) -> None:
        """Tag the calling thread's next spans with a session and round."""
        self._local.context = (session, round_)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, func_name: str, fn, *, gram: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            session, round_ = getattr(tracer._local, "context",
                                      (None, None))
            span = Span(next(tracer._ids), layer, func_name,
                        stack[-1] if stack else None, session, round_)
            if gram:
                cache = args[0]
                hits0, misses0 = cache.hits, cache.misses
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.end - span.start
                if gram:
                    span.hits = cache.hits - hits0
                    span.misses = cache.misses - misses0
                tracer.spans.append(span)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every call in :data:`LAYERS` with ``tracer``.

    A method is replaced on its class.  A module-level function is
    replaced in its defining module and in every loaded ``repro``
    module that imported it by name, so import the modules a workload
    uses before calling this.
    """
    import importlib

    for layer, targets in LAYERS.items():
        for target in targets:
            module_name, path = target.split(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapped = tracer.wrap(layer, path, original,
                                  gram=module_name == "repro.svm.gram_cache")
            setattr(owner, attr, wrapped)
            if owner_name:
                continue
            for name, mod in list(sys.modules.items()):
                if not name.startswith("repro") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


#: Per-layer metrics: every traced layer's self time, plus counters.
LAYER_METRICS = [f"{layer}_ms" for layer in LAYERS] + [
    "sim.frames_rendered", "db.dataset_loads", "db.catalog_mb",
    "svm.gram_hit_ratio", "service.http_ms", "trace.wall_ms", "other_ms"]


def fold(spans: list, *, wall_ns: int, units: float,
         extra_ms: dict | None = None) -> dict[str, float]:
    """Per-layer self times and counters, normalised per unit of work.

    ``wall_ns`` is the traced wall clock; ``other_ms`` is what the
    layers (and ``extra_ms``, time measured outside spans) leave of it.
    """
    self_ns: dict[str, int] = defaultdict(int)
    renders = loads = hits = misses = 0
    for span in spans:
        self_ns[span.layer] += span.self_ns
        if span.func == "VideoClip.get":
            renders += 1
        elif span.func == "VideoDatabase.dataset":
            loads += 1
        hits += span.hits
        misses += span.misses
    out = {f"{layer}_ms": self_ns.get(layer, 0) / 1e6 / units
           for layer in LAYERS}
    for name, ms in (extra_ms or {}).items():
        out[name] = ms / units
    out["sim.frames_rendered"] = renders / units
    out["db.dataset_loads"] = loads / units
    out["svm.gram_hit_ratio"] = hits / (hits + misses) if hits + misses \
        else 0.0
    out["trace.wall_ms"] = wall_ns / 1e6 / units
    accounted = sum(v for k, v in out.items()
                    if k.endswith("_ms") and k != "trace.wall_ms")
    out["other_ms"] = out["trace.wall_ms"] - accounted
    return out
