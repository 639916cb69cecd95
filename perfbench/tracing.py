"""Spans and counters recorded around tifsem's public functions.

Nothing here edits the package: ``Tracer.install`` rebinds the listed
functions in every loaded ``tifsem`` module and in the benchmark's
``workloads`` module (and the listed methods on their classes) to wrappers,
and ``uninstall`` puts the originals back.  Functions that run a handful of
times per request get a span (name, start, end, parent span, request id);
functions that run thousands of times per request get counters only, keyed
by the innermost open span, so ratios are measured where the work happens.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

# (module, attribute) of every function that gets a span, by layer.  The
# layer of a span is the first segment of its name.
SPANNED = [
    ("tifsem.ingest", "parse_tif"),
    ("tifsem.ingest", "validate_io"),
    ("tifsem.ingest", "load_profile"),
    ("tifsem.ingest", "format_issues"),
    ("tifsem.graph", "assert_io"),
    ("tifsem.mapping", "materialize"),
    ("tifsem.mapping", "check_consistency"),
    ("tifsem.query", "parse_query"),
    ("tifsem.query", "evaluate"),
    ("tifsem.serialize", "to_ntriples"),
    ("tifsem.serialize", "from_ntriples"),
    ("tifsem.serialize", "to_turtle"),
    ("tifsem.serialize", "to_jsonld"),
    ("tifsem.serialize", "save_graph"),
]
COUNTED = [
    ("tifsem.ontology", "load_core_ontology"),
    ("tifsem.query", "resolve_point"),
    ("tifsem.query", "geo_distance"),
]


def _layer_name(module: str) -> str:
    return module.split(".")[1]


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    request: object
    start: float
    end: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]


class NullTracer:
    """Stands in for a tracer in untraced runs: no wrappers, no records."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def begin_request(self, request) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request: object = None
        self._main = threading.main_thread()
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str:
        """Name of the innermost open span of this thread, else of the
        client thread (a pool worker inherits the call that started it)."""
        stack = self._stack() or self._main_stack
        return stack[-1].name if stack else ""

    def begin_request(self, request) -> None:
        self.request = request

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            s = Span(len(self.spans), parent.id if parent else None, name, self.request, 0.0)
            self.spans.append(s)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    # -- wrapping ---------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` wherever tifsem or the benchmark's workloads
        hold it by name."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name not in ("tifsem", "workloads") and not mod_name.startswith("tifsem."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _spanned(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer._observe(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.add(f"{name}.calls@{tracer.current()}")
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name: str, result) -> None:
        """Counters read off a wrapped call's result."""
        if name == "ingest.parse_tif":
            ios, issues = result
            self.add("ingest.resources", len(ios))
            for io in ios:
                for instances in io.granules.values():
                    for granule in instances:
                        ext = sum(1 for path in granule.fields if "://" in path)
                        self.add("ingest.extension_fields", ext)
                        self.add("ingest.fields", len(granule.fields) - ext)
                self.add("ingest.extension_fields", len(io.extensions))
            self._issues(issues)
        elif name == "ingest.validate_io":
            self._issues(result)
        elif name == "graph.assert_io":
            self.add("graph.assert_io.triples_added", result)
        elif name == "mapping.materialize":
            self.add("mapping.materialize.inferred", result.inferred_triples)
        elif name == "query.evaluate":
            self.add("query.evaluate.rows", len(result.rows))
        elif name == "serialize.to_ntriples":
            self.add("serialize.nt_bytes", len(result.encode("utf-8")))

    def _issues(self, issues) -> None:
        for issue in issues:
            self.add(f"ingest.issues.{issue.severity}")

    def install(self) -> None:
        import importlib

        from tifsem.graph import Graph
        from tifsem.serialize import JsonLdDocument

        for module_name, attr in SPANNED:
            fn = getattr(importlib.import_module(module_name), attr)
            self._rebind(fn, self._spanned(f"{_layer_name(module_name)}.{attr}", fn))
        for module_name, attr in COUNTED:
            fn = getattr(importlib.import_module(module_name), attr)
            self._rebind(fn, self._counted(f"{_layer_name(module_name)}.{attr}", fn))

        counts = self.counts
        tracer = self
        insert, match, to_text = Graph.insert, Graph.match, JsonLdDocument.to_text

        def counted_insert(graph, triple):
            added = insert(graph, triple)
            where = tracer.current()
            counts[f"graph.insert.calls@{where}"] += 1
            if added:
                counts[f"graph.insert.new@{where}"] += 1
            return added

        def counted_match(graph, *args, **kwargs):
            where = tracer.current()
            counts[f"graph.match.calls@{where}"] += 1
            yielded = 0
            try:
                for t in match(graph, *args, **kwargs):
                    yielded += 1
                    yield t
            finally:
                counts[f"graph.match.yielded@{where}"] += yielded

        for cls, attr, wrapper in (
            (Graph, "insert", counted_insert),
            (Graph, "match", counted_match),
            (JsonLdDocument, "to_text", self._spanned("serialize.to_text", to_text)),
        ):
            self._saved.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reading ----------------------------------------------------------

    def count(self, prefix: str, where: Optional[str] = None) -> float:
        """Sum of a counter, over all spans or only inside ``where``."""
        if where is not None:
            return self.counts.get(f"{prefix}@{where}", 0)
        return sum(v for k, v in self.counts.items() if k == prefix or k.startswith(prefix + "@"))

    def self_by_span(self, spans: list[Span]) -> dict[int, float]:
        """Seconds per span: its duration minus the part of its interval
        that its child spans cover."""
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        own = {}
        for s in spans:
            covered = 0.0
            edge = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            own[s.id] = (s.end - s.start) - covered
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "request": s.request,
                    "start": s.start, "end": s.end,
                }) + "\n")
