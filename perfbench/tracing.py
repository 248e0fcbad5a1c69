"""Outside-in span tracing of the program's layers.

The program carries no spans of its own at layer boundaries, so the
benchmark makes them from outside: :meth:`SpanRecorder.install` replaces
every public method of each layer class in :data:`LAYER_CLASSES` with a
wrapper that records one span per call — name, host start and end,
parent (through a call stack) and op id.  Install before
``FSD.format``/``FSD.mount``: the volume captures bound methods at mount
(``nt_reader=home.read_page``), and only methods looked up after the
class was patched are covered.

Spans stay in memory as flat columns and are written out by
:meth:`SpanRecorder.write` when the run ends.  A span's *self time* is
its duration minus the durations of its child spans; summing self time
by layer splits the traced wall time without double counting, also when
a layer calls itself.

Generator methods (``BTree.scan_leaves``, ``FsdNameTable.list``) run in
their consumer's loop, so each resumption gets its own span with the
consumer's span as parent; the call is counted once.

Op ids: a call to :class:`~repro.harness.adapters.FsdAdapter` is one
request to the file system.  The outermost such call opens a new op id,
and every span beneath it shares it; work outside any request (the
commit daemon fired by the traffic engine's clock, a checkpoint tick)
carries op id 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

#: (layer, module, classes): the classes whose public methods are spans
#: of ``layer``.  Layer names are module paths under ``repro``.
LAYER_CLASSES = (
    ("disk", "repro.disk.disk", ("SimDisk",)),
    ("disk.sched", "repro.disk.sched", ("IoScheduler",)),
    ("disk.clock", "repro.disk.clock", ("SimClock",)),
    ("btree", "repro.btree.btree", ("BTree",)),
    ("core.name_table", "repro.core.name_table",
     ("NameTableHome", "NameTablePager", "FsdNameTable")),
    ("core.cache", "repro.core.cache", ("MetadataCache",)),
    ("core.wal", "repro.core.wal", ("WriteAheadLog",)),
    ("core.group_commit", "repro.core.group_commit",
     ("CommitCoordinator",)),
    ("core.txn", "repro.core.txn", ("TxnManager",)),
    ("core.vam", "repro.core.vam", ("VolumeAllocationMap",)),
    ("core.allocator", "repro.core.allocator", ("RunAllocator",)),
    ("core.data_cache", "repro.core.data_cache", ("DataPageCache",)),
    ("core.checkpoint", "repro.core.checkpoint", ("Checkpointer",)),
    ("core.fsd", "repro.core.fsd", ("FSD",)),
    ("workloads", "repro.workloads.traffic", ("TrafficEngine",)),
    ("workloads", "repro.harness.adapters", ("FsdAdapter",)),
)

#: the class whose outermost call starts a new op id.
REQUEST_CLASS = "FsdAdapter"


@dataclass(frozen=True)
class LayerTotals:
    """Per-layer rollup of one trace."""

    calls: int
    self_ns: int


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.active = False
        #: span-name table: ``names[i]`` is ``Class.method``,
        #: ``layers[i]`` its layer, ``calls[i]`` how often it was called.
        self.names: list[str] = []
        self.layers: list[str] = []
        self.calls: list[int] = []
        # one entry per span, as flat columns
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[int] = []
        self._op_id = 0
        self._op_seq = 0
        self._request_depth = 0
        self._patched: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------
    def name_id(self, layer: str, name: str) -> int:
        """Register a span name (one per wrapped method)."""
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def _open(self, name_id: int, request: bool) -> int:
        if request:
            if not self._request_depth:
                self._op_seq += 1
                self._op_id = self._op_seq
            self._request_depth += 1
        stack = self._stack
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_op.append(self._op_id)
        self.span_end.append(0)
        stack.append(index)
        self.span_start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int, request: bool) -> None:
        self.span_end[index] = time.perf_counter_ns()
        self._stack.pop()
        if request:
            self._request_depth -= 1
            if not self._request_depth:
                self._op_id = 0

    @contextmanager
    def span(self, layer: str, name: str):
        """A span around a block of the benchmark's own code: the
        measured phase of a traced repetition."""
        name_id = self.name_id(layer, name)
        self.calls[name_id] += 1
        index = self._open(name_id, False)
        try:
            yield
        finally:
            self._close(index, False)

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap_function(self, fn, name_id: int, request: bool):
        rec = self

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec.calls[name_id] += 1
            index = rec._open(name_id, request)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(index, request)

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name_id: int):
        rec = self

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec.calls[name_id] += 1
            return rec._resumptions(fn(*args, **kwargs), name_id)

        traced.__wrapped__ = fn
        return traced

    def _resumptions(self, inner, name_id: int):
        while True:
            if not self.active:
                yield from inner
                return
            index = self._open(name_id, False)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self._close(index, False)
            yield item

    def install(self, layer_classes=LAYER_CLASSES,
                request_class: str = REQUEST_CLASS) -> None:
        """Wrap every public method defined on each layer class.
        Properties, dunders and private methods are left alone."""
        for layer, module_name, class_names in layer_classes:
            module = importlib.import_module(module_name)
            for class_name in class_names:
                cls = getattr(module, class_name)
                request = class_name == request_class
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    wrapped = self._wrap_attr(
                        layer, f"{class_name}.{attr}", raw, request
                    )
                    if wrapped is not None:
                        self._patched.append((cls, attr, raw))
                        setattr(cls, attr, wrapped)

    def _wrap_attr(self, layer: str, name: str, raw, request: bool):
        if isinstance(raw, (classmethod, staticmethod)):
            inner = self._wrap_attr(layer, name, raw.__func__, request)
            return None if inner is None else type(raw)(inner)
        if not inspect.isfunction(raw):
            return None
        name_id = self.name_id(layer, name)
        if inspect.isgeneratorfunction(raw):
            return self._wrap_generator(raw, name_id)
        return self._wrap_function(raw, name_id, request)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for cls, attr, raw in reversed(self._patched):
            setattr(cls, attr, raw)
        self._patched.clear()

    # ------------------------------------------------------------------
    # analysis and output
    # ------------------------------------------------------------------
    def layer_totals(self) -> dict[str, LayerTotals]:
        """Calls and self time summed by layer."""
        calls: dict[str, int] = {}
        for name_id, count in enumerate(self.calls):
            layer = self.layers[name_id]
            calls[layer] = calls.get(layer, 0) + count
        self_ns: dict[str, int] = dict.fromkeys(calls, 0)
        layers = self.layers
        own_ns = self_times(self.span_parent, self.span_start, self.span_end)
        for name_id, own in zip(self.span_name, own_ns):
            self_ns[layers[name_id]] += own
        return {layer: LayerTotals(calls[layer], self_ns[layer])
                for layer in calls}

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line naming the columns and
        the span-name table, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "columns": ["name", "parent", "op", "start_ns", "end_ns"],
            "names": [f"{layer}:{name}"
                      for layer, name in zip(self.layers, self.names)],
            "spans": len(self.span_name),
        }
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            rows = zip(self.span_name, self.span_parent, self.span_op,
                       self.span_start, self.span_end)
            out.writelines(f"{n} {p} {o} {s} {e}\n"
                           for n, p, o, s, e in rows)


def self_times(parents, starts, ends) -> list[int]:
    """Each span's duration minus the durations of its children.
    Children nest inside their parent (a call stack), so they never
    overlap each other and their sum is the covered part."""
    durations = [end - start for start, end in zip(starts, ends)]
    covered = [0] * len(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]
    return [own - child for own, child in zip(durations, covered)]
