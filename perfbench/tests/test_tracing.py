"""Span bookkeeping of the outside-in tracer: self time, same-layer
nesting, generators, op ids, and clean uninstall."""

from perfbench.tracing import SpanRecorder, self_times


def test_self_time_subtracts_children():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [20, 30).
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    assert self_times(parents, starts, ends) == [30, 20, 10, 40]


def _recorder(layers, parents, starts, ends, calls):
    rec = SpanRecorder()
    ids = {}
    for layer in layers:
        if layer not in ids:
            ids[layer] = rec.name_id(layer, f"{layer}.call")
    for layer, parent, start, end in zip(layers, parents, starts, ends):
        rec.span_name.append(ids[layer])
        rec.span_parent.append(parent)
        rec.span_op.append(0)
        rec.span_start.append(start)
        rec.span_end.append(end)
    for layer, count in calls.items():
        rec.calls[ids[layer]] = count
    return rec


def test_same_layer_nesting_is_not_double_counted():
    # fsd [0, 100) -> btree [10, 90) -> btree [20, 60) -> disk [30, 50)
    rec = _recorder(["fsd", "btree", "btree", "disk"], [-1, 0, 1, 2],
                    [0, 10, 20, 30], [100, 90, 60, 50],
                    {"fsd": 1, "btree": 2, "disk": 1})
    totals = rec.layer_totals()
    assert totals["btree"].self_ns == (80 - 40) + (40 - 20)
    assert totals["fsd"].self_ns == 20
    assert totals["disk"].self_ns == 20
    # The layers partition the root span exactly.
    assert sum(t.self_ns for t in totals.values()) == 100
    assert totals["btree"].calls == 2


class Store:
    def get(self, key):
        return key * 2

    def scan(self, count):
        for index in range(count):
            yield self.get(index)

    @classmethod
    def make(cls):
        return cls()

    def _private(self):
        return 1


class Front:
    def __init__(self, store):
        self.store = store

    def lookup(self, key):
        return self.store.get(key) + self.store.get(key + 1)

    def total(self, count):
        return sum(self.store.scan(count))


LAYERS = (
    ("store", __name__, ("Store",)),
    ("front", __name__, ("Front",)),
)


def _installed():
    rec = SpanRecorder()
    rec.install(LAYERS, request_class="Front")
    return rec


def test_wrappers_record_parents_and_op_ids():
    rec = _installed()
    try:
        store = Store.make()          # installed before construction
        front = Front(store)
        rec.active = True
        assert front.lookup(3) == 6 + 8
        assert front.lookup(5) == 10 + 12
        store.get(1)                  # outside any request: op id 0
        rec.active = False
    finally:
        rec.uninstall()
    names = [rec.names[i] for i in rec.span_name]
    assert names == ["Front.lookup", "Store.get", "Store.get",
                     "Front.lookup", "Store.get", "Store.get", "Store.get"]
    assert list(rec.span_parent) == [-1, 0, 0, -1, 3, 3, -1]
    assert list(rec.span_op) == [1, 1, 1, 2, 2, 2, 0]
    assert all(end >= start for start, end in
               zip(rec.span_start, rec.span_end))
    totals = rec.layer_totals()
    assert totals["store"].calls == 5 and totals["front"].calls == 2


def test_generator_resumptions_are_spans_of_one_call():
    rec = _installed()
    try:
        front = Front(Store())
        rec.active = True
        assert front.total(3) == 0 + 2 + 4
        rec.active = False
    finally:
        rec.uninstall()
    names = [rec.names[i] for i in rec.span_name]
    # total, then per resumption: scan (holding its get), final scan.
    assert names == ["Front.total", "Store.scan", "Store.get",
                     "Store.scan", "Store.get", "Store.scan", "Store.get",
                     "Store.scan"]
    assert list(rec.span_parent) == [-1, 0, 1, 0, 3, 0, 5, 0]
    calls = dict(zip(rec.names, rec.calls))
    assert calls["Store.scan"] == 1 and calls["Store.get"] == 3


def test_inactive_recorder_records_nothing_and_uninstall_restores():
    original = Store.__dict__["get"]
    rec = _installed()
    assert Store.__dict__["get"] is not original
    assert "_private" not in rec.names and "Store._private" not in rec.names
    Front(Store()).lookup(1)
    assert len(rec.span_name) == 0
    rec.uninstall()
    assert Store.__dict__["get"] is original
    assert isinstance(Store.__dict__["make"], classmethod)
