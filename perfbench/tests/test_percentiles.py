"""The guarded tail: the highest of p99/p95/p50 with at least ten
samples ranked beyond it."""

from perfbench.percentiles import (
    MIN_BEYOND,
    samples_beyond,
    tail_from_summary,
    tail_percentile,
)


def test_samples_beyond_counts_ranks_above_the_position():
    # 1000 samples: p99 sits between ranks 989 and 990; 990..999 are beyond.
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(900, 0.99) == 9
    assert samples_beyond(20, 0.50) == 10
    assert samples_beyond(0, 0.99) == 0


def test_p99_needs_ten_samples_beyond():
    values = [float(v) for v in range(1000)]
    tail = tail_percentile(values)
    assert (tail.q, tail.beyond, tail.samples) == (0.99, 10, 1000)
    assert tail.value == 989.01
    # Ten beyond counts ranks, not distinct values: ties change nothing.
    assert tail_percentile([5.0] * 1000).q == 0.99


def test_tail_falls_back_when_the_sample_is_small():
    assert tail_percentile([float(v) for v in range(900)]).q == 0.95
    assert tail_percentile([float(v) for v in range(200)]).q == 0.95
    assert tail_percentile([float(v) for v in range(180)]).q == 0.50
    assert tail_percentile([float(v) for v in range(21)]).q == 0.50
    assert tail_percentile([float(v) for v in range(20)]).q == 0.50
    assert tail_percentile([float(v) for v in range(19)]) is None
    assert tail_percentile([]) is None


def test_every_reported_tail_has_ten_beyond():
    for count in range(1, 2500, 7):
        tail = tail_percentile([float(v) for v in range(count)])
        if tail is not None:
            assert tail.beyond >= MIN_BEYOND


def test_tail_from_a_traffic_report_summary():
    summary = {"count": 8000, "p50_ms": 1.0, "p95_ms": 2.0, "p99_ms": 3.0}
    tail = tail_from_summary(summary)
    assert (tail.q, tail.value, tail.beyond) == (0.99, 3.0, 80)
    assert tail_from_summary({**summary, "count": 300}).value == 2.0
    assert tail_from_summary({**summary, "count": 100}).value == 1.0
    assert tail_from_summary({"count": 0}) is None
    assert tail_from_summary({}) is None
