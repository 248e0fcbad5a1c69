"""Tail percentiles that the sample can support.

A tail percentile read from too few samples is one or two outliers, not
a distribution.  :func:`tail_percentile` therefore reports the highest
percentile of :data:`TAIL_LADDER` that still has at least
:data:`MIN_BEYOND` samples ranked above it, and says which one and how
many samples were beyond it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import percentile

#: candidate tail percentiles, highest first: the ones a
#: ``TrafficReport`` latency summary carries.  p99 is the ceiling, so a
#: reported value never claims a deeper tail than its metric's name.
TAIL_LADDER = (0.99, 0.95, 0.50)
#: samples that must rank above a percentile before it is reported.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """One tail reading: ``value`` is the ``q`` percentile of
    ``samples`` values, with ``beyond`` of them ranked above it."""

    q: float
    value: float
    samples: int
    beyond: int

    def describe(self) -> str:
        return (f"p{self.q * 100:g} of {self.samples} samples "
                f"({self.beyond} beyond)")


def samples_beyond(count: int, q: float) -> int:
    """Samples ranked strictly above the ``q`` percentile position of
    ``count`` sorted samples (linear interpolation, as
    :func:`repro.obs.metrics.percentile` computes it)."""
    if count == 0:
        return 0
    return count - 1 - int((count - 1) * q)


def tail_quantile(count: int) -> float | None:
    """The highest ladder percentile with at least :data:`MIN_BEYOND`
    of ``count`` samples beyond it; ``None`` when even the median has
    fewer."""
    for q in TAIL_LADDER:
        if samples_beyond(count, q) >= MIN_BEYOND:
            return q
    return None


def tail_percentile(values: list[float]) -> Tail | None:
    """:func:`tail_quantile`'s percentile of raw samples."""
    q = tail_quantile(len(values))
    if q is None:
        return None
    return Tail(q, percentile(values, q), len(values),
                samples_beyond(len(values), q))


def tail_from_summary(summary: dict) -> Tail | None:
    """:func:`tail_quantile`'s percentile read from a ``TrafficReport``
    latency summary (``count``, ``p50_ms``, ``p95_ms``, ``p99_ms``)."""
    count = summary.get("count", 0)
    q = tail_quantile(count)
    if q is None:
        return None
    return Tail(q, summary[f"p{round(q * 100)}_ms"], count,
                samples_beyond(count, q))
