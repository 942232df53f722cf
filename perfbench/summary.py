"""Percentiles shared by the worker and the run aggregator."""

from __future__ import annotations

import statistics

#: Tail percentiles are taken per run of this many consecutive samples
#: (ten of them beyond p99), and the median over those chunks is
#: reported, so one burst of machine noise moves one chunk, not the figure.
TAIL_CHUNK = 1000


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ns samples, in µs."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] / 1000


def chunk_percentiles(samples, q: float) -> list[float]:
    """The ``q``-th percentile (µs) of each consecutive ``TAIL_CHUNK``
    samples; the whole list counts as one chunk when shorter."""
    chunks = len(samples) // TAIL_CHUNK
    if chunks == 0:
        return [percentile(samples, q)] if samples else []
    return [
        percentile(samples[i * TAIL_CHUNK : (i + 1) * TAIL_CHUNK], q)
        for i in range(chunks)
    ]


def tail_percentile(samples, q: float) -> float:
    """Median over chunks of the chunk's ``q``-th percentile, in µs."""
    values = chunk_percentiles(samples, q)
    return statistics.median(values) if values else 0.0
