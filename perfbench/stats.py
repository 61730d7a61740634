"""Arithmetic behind the benchmark's numbers: nearest-rank percentiles and
how many samples lie beyond them, self time from nested spans, and failure
counting. Pure Python, no numpy, so the tests can pin it exactly."""
from __future__ import annotations


def rank(n, p):
    """1-based nearest-rank position of the p-th percentile among n samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    return max(1, -(-p * n // 100))


def percentile(samples, p):
    """Nearest-rank p-th percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), p) - 1]


def samples_beyond(n, p):
    """How many of n samples lie strictly above the p-th percentile's rank."""
    return n - rank(n, p)


def min_samples(p, beyond=10):
    """Smallest sample count whose p-th percentile has `beyond` samples past
    it; a timing may only be reported at p once it has that many."""
    if p >= 100:
        raise ValueError("no sample lies beyond the 100th percentile")
    n = beyond + 1
    while samples_beyond(n, p) < beyond:
        n += 1
    return n


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(starts, ends, parents):
    """Self time of every span: its duration minus the part of its interval
    that its direct child spans cover. parents[i] is the index of span i's
    parent, or -1 for a root."""
    children = [[] for _ in starts]
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[i], ends[i]))
    return [
        (ends[i] - starts[i]) - covered(children[i], starts[i], ends[i])
        for i in range(len(starts))
    ]


class Tally:
    """Operations attempted and failed. A failed check marks the operations
    whose output it judged as failed; the reasons are kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def record(self, attempted, failed=0, reason=None):
        if attempted < 0 or failed < 0:
            raise ValueError("operation counts must be non-negative")
        failed = min(failed, attempted)
        self.attempted += attempted
        self.failed += failed
        if failed:
            key = reason or "unspecified"
            self.reasons[key] = self.reasons.get(key, 0) + failed

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0
