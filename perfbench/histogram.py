"""Fixed-memory latency histogram with log-spaced bins.

A ``stream`` run times millions of pushes, and how many depends on how
fast the host is at that moment. Keeping every sample would make the
process's peak memory, itself a benchmark metric, follow the host's
speed. Counts in fixed bins cost the same memory on every run. The bins
are log-spaced from 10 ns to 1 s, each 0.09% wide, so a quantile read
from them is within 0.05% of the exact one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LogHistogram"]

_EDGES_NS = np.geomspace(10.0, 1e9, 20001)


class LogHistogram:
    """Counts of durations [ns] in log-spaced bins."""

    def __init__(self) -> None:
        # counts[0] holds values below the first edge, counts[-1] above the last.
        self.counts = np.zeros(len(_EDGES_NS) + 1, dtype=np.int64)

    def add(self, values_ns) -> None:
        idx = np.searchsorted(_EDGES_NS, np.asarray(values_ns, dtype=float), side="right")
        self.counts += np.bincount(idx, minlength=len(self.counts))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def quantile(self, q: float) -> float:
        """The ``q`` quantile [ns]: the geometric centre of the bin that
        holds it (an edge for values outside the binned range)."""
        if self.total == 0:
            raise ValueError("quantile of an empty histogram")
        rank = q * (self.total - 1)
        b = int(np.searchsorted(np.cumsum(self.counts), rank, side="right"))
        if b == 0:
            return float(_EDGES_NS[0])
        if b == len(_EDGES_NS):
            return float(_EDGES_NS[-1])
        return float(np.sqrt(_EDGES_NS[b - 1] * _EDGES_NS[b]))
