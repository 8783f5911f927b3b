"""Shared-cache contention monitoring.

:class:`ContentionMonitor` wraps a
:class:`~repro.cache.set_associative.SetAssociativeCache` that several
processes access concurrently and maintains, per owner:

- windowed miss rates (what an HPC sampler would report), and
- time-averaged occupancy in ways per set — the measured ground truth
  for the paper's *effective cache size* ``S_i``.

Occupancy is sampled every ``sample_every`` accesses rather than on
each access to keep the simulator fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.cache.set_associative import SetAssociativeCache
from repro.cache.stats import OwnerStats


@dataclass
class OwnerSummary:
    """Steady-state measurement summary for one owner."""

    accesses: int
    misses: int
    mpa: float
    occupancy_ways: float


class ContentionMonitor:
    """Per-owner occupancy and miss-rate measurement on a shared cache.

    Args:
        cache: The shared cache being monitored.
        sample_every: Occupancy sampling interval in accesses.
    """

    def __init__(self, cache: SetAssociativeCache, sample_every: int = 256):
        if sample_every < 1:
            raise ValueError("sample_every must be positive")
        self.cache = cache
        self.sample_every = sample_every
        #: Accesses since the last occupancy sample.
        self.since_sample = 0
        self._occupancy_sum: Dict[int, float] = {}
        self._occupancy_samples = 0
        self._baseline: Dict[int, OwnerStats] = {}

    def access(self, line: int, owner: int) -> bool:
        """Forward an access to the cache and update monitoring state."""
        hit = self.cache.access(line, owner)
        self.since_sample += 1
        if self.since_sample >= self.sample_every:
            self.since_sample = 0
            self.sample_occupancy()
        return hit

    def sample_occupancy(self) -> None:
        """Add the current per-owner resident lines to the averages."""
        self._occupancy_samples += 1
        for owner, lines in self.cache.lines_by_owner().items():
            self._occupancy_sum[owner] = (
                self._occupancy_sum.get(owner, 0.0) + lines
            )

    def start_measurement(self) -> None:
        """Discard everything seen so far (end of warm-up)."""
        self._occupancy_sum.clear()
        self._occupancy_samples = 0
        self.since_sample = 0
        self._baseline = {
            owner: stats.snapshot()
            for owner, stats in self.cache.stats.by_owner.items()
        }

    def mean_occupancy_ways(self, owner: int) -> float:
        """Time-averaged effective cache size of ``owner`` (ways/set)."""
        if self._occupancy_samples == 0:
            return self.cache.occupancy_ways(owner)
        lines = self._occupancy_sum.get(owner, 0.0) / self._occupancy_samples
        return lines / self.cache.geometry.sets

    def window_stats(self, owner: int) -> OwnerStats:
        """Counters accumulated since :meth:`start_measurement`."""
        current = self.cache.stats.owner(owner)
        baseline = self._baseline.get(owner)
        if baseline is None:
            return current.snapshot()
        return current.delta_since(baseline)

    def summary(self, owner: int) -> OwnerSummary:
        """Measurement summary for one owner over the current window."""
        stats = self.window_stats(owner)
        return OwnerSummary(
            accesses=stats.accesses,
            misses=stats.misses,
            mpa=stats.miss_rate,
            occupancy_ways=self.mean_occupancy_ways(owner),
        )

    def summaries(self) -> Dict[int, OwnerSummary]:
        """Summaries for every owner that accessed the cache."""
        owners = set(self.cache.stats.by_owner) | set(self._baseline)
        return {owner: self.summary(owner) for owner in sorted(owners)}
