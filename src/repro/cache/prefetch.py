"""Hardware prefetcher models.

The paper *disables* prefetching and argues (Section 3.1) that it buys
only ~3.25 % on average for SPEC CPU2000 under constrained memory
bandwidth.  These models exist so the harness can reproduce that
ablation (``bench_prefetch_ablation``): the machine simulator can run
with a prefetcher attached and report the throughput delta.

A prefetcher observes demand accesses and inserts predicted lines into
the cache under the demanding owner.  Prefetch fills are counted
separately so useless prefetches can be quantified.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List

from repro.cache.set_associative import SetAssociativeCache


@dataclass
class PrefetchStats:
    """Effectiveness counters for one prefetcher instance."""

    issued: int = 0
    #: Prefetches dropped because the line was already resident.
    redundant: int = 0
    #: Demand accesses that hit on a line brought in by a prefetch.
    useful: int = 0

    @property
    def accuracy(self) -> float:
        """Useful prefetches per issued prefetch (0.0 if none issued)."""
        if self.issued == 0:
            return 0.0
        return self.useful / self.issued


class Prefetcher(ABC):
    """Interface: observe a demand access, optionally prefetch lines."""

    def __init__(self) -> None:
        self.stats = PrefetchStats()
        #: Lines currently resident because of a prefetch (not yet
        #: demanded); used to attribute usefulness.
        self._pending: Dict[int, bool] = {}

    @abstractmethod
    def predict(self, owner: int, line: int, hit: bool) -> List[int]:
        """Lines to prefetch after a demand access to ``line``."""

    def on_access(
        self, cache: SetAssociativeCache, owner: int, line: int, hit: bool
    ) -> int:
        """Process one demand access; return number of lines prefetched."""
        if hit:
            if self._pending.pop(line, False):
                self.stats.useful += 1
        else:
            # The prefetched copy was evicted before use; the demand
            # miss refills the line, so a later hit is not the prefetch's.
            self._pending.pop(line, None)
        issued = 0
        for target in self.predict(owner, line, hit):
            if target < 0:
                continue
            if cache.contains(target):
                self.stats.redundant += 1
                continue
            cache.access(target, owner)
            # Remove the prefetch's own access from demand statistics:
            # it was not issued by the program.
            record = cache.stats.owner(owner)
            record.accesses -= 1
            record.misses -= 1
            self._pending[target] = True
            self.stats.issued += 1
            issued += 1
        return issued


class NextLinePrefetcher(Prefetcher):
    """Prefetch the next ``degree`` sequential lines on every miss."""

    def __init__(self, degree: int = 1):
        super().__init__()
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree

    def predict(self, owner: int, line: int, hit: bool) -> List[int]:
        if hit:
            return []
        return [line + k for k in range(1, self.degree + 1)]


class StridePrefetcher(Prefetcher):
    """Per-owner stride detector with a confidence counter.

    Tracks the last address and stride per owner; after two consecutive
    accesses with the same stride it prefetches ``degree`` lines ahead
    along that stride.
    """

    def __init__(self, degree: int = 2):
        super().__init__()
        if degree < 1:
            raise ValueError("degree must be positive")
        self.degree = degree
        self._last: Dict[int, int] = {}
        self._stride: Dict[int, int] = {}
        self._confidence: Dict[int, int] = {}

    def predict(self, owner: int, line: int, hit: bool) -> List[int]:
        last = self._last.get(owner)
        self._last[owner] = line
        if last is None:
            return []
        stride = line - last
        if stride == 0:
            return []
        if stride == self._stride.get(owner):
            self._confidence[owner] = self._confidence.get(owner, 0) + 1
        else:
            self._stride[owner] = stride
            self._confidence[owner] = 0
        if self._confidence.get(owner, 0) < 1:
            return []
        return [line + stride * k for k in range(1, self.degree + 1)]
