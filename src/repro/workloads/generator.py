"""Address-trace generation from reuse-distance profiles.

:class:`StackDistanceTraceGenerator` produces an L2 line-address stream
whose *per-set* reuse-distance distribution converges to a target
profile.  The classic construction is used: one LRU stack of the
process's own lines per set; each access samples a distance ``d`` from
the profile and touches the line at stack depth ``d`` (distance
``math.inf`` touches a brand-new line).  Feeding the stream through
:class:`repro.cache.reuse.SetReuseProfiler` recovers the profile, which
the tests verify.

Each process receives a disjoint tag range via ``tag_offset`` so that
several generators can share one cache without aliasing.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.spec import SyntheticBenchmark

#: Tag-space stride between processes; generous enough that per-set
#: fresh-tag counters never collide across owners.
TAG_SPACE = 1 << 28

#: Offset separating sequential-streaming tags from per-set fresh tags
#: within one process's tag space.
_STREAM_TAG_BASE = 1 << 24


class AccessGenerator(ABC):
    """Produces an endless stream of L2 line addresses."""

    @abstractmethod
    def next_line(self) -> int:
        """Return the next line address of the stream."""

    def take(self, n: int) -> List[int]:
        """Materialise the next ``n`` addresses (testing convenience)."""
        return [self.next_line() for _ in range(n)]


class StackDistanceTraceGenerator(AccessGenerator):
    """Synthesise a trace matching a per-set reuse-distance profile.

    Args:
        profile: ``(distance, probability)`` pairs; ``math.inf`` marks
            streaming mass.
        sets: Number of cache sets of the target cache.
        seed: RNG seed (the stream is fully deterministic given it).
        tag_offset: Start of this process's private tag range.
        streaming_sequential: Walk sequential addresses for streaming
            accesses (stride pattern) instead of fresh per-set tags.
        max_stack: Per-set history depth; older lines are forgotten.
            Defaults to the profile's maximum finite distance plus
            slack.
        batch: Number of (set, distance) samples drawn per RNG batch.
    """

    def __init__(
        self,
        profile: Sequence[Tuple[float, float]],
        sets: int,
        seed: int,
        tag_offset: int = 0,
        streaming_sequential: bool = False,
        max_stack: Optional[int] = None,
        batch: int = 8192,
    ):
        if sets < 1 or sets & (sets - 1):
            raise ConfigurationError("sets must be a positive power of two")
        if batch < 1:
            raise ConfigurationError("batch must be positive")
        if not profile:
            raise ConfigurationError("profile must not be empty")
        self._sets = sets
        self._set_shift = sets.bit_length() - 1
        self._tag_offset = tag_offset
        self._streaming_sequential = streaming_sequential
        distances = []
        weights = []
        for distance, weight in profile:
            if weight < 0:
                raise ConfigurationError("profile weights must be non-negative")
            # Encode infinity as -1 for integer sampling.
            distances.append(-1 if distance == math.inf else int(distance))
            weights.append(weight)
        total = float(sum(weights))
        if total <= 0:
            raise ConfigurationError("profile has no mass")
        self._distances = np.asarray(distances, dtype=np.int64)
        self._cdf = np.cumsum(np.asarray(weights, dtype=float) / total)
        finite = [d for d in distances if d >= 0]
        depth = (max(finite) if finite else 0) + 16
        self._max_stack = max_stack if max_stack is not None else depth
        if self._max_stack < 1:
            raise ConfigurationError("max_stack must be positive")
        self._rng = np.random.default_rng(seed)
        self._batch = batch
        # Draws are kept as Python lists: indexing a list yields a ready
        # int, where a numpy array would box a scalar on every access.
        self._batch_sets: List[int] = []
        self._batch_dists: List[int] = []
        # Starts exhausted, so the first access draws the first batch.
        self._cursor = batch
        self._stacks: List[List[int]] = [[] for _ in range(sets)]
        self._fresh_counter = [0] * sets
        self._stream_counter = 0

    def _refill(self) -> None:
        self._batch_sets = self._rng.integers(0, self._sets, self._batch).tolist()
        picks = np.searchsorted(self._cdf, self._rng.random(self._batch), side="right")
        picks = np.minimum(picks, len(self._distances) - 1)
        self._batch_dists = self._distances[picks].tolist()
        self._cursor = 0

    def _fresh_line(self, set_idx: int) -> int:
        """A never-before-seen line mapping to ``set_idx``."""
        tag = self._tag_offset + self._fresh_counter[set_idx]
        self._fresh_counter[set_idx] += 1
        return (tag << self._set_shift) | set_idx

    def _stream_line(self) -> Tuple[int, int]:
        """Next sequential streaming line; returns (line, set_idx)."""
        raw = ((self._tag_offset + _STREAM_TAG_BASE) << self._set_shift) + self._stream_counter
        self._stream_counter += 1
        return raw, raw & (self._sets - 1)

    def adopt_state(self, stacks: List[List[int]], fresh_counter: List[int]) -> None:
        """Share per-set reuse state with another generator.

        Used by phased workloads: successive phases access the same
        address space with different patterns, so their generators
        must see one common per-set history.
        """
        if len(stacks) != self._sets or len(fresh_counter) != self._sets:
            raise ConfigurationError("state shape does not match set count")
        self._stacks = stacks
        self._fresh_counter = fresh_counter

    def next_line(self) -> int:
        cursor = self._cursor
        if cursor >= self._batch:
            self._refill()
            cursor = 0
        set_idx = self._batch_sets[cursor]
        distance = self._batch_dists[cursor]
        self._cursor = cursor + 1

        if distance < 0:
            # Streaming access: a line that can never have been seen.
            if self._streaming_sequential:
                line, set_idx = self._stream_line()
            else:
                line = self._fresh_line(set_idx)
            stack = self._stacks[set_idx]
            stack.insert(0, line >> self._set_shift)
            if len(stack) > self._max_stack:
                stack.pop()
            return line

        stack = self._stacks[set_idx]
        if distance < len(stack):
            tag = stack.pop(distance)
            stack.insert(0, tag)
            return (tag << self._set_shift) | set_idx
        # Not enough history yet (cold start): touch a new line.
        line = self._fresh_line(set_idx)
        stack.insert(0, line >> self._set_shift)
        if len(stack) > self._max_stack:
            stack.pop()
        return line


class StressmarkGenerator(AccessGenerator):
    """Cyclic sweep over ``ways`` lines in every set.

    The access order is tag-major across sets
    (``t0`` in every set, then ``t1`` in every set, ...), so within any
    single set consecutive accesses to a tag are separated by exactly
    ``ways - 1`` distinct lines: the reuse-distance histogram is a
    point mass and the stressmark steadily occupies ``ways`` ways, as
    Section 3.4 of the paper requires.
    """

    def __init__(self, ways: int, sets: int, tag_offset: int = 0):
        if ways < 1:
            raise ConfigurationError("ways must be positive")
        if sets < 1 or sets & (sets - 1):
            raise ConfigurationError("sets must be a positive power of two")
        self.ways = ways
        set_shift = sets.bit_length() - 1
        # One full period of the sweep, precomputed: step ``k`` touches
        # tag ``k // sets`` in set ``k % sets``.
        self._cycle = [
            ((tag_offset + tag) << set_shift) | set_idx
            for tag in range(ways)
            for set_idx in range(sets)
        ]
        self._period = len(self._cycle)
        self._position = 0

    def next_line(self) -> int:
        position = self._position
        line = self._cycle[position]
        position += 1
        self._position = 0 if position == self._period else position
        return line


def build_generator(
    workload: SyntheticBenchmark,
    sets: int,
    seed: int,
    owner_index: int = 0,
) -> AccessGenerator:
    """Build the right access generator for a workload.

    Stressmark specs (see :mod:`repro.workloads.stressmark`) get the
    deterministic cyclic generator; everything else gets the
    stack-distance trace synthesiser.  ``owner_index`` selects a
    disjoint tag range so co-running generators never alias.
    """
    from repro.workloads.phased import PhasedBenchmark, PhasedTraceGenerator
    from repro.workloads.stressmark import StressmarkSpec

    tag_offset = owner_index * TAG_SPACE
    if isinstance(workload, StressmarkSpec):
        return StressmarkGenerator(workload.ways, sets, tag_offset)
    if isinstance(workload, PhasedBenchmark):
        return PhasedTraceGenerator(workload, sets, seed=seed, tag_offset=tag_offset)
    return StackDistanceTraceGenerator(
        workload.rd_profile,
        sets,
        seed=seed,
        tag_offset=tag_offset,
        streaming_sequential=workload.streaming_sequential,
    )
