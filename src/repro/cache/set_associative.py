"""A set-associative cache simulator with per-owner statistics.

This is the substrate on which cache contention *emerges*: several
processes' line streams are interleaved into one
:class:`SetAssociativeCache` and the LRU policy decides who keeps how
many ways.  The paper's performance model then has to predict the
resulting per-process occupancy and miss rates without running the
combination.

Addresses are *line numbers* (byte address divided by the line size);
the workload generators already work at line granularity.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.replacement import LruPolicy, ReplacementPolicy
from repro.cache.stats import CacheStats
from repro.config import CacheGeometry


class SetAssociativeCache:
    """Set-associative cache with pluggable replacement policy.

    Args:
        geometry: Cache geometry (sets, ways, line size).
        policy: Replacement policy instance; defaults to exact LRU as
            assumed by the paper's model.

    The per-set storage is three parallel structures indexed by way:
    ``tags``, ``owners``, and a ``tag -> way`` dict for O(1) lookup.
    """

    def __init__(self, geometry: CacheGeometry, policy: Optional[ReplacementPolicy] = None):
        self.geometry = geometry
        self.policy = policy if policy is not None else LruPolicy()
        self.stats = CacheStats()
        sets, ways = geometry.sets, geometry.ways
        self._set_mask = sets - 1
        self._set_shift = sets.bit_length() - 1
        self._tags: List[List[Optional[int]]] = [[None] * ways for _ in range(sets)]
        self._owners: List[List[int]] = [[-1] * ways for _ in range(sets)]
        self._lookup: List[Dict[int, int]] = [{} for _ in range(sets)]
        self._policy_state = [self.policy.make_state(ways) for _ in range(sets)]
        self._free: List[List[int]] = [list(range(ways - 1, -1, -1)) for _ in range(sets)]
        self._lines_by_owner: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(self, line: int, owner: int = 0) -> bool:
        """Access ``line`` on behalf of ``owner``; return True on hit.

        A miss allocates the line (write-allocate, no write-back
        distinction — the paper's model only cares about presence).
        """
        set_idx = line & self._set_mask
        tag = line >> self._set_shift
        lookup = self._lookup[set_idx]
        stats = self.stats.owner(owner)
        stats.accesses += 1

        way = lookup.get(tag)
        if way is not None:
            stats.hits += 1
            self.policy.on_hit(self._policy_state[set_idx], way)
            self._owners[set_idx][way] = owner
            return True

        stats.misses += 1
        self._fill(set_idx, tag, owner)
        return False

    def _fill(self, set_idx: int, tag: int, owner: int) -> None:
        """Insert ``tag`` into ``set_idx``, evicting if the set is full."""
        free = self._free[set_idx]
        owners = self._owners[set_idx]
        if free:
            way = free.pop()
        else:
            way = self.policy.victim(self._policy_state[set_idx])
            old_tag = self._tags[set_idx][way]
            old_owner = owners[way]
            del self._lookup[set_idx][old_tag]
            self._lines_by_owner[old_owner] -= 1
            self.stats.owner(old_owner).evictions_suffered += 1
            if old_owner != owner:
                self.stats.owner(owner).evictions_inflicted += 1
        self._tags[set_idx][way] = tag
        owners[way] = owner
        self._lookup[set_idx][tag] = way
        self.policy.on_fill(self._policy_state[set_idx], way)
        self.stats.owner(owner).fills += 1
        self._lines_by_owner[owner] = self._lines_by_owner.get(owner, 0) + 1

    def lru_structures(self) -> Tuple[list, list, list, list, list, Dict[int, int]]:
        """The per-set structures an inlined LRU access path updates.

        Returns ``(lookup, tags, owners, lru, free, lines_by_owner)``:
        the per-set ``tag -> way`` dicts, tag and owner rows, LRU
        recency lists (most recent first), free-way stacks, and the
        resident-line count per owner.  A caller that updates them
        exactly as :meth:`access` would leaves the cache in the same
        state.  Only meaningful under :class:`LruPolicy`.
        """
        return (
            self._lookup,
            self._tags,
            self._owners,
            self._policy_state,
            self._free,
            self._lines_by_owner,
        )

    def contains(self, line: int) -> bool:
        """Return True if ``line`` is currently resident (no side effects)."""
        set_idx = line & self._set_mask
        tag = line >> self._set_shift
        return tag in self._lookup[set_idx]

    def invalidate(self, line: int) -> bool:
        """Remove ``line`` if resident; return True if it was present."""
        set_idx = line & self._set_mask
        tag = line >> self._set_shift
        way = self._lookup[set_idx].get(tag)
        if way is None:
            return False
        owner = self._owners[set_idx][way]
        del self._lookup[set_idx][tag]
        self._tags[set_idx][way] = None
        self._owners[set_idx][way] = -1
        self._lines_by_owner[owner] -= 1
        self._free[set_idx].append(way)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def lines_by_owner(self) -> Dict[int, int]:
        """Current number of resident lines per owner."""
        return {o: n for o, n in self._lines_by_owner.items() if n > 0}

    def occupancy_ways(self, owner: int) -> float:
        """Average ways per set currently held by ``owner``.

        This is the instantaneous *effective cache size* ``S_i`` of the
        paper, measured rather than predicted.
        """
        return self._lines_by_owner.get(owner, 0) / self.geometry.sets

    def resident_lines(self, owner: Optional[int] = None) -> int:
        """Total resident line count (optionally for one owner)."""
        if owner is None:
            return sum(n for n in self._lines_by_owner.values())
        return self._lines_by_owner.get(owner, 0)

    def set_contents(self, set_idx: int) -> List[Tuple[int, int]]:
        """Return ``(tag, owner)`` pairs resident in one set (unordered)."""
        contents = []
        for way, tag in enumerate(self._tags[set_idx]):
            if tag is not None:
                contents.append((tag, self._owners[set_idx][way]))
        return contents

    def flush(self) -> None:
        """Empty the cache and reset occupancy (statistics are kept)."""
        ways = self.geometry.ways
        for set_idx in range(self.geometry.sets):
            self._tags[set_idx] = [None] * ways
            self._owners[set_idx] = [-1] * ways
            self._lookup[set_idx].clear()
            self._policy_state[set_idx] = self.policy.make_state(ways)
            self._free[set_idx] = list(range(ways - 1, -1, -1))
        self._lines_by_owner.clear()
