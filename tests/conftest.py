"""Shared fixtures: small machines and fast simulation scales."""

from __future__ import annotations

import pytest

from repro.config import CacheGeometry, SimulationScale
from repro.machine.simulator import MachineSimulation, PowerEnvironment
from repro.machine.topology import (
    MachineTopology,
    four_core_server,
    two_core_workstation,
)
from repro.workloads.spec import BENCHMARKS


@pytest.fixture
def tiny_geometry() -> CacheGeometry:
    """A small cache: 16 sets x 8 ways."""
    return CacheGeometry(sets=16, ways=8)


@pytest.fixture
def tiny_scale() -> SimulationScale:
    """Budgets small enough for sub-second simulator runs."""
    return SimulationScale(
        warmup_accesses=2_000,
        measure_accesses=6_000,
        warmup_s=0.002,
        measure_s=0.008,
        hpc_period_s=0.0008,
        timeslice_s=0.0005,
    )


@pytest.fixture
def small_server() -> MachineTopology:
    """4-core server scaled to 64 sets for fast tests."""
    return four_core_server(sets=64)


@pytest.fixture
def small_workstation() -> MachineTopology:
    """2-core workstation scaled to 64 sets."""
    return two_core_workstation(sets=64)


@pytest.fixture
def power_env(small_server) -> PowerEnvironment:
    return PowerEnvironment.for_topology(small_server, seed=3)


@pytest.fixture
def mcf():
    return BENCHMARKS["mcf"]


@pytest.fixture
def gzip():
    return BENCHMARKS["gzip"]


@pytest.fixture
def art():
    return BENCHMARKS["art"]


def run_pair(topology, scale, left, right, seed=1, **kwargs):
    """Convenience: co-run two benchmarks on cores 0 and 1."""
    sim = MachineSimulation(
        topology,
        {0: [BENCHMARKS[left]], 1: [BENCHMARKS[right]]},
        scale=scale,
        seed=seed,
        **kwargs,
    )
    return sim.run_accesses()


def _exact(value):
    """A float as its exact hex form; everything else unchanged."""
    return float(value).hex() if isinstance(value, float) else value


def simulation_fingerprint(sim, result):
    """Every observable output of one run, as exact JSON-ready values.

    Covers each ``ProcessResult`` field, the measurement window, the
    HPC samples, the power trace, the context-switch count and, per
    shared cache, the per-owner statistics and resident line counts.
    Floats appear as ``float.hex`` so two fingerprints are equal only
    when every bit is.
    """
    processes = [
        [_exact(getattr(p, name)) for name in (
            "pid", "name", "core", "instructions", "l2_refs", "l2_misses",
            "time_running", "mpa", "spi", "occupancy_ways",
        )]
        for p in result.processes
    ]
    hpc = {
        str(core): [
            [s.core, _exact(s.t_start), _exact(s.t_end),
             sorted((event.value, _exact(float(rate))) for event, rate in s.rates.items())]
            for s in samples
        ]
        for core, samples in sorted(result.hpc_by_core.items())
    }
    power = None
    if result.power is not None:
        power = [
            _exact(result.power.window_s),
            _exact(result.power.start_s),
            [_exact(float(w)) for w in result.power.true_watts],
            [_exact(float(w)) for w in result.power.measured_watts],
        ]
    caches = [
        [
            sorted(
                [owner, stats.accesses, stats.hits, stats.misses, stats.fills,
                 stats.evictions_suffered, stats.evictions_inflicted]
                for owner, stats in cache.stats.by_owner.items()
            ),
            sorted(cache.lines_by_owner().items()),
        ]
        for cache in sim.caches
    ]
    return {
        "topology": result.topology_name,
        "window": [_exact(result.measure_start_s), _exact(result.measure_end_s)],
        "processes": processes,
        "hpc": hpc,
        "power": power,
        "context_switches": result.context_switches,
        "caches": caches,
    }
