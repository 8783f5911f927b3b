"""Tier-1 accuracy gate: the paper's Table-1 check at quick scale.

Three benchmarks are stressmark-profiled (Section 3.4) on a set-scaled
4-core server.  Every pair of them (self-pairs included) then co-runs
on one shared cache with simulation seeds the profiling never used,
and the model's SPI for each process is compared with the simulated
one.  Table 1 of the paper reports SPI errors under 8 %.

The bound is derived, not chosen: at these seeds the mean error
measures ``MEASURED_MEAN_SPI_ERR_PCT``; over profiling/co-run seeds
1–4 (same formula as ``_seeds``) it ranged 0.93–1.22 %.  The margin
absorbs that spread and any platform-level float drift.  A second
check guards the gate itself: predicting each process at its
contention-free SPI misses by about 20 % here, so the pairs do contend
and a model that ignored sharing would fail.
"""

from __future__ import annotations

import itertools

import pytest

from repro.config import SimulationScale
from repro.core.performance_model import PerformanceModel
from repro.machine.simulator import MachineSimulation
from repro.machine.topology import four_core_server
from repro.profiling.profiler import profile_process
from repro.workloads.spec import BENCHMARKS

NAMES = ("mcf", "twolf", "gzip")
SWEEP_WAYS = (14, 11, 8, 5, 2)
SEED = 1
SCALE = SimulationScale(
    warmup_accesses=2_000,
    measure_accesses=8_000,
    warmup_s=0.004,
    measure_s=0.012,
    hpc_period_s=0.001,
    timeslice_s=0.0008,
)

#: Mean |SPI error| measured at ``SEED`` (percent).
MEASURED_MEAN_SPI_ERR_PCT = 1.13
#: Allowance over the measurement: seed spread (±0.2) plus headroom.
MARGIN_PCT = 1.37
MEAN_SPI_ERR_BOUND_PCT = MEASURED_MEAN_SPI_ERR_PCT + MARGIN_PCT
#: The contention-free estimate measured 20.6 %; half of it still
#: separates a contended workload from an uncontended one.
MIN_CONTENTION_FREE_ERR_PCT = 10.0


@pytest.fixture(scope="module")
def errors():
    topology = four_core_server(sets=64)
    model = PerformanceModel(ways=16)
    for index, name in enumerate(NAMES):
        profile = profile_process(
            BENCHMARKS[name],
            topology,
            scale=SCALE,
            seed=SEED * 100 + index,
            sweep_ways=list(SWEEP_WAYS),
        )
        model.register(profile.feature)
    equilibrium, contention_free = [], []
    pairs = itertools.combinations_with_replacement(NAMES, 2)
    for index, pair in enumerate(pairs):
        measured = MachineSimulation(
            topology,
            {0: [BENCHMARKS[pair[0]]], 1: [BENCHMARKS[pair[1]]]},
            scale=SCALE,
            seed=SEED * 100 + 50 + index,
        ).run_accesses()
        predicted = model.predict(list(pair))
        for slot, name in enumerate(pair):
            truth = measured.processes[slot].spi
            equilibrium.append(abs(predicted[slot].spi - truth) / truth * 100.0)
            alone = model.predict([name])[0].spi
            contention_free.append(abs(alone - truth) / truth * 100.0)
    return equilibrium, contention_free


def _mean(values):
    return sum(values) / len(values)


def test_mean_spi_error_within_bound(errors):
    equilibrium, _ = errors
    assert len(equilibrium) == 12
    assert _mean(equilibrium) < MEAN_SPI_ERR_BOUND_PCT


def test_pairs_contend(errors):
    _, contention_free = errors
    assert _mean(contention_free) > MIN_CONTENTION_FREE_ERR_PCT
