"""The fused LRU event loop against the reference event loop.

``MachineSimulation._run_lru`` must leave every output and every piece
of internal state exactly as ``MachineSimulation._run_reference`` does.
Hypothesis draws small assignments (time-shared cores, cores with an
empty run queue, stressmarks, phased workloads), seeds, topologies and
both run modes; the two loops run on separately built simulations and
their states are compared for equality, not closeness.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import SimulationScale
from repro.machine.simulator import MachineSimulation, PowerEnvironment
from repro.machine.topology import (
    four_core_server,
    heterogeneous_server,
    two_core_workstation,
)
from repro.workloads.mix import InstructionMix
from repro.workloads.phased import PhaseSegment, make_phased_benchmark
from repro.workloads.spec import BENCHMARKS, PAPER_EIGHT, SyntheticBenchmark
from repro.workloads.stressmark import make_stressmark

from conftest import simulation_fingerprint

TINY = SimulationScale(
    warmup_accesses=300,
    measure_accesses=900,
    warmup_s=0.0008,
    measure_s=0.0025,
    hpc_period_s=0.0004,
    timeslice_s=0.0003,
)

TOPOLOGIES = {
    "server": lambda: four_core_server(sets=32),
    "hetero": lambda: heterogeneous_server(sets=32, slow_scale=0.4),
    "workstation": lambda: two_core_workstation(sets=32),
}

PHASED = make_phased_benchmark(
    name="phased-diff",
    mix=InstructionMix(l1rpi=0.3, l2rpi=0.03, brpi=0.1, fppi=0.02),
    phases=(
        PhaseSegment(profile=((1, 0.6), (6, 0.4)), accesses=300),
        PhaseSegment(profile=((0, 0.4), (math.inf, 0.6)), accesses=150),
    ),
    base_cpi=0.6,
    penalty_cycles=150.0,
)

#: A miss stalls it longer than an HPC period, so one access can close
#: several power windows and overshoot the end of a duration run.
GLACIAL = SyntheticBenchmark(
    name="glacial",
    mix=InstructionMix(l1rpi=0.3, l2rpi=0.05, brpi=0.1, fppi=0.0),
    rd_profile=((0, 0.5), (math.inf, 0.5)),
    base_cpi=0.8,
    penalty_cycles=2.0e5,
)

workloads = st.one_of(
    st.sampled_from(sorted(PAPER_EIGHT)).map(BENCHMARKS.__getitem__),
    st.integers(min_value=1, max_value=3).map(make_stressmark),
    st.just(PHASED),
)


def assignments(workloads):
    """Core -> run queue; an empty queue is a core with no process."""
    return st.dictionaries(
        keys=st.integers(min_value=0, max_value=3),
        values=st.lists(workloads, min_size=0, max_size=2),
        min_size=1,
        max_size=4,
    )


def _state(sim, result):
    """Fingerprint plus every piece of simulator state the loops touch."""
    caches = []
    for cache, monitor in zip(sim.caches, sim.monitors):
        lookup, tags, owners, lru, free, lines = cache.lru_structures()
        caches.append((lookup, tags, owners, lru, free, lines))
        caches.append({k: v for k, v in vars(monitor).items() if k != "cache"})
    processes = [
        (vars(p.counters), vars(p._mark) if p._mark is not None else None)
        for p in sim.processes
    ]
    schedules = [
        (s.slice_end, s._index, s.context_switches) for s in sim.schedules.values()
    ]
    banks = [bank.values for bank in sim.banks]
    return simulation_fingerprint(sim, result), caches, processes, schedules, banks


def _both(topology_name, assignment, seed, duration, power):
    states = []
    for loop in ("_run_reference", "_run_lru"):
        topology = TOPOLOGIES[topology_name]()
        placed = {c: q for c, q in assignment.items() if c < topology.num_cores}
        sim = MachineSimulation(
            topology,
            placed,
            scale=TINY,
            seed=seed,
            power_env=PowerEnvironment.for_topology(topology, seed=seed) if power else None,
        )
        assert sim._lru_fast_path()
        run = getattr(sim, loop)
        if duration:
            result = run(True, warmup_s=TINY.warmup_s, measure_s=TINY.measure_s,
                         collect_power=power)
        else:
            if not sim.processes:
                return None
            result = run(False, warmup_budget=TINY.warmup_accesses,
                         measure_budget=TINY.measure_accesses)
        states.append(_state(sim, result))
    return states


class TestFusedLoopMatchesReference:
    @given(
        st.sampled_from(sorted(TOPOLOGIES)),
        assignments(workloads),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_access_mode(self, topology_name, assignment, seed):
        states = _both(topology_name, assignment, seed, duration=False, power=False)
        if states is not None:
            assert states[0] == states[1]

    @given(
        st.sampled_from(sorted(TOPOLOGIES)),
        # A glacial process would take an access budget forever to meet.
        assignments(st.one_of(workloads, st.just(GLACIAL))),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @example("server", {0: [GLACIAL], 1: [BENCHMARKS["mcf"]]}, 3, True)
    def test_duration_mode(self, topology_name, assignment, seed, power):
        states = _both(topology_name, assignment, seed, duration=True, power=power)
        assert states[0] == states[1]


class TestEqualTimes:
    """An access ending exactly at the stop time must not run ahead.

    Clock, rates and run length are powers of two, so simulated times
    are exact and an access ends exactly at the end of the run; the
    next access, which would start there, must not run.
    """

    def test_access_ending_at_run_end(self):
        exact = SyntheticBenchmark(
            name="exact",
            mix=InstructionMix(l1rpi=0.5, l2rpi=0.5, brpi=0.0, fppi=0.0),
            rd_profile=((0, 1.0),),
            base_cpi=1.0,
            penalty_cycles=64.0,
        )
        scale = SimulationScale(
            warmup_accesses=1,
            measure_accesses=1,
            warmup_s=2.0**-12,
            measure_s=2.0**-11,
            hpc_period_s=2.0**-13,
            timeslice_s=1.0,
        )
        states = []
        for loop in ("_run_reference", "_run_lru"):
            topology = dataclasses.replace(four_core_server(sets=32), frequency_hz=2.0**27)
            sim = MachineSimulation(
                topology,
                {0: [exact]},
                scale=scale,
                power_env=PowerEnvironment.for_topology(topology),
            )
            result = getattr(sim, loop)(
                True, warmup_s=scale.warmup_s, measure_s=scale.measure_s, collect_power=True
            )
            end = sim.processes[0].counters.time_running
            states.append((_state(sim, result), end))
        assert states[0][1] == scale.warmup_s + scale.measure_s
        assert states[0] == states[1]


class TestLoopSelection:
    def _sim(self, **kwargs):
        return MachineSimulation(
            four_core_server(sets=32),
            {0: [BENCHMARKS["mcf"]], 1: [BENCHMARKS["art"]]},
            scale=TINY,
            **kwargs,
        )

    def test_paper_configuration_takes_fast_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("reference loop used for plain LRU")

        monkeypatch.setattr(MachineSimulation, "_run_reference", forbidden)
        result = self._sim().run_accesses()
        assert all(p.l2_refs >= TINY.measure_accesses for p in result.processes)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "fifo"},
            {"policy": "random"},
            {"policy": "tree-plru"},
            {"prefetch": "nextline"},
            {"prefetch": "stride"},
            {"access_hook": lambda t, pid, hit: None},
        ],
    )
    def test_other_configurations_take_reference_loop(self, kwargs):
        assert not self._sim(**kwargs)._lru_fast_path()

    def test_hook_set_after_construction_is_honoured(self):
        seen = []
        sim = self._sim()
        sim.access_hook = lambda t, pid, hit: seen.append(pid)
        sim.run_accesses()
        assert len(seen) == sum(p.counters.l2_refs for p in sim.processes)
