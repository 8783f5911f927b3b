"""Golden digests of complete simulator outputs.

Each case is a small seeded run of a configuration the experiments
use.  Its fingerprint (every ``ProcessResult`` field, HPC samples,
power trace, context switches and final per-owner cache statistics,
see ``conftest.simulation_fingerprint``) is hashed with SHA-256 and
compared with a digest recorded from the reference event loop.  Any
change to the simulator that moves a single bit of any output fails
here, whichever loop the configuration takes.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.config import SimulationScale
from repro.machine.simulator import MachineSimulation, PowerEnvironment
from repro.machine.topology import four_core_server, heterogeneous_server
from repro.workloads.mix import InstructionMix
from repro.workloads.phased import PhaseSegment, make_phased_benchmark
from repro.workloads.spec import BENCHMARKS
from repro.workloads.stressmark import make_stressmark

from conftest import simulation_fingerprint

SCALE = SimulationScale(
    warmup_accesses=2_000,
    measure_accesses=6_000,
    warmup_s=0.002,
    measure_s=0.008,
    hpc_period_s=0.0008,
    timeslice_s=0.0005,
)


def _phased():
    return make_phased_benchmark(
        name="phased-golden",
        mix=InstructionMix(l1rpi=0.35, l2rpi=0.03, brpi=0.1, fppi=0.0),
        phases=(
            PhaseSegment(profile=((2, 0.7), (9, 0.3)), accesses=1_500),
            PhaseSegment(profile=((0, 0.5), (math.inf, 0.5)), accesses=700),
        ),
        base_cpi=0.5,
        penalty_cycles=160.0,
    )


def _workloads(assignment):
    return {
        core: [BENCHMARKS[n] if isinstance(n, str) else n for n in names]
        for core, names in assignment.items()
    }


def _accesses(topology, assignment, seed, **kwargs):
    sim = MachineSimulation(topology, _workloads(assignment), scale=SCALE, seed=seed, **kwargs)
    return sim, sim.run_accesses()


def _duration(topology, assignment, seed):
    sim = MachineSimulation(
        topology,
        _workloads(assignment),
        scale=SCALE,
        seed=seed,
        power_env=PowerEnvironment.for_topology(topology, seed=seed),
    )
    return sim, sim.run_duration()


CASES = {
    "table1_pair": lambda: _accesses(
        four_core_server(sets=64), {0: ["mcf"], 1: ["art"]}, seed=1
    ),
    "stressmark_sweep_point": lambda: _accesses(
        four_core_server(sets=64), {0: ["vpr"], 1: [make_stressmark(10)]}, seed=4
    ),
    "time_shared_core": lambda: _accesses(
        four_core_server(sets=64), {0: ["mcf", "gzip"], 1: ["equake"]}, seed=5
    ),
    "duration_with_power": lambda: _duration(
        four_core_server(sets=64), {0: ["mcf"], 1: ["art", "twolf"], 3: ["equake"]}, seed=6
    ),
    "hetero_nonunit_clocks": lambda: _accesses(
        heterogeneous_server(sets=64, slow_scale=0.5),
        {0: ["ammp"], 1: ["bzip2"], 3: ["gzip"]},
        seed=7,
    ),
    "phased_workload": lambda: _accesses(
        four_core_server(sets=64), {0: [_phased()], 1: ["twolf"]}, seed=8
    ),
    "lru_nextline_prefetch": lambda: _accesses(
        four_core_server(sets=64), {0: ["equake"], 1: ["mcf"]}, seed=9, prefetch="nextline"
    ),
    "tree_plru": lambda: _accesses(
        four_core_server(sets=64), {0: ["mcf"], 1: ["vpr"]}, seed=10, policy="tree-plru"
    ),
}

#: Recorded from the single event loop that preceded the fused LRU loop
#: (now ``MachineSimulation._run_reference``), before the fused loop existed.
GOLDEN = {
    "duration_with_power": "27d06c26494506dc17aefc62b0c4dbc42c8f63aadbf234650447cd63d998cb5b",
    "hetero_nonunit_clocks": "d9a83b7bfe4d0ea8ccc9e4631460ccc0b2e5f572f4bd25aa8de9f4d0a2f6b412",
    "lru_nextline_prefetch": "83c5f52999925c902bdf92556835667d1a5600fb937d6689070929d1998b352a",
    "phased_workload": "d82a5d92b7c4945ef07334b9f3431553946c066aaa98520a0bcf28de5903902f",
    "stressmark_sweep_point": "99c271ba74f5674e26099accac685f387b43cd28ffe90e0c9d20ac64bdefaddd",
    "table1_pair": "a4ba895a6ce54ac2c767ecd5fe6b1e55b2d57300e3752429367b4eed21c6f577",
    "time_shared_core": "bff7fd10af44fdf290232dbccc11dd81aa8c8de90660d5f68c7a8ae637cb2a1c",
    "tree_plru": "41ea0af1b5494995fceba89c92bc1bb4b1b72343bd6baf11fdf48bb1b4c227f9",
}


def digest(case: str) -> str:
    sim, result = CASES[case]()
    document = json.dumps(simulation_fingerprint(sim, result), sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(case) == GOLDEN[case]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)
