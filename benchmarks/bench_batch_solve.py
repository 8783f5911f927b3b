"""Throughput and bit-equality of the stacked batch equilibrium solver.

Solves one batch of 256 contended 8-process mixes two ways on a single
core: as 256 scalar ``solve_equilibrium`` calls (the sequential
baseline every earlier layer was built on) and as one
:class:`~repro.core.batch_equilibrium.BatchNewtonSolver` call that
stacks the whole batch into ``(256, 8)`` numpy kernels.  Two things
are pinned:

- **Bit-equality, always.**  The batch solver's contract is that every
  payload field (sizes / mpas / spis / solver / iterations /
  contended) is ``==`` to the scalar loop — checked here on every run,
  on every machine.
- **Speedup ≥ 10x** (full mode; the quick smoke asserts ≥ 5x because
  its batch of 64 amortizes less and its smaller repeat count is
  noisier on shared CI cores).  This is a one-core
  comparison: the win is vectorization, not parallelism, so it holds
  on single-core CI runners.

Both sides are timed with interleaved best-of-N: container schedulers
and frequency scaling routinely double a single measurement, so each
repeat times one scalar pass and one batch pass back-to-back (both
sides see the same machine state) and the minimum over 15 repeats
recovers the true cost of each deterministic computation.
"""

import random
import timeit

from conftest import QUICK, once, report

from repro.analysis.tables import render_table
from repro.core.batch_equilibrium import BatchNewtonSolver
from repro.core.equilibrium import solve_equilibrium
from repro.core.performance_model import PerformanceModel
from repro.core.feature import FeatureVector
from repro.core.solver_cache import EquilibriumCache
from repro.workloads.spec import BENCHMARKS

WAYS = 16
MIX_SIZE = 8
BATCH = 64 if QUICK else 256
REPEAT = 5 if QUICK else 15
FLOOR = 5.0 if QUICK else 10.0


def _build_batch():
    """256 contended 8-of-10 mixes, model-idiom fresh process rows."""
    features = {
        name: FeatureVector.oracle(BENCHMARKS[name], 2e8)
        for name in sorted(BENCHMARKS)
    }
    model = PerformanceModel(
        ways=WAYS, cache=EquilibriumCache(max_entries=0)
    )
    model.register_all(features.values())
    names = sorted(features)
    rng = random.Random(2010)
    batch = []
    for _ in range(BATCH):
        mix = rng.sample(names, MIX_SIZE)
        batch.append(model._equilibrium_inputs(mix, [1.0] * MIX_SIZE))
    return batch


def _measure():
    batch = _build_batch()
    solver = BatchNewtonSolver()

    def scalar_loop():
        return [solve_equilibrium(row, WAYS) for row in batch]

    def batch_solve():
        return solver.solve_batch(batch, WAYS)

    # Correctness before timing: the whole point is identical bits.
    scalar_results = scalar_loop()
    batch_results = batch_solve()
    mismatches = sum(
        1
        for s, b in zip(scalar_results, batch_results)
        if (s.sizes, s.mpas, s.spis, s.solver, s.iterations, s.contended)
        != (b.sizes, b.mpas, b.spis, b.solver, b.iterations, b.contended)
    )
    scalar_times, batch_times = [], []
    for _ in range(REPEAT):
        scalar_times.append(timeit.timeit(scalar_loop, number=1))
        batch_times.append(timeit.timeit(batch_solve, number=1))
    t_scalar = min(scalar_times)
    t_batch = min(batch_times)
    return {
        "mismatches": mismatches,
        "t_scalar_ms": t_scalar * 1e3,
        "t_batch_ms": t_batch * 1e3,
        "speedup": t_scalar / t_batch,
        "batch_solver_rows": sum(
            1
            for b in batch_results
            if b.telemetry is not None and b.telemetry.solver == "batch_newton"
        ),
    }


def test_batch_solve_speedup_and_equality(benchmark):
    result = once(benchmark, _measure)
    lines = [
        render_table(
            ["Mixes", "k", "Scalar loop (ms)", "Batch solve (ms)", "Speedup"],
            [
                (
                    BATCH,
                    MIX_SIZE,
                    result["t_scalar_ms"],
                    result["t_batch_ms"],
                    result["speedup"],
                )
            ],
            title=f"Stacked batch equilibrium solve, best of {REPEAT}, one core",
            float_format="{:.4g}",
        ),
        "",
        f"{result['batch_solver_rows']}/{BATCH} rows solved on the "
        "vector path (the rest via per-row fallback)",
    ]
    report("batch_solve", "\n".join(lines))

    assert result["mismatches"] == 0, (
        "batch and scalar solves disagreed bit-for-bit"
    )
    assert result["batch_solver_rows"] == BATCH, (
        "contended benchmark mixes should all stay on the vector path"
    )
    assert result["speedup"] >= FLOOR, (
        f"batch-of-{BATCH} speedup {result['speedup']:.2f}x < {FLOOR:.0f}x "
        "over the scalar loop on one core"
    )
