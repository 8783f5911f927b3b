"""Names, units and bounds the benchmark emits, and the self-check.

``BENCHMARK.json`` at the repository root is the contract; this module
is what the code actually emits.  :func:`check_declared` compares the
two before a run and :func:`check_emitted` compares a finished run's
metrics against them, so a renamed metric fails loudly instead of
silently dropping out of the record.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, Iterable, Tuple

#: Workloads and the one-line reason each exists.
WORKLOADS: Dict[str, str] = {
    "profile": (
        "building the model: stressmark profiling, power training and "
        "ground-truth checks, so simulator time dominates"
    ),
    "plan": (
        "in-process queries as a scheduler makes them: scalar and batch "
        "solves, v1 and fleet assignment, never HTTP"
    ),
}

#: ``name -> (unit, better, bound)`` of every end-to-end metric.  Each
#: workload runs the whole build/validate/plan/serve pipeline, sized so
#: its own stage dominates, and so reports every one of these.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "build_s": ("s", "lower", 0.24),
    "sim_accesses_per_s": ("1/s", "higher", 0.24),
    "predict_p50_ms": ("ms", "lower", 0.24),
    "predict_p95_ms": ("ms", "lower", 0.24),
    "batch_mixes_per_s": ("1/s", "higher", 0.24),
    "assign_v1_p50_ms": ("ms", "lower", 0.24),
    "assign_v2_p50_ms": ("ms", "lower", 0.24),
    "fleet_solve_s": ("s", "lower", 0.24),
    "fleet_score": ("W", "lower", 0.05),
}

#: ``name -> (unit, better)`` of every per-layer metric (traced run).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    # Accuracy against the simulated ground truth (exact for a seed).
    "spi_err_pct": ("%", "lower"),
    "power_err_pct": ("%", "lower"),
    # Substrate: generator, cache, simulator, profiler, power training.
    "workloads.lines_per_s": ("1/s", "higher"),
    "cache.accesses_per_s": ("1/s", "higher"),
    "cache.miss_ratio": ("ratio", "lower"),
    "machine.run_s": ("s", "lower"),
    "machine.runs": ("count", "lower"),
    "machine.accesses": ("count", "lower"),
    "machine.duration_run_s": ("s", "lower"),
    "profiling.process_s": ("s", "lower"),
    "profiling.sweep_points": ("count", "lower"),
    "power.train_s": ("s", "lower"),
    # Model layers.
    "core.occupancy.build_ms": ("ms", "lower"),
    "core.equilibrium.solve_ms": ("ms", "lower"),
    "core.equilibrium.iterations": ("count", "lower"),
    "core.equilibrium.fallback_share": ("ratio", "lower"),
    "api.overhead_ms": ("ms", "lower"),
    "core.batch_equilibrium.us_per_mix": ("us", "lower"),
    "core.batch_equilibrium.fallback_share": ("ratio", "lower"),
    "parallel.batch_ms": ("ms", "lower"),
    "core.solver_cache.hit_ratio": ("ratio", "higher"),
    "core.solver_cache.warm_starts": ("count", "lower"),
    "core.combined.estimate_us": ("us", "lower"),
    "core.assignment.candidates": ("count", "lower"),
    "fleet.prime_s": ("s", "lower"),
    "fleet.closure_mixes": ("count", "lower"),
    "fleet.greedy_s": ("s", "lower"),
    "fleet.anneal_s": ("s", "lower"),
    "fleet.evaluations": ("count", "lower"),
    "fleet.iterations": ("count", "lower"),
    "fleet.accept_share": ("ratio", "higher"),
    "hetero.state_us": ("us", "lower"),
    # Serve layers, from /metrics deltas and client spans.  The served
    # latencies and the ladder's rate are here, unbounded: over ten runs
    # on the reference host their spread reached 0.25-0.6 of the median,
    # beyond any bound the end-to-end list may carry.
    "serve.p50_ms": ("ms", "lower"),
    "serve.p95_ms": ("ms", "lower"),
    "serve.p95_ms_high": ("ms", "lower"),
    "serve.max_rps": ("1/s", "higher"),
    "serve.cache.hit_ratio": ("ratio", "higher"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.batch.flush_linger_share": ("ratio", "lower"),
    "serve.batch.size_mean": ("count", "higher"),
    "serve.batch.solve_ms": ("ms", "lower"),
    "serve.http_overhead_ms": ("ms", "lower"),
    "serve.publish_ms": ("ms", "lower"),
    "serve.models.hot_swaps": ("count", "higher"),
    "io.suite_decode_ms": ("ms", "lower"),
    "serve.shed": ("count", "lower"),
    "serve.errors": ("count", "lower"),
    "serve.client.late_ms": ("ms", "lower"),
    # Self time per layer, from the benchmark-side spans.
    "self.machine_s": ("s", "lower"),
    "self.profiling_s": ("s", "lower"),
    "self.power_s": ("s", "lower"),
    "self.api_s": ("s", "lower"),
    "self.core_s": ("s", "lower"),
    "self.parallel_s": ("s", "lower"),
    "self.fleet_s": ("s", "lower"),
    "self.hetero_s": ("s", "lower"),
    "self.serve_s": ("s", "lower"),
    # What the spans themselves cost.
    "trace.overhead_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.spans": ("count", "lower"),
}


class SpecMismatch(Exception):
    """The emitted names disagree with ``BENCHMARK.json``."""


def _diff(kind: str, declared: Iterable[str], emitted: Iterable[str]) -> None:
    declared, emitted = set(declared), set(emitted)
    if declared != emitted:
        raise SpecMismatch(
            f"{kind}: declared but not emitted {sorted(declared - emitted)}; "
            f"emitted but not declared {sorted(emitted - declared)}"
        )


def check_declared(path: pathlib.Path) -> dict:
    """Compare ``BENCHMARK.json`` with this module; returns the document."""
    document = json.loads(path.read_text())
    _diff("workloads", (w["name"] for w in document["workloads"]), WORKLOADS)
    _diff("end_to_end", (m["name"] for m in document["end_to_end"]), END_TO_END)
    _diff("per_layer", (m["name"] for m in document["per_layer"]), PER_LAYER)
    for metric in document["end_to_end"]:
        unit, better, bound = END_TO_END[metric["name"]]
        if (metric["unit"], metric["better"], metric["bound"]) != (unit, better, bound):
            raise SpecMismatch(f"end_to_end {metric['name']}: declared {metric}")
    for metric in document["per_layer"]:
        unit, better = PER_LAYER[metric["name"]]
        if (metric["unit"], metric["better"]) != (unit, better):
            raise SpecMismatch(f"per_layer {metric['name']}: declared {metric}")
    return document


def check_emitted(metrics: Dict[str, dict], trace: bool) -> None:
    """Every declared metric of the mode is emitted, and nothing else."""
    declared = PER_LAYER if trace else END_TO_END
    _diff("per_layer" if trace else "end_to_end", declared, metrics)
    for name, entry in metrics.items():
        if entry["unit"] != declared[name][0]:
            raise SpecMismatch(f"{name}: unit {entry['unit']!r} != {declared[name][0]!r}")
