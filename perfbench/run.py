"""The repository benchmark: one command, two workloads.

Run from the repository root::

    python3 perfbench/run.py --workload plan --seed 1 --seconds 12 --trace 0

Every workload runs the paper's whole pipeline -- build the model,
check it against simulated ground truth, query it in-process, serve it
over HTTP -- and sizes one stage so it dominates (see ``SHAPES`` and
``README.md``).  ``--trace 0`` prints every end-to-end metric;
``--trace 1`` wraps the library's layer entry points with spans and
prints the per-layer metrics instead, plus the tracing overhead.  The
last line of standard output is the JSON result; provenance and a
Chrome trace (traced runs) are written under ``perfbench/out/``.

Exit codes: 0 with a result; 2 when not run from a checkout with
``src/repro``; 3 when the emitted names disagree with ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import random
import signal
import sys
import time
from typing import Dict

import spec

#: Per-workload stage sizes.  The workload's own stage runs for
#: ``--seconds`` (``None``) or at full size; the others are fixed probes.
PROBES = {
    "plan_s": 12.0,
    "fleet_processes": 200,
    "serve_low_s": 3.0,
    "serve_high_s": 0.75,
}
SHAPES: Dict[str, dict] = {
    "profile": dict(PROBES, profiled=True, validation_repeats=1),
    "plan": dict(PROBES, profiled=False, oracle_rounds=2, plan_s=None, fleet_processes=400),
}
#: The validate, plan and serve stages run in this many rounds, each
#: doing a slice of every stage, so every metric samples the whole run
#: rather than one window of the host's changing speed.  Fleet requests
#: run in every ``FLEET_EVERY``-th round.
ROUNDS = 6
FLEET_EVERY = 2
SETUP_REPEATS = 3
BUILD_REPEATS = 5
OVERHEAD_PROBE_CALLS = 20


def _seconds(value, seconds: int, share: float) -> float:
    return seconds * share if value is None else value


def run_workload(root: pathlib.Path, workload: str, seed: int, seconds: int, tracer):
    """All stages of one workload; returns (outcome, query suite, power model)."""
    import build
    import plan
    import serve
    from common import Outcome, Paired, median, timed

    shape = SHAPES[workload]
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stage_s: Dict[str, float] = {}
    outcome = Outcome(properties={"shape": dict(shape), "rounds": ROUNDS, "stage_s": stage_s})

    def stage(name, function, *args):
        start = time.perf_counter()
        result = function(*args)
        stage_s[name] = stage_s.get(name, 0.0) + time.perf_counter() - start
        return result

    # Build: profiling (profile) or ground-truth features (plan).
    # The query stages always use the 10-benchmark feature suite, as the
    # saved document the server also loads.  The feature build takes a
    # few milliseconds, so plan times it a few times per round.
    suite_path = out_dir / f"suite-{workload}-{seed}.json"
    suite, power_model = build.build_oracle(seed, suite_path)
    builds = Paired()
    if shape["profiled"]:
        profiled, trained, built = stage("build", build.build_profiled, seed, tracer)
        outcome.merge(built)
        pairs, assignments = build.profiled_validation(profiled.names, shape["validation_repeats"])
        validation = build.Validation(profiled, trained, seed, tracer)
    else:
        pairs, assignments = build.oracle_validation(seed, shape["oracle_rounds"])
        validation = build.Validation(suite, power_model, seed, tracer)
    document = json.loads(suite_path.read_text())
    log_path = out_dir / f"serve-{workload}-{seed}.log"

    server = None

    def boot_and_warm() -> None:
        """Boot and warm the server, warm the in-process paths."""
        nonlocal server
        server = serve.boot(root, suite_path, log_path)
        serve.warm(server, suite)
        plan.warm_up(suite, power_model)

    def set_up() -> None:
        nonlocal server
        times = []
        for repeat in range(SETUP_REPEATS):
            # At the reference host speed (see common.Sampler); the
            # server runs on this process's CPU (see main).
            times.append(timed(boot_and_warm)[1])
            if repeat < SETUP_REPEATS - 1:
                server.stop()
                server = None
        outcome.metrics["setup_s"] = median(times)

    try:
        stage("setup", set_up)
        stream = plan.PlanStream(suite, power_model, seed, tracer)
        load = serve.ServeLoad(server, suite, document, seed, tracer)
        fleets = []
        plan_slice = _seconds(shape["plan_s"], seconds, 1.0) / ROUNDS
        low_slice = shape["serve_low_s"] / ROUNDS
        high_slice = shape["serve_high_s"] / ROUNDS
        ladder = serve.LADDER_STEPS
        steps = [ladder // ROUNDS + (r < ladder % ROUNDS) for r in range(ROUNDS)]
        for r in range(ROUNDS):
            if not shape["profiled"]:
                stage("build", build.time_oracle_build, seed, BUILD_REPEATS, builds, tracer)
            stage(
                "validate", validation.run,
                list(enumerate(pairs))[r::ROUNDS], list(enumerate(assignments))[r::ROUNDS],
            )
            stage("plan", stream.run, plan_slice)
            if r % FLEET_EVERY == 0:
                fleets.append(
                    stage(
                        "fleet", plan.run_fleet,
                        suite, power_model, seed * ROUNDS + r, shape["fleet_processes"], tracer,
                    )
                )
            stage("serve", load.phase, "low", serve.LOW_RATE, low_slice)
            stage("serve", load.phase, "high", serve.HIGH_RATE, high_slice)
            stage("serve", load.ladder, steps[r])
        if builds.times:
            outcome.attempted += len(builds.times)
            outcome.metrics["build_s"] = builds.typical()
        outcome.merge(validation.outcome(gate=bool(shape["profiled"])))
        outcome.merge(stream.outcome())
        outcome.merge(plan.fleet_outcome(fleets))
        outcome.merge(load.outcome())
    finally:
        if server is not None:
            server.stop()
    return outcome, suite, power_model


def traced_layers(seed, tracer, suite, power_model, outcome) -> Dict[str, float]:
    """Per-layer numbers from the spans plus the fixed layer probes."""
    import build
    import plan
    from common import WAYS, mean
    from repro import api
    from spans import install_layers

    layers = dict(outcome.layers)
    names = outcome.properties.get("profiled") or list(suite.names)
    layers.update(build.substrate_layers(names, seed, 50_000))
    layers.update(plan.model_layers(suite, power_model, seed, tracer))

    def durations(name):
        return [s.duration for s in tracer.named(name)]

    def args(name, key):
        return [s.args[key] for s in tracer.named(name) if key in s.args]

    def mean_or_zero(values):
        return mean(values) if values else 0.0

    layers.update(
        {
            "machine.run_s": mean_or_zero(durations("machine.run_accesses")),
            "machine.runs": len(durations("machine.run_accesses")),
            "machine.accesses": sum(args("machine.run_accesses", "accesses")),
            "machine.duration_run_s": mean_or_zero(durations("machine.run_duration")),
            "profiling.process_s": mean_or_zero(durations("profiling.process")),
            "profiling.sweep_points": sum(args("profiling.process", "sweep_points")),
            "power.train_s": sum(durations("power.train")),
            "core.occupancy.build_ms": mean_or_zero(durations("core.occupancy.build")) * 1e3,
            "core.equilibrium.solve_ms": mean_or_zero(durations("core.equilibrium.solve")) * 1e3,
            "core.equilibrium.iterations": mean_or_zero(
                args("core.equilibrium.solve", "iterations")
            ),
            "core.equilibrium.fallback_share": mean_or_zero(
                args("core.equilibrium.solve", "fallback")
            ),
            "api.overhead_ms": tracer.mean_self("api.predict_mix") * 1e3,
            "parallel.batch_ms": mean_or_zero(durations("parallel.predict_mixes")) * 1e3,
            "fleet.prime_s": mean_or_zero(durations("fleet.prime")),
            "fleet.closure_mixes": max(args("fleet.prime", "mixes"), default=0),
            "hetero.state_us": mean_or_zero(durations("hetero.state_metrics")) * 1e6,
        }
    )
    per_layer_self = tracer.layer_self_times()
    for name in spec.PER_LAYER:
        if name.startswith("self."):
            layers[name] = per_layer_self.get(name[len("self."):-len("_s")], 0.0)

    # Tracing overhead: the same predict_mix calls untraced and traced,
    # alternating in this interpreter so both see the same host speed.
    rng = random.Random(seed + 7)
    mixes = [[rng.choice(suite.names) for _ in range(3)] for _ in range(OVERHEAD_PROBE_CALLS)]

    def probe(chunk) -> float:
        start = time.perf_counter()
        for mix in chunk:
            api.predict_mix(mix, suite, ways=WAYS)
        return time.perf_counter() - start

    untraced = traced = 0.0
    for i in range(0, len(mixes), 4):
        tracer.unwrap_all()
        untraced += probe(mixes[i:i + 4])
        install_layers(tracer)
        traced += probe(mixes[i:i + 4])
    tracer.unwrap_all()
    layers["trace.overhead_ms"] = (traced - untraced) * 1e3
    layers["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    layers["trace.spans"] = len(tracer.spans)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} has no src/repro; run from the repository root", file=sys.stderr)
        return 2
    try:
        spec.check_declared(root / "BENCHMARK.json")
    except (OSError, ValueError, KeyError, spec.SpecMismatch) as error:
        print(f"perfbench: BENCHMARK.json does not match the benchmark: {error}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(root / "src"))

    import common
    from spans import NullTracer, Tracer, install_layers

    # One CPU for everything, the server subprocess included (it inherits
    # the affinity and the environment): the host-speed loop then measures
    # the CPU every timed operation ran on.  On one CPU a BLAS worker
    # thread only competes with the main thread (its spin-waits after a
    # large call slowed whole runs), so BLAS runs single-threaded; numpy
    # reads these before its first import, which is below.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"

    # A terminated run still stops its server (the ``finally`` blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    tracer = Tracer() if trace else NullTracer()
    origin = time.perf_counter()
    if trace:
        install_layers(tracer)
    try:
        outcome, suite, power_model = run_workload(
            root, args.workload, args.seed, args.seconds, tracer
        )
        if trace:
            values = traced_layers(args.seed, tracer, suite, power_model, outcome)
        else:
            values = outcome.metrics
    finally:
        if trace:
            tracer.unwrap_all()

    declared = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = {}
    non_finite = []
    for name, value in values.items():
        if name not in declared:
            continue
        if not math.isfinite(value):
            non_finite.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": declared[name][0]}
    outcome.checks["metrics_finite"] = not non_finite
    try:
        spec.check_emitted(metrics, trace)
    except spec.SpecMismatch as error:
        print(f"perfbench: emitted metrics do not match BENCHMARK.json: {error}", file=sys.stderr)
        return 3

    result = {
        "correct": all(outcome.checks.values()),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = {
        "provenance": common.provenance(args.workload, args.seed, args.seconds, trace),
        "properties": outcome.properties,
        "checks": outcome.checks,
        "result": result,
    }
    out_dir = root / "perfbench" / "out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=2, default=str))
    if trace:
        tracer.write_chrome(out_dir / f"trace-{stem}.json", origin)
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    for name, passed in outcome.checks.items():
        print(f"check {name:34s} {'ok' if passed else 'FAILED'}")
    print(json.dumps({k: record[k] for k in ("provenance", "properties")}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
