"""Plan stage: the model queried in-process, as an OS scheduler would.

One process sends a seeded stream of queries against the 10-benchmark
suite: single ``api.predict_mix`` calls (a stated share at non-unit
DVFS ratios), ``api.predict_mixes`` batches, and single-machine
assignments through both the frozen ``/v1`` path
(``api.pick_assignment``) and the fleet path (``api.solve_assignment``).
Then one fleet request packs thousands of processes onto a
homogeneous plus big.LITTLE fleet under a watts budget, greedy first
and then anneal with a fixed iteration budget.  Nothing here touches
the simulator or HTTP.
"""

from __future__ import annotations

import math
import random
import time
import warnings
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from common import (
    MACHINE,
    SETS,
    WAYS,
    Outcome,
    Paired,
    distribution,
    mean,
    median,
    percentile,
    timed,
)

#: Query kinds and their share of the stream.
MIX_SHARES = (("predict", 0.6), ("batch", 0.1), ("assign_v1", 0.15), ("assign_v2", 0.15))
#: Share of predictions (single and batched) priced at non-unit ratios.
DVFS_SHARE = 0.3
BATCH_SIZE = 256
ASSIGN_PROCESSES = 4
ANNEAL_ITERATIONS = 1000
#: Fleet watts budget per placed process (the result must meet it).
BUDGET_WATTS_PER_PROCESS = 18.0


def pstate_ratios() -> Tuple[float, ...]:
    """Distinct frequency ratios of the catalog's P-states."""
    from repro.hetero.types import CORE_TYPE_CATALOG

    return tuple(
        sorted(
            {p.frequency_ratio for core in CORE_TYPE_CATALOG.values() for p in core.pstates},
            reverse=True,
        )
    )


def _mix(rng: random.Random, names: Sequence[str], slow: Sequence[float]):
    mix = [rng.choice(names) for _ in range(rng.choice((2, 3, 4)))]
    ratios = [rng.choice(slow) for _ in mix] if rng.random() < DVFS_SHARE else None
    return mix, ratios


def _process_sets(rng: random.Random, names: Sequence[str]) -> Iterator[List[str]]:
    """Sets of distinct processes in which every name appears equally.

    Each block deals two shuffled copies of the suite into sets; the
    cost of an assignment query depends on which programs it places, so
    this keeps that mix the same for every seed.
    """
    size = ASSIGN_PROCESSES
    while True:
        deck: List[str] = []
        for _ in range(size):
            hand = list(names)
            rng.shuffle(hand)
            deck.extend(hand)
        sets = [deck[i:i + size] for i in range(0, len(deck), size)]
        if all(len(set(chosen)) == size for chosen in sets):
            yield from sets


def _stream(seed: int, names: Sequence[str]) -> Iterator[Tuple[str, object]]:
    """Endless seeded queries; the same seed gives the same sequence."""
    rng = random.Random(seed)
    sets = _process_sets(random.Random(seed + 1), names)
    slow = [r for r in pstate_ratios() if r != 1.0]
    kinds = [kind for kind, _ in MIX_SHARES]
    weights = [share for _, share in MIX_SHARES]
    while True:
        kind = rng.choices(kinds, weights)[0]
        if kind == "predict":
            yield kind, _mix(rng, names, slow)
        elif kind == "batch":
            yield kind, [_mix(rng, names, slow) for _ in range(BATCH_SIZE)]
        else:
            yield kind, next(sets)


def warm_up(suite, power_model) -> None:
    """One call per query kind, so lazy imports are not timed."""
    from repro import api
    from repro.api import AssignmentRequest

    names = list(suite.names)
    api.predict_mix(names[:2], suite, ways=WAYS)
    api.predict_mixes([names[:2], names[1:4]] * 4, suite, ways=WAYS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        api.pick_assignment(names[:2], suite, power_model, MACHINE, sets=SETS)
    api.solve_assignment(
        AssignmentRequest(processes=tuple(names[:2]), machine=MACHINE, sets=SETS),
        suite,
        power_model,
    )


class PlanStream:
    """The seeded query stream; :meth:`run` continues it for a while."""

    def __init__(self, suite, power_model, seed: int, tracer):
        self.suite = suite
        self.power_model = power_model
        self.seed = seed
        self.tracer = tracer
        self.ops = enumerate(_stream(seed, list(suite.names)))
        self.latencies: Dict[str, Paired] = {kind: Paired() for kind, _ in MIX_SHARES}
        #: One seeded row per batch, re-priced alone after the stream.
        self.sampled_rows: List[Tuple[list, Optional[list], object]] = []
        self.row_rng = random.Random(seed + 2)
        self.mix_sizes: List[int] = []
        self.scaled = 0

    def run(self, seconds: float) -> None:
        from repro import api
        from repro.api import AssignmentRequest

        suite, power_model = self.suite, self.power_model
        deadline = time.perf_counter() + seconds
        with self.tracer.span("workload.plan"), warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            while time.perf_counter() < deadline:
                index, (kind, payload) = next(self.ops)
                with self.tracer.span(f"plan.{kind}", request_id=f"plan-{index}"):
                    start = time.perf_counter()
                    if kind == "predict":
                        mix, ratios = payload
                        api.predict_mix(mix, suite, ways=WAYS, frequency_ratios=ratios)
                    elif kind == "batch":
                        mixes = [mix for mix, _ in payload]
                        ratios = [r for _, r in payload]
                        rows = api.predict_mixes(mixes, suite, ways=WAYS, frequency_ratios=ratios)
                    elif kind == "assign_v1":
                        api.pick_assignment(payload, suite, power_model, MACHINE, sets=SETS)
                    else:
                        api.solve_assignment(
                            AssignmentRequest(processes=tuple(payload), machine=MACHINE, sets=SETS),
                            suite,
                            power_model,
                        )
                    elapsed = time.perf_counter() - start
                self.latencies[kind].add(elapsed)
                if kind == "batch":
                    row = self.row_rng.randrange(len(mixes))
                    self.sampled_rows.append((mixes[row], ratios[row], rows[row]))
                if kind in ("predict", "batch"):
                    for mix, ratios in payload if kind == "batch" else [payload]:
                        self.mix_sizes.append(len(mix))
                        self.scaled += ratios is not None

    def outcome(self) -> Outcome:
        from repro import api

        latencies = self.latencies
        outcome = Outcome(attempted=sum(len(v.times) for v in latencies.values()))
        predict = latencies["predict"]
        outcome.metrics["predict_p50_ms"] = predict.typical() * 1e3
        outcome.metrics["predict_p95_ms"] = predict.tail(95.0) * 1e3
        outcome.metrics["batch_mixes_per_s"] = BATCH_SIZE / latencies["batch"].typical()
        outcome.metrics["assign_v1_p50_ms"] = latencies["assign_v1"].typical() * 1e3
        outcome.metrics["assign_v2_p50_ms"] = latencies["assign_v2"].typical() * 1e3
        outcome.properties["plan_unscaled_ms"] = {
            kind: {
                "p50": median(v.times) * 1e3,
                "p95": percentile(v.times, 95.0) * 1e3,
                "reference_p50": median(v.reference) * 1e3,
                "reference_p95": percentile(v.reference, 95.0) * 1e3,
            }
            for kind, v in latencies.items()
        }
        outcome.properties["plan_queries"] = {kind: len(v.times) for kind, v in latencies.items()}
        outcome.properties["plan_mix_sizes"] = distribution(self.mix_sizes)
        outcome.properties["plan_dvfs_share"] = self.scaled / len(self.mix_sizes)
        outcome.properties["plan_batch_size"] = BATCH_SIZE

        # Outside the timed loop: one row of every batch, priced on its
        # own by predict_mix, equals the batch row bit for bit.
        mismatches = 0
        for mix, ratios, batched in self.sampled_rows:
            single = api.predict_mix(mix, self.suite, ways=WAYS, frequency_ratios=ratios)
            mismatches += single != batched
        outcome.failed += mismatches
        outcome.checks["predict_mix_equals_predict_mixes_rows"] = (
            bool(self.sampled_rows) and mismatches == 0
        )
        return outcome


def fleet_request(seed: int, processes: int):
    """Seeded processes on a homogeneous plus big.LITTLE fleet."""
    from repro.api import AssignmentRequest, FleetSpec, MachineGroup
    from repro.hetero.types import big_little_spec
    from repro.workloads.spec import PAPER_TEN

    # Every benchmark equally often, in a seeded order: the seed moves
    # the packing order, not the amount of each kind of work.
    names = sorted(PAPER_TEN)
    placed = [names[i % len(names)] for i in range(processes)]
    random.Random(seed + 3).shuffle(placed)
    placed = tuple(placed)
    # One process per core with a quarter of the cores spare.
    per_group = math.ceil(1.25 * processes / 8)
    fleet = FleetSpec(
        groups=(
            MachineGroup(machine=MACHINE, count=per_group, sets=32),
            MachineGroup(
                machine=MACHINE, count=per_group, sets=32, hetero=big_little_spec(MACHINE)
            ),
        )
    )
    budget = BUDGET_WATTS_PER_PROCESS * processes

    def request(solver: str, **kwargs):
        return AssignmentRequest(
            processes=placed,
            objective="min-power",
            fleet=fleet,
            solver=solver,
            max_per_core=1,
            power_budget_watts=budget,
            seed=seed,
            **kwargs,
        )

    return request, budget


def run_fleet(suite, power_model, seed: int, processes: int, tracer) -> dict:
    """Greedy then anneal on one fleet request; wall times and results."""
    from repro import api

    request, budget = fleet_request(seed, processes)

    def solve(solver: str, **kwargs):
        with tracer.span(f"fleet.{solver}"):
            return api.solve_assignment(request(solver, **kwargs), suite, power_model)

    # Wall times at the reference host speed (see common.Sampler).
    with tracer.span("workload.fleet"):
        greedy, greedy_s = timed(solve, "greedy")
        anneal, anneal_s = timed(solve, "anneal", max_iterations=ANNEAL_ITERATIONS)
    # Only the numbers the outcome needs: the results themselves would
    # keep thousands of objects alive for the rest of the run.
    return {
        "greedy_s": greedy_s,
        "anneal_s": anneal_s,
        "greedy_score": greedy.score,
        "greedy_watts": greedy.predicted_watts,
        "score": anneal.score,
        "watts": anneal.predicted_watts,
        "evaluations": anneal.evaluations,
        "iterations": anneal.iterations,
        "improvements": len(anneal.improvements) - 1,
        "processes": len(anneal.processes),
        "budget": budget,
        "machines": anneal.fleet.total_machines,
    }


def fleet_outcome(runs: Sequence[dict]) -> Outcome:
    """Median wall time and mean score over the fleet requests of a run."""
    outcome = Outcome(attempted=2 * len(runs))
    outcome.metrics["fleet_solve_s"] = median([r["greedy_s"] + r["anneal_s"] for r in runs])
    outcome.metrics["fleet_score"] = mean([r["score"] for r in runs])
    iterations = sum(r["iterations"] for r in runs)
    outcome.layers.update(
        {
            "fleet.greedy_s": median([r["greedy_s"] for r in runs]),
            "fleet.anneal_s": median([r["anneal_s"] for r in runs]),
            "fleet.evaluations": sum(r["evaluations"] for r in runs),
            "fleet.iterations": iterations,
            # The solver reports incumbent improvements, not every
            # accepted move, so this is the improving share.
            "fleet.accept_share": sum(r["improvements"] for r in runs) / max(iterations, 1),
        }
    )
    outcome.properties.update(
        {
            "fleet_requests": len(runs),
            "fleet_processes": runs[0]["processes"],
            "fleet_machines": runs[0]["machines"],
            "fleet_budget_watts": runs[0]["budget"],
        }
    )
    within = [max(r["watts"], r["greedy_watts"]) <= r["budget"] for r in runs]
    no_worse = [r["score"] <= r["greedy_score"] for r in runs]
    outcome.checks["fleet_meets_budget"] = all(within)
    outcome.checks["anneal_not_worse_than_greedy"] = all(no_worse)
    outcome.failed += within.count(False) + no_worse.count(False)
    return outcome


def model_layers(suite, power_model, seed: int, tracer) -> Dict[str, float]:
    """Fixed probes of the solver layers (traced run only).

    - a cold ``predict_batch`` of seeded mixes through the stacked
      solver, reading each row's solver from the cache it fills;
    - ``CombinedModel`` plus exhaustive search, built exactly the way
      the ``/v1`` assignment path builds them, over seeded process sets.
    """
    from repro.core.assignment import exhaustive_assignment
    from repro.core.batch_equilibrium import BatchNewtonSolver
    from repro.core.combined import CombinedModel
    from repro.core.performance_model import PerformanceModel
    from repro.core.solver_cache import EquilibriumCache
    from repro.machine.topology import STANDARD_MACHINES

    names = list(suite.names)
    rng = random.Random(seed + 4)
    slow = [r for r in pstate_ratios() if r != 1.0]
    pairs = [_mix(rng, names, slow) for _ in range(BATCH_SIZE)]
    model = PerformanceModel(ways=WAYS, cache=EquilibriumCache(warm_start=False))
    model.register_all(list(suite.features.values()))
    start = time.perf_counter()
    model.predict_batch([m for m, _ in pairs], [r for _, r in pairs])
    batch_s = time.perf_counter() - start
    results = [value for _, value in model.cache.export_entries()]
    fallbacks = sum(
        r.telemetry is None or r.telemetry.solver != BatchNewtonSolver.name for r in results
    )

    topology = STANDARD_MACHINES[MACHINE](sets=SETS)
    hits = lookups = warm_starts = candidates = 0
    first = len(tracer.spans)
    for _ in range(4):
        processes = rng.sample(names, ASSIGN_PROCESSES)
        perf = PerformanceModel(ways=topology.domains[0].geometry.ways)
        perf.register_all(list(suite.features.values()))
        combined = CombinedModel(
            topology=topology,
            performance_models=[perf],
            power_model=power_model,
            profiles=suite.profiles,
        )
        decision = exhaustive_assignment(combined, processes, objective="power")
        stats = perf.cache_stats
        hits += stats.hits
        lookups += stats.lookups
        warm_starts += stats.warm_starts
        candidates += decision.candidates_evaluated
    estimates = [s.duration for s in tracer.spans[first:] if s.name == "core.combined.estimate"]
    return {
        "core.batch_equilibrium.us_per_mix": batch_s / len(pairs) * 1e6,
        "core.batch_equilibrium.fallback_share": fallbacks / len(results),
        "core.solver_cache.hit_ratio": hits / lookups,
        "core.solver_cache.warm_starts": warm_starts,
        "core.combined.estimate_us": mean(estimates) * 1e6,
        "core.assignment.candidates": candidates,
    }
