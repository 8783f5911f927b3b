"""Closed-loop trace-driven multicore machine simulation.

This is the "real machine" of the reproduction.  Processes generate L2
access streams from their intrinsic reuse-distance profiles; the
streams interleave in the shared per-domain caches; each process's
pace depends on its *emergent* miss rate (a miss stalls it for the
miss penalty), which in turn shifts the interleaving ratio — exactly
the feedback loop whose fixed point the paper's equilibrium model
(Section 3.3) predicts analytically.

The simulator also emulates the measurement infrastructure: per-core
HPC counters sampled on a fixed period and, optionally, the power
chain (hidden reference model + noisy meter).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cache.prefetch import NextLinePrefetcher, Prefetcher, StridePrefetcher
from repro.cache.replacement import LruPolicy, make_policy
from repro.cache.set_associative import SetAssociativeCache
from repro.cache.shared import ContentionMonitor
from repro.config import SimulationScale, BENCH_SCALE
from repro.errors import ConfigurationError, SimulationError
from repro.machine.hpc import (
    CounterBank,
    HpcSample,
    HpcSampler,
    IDX_BRANCHES,
    IDX_CYCLES,
    IDX_FP_OPS,
    IDX_INSTRUCTIONS,
    IDX_L1_REFS,
    IDX_L2_MISSES,
    IDX_L2_REFS,
)
from repro.machine.process import Process
from repro.machine.scheduler import CoreSchedule
from repro.machine.topology import MachineTopology
from repro.obs import get_observer
from repro.power.meter import PowerMeter
from repro.power.reference import ReferencePowerModel, reference_for
from repro.power.sampling import PowerTrace
from repro.seeding import (
    STREAM_METER,
    STREAM_POLICY,
    STREAM_PROCESS,
    STREAM_SCHEDULER,
    stream_seed,
)
from repro.workloads.spec import SyntheticBenchmark

# The fused loop unpacks a CounterBank's values in this order.
if (IDX_INSTRUCTIONS, IDX_CYCLES, IDX_L1_REFS, IDX_L2_REFS, IDX_L2_MISSES,
        IDX_BRANCHES, IDX_FP_OPS) != tuple(range(7)):  # pragma: no cover
    raise ImportError("CounterBank layout changed; update MachineSimulation._run_lru")

#: Per-access observer signature: ``hook(time_s, pid, hit)``.
AccessHook = Callable[[float, int, bool], None]


@dataclass(frozen=True)
class PowerEnvironment:
    """The physical power plant of one machine: truth + instrument."""

    reference: ReferencePowerModel
    meter: PowerMeter

    @classmethod
    def for_topology(cls, topology: MachineTopology, seed: int = 0) -> "PowerEnvironment":
        """Standard environment for a machine (deterministic in seed)."""
        reference = reference_for(
            topology.nominal_power_watts, topology.num_cores, topology.frequency_hz
        )
        # The meter draws from its own SeedSequence stream so its noise
        # is independent of the simulator streams sharing the master
        # seed (see repro.seeding).
        return cls(
            reference=reference,
            meter=PowerMeter(seed=stream_seed(seed, STREAM_METER)),
        )


@dataclass(frozen=True)
class ProcessResult:
    """Steady-state measurements of one process over the window."""

    pid: int
    name: str
    core: int
    instructions: float
    l2_refs: int
    l2_misses: int
    time_running: float
    mpa: float
    spi: float
    occupancy_ways: float

    @property
    def aps(self) -> float:
        """L2 accesses per second while scheduled."""
        if self.time_running <= 0:
            return 0.0
        return self.l2_refs / self.time_running


@dataclass
class SimulationResult:
    """Everything one simulated run produced."""

    topology_name: str
    measure_start_s: float
    measure_end_s: float
    processes: List[ProcessResult]
    hpc_by_core: Dict[int, List[HpcSample]] = field(default_factory=dict)
    power: Optional[PowerTrace] = None
    context_switches: int = 0

    @property
    def duration_s(self) -> float:
        return self.measure_end_s - self.measure_start_s

    def process_by_pid(self, pid: int) -> ProcessResult:
        for result in self.processes:
            if result.pid == pid:
                return result
        raise KeyError(f"no process with pid {pid}")


def _sync_lru_stats(synced: Dict[int, list]) -> None:
    """Bring per-owner cache statistics up to date on the fused path.

    On the fused path every access adds one to the owner's cache
    ``accesses`` and to its process's ``l2_refs``, and every miss one to
    ``misses``, ``fills`` and ``l2_misses``; the rest are hits.  So the
    loop counts only the process side, and this applies the difference
    since the last call to each record ``[counters, record, refs,
    misses]``.  It must run before anything reads the statistics.
    """
    for entry in synced.values():
        counters, record, refs, misses = entry
        new_refs = counters.l2_refs - refs
        new_misses = counters.l2_misses - misses
        record.accesses += new_refs
        record.hits += new_refs - new_misses
        record.misses += new_misses
        record.fills += new_misses
        entry[2] = counters.l2_refs
        entry[3] = counters.l2_misses


_PREFETCHERS = {
    "nextline": NextLinePrefetcher,
    "stride": StridePrefetcher,
}


class MachineSimulation:
    """One assignment of workloads to cores, ready to run.

    Args:
        topology: The machine.
        assignment: ``core id -> workloads on that core`` (several
            workloads on one core time-share it round-robin).  Cores
            absent from the mapping stay idle.
        scale: Fidelity/runtime knobs.
        seed: Master seed (traces, scheduler jitter).
        power_env: Attach the power plant to collect power traces in
            duration mode.
        policy: Replacement-policy name for the shared caches
            (default LRU, the paper's assumption).
        prefetch: Optional prefetcher name (``nextline``/``stride``)
            for the prefetching ablation.
        prefetch_cost_fraction: Extra stall, as a fraction of the miss
            penalty, charged per issued prefetch — the constrained
            memory bandwidth the paper argues limits prefetching.
    """

    def __init__(
        self,
        topology: MachineTopology,
        assignment: Mapping[int, Sequence[SyntheticBenchmark]],
        scale: SimulationScale = BENCH_SCALE,
        seed: int = 0,
        power_env: Optional[PowerEnvironment] = None,
        policy: str = "lru",
        prefetch: Optional[str] = None,
        prefetch_cost_fraction: float = 0.35,
        access_hook: Optional["AccessHook"] = None,
    ):
        self.topology = topology
        self.scale = scale
        self.power_env = power_env
        for core in assignment:
            if not 0 <= core < topology.num_cores:
                raise ConfigurationError(
                    f"core {core} out of range for {topology.name}"
                )
        if prefetch_cost_fraction < 0:
            raise ConfigurationError("prefetch_cost_fraction must be non-negative")
        self._prefetch_cost_fraction = prefetch_cost_fraction
        #: Optional per-access observer ``hook(time_s, pid, hit)`` for
        #: instrumentation experiments (e.g. context-switch refill).
        self.access_hook = access_hook

        self.caches: List[SetAssociativeCache] = []
        self.monitors: List[ContentionMonitor] = []
        self.prefetchers: Optional[List[Prefetcher]] = None
        if prefetch is not None:
            if prefetch not in _PREFETCHERS:
                raise ConfigurationError(
                    f"unknown prefetcher {prefetch!r}; choose from {sorted(_PREFETCHERS)}"
                )
            self.prefetchers = []
        for idx, domain in enumerate(topology.domains):
            cache = SetAssociativeCache(
                domain.geometry,
                make_policy(policy, stream_seed(seed, STREAM_POLICY, idx)),
            )
            self.caches.append(cache)
            self.monitors.append(ContentionMonitor(cache))
            if self.prefetchers is not None:
                self.prefetchers.append(_PREFETCHERS[prefetch]())

        self._domain_of_core: Dict[int, int] = {}
        for idx, domain in enumerate(topology.domains):
            for core in domain.core_ids:
                self._domain_of_core[core] = idx

        self.processes: List[Process] = []
        per_core: Dict[int, List[Process]] = {c: [] for c in range(topology.num_cores)}
        pid = 0
        for core in sorted(assignment):
            for workload in assignment[core]:
                sets = topology.domain_of(core).geometry.sets
                process = Process(
                    pid=pid,
                    workload=workload,
                    core=core,
                    frequency_hz=topology.core_frequency(core),
                    seed=stream_seed(seed, STREAM_PROCESS, pid),
                    sets=sets,
                )
                self.processes.append(process)
                per_core[core].append(process)
                pid += 1

        self.schedules: Dict[int, CoreSchedule] = {
            core: CoreSchedule(
                core,
                per_core[core],
                timeslice_s=scale.timeslice_s,
                seed=stream_seed(seed, STREAM_SCHEDULER, core),
            )
            for core in range(topology.num_cores)
        }
        self.banks: List[CounterBank] = [CounterBank() for _ in range(topology.num_cores)]

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run_accesses(
        self,
        warmup_accesses: Optional[int] = None,
        measure_accesses: Optional[int] = None,
    ) -> SimulationResult:
        """Run until every process retires a per-process access budget.

        Used by the performance experiments, which care about converged
        per-process statistics rather than wall-clock alignment.
        """
        warmup = warmup_accesses if warmup_accesses is not None else self.scale.warmup_accesses
        measure = (
            measure_accesses if measure_accesses is not None else self.scale.measure_accesses
        )
        if not self.processes:
            raise SimulationError("access-budget mode needs at least one process")
        observer = get_observer()
        if not observer.enabled:
            return self._run(
                duration_mode=False, warmup_budget=warmup, measure_budget=measure
            )
        with observer.span(
            "simulate",
            mode="accesses",
            topology=self.topology.name,
            processes=len(self.processes),
        ) as span:
            result = self._run(
                duration_mode=False, warmup_budget=warmup, measure_budget=measure
            )
            self._record_run_obs(observer, span, result)
            return result

    def run_duration(
        self,
        warmup_s: Optional[float] = None,
        measure_s: Optional[float] = None,
        collect_power: bool = True,
    ) -> SimulationResult:
        """Run for fixed simulated time with HPC (and power) sampling.

        Used by the power experiments; also works with an empty
        assignment to measure idle power.
        """
        warmup = warmup_s if warmup_s is not None else self.scale.warmup_s
        measure = measure_s if measure_s is not None else self.scale.measure_s
        if collect_power and self.power_env is None:
            raise ConfigurationError("collect_power requires a power_env")
        observer = get_observer()
        if not observer.enabled:
            return self._run(
                duration_mode=True,
                warmup_s=warmup,
                measure_s=measure,
                collect_power=collect_power,
            )
        with observer.span(
            "simulate",
            mode="duration",
            topology=self.topology.name,
            processes=len(self.processes),
        ) as span:
            result = self._run(
                duration_mode=True,
                warmup_s=warmup,
                measure_s=measure,
                collect_power=collect_power,
            )
            self._record_run_obs(observer, span, result)
            return result

    def _record_run_obs(self, observer, span, result: SimulationResult) -> None:
        """Roll end-of-run totals into the active observer (enabled only)."""
        accesses = sum(bank.values[IDX_L2_REFS] for bank in self.banks)
        instructions = sum(bank.values[IDX_INSTRUCTIONS] for bank in self.banks)
        span.annotate(
            duration_s=result.duration_s,
            context_switches=result.context_switches,
        )
        observer.counter("sim.accesses").inc(accesses)
        observer.counter("sim.instructions").inc(instructions)
        observer.counter("sim.context_switches").inc(result.context_switches)
        if result.power is not None:
            observer.counter("sim.power_windows").inc(len(result.power.true_watts))

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------
    def _begin_measurement(self) -> None:
        for process in self.processes:
            process.mark_measurement_start()
        for monitor in self.monitors:
            monitor.start_measurement()

    def _drain_power(
        self,
        sampler: HpcSampler,
        trace: PowerTrace,
        now: float,
    ) -> None:
        assert self.power_env is not None
        for window in sampler.advance(now):
            per_core_rates = [sample.rates for sample in window]
            true_w = self.power_env.reference.processor_power(per_core_rates)
            measured_w = self.power_env.meter.measure_window(true_w, sampler.period_s)
            trace.append(true_w, measured_w)
            # Only consulted when a window actually closes, so the
            # per-access loop pays nothing extra here.
            observer = get_observer()
            if observer.enabled:
                observer.counter("sim.hpc.windows").inc()
                observer.histogram("sim.hpc.window_true_watts").observe(true_w)

    def _open_window(
        self, start_s: float, collect_power: bool
    ) -> Tuple[Optional[HpcSampler], Optional[PowerTrace]]:
        """Start measuring; in duration mode with power, start sampling."""
        self._begin_measurement()
        if not collect_power:
            return None, None
        sampler = HpcSampler(self.banks, self.scale.hpc_period_s, start_s=start_s)
        trace = PowerTrace(window_s=self.scale.hpc_period_s, start_s=start_s)
        return sampler, trace

    def _finish(
        self,
        duration_mode: bool,
        measuring: bool,
        t_measure_start: float,
        t_now: float,
        warmup_s: float,
        t_end: float,
        collect_power: bool,
        sampler: Optional[HpcSampler],
        trace: Optional[PowerTrace],
    ) -> SimulationResult:
        """Close the measurement window after the event loop stops."""
        if duration_mode:
            if not measuring:
                # No process ever ran (idle machine): open the window now.
                t_measure_start = warmup_s
                sampler, trace = self._open_window(warmup_s, collect_power)
            if sampler is not None and trace is not None:
                self._drain_power(sampler, trace, t_end)
            t_measure_end = t_end
        else:
            if not measuring:
                raise SimulationError(
                    "run ended before the warm-up budget was met; "
                    "increase the access budget"
                )
            t_measure_end = t_now
        return self._assemble(t_measure_start, t_measure_end, sampler, trace)

    def _lru_fast_path(self) -> bool:
        """True when :meth:`_run_lru` reproduces :meth:`_run_reference`.

        That holds for exact-LRU shared caches with no prefetcher and
        no access hook: the configuration of every paper experiment.
        """
        return (
            self.prefetchers is None
            and self.access_hook is None
            and all(type(cache.policy) is LruPolicy for cache in self.caches)
        )

    def _run(
        self,
        duration_mode: bool,
        warmup_budget: int = 0,
        measure_budget: int = 0,
        warmup_s: float = 0.0,
        measure_s: float = 0.0,
        collect_power: bool = False,
    ) -> SimulationResult:
        loop = self._run_lru if self._lru_fast_path() else self._run_reference
        return loop(
            duration_mode, warmup_budget, measure_budget, warmup_s, measure_s, collect_power
        )

    def _run_reference(
        self,
        duration_mode: bool,
        warmup_budget: int = 0,
        measure_budget: int = 0,
        warmup_s: float = 0.0,
        measure_s: float = 0.0,
        collect_power: bool = False,
    ) -> SimulationResult:
        """The general event loop: any policy, prefetcher or hook.

        One heap event per access, each going through the monitor,
        cache, policy and process objects.  It is the reference the
        fused LRU loop is tested against.
        """
        heap: List[Tuple[float, int, int]] = []
        seq = 0
        for core, sched in self.schedules.items():
            if not sched.idle:
                heapq.heappush(heap, (seq * 1e-9, seq, core))
                seq += 1

        measuring = False
        t_measure_start = 0.0
        t_end = warmup_s + measure_s if duration_mode else float("inf")
        sampler: Optional[HpcSampler] = None
        trace: Optional[PowerTrace] = None
        check_countdown = 128
        t_now = 0.0
        core_frequencies = [
            self.topology.core_frequency(core)
            for core in range(self.topology.num_cores)
        ]
        hook = self.access_hook

        while heap:
            t, s, core = heapq.heappop(heap)
            if duration_mode and t >= t_end:
                break
            t_now = t
            sched = self.schedules[core]
            sched.maybe_switch(t)
            process = sched.current()
            if process is None:  # pragma: no cover - idle cores never enqueue
                continue
            domain_idx = self._domain_of_core[core]
            line = process.generator.next_line()
            hit = self.monitors[domain_idx].access(line, process.pid)
            dt = process.execute_access(hit)
            if self.prefetchers is not None:
                issued = self.prefetchers[domain_idx].on_access(
                    self.caches[domain_idx], process.pid, line, hit
                )
                if issued:
                    extra = issued * self._prefetch_cost_fraction * process.miss_stall_seconds
                    process.charge_stall(extra)
                    dt += extra
            values = self.banks[core].values
            values[IDX_INSTRUCTIONS] += process.inv_api
            values[IDX_L1_REFS] += process.l1_incr
            values[IDX_BRANCHES] += process.br_incr
            values[IDX_FP_OPS] += process.fp_incr
            values[IDX_L2_REFS] += 1.0
            if not hit:
                values[IDX_L2_MISSES] += 1.0
            values[IDX_CYCLES] += dt * core_frequencies[core]
            if hook is not None:
                hook(t, process.pid, hit)
            t_next = t + dt

            if not measuring:
                if duration_mode:
                    if t_next >= warmup_s:
                        measuring = True
                        t_measure_start = warmup_s
                        sampler, trace = self._open_window(warmup_s, collect_power)
                else:
                    check_countdown -= 1
                    if check_countdown <= 0:
                        check_countdown = 128
                        if all(
                            p.counters.l2_refs >= warmup_budget for p in self.processes
                        ):
                            measuring = True
                            t_measure_start = t_next
                            self._begin_measurement()
            else:
                if duration_mode:
                    if sampler is not None and trace is not None:
                        self._drain_power(sampler, trace, min(t_next, t_end))
                else:
                    check_countdown -= 1
                    if check_countdown <= 0:
                        check_countdown = 128
                        if all(
                            p.measured().l2_refs >= measure_budget for p in self.processes
                        ):
                            t_now = t_next
                            break

            heapq.heappush(heap, (t_next, seq, core))
            seq += 1

        return self._finish(
            duration_mode, measuring, t_measure_start, t_now, warmup_s, t_end,
            collect_power, sampler, trace,
        )

    def _bind_lru(self, process: Process, synced: Dict[int, list]) -> tuple:
        """What :meth:`_run_lru` binds to locals while ``process`` runs.

        Called at the process's first access, so its statistics record
        is created exactly when :meth:`SetAssociativeCache.access` would.
        The record joins ``synced`` (see :func:`_sync_lru_stats`).
        """
        frequency = self.topology.core_frequency(process.core)
        cache = self.caches[self._domain_of_core[process.core]]
        record = cache.stats.owner(process.pid)
        counters = process.counters
        if process.pid not in synced:
            synced[process.pid] = [counters, record, counters.l2_refs, counters.l2_misses]
        hit_dt = process.hit_seconds_per_access
        # The reference loop's ``dt = hit; dt += stall`` and
        # ``dt * frequency``, computed once.
        miss_dt = hit_dt + process.miss_stall_seconds
        return (
            process,
            process.pid,
            process.generator.next_line,
            counters,
            record,
            process.inv_api,
            process.l1_incr,
            process.br_incr,
            process.fp_incr,
            hit_dt,
            miss_dt,
            hit_dt * frequency,
            miss_dt * frequency,
        )

    def _run_lru(
        self,
        duration_mode: bool,
        warmup_budget: int = 0,
        measure_budget: int = 0,
        warmup_s: float = 0.0,
        measure_s: float = 0.0,
        collect_power: bool = False,
    ) -> SimulationResult:
        """The event loop fused for LRU caches without prefetch or hook.

        Bit-identical to :meth:`_run_reference`: every counter receives
        the same additions in the same order, and warm-up/measure
        checks, occupancy samples and power windows fire at the same
        access.  The speed comes from three things:

        - *Inlining.*  Monitor, cache, LRU recency list and process
          accounting run inline over the cache's own per-set
          structures.  Per-core, per-domain and per-process state is
          bound to locals and rebound only when it changes.  The
          core's counter bank lives in locals while the core runs and
          is written back before anything reads it.
        - *Derived cache statistics.*  Per-owner accesses, hits, misses
          and fills follow from the process counters; they are brought
          up to date (:func:`_sync_lru_stats`) before the measurement
          window opens and when the loop ends.
        - *Run-ahead.*  A core keeps running while its next access
          starts strictly before the earliest queued event
          (``heap[0]``): the heap round trip would pop it straight
          back.  At equal times the queued event still wins, as its
          sequence number is older.
        """
        heap: List[Tuple[float, int, int]] = []
        seq = 0
        for core, sched in self.schedules.items():
            if not sched.idle:
                heapq.heappush(heap, (seq * 1e-9, seq, core))
                seq += 1

        measuring = False
        t_measure_start = 0.0
        t_end = warmup_s + measure_s if duration_mode else float("inf")
        sampler: Optional[HpcSampler] = None
        trace: Optional[PowerTrace] = None
        # A power window closes once ``boundary <= now + eps`` (the test
        # in HpcSampler.advance); checking it here skips empty drains.
        boundary, eps = float("inf"), 0.0
        check_countdown = 128
        t_now = 0.0
        processes = self.processes
        heappush = heapq.heappush
        heappop = heapq.heappop

        domains = [
            (cache.geometry.sets - 1, cache.geometry.sets.bit_length() - 1)
            + cache.lru_structures()
            + (cache.stats.by_owner, monitor, monitor.sample_every)
            for cache, monitor in zip(self.caches, self.monitors)
        ]
        cores = [
            (self.schedules[core], self.banks[core].values, self._domain_of_core[core])
            for core in range(self.topology.num_cores)
        ]
        # Per core, the bound state of the process it runs (see
        # _bind_lru); None until that core's first access.
        running: List[Optional[tuple]] = [None] * self.topology.num_cores
        synced: Dict[int, list] = {}
        # The cache domain whose structures are bound to locals.
        bound_domain = -1
        monitor: Optional[ContentionMonitor] = None

        while heap:
            t, _, core = heappop(heap)
            if t >= t_end:
                break
            sched, values, domain_idx = cores[core]
            if domain_idx != bound_domain:
                if monitor is not None:
                    monitor.since_sample = since
                (set_mask, set_shift, lookups, tags, owners, lrus, frees, lines_by_owner,
                 by_owner, monitor, sample_every) = domains[domain_idx]
                since = monitor.since_sample
                bound_domain = domain_idx
            slice_end = sched.slice_end
            state = running[core]
            if t >= slice_end or state is None:
                sched.maybe_switch(t)
                slice_end = sched.slice_end
                process = sched.current()
                if state is None or state[0] is not process:
                    state = running[core] = self._bind_lru(process, synced)
            (process, pid, next_line, counters, stats, inv_api, l1_incr, br_incr, fp_incr,
             hit_dt, miss_dt, hit_cycles, miss_cycles) = state
            # The core runs ahead until its next access would start at
            # or after ``t_stop`` (the queue head or the end of the run),
            # stopping early at ``horizon`` to rotate its slice.
            t_stop = heap[0][0] if heap and heap[0][0] < t_end else t_end
            horizon = t_stop if t_stop < slice_end else slice_end
            (b_instr, b_cycles, b_l1, b_refs, b_misses, b_branches, b_fp) = values

            while True:
                line = next_line()
                set_idx = line & set_mask
                tag = line >> set_shift
                lookup = lookups[set_idx]
                way = lookup.get(tag)
                if way is not None:
                    lru = lrus[set_idx]
                    if lru[0] != way:
                        lru.remove(way)
                        lru.insert(0, way)
                    owners[set_idx][way] = pid
                    dt = hit_dt
                    b_cycles += hit_cycles
                else:
                    free = frees[set_idx]
                    row = owners[set_idx]
                    lru = lrus[set_idx]
                    if free:
                        way = free.pop()
                        lru.remove(way)
                    else:
                        way = lru.pop()
                        old_owner = row[way]
                        del lookup[tags[set_idx][way]]
                        lines_by_owner[old_owner] -= 1
                        by_owner[old_owner].evictions_suffered += 1
                        if old_owner != pid:
                            stats.evictions_inflicted += 1
                    lru.insert(0, way)
                    tags[set_idx][way] = tag
                    row[way] = pid
                    lookup[tag] = way
                    lines_by_owner[pid] = lines_by_owner.get(pid, 0) + 1
                    counters.l2_misses += 1
                    b_misses += 1.0
                    dt = miss_dt
                    b_cycles += miss_cycles
                since += 1
                if since >= sample_every:
                    since = 0
                    monitor.sample_occupancy()
                counters.instructions += inv_api
                counters.l2_refs += 1
                counters.time_running += dt
                b_instr += inv_api
                b_l1 += l1_incr
                b_branches += br_incr
                b_fp += fp_incr
                b_refs += 1.0
                t_next = t + dt

                if duration_mode:
                    if measuring:
                        now = t_end if t_end < t_next else t_next
                        if boundary <= now + eps:
                            values[:] = (b_instr, b_cycles, b_l1, b_refs, b_misses, b_branches, b_fp)
                            self._drain_power(sampler, trace, now)
                            boundary = sampler.next_boundary
                    elif t_next >= warmup_s:
                        measuring = True
                        t_measure_start = warmup_s
                        values[:] = (b_instr, b_cycles, b_l1, b_refs, b_misses, b_branches, b_fp)
                        _sync_lru_stats(synced)
                        sampler, trace = self._open_window(warmup_s, collect_power)
                        since = 0
                        if sampler is not None:
                            boundary = sampler.next_boundary
                            eps = sampler.period_s * 1e-9
                else:
                    check_countdown -= 1
                    if check_countdown <= 0:
                        check_countdown = 128
                        if not measuring:
                            if all(p.counters.l2_refs >= warmup_budget for p in processes):
                                measuring = True
                                t_measure_start = t_next
                                _sync_lru_stats(synced)
                                self._begin_measurement()
                                since = 0
                        elif all(p.measured().l2_refs >= measure_budget for p in processes):
                            t_now = t_next
                            heap.clear()
                            break

                if t_next >= horizon:
                    if t_next >= t_stop:
                        heappush(heap, (t_next, seq, core))
                        seq += 1
                        break
                    # The slice ended: rotate the run queue, keep going.
                    sched.maybe_switch(t_next)
                    slice_end = sched.slice_end
                    horizon = t_stop if t_stop < slice_end else slice_end
                    if sched.current() is not process:
                        state = running[core] = self._bind_lru(sched.current(), synced)
                        (process, pid, next_line, counters, stats, inv_api, l1_incr, br_incr,
                         fp_incr, hit_dt, miss_dt, hit_cycles, miss_cycles) = state
                # Run ahead: this core owns the next event.
                seq += 1
                t = t_next
            values[:] = (b_instr, b_cycles, b_l1, b_refs, b_misses, b_branches, b_fp)
        if monitor is not None:
            monitor.since_sample = since
        _sync_lru_stats(synced)

        return self._finish(
            duration_mode, measuring, t_measure_start, t_now, warmup_s, t_end,
            collect_power, sampler, trace,
        )

    def _assemble(
        self,
        t_start: float,
        t_end: float,
        sampler: Optional[HpcSampler],
        trace: Optional[PowerTrace],
    ) -> SimulationResult:
        process_results = []
        for process in self.processes:
            measured = process.measured()
            domain_idx = self._domain_of_core[process.core]
            process_results.append(
                ProcessResult(
                    pid=process.pid,
                    name=process.name,
                    core=process.core,
                    instructions=measured.instructions,
                    l2_refs=measured.l2_refs,
                    l2_misses=measured.l2_misses,
                    time_running=measured.time_running,
                    mpa=measured.mpa,
                    spi=measured.spi,
                    occupancy_ways=self.monitors[domain_idx].mean_occupancy_ways(
                        process.pid
                    ),
                )
            )
        hpc_by_core: Dict[int, List[HpcSample]] = {}
        if sampler is not None:
            for core in range(self.topology.num_cores):
                hpc_by_core[core] = sampler.samples_for_core(core)
        return SimulationResult(
            topology_name=self.topology.name,
            measure_start_s=t_start,
            measure_end_s=t_end,
            processes=process_results,
            hpc_by_core=hpc_by_core,
            power=trace,
            context_switches=sum(s.context_switches for s in self.schedules.values()),
        )
