"""Benchmark-side spans around calls into the library's layers.

The benchmark does not install a :mod:`repro.obs` observer: an enabled
observer switches ``PerformanceModel.predict_batch`` to its sequential
loop, so it would measure a different program.  Instead the traced run
wraps public entry points of each layer (functions and methods) with a
span recorder from outside, and removes the wrappers afterwards.  The
untraced run installs nothing.

Spans live in memory (name, start, end, parent, request id, thread)
and are written once at the end as Chrome trace-event JSON, which
Perfetto and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import functools
import json
import pathlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request_id: Optional[str] = None
    thread: int = 0
    index: int = 0
    #: Values the wrapper read off the call's result (counts, solvers).
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None, **args):
        stack = self._stack()
        record = Span(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else None,
            request_id=request_id,
            thread=threading.get_ident(),
            args=dict(args),
        )
        with self._lock:
            record.index = len(self.spans)
            self.spans.append(record)
        stack.append(record.index)
        try:
            yield record
        finally:
            stack.pop()
            record.end = time.perf_counter()

    # ------------------------------------------------------------------
    # Wrapping layer entry points
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        annotate: Optional[Callable[[Any, tuple, Any], Dict[str, Any]]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``annotate(args, kwargs, result)`` may return values to keep on
        the span (for counts only the call's result knows).
        """
        # A class's own ``__dict__`` entry is the plain function, not a
        # bound or inherited attribute.
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
                if annotate is not None:
                    record.args.update(annotate(args, kwargs, result))
                return result

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Derived numbers
    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def _own_times(self) -> List[float]:
        """Each span's duration minus the time its children cover.

        Children run on their parent's thread and inside its interval,
        one after another, so summing their durations is their cover.
        """
        own = [record.duration for record in self.spans]
        for record in self.spans:
            if record.parent is not None:
                own[record.parent] -= record.duration
        return own

    def self_times(self) -> Dict[str, float]:
        """Self seconds summed per span name."""
        totals: Dict[str, float] = {}
        for record, own in zip(self.spans, self._own_times()):
            totals[record.name] = totals.get(record.name, 0.0) + own
        return totals

    def mean_self(self, name: str) -> float:
        """Mean self time of the spans called ``name`` (0 when none ran)."""
        own = [t for r, t in zip(self.spans, self._own_times()) if r.name == name]
        return sum(own) / len(own) if own else 0.0

    def layer_self_times(self) -> Dict[str, float]:
        """Self time summed per layer (the span name up to its first dot)."""
        totals: Dict[str, float] = {}
        for name, seconds in self.self_times().items():
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def write_chrome(self, path: pathlib.Path, origin: float) -> None:
        """Chrome trace-event JSON (complete events, microseconds)."""
        threads: Dict[int, int] = {}
        events = []
        for record in self.spans:
            tid = threads.setdefault(record.thread, len(threads) + 1)
            args = {"span": record.index, "parent": record.parent}
            if record.request_id is not None:
                args["request_id"] = record.request_id
            args.update({k: v for k, v in record.args.items() if isinstance(v, (int, float, str))})
            events.append(
                {
                    "name": record.name,
                    "cat": record.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (record.start - origin) * 1e6,
                    "dur": record.duration * 1e6,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class NullTracer:
    """Stand-in for the untraced run: spans cost one call and record nothing."""

    @contextmanager
    def span(self, name: str, request_id: Optional[str] = None, **args):
        yield None


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's entry points the workloads reach.

    Module functions are patched in the namespace their callers look
    them up in (``performance_model`` imports ``solve_equilibrium`` by
    name, ``profile_suite`` calls ``profile_process`` as a global).
    """
    import repro.api as api
    import repro.core.performance_model as performance_model
    import repro.fleet as fleet
    import repro.io as io
    import repro.parallel as parallel
    import repro.profiling.profiler as profiler
    from repro.core.combined import CombinedModel
    from repro.core.feature import FeatureVector
    from repro.fleet.evaluator import FleetEvaluator
    from repro.hetero.model import HeteroPricer
    from repro.machine.hpc import IDX_L2_REFS
    from repro.machine.simulator import MachineSimulation

    def accesses(args, kwargs, result):
        return {"accesses": sum(bank.values[IDX_L2_REFS] for bank in args[0].banks)}

    def sweep(args, kwargs, result):
        return {"sweep_points": len(result.sweep)}

    def telemetry(args, kwargs, result):
        record = result.telemetry
        if record is None:
            return {"iterations": 0, "fallback": 0}
        return {
            "iterations": record.iterations,
            "fallback": int(record.fallback_reason is not None),
        }

    def primed(args, kwargs, result):
        return {"mixes": result}

    tracer.wrap(MachineSimulation, "run_accesses", "machine.run_accesses", accesses)
    tracer.wrap(MachineSimulation, "run_duration", "machine.run_duration", accesses)
    tracer.wrap(profiler, "profile_process", "profiling.process", sweep)
    tracer.wrap(api, "profile_suite", "api.profile_suite")
    tracer.wrap(api, "train_power", "power.train")
    tracer.wrap(api, "predict_mix", "api.predict_mix")
    tracer.wrap(api, "predict_mixes", "api.predict_mixes")
    tracer.wrap(api, "pick_assignment", "api.pick_assignment")
    tracer.wrap(api, "solve_assignment", "api.solve_assignment")
    tracer.wrap(parallel, "predict_mixes", "parallel.predict_mixes")
    tracer.wrap(FeatureVector, "occupancy_model", "core.occupancy.build")
    tracer.wrap(performance_model, "solve_equilibrium", "core.equilibrium.solve", telemetry)
    tracer.wrap(CombinedModel, "estimate_assignment_power", "core.combined.estimate")
    tracer.wrap(api, "exhaustive_assignment", "core.assignment.search")
    tracer.wrap(fleet, "solve", "fleet.solve")
    tracer.wrap(FleetEvaluator, "prime", "fleet.prime", primed)
    tracer.wrap(HeteroPricer, "state_metrics", "hetero.state_metrics")
    tracer.wrap(io, "profile_suite_result_from_dict", "io.suite_decode")
