"""Small helpers shared by the stages: statistics, inputs, provenance."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Associativity of the 4-core server's shared L2 (every query uses it).
WAYS = 16
MACHINE = "4-core-server"
SETS = 128


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else math.nan


@dataclass
class Outcome:
    """What one stage measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Workload parameters and measured input-property shares.
    properties: Dict[str, object] = field(default_factory=dict)

    def merge(self, other: "Outcome") -> None:
        self.metrics.update(other.metrics)
        self.layers.update(other.layers)
        self.checks.update(other.checks)
        self.attempted += other.attempted
        self.failed += other.failed
        self.properties.update(other.properties)


def array_work() -> float:
    """The host-speed reference: small-array numpy calls in the shape of
    the occupancy recursion (a loop of 17-element array ops).

    On a shared 2-vCPU container host the CPU switched between a fast and
    a slow state, in phases from a tenth of a second to over a minute,
    whatever the benchmark did.  Every timed operation of the library
    (queries, builds, simulations, solves) took 1.6-1.8 times as long in
    the slow state; this loop took 1.5-1.9 times as long, an interpreter
    bytecode loop only 1.3-1.4 times.  Timings divided by this loop's
    time in the same moments therefore compare across states.  It uses
    nothing of the library, so no change to the library moves it.
    """
    import numpy as np

    total = 0.0
    p = np.zeros(17)
    p[1] = 1.0
    q = np.empty_like(p)
    stay = np.linspace(0.1, 0.9, 17)
    sizes = np.arange(17.0)
    for _ in range(300):
        np.multiply(p, stay, out=q)
        q[1:] += p[:-1] * 0.5
        p, q = q, p
        total += float(sizes @ p)
    return total


#: A round figure near the CPU time of :func:`array_work` on the reference
#: host (2-vCPU container, Python 3.11, numpy 2.4: 0.8-0.85 ms in its fast
#: state); it sets the scale of the scaled timings, not their spread.
ARRAY_REFERENCE_MS = 1.0


def reference_pass() -> float:
    """CPU seconds of one :func:`array_work` on the calling thread.

    CPU time rather than wall time: the host's slow state stretches
    both alike, but CPU time leaves out the time the thread waits while
    another thread or process runs (a :class:`Sampler` pass shares the
    CPU with the operation it times).
    """
    start = time.thread_time()
    array_work()
    return time.thread_time() - start


class Paired:
    """Timings of one kind of short operation, each followed at once by
    a pass of :func:`array_work`, so both see the same host state.

    Over a run the host spends a share of its time in the slow state,
    and that share changes from run to run.  A plain median jumps from
    one state to the other as the share passes one half, so
    :meth:`typical` takes the median of each time over its own
    reference pass.  A p95 lands in the slow state as soon as the share
    passes 5 %, and a p95 divided by the run's median host speed spread
    by a third of its value over runs of the same code, so
    :meth:`tail` divides the p95 of the times by the p95 of the passes.
    """

    def __init__(self) -> None:
        self.times: List[float] = []
        self.reference: List[float] = []

    def add(self, seconds: float) -> None:
        self.times.append(seconds)
        self.reference.append(reference_pass())

    def typical(self) -> float:
        """Median time, in seconds at the reference speed."""
        ratios = [t / r for t, r in zip(self.times, self.reference)]
        return median(ratios) * ARRAY_REFERENCE_MS * 1e-3

    def tail(self, q: float) -> float:
        """The ``q``-th percentile, in seconds at the reference speed."""
        ratio = percentile(self.times, q) / percentile(self.reference, q)
        return ratio * ARRAY_REFERENCE_MS * 1e-3


def trimmed_mean(values: Sequence[float], share: float = 0.1) -> float:
    """Mean without the ``share`` lowest and highest values."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return mean(ordered[cut:len(ordered) - cut])


class Sampler:
    """:func:`array_work` timed every ``period`` seconds on a helper thread
    while a long operation runs (a context manager).

    The passes count CPU time (see :func:`reference_pass`), so the time
    they wait for the operation's thread, or for a server process, is
    not theirs; timed by wall clock they read about twice as long, and
    as noisy.  A long operation's time grows linearly with the share of
    it the host spent in the slow state, and so does the mean of evenly
    spaced passes, which :meth:`factor` takes (trimmed of stray stalls).
    """

    def __init__(self, period: float = 0.025) -> None:
        self.period = period
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.samples.append(reference_pass())
            if self._stop.wait(self.period):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(reference_pass())

    def factor(self) -> float:
        """How many times slower than the reference the host ran."""
        return trimmed_mean(self.samples) * 1e3 / ARRAY_REFERENCE_MS


def timed(function, *args, **kwargs):
    """``(result, seconds at the reference speed)`` of one long call."""
    with Sampler() as sampler:
        start = time.perf_counter()
        result = function(*args, **kwargs)
        elapsed = time.perf_counter() - start
    return result, elapsed / sampler.factor()


def oracle_suite():
    """The 10-benchmark suite of ground-truth features the queries use.

    Profile vectors and the power model follow the fleet bench's
    construction: the query layers only need plausible, fixed inputs.
    """
    from repro.api import ProfileSuiteResult
    from repro.core.feature import FeatureVector, ProfileVector
    from repro.machine.topology import STANDARD_MACHINES
    from repro.workloads.spec import BENCHMARKS, PAPER_TEN

    frequency = STANDARD_MACHINES[MACHINE](sets=SETS).frequency_hz
    names = sorted(PAPER_TEN)
    return ProfileSuiteResult(
        machine=MACHINE,
        features={
            name: FeatureVector.oracle(BENCHMARKS[name], frequency) for name in names
        },
        profiles={
            name: ProfileVector(
                name=name,
                p_alone=20.0 + 2.0 * i,
                l1rpi=0.4,
                l2rpi=0.05,
                brpi=0.2,
                fppi=0.01 * i,
            )
            for i, name in enumerate(names)
        },
    )


def seeded_power_model(seed: int):
    """Eq. 9 model fitted on seeded per-core event rates."""
    import numpy as np

    from repro.core.power_model import CorePowerModel, PowerTrainingSet
    from repro.events import RATE_EVENTS, Event

    rng = np.random.default_rng(seed)
    training = PowerTrainingSet()
    for _ in range(40):
        rates = {event: rng.uniform(0, 1e8) for event in RATE_EVENTS}
        power = 11.0 + 8e-8 * rates[Event.L1_REFS] + 2e-7 * rates[Event.L2_MISSES]
        training.add(rates, power)
    return CorePowerModel().fit(training, idle_core_watts=11.0)


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, object]:
    """Host facts and run parameters recorded with every result."""
    import numpy

    try:
        # The ceiling keeps git from reading repositories above the
        # checkout the benchmark runs in.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd())),
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
        "argv": sys.argv,
    }


def distribution(values: List[int]) -> Dict[str, float]:
    """Share of each value, keyed by its text (for JSON)."""
    total = len(values)
    counts: Dict[str, float] = {}
    for value in values:
        counts[str(value)] = counts.get(str(value), 0) + 1
    return {key: count / total for key, count in sorted(counts.items())}
