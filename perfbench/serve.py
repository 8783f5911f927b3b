"""Serve stage: the model queried over HTTP by an open-loop client.

A ``python -m repro serve`` subprocess runs with its defaults (one HTTP
worker, solves in-process) and is warmed during set-up.  Load is
open-loop ``/v1/predict`` arrivals on two keep-alive connections, so a
stall delays the requests due behind it and every latency is timed
from the request's due time:

- a low Poisson rate, where requests arrive alone (the idle linger);
- a fixed higher Poisson rate, where queueing starts to show;
- a ladder of evenly spaced rates, doubling and then bisecting, to the
  highest rate with p95 <= 20 ms and no growing backlog.

Mixes carry per-process DVFS ratios drawn from the P-state catalog, so
the canonical key space (~136k mixes) dwarfs the 4096-entry result
cache while a small hot set repeats.  During the low-rate phase a
publisher re-posts the suite to ``/v1/models`` at a fixed period with
one profile field changed: each post is a hot swap under a new digest,
which invalidates the cache and forces a burst of misses.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import math
import os
import pathlib
import random
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from common import WAYS, Outcome, mean, median, percentile

CONNECTIONS = 2
LOW_RATE = 100.0
HIGH_RATE = 400.0
LADDER_START = 800.0
LADDER_STEP_S = 0.5
#: Enough steps to double past the knee and bisect it to about 10 %.
LADDER_STEPS = 8
#: Service-level limit the ladder holds the p95 to.  An unloaded miss
#: (2 ms linger plus the solve) takes 4-5 ms here and up to 9 ms in the
#: host's slow phases, so a 10 ms limit judged host speed rather than
#: saturation; past saturation the p95 jumps to tens of milliseconds.
LATENCY_LIMIT_MS = 20.0
#: Each publish stalls the event loop for a few tens of milliseconds
#: (a handful of low-rate requests).  At this period that is about 2 % of
#: requests, so the p95 stays a miss latency unless publishing gets dearer.
PUBLISH_PERIOD_S = 3.0
HOT_MIXES = 16
HOT_SHARE = 0.85
#: Share of processes priced at the nominal (unit) P-state.
UNIT_SHARE = 0.5
BOOT_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
@dataclass
class Server:
    process: subprocess.Popen
    host: str
    port: int

    def stop(self) -> None:
        """SIGTERM (drain), then wait; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def boot(root: pathlib.Path, suite_path: pathlib.Path, log_path: pathlib.Path) -> Server:
    """Start ``repro serve`` on an ephemeral port; wait for its address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    with open(log_path, "ab") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--suite", str(suite_path), "--port", "0"],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    line = ""
    while not line.startswith("listening on"):
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([process.stdout], [], [], max(remaining, 0))
        if not ready or process.poll() is not None:
            process.kill()
            process.wait()
            process.stdout.close()
            raise RuntimeError(f"repro serve did not start; see {log_path}")
        line = process.stdout.readline().strip()
    host, port = line.rsplit("/", 1)[1].rsplit(":", 1)
    return Server(process=process, host=host, port=int(port))


def call(
    connection: http.client.HTTPConnection, method: str, path: str, body: Optional[bytes] = None
):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    connection.request(method, path, body=body, headers=headers)
    response = connection.getresponse()
    return response.status, response.read()


def metrics_snapshot(server: Server) -> dict:
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        status, data = call(connection, "GET", "/metrics")
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(data)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def predict_body(names: Sequence[str], ratios: Sequence[float]) -> bytes:
    document = {"names": list(names), "ways": WAYS, "frequency_ratios": list(ratios)}
    return json.dumps(document).encode()


def suite_variant(document: dict, version: int) -> dict:
    """The suite with one profile's P_alone nudged: a new digest, same features."""
    variant = json.loads(json.dumps(document))
    first = sorted(variant["profiles"])[0]
    variant["profiles"][first]["p_alone"] += 1e-3 * version
    return variant


class MixSource:
    """Seeded mixes: a small hot set that repeats plus fresh draws."""

    def __init__(self, rng: random.Random, names: Sequence[str], ratios: Sequence[float]):
        self.rng = rng
        self.names = list(names)
        self.slow = [r for r in ratios if r != 1.0]
        self.hot = [self._fresh() for _ in range(HOT_MIXES)]
        self.seen: set = set()
        self.requests = 0
        self.repeats = 0
        self.scaled = 0

    def _fresh(self) -> List[Tuple[str, float]]:
        return [
            (
                self.rng.choice(self.names),
                1.0 if self.rng.random() < UNIT_SHARE else self.rng.choice(self.slow),
            )
            for _ in range(self.rng.choice((2, 3, 4)))
        ]

    def next(self) -> Tuple[List[str], List[float]]:
        if self.rng.random() < HOT_SHARE:
            mix = list(self.rng.choice(self.hot))
            self.rng.shuffle(mix)
        else:
            mix = self._fresh()
        key = tuple(sorted(mix))
        self.requests += 1
        self.repeats += key in self.seen
        self.scaled += any(ratio != 1.0 for _, ratio in mix)
        self.seen.add(key)
        return [n for n, _ in mix], [r for _, r in mix]

    @staticmethod
    def key_space(names: int, ratios: int) -> int:
        """Canonical keys: multisets of 2-4 (name, ratio) pairs."""
        items = names * ratios
        return sum(math.comb(items + k - 1, k) for k in (2, 3, 4))


@dataclass
class Item:
    due: float
    kind: str  # "predict" or "publish"
    body: bytes
    names: Tuple[str, ...] = ()
    ratios: Tuple[float, ...] = ()


@dataclass
class Record:
    item: Item
    sent: float
    done: float
    status: int
    data: bytes



class Row(NamedTuple):
    """What a finished slice keeps of one request (see ``ServeLoad``)."""

    kind: str
    due: float
    sent: float
    done: float
    status: int
    #: Model version that served a predict, or that a publish created.
    version: int

    @property
    def latency(self) -> float:
        """From due time, so a stalled request's wait counts."""
        return self.done - self.due


def schedule(
    source: MixSource,
    rng: random.Random,
    rate: float,
    seconds: float,
    poisson: bool,
    publish: Optional[Tuple[float, float, Callable[[], bytes]]] = None,
) -> List[Item]:
    """Predict arrivals over ``seconds`` (Poisson or evenly spaced).

    ``publish = (offset, period, body)`` interleaves publishes at phase
    times ``period * (k + 1/2)``, where this slice starts at phase time
    ``offset``, so the publisher keeps its period across the slices of
    one phase.
    """
    items: List[Item] = []
    due = 0.0
    if publish is not None:
        offset, period, body = publish
        k = math.ceil(offset / period - 0.5 - 1e-9)
        next_publish = period * (k + 0.5) - offset
    else:
        next_publish = math.inf
    while True:
        due += rng.expovariate(rate) if poisson else 1.0 / rate
        if due >= seconds:
            break
        while due >= next_publish:
            items.append(Item(due=next_publish, kind="publish", body=body()))
            next_publish += period
        names, ratios = source.next()
        items.append(
            Item(
                due=due,
                kind="predict",
                body=predict_body(names, ratios),
                names=tuple(names),
                ratios=tuple(ratios),
            )
        )
    return items


def drive(server: Server, items: List[Item], tracer) -> List[Record]:
    """Send ``items`` open-loop on ``CONNECTIONS`` keep-alive connections."""
    records: List[Optional[Record]] = [None] * len(items)
    cursor = itertools.count()
    start = time.perf_counter() + 0.05

    def connect() -> http.client.HTTPConnection:
        return http.client.HTTPConnection(server.host, server.port, timeout=30)

    def worker() -> None:
        connection = connect()
        try:
            while True:
                index = next(cursor)
                if index >= len(items):
                    return
                item = items[index]
                delay = start + item.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                path = "/v1/models" if item.kind == "publish" else "/v1/predict"
                with tracer.span(f"serve.{item.kind}", request_id=f"req-{index}"):
                    sent = time.perf_counter()
                    try:
                        status, data = call(connection, "POST", path, item.body)
                    except (OSError, http.client.HTTPException):
                        connection.close()
                        connection = connect()
                        status, data = 0, b""
                    done = time.perf_counter()
                records[index] = Record(item, sent - start, done - start, status, data)
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for record in records if record is not None]


def _summed(pairs, kind: str, name: str, field: str = "") -> float:
    """A counter or histogram field summed over (before, after) snapshots."""

    def read(snapshot):
        entry = snapshot[kind].get(name)
        if entry is None:
            return 0.0
        return entry[field] if field else entry

    return sum(read(after) - read(before) for before, after in pairs)


def _step_summary(rate: float, rows: Sequence[Row]) -> dict:
    """p95 from due time, tail lateness and the pass verdict of one step."""
    predicts = [r for r in rows if r.kind == "predict"]
    tail = predicts[-max(1, len(predicts) // 4):]
    late_ms = mean([r.sent - r.due for r in tail]) * 1e3
    p95_ms = percentile([r.latency for r in predicts], 95.0) * 1e3
    return {
        "rate": rate,
        "requests": len(predicts),
        "p95_ms": p95_ms,
        "tail_late_ms": late_ms,
        "passed": all(r.status == 200 for r in predicts)
        and p95_ms <= LATENCY_LIMIT_MS
        and late_ms < LATENCY_LIMIT_MS / 2,
    }


# ----------------------------------------------------------------------
# The stage
# ----------------------------------------------------------------------
class ServeLoad:
    """Open-loop load against one server, in slices that can interleave
    with other stages; :meth:`outcome` judges everything sent."""

    def __init__(self, server: Server, suite, suite_document: dict, seed: int, tracer):
        from plan import pstate_ratios

        self.server = server
        self.suite = suite
        self.document = suite_document
        self.seed = seed
        self.tracer = tracer
        self.rng = random.Random(seed + 5)
        self.ratios = pstate_ratios()
        self.source = MixSource(self.rng, suite.names, self.ratios)
        self.versions = itertools.count(1)
        #: Rows of each slice; times are relative to the slice start.
        self.slices: List[Tuple[str, List[Row]]] = []
        #: A few served predictions per slice, for the bit-equality check.
        self.samples: List[Tuple[Item, dict]] = []
        self.sample_rng = random.Random(seed + 6)
        #: Low-rate seconds sent so far: the publisher's clock.
        self.low_elapsed = 0.0
        self.snapshots: Dict[str, List[Tuple[dict, dict]]] = {"low": [], "high": [], "ladder": []}
        self.steps: List[dict] = []
        self.passed: List[Tuple[float, List[Row]]] = []
        self.rate = LADDER_START
        self.bracket: List[Optional[float]] = [None, None]
        self.retrying = False
        # The hot set is cached before timing starts, as it would be on a
        # server that has been up for a while.
        connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            for mix in self.source.hot:
                body = predict_body([n for n, _ in mix], [r for _, r in mix])
                call(connection, "POST", "/v1/predict", body)
        finally:
            connection.close()

    def _publish_body(self) -> bytes:
        variant = suite_variant(self.document, next(self.versions))
        return json.dumps({"name": "default", "document": variant}).encode()

    def _drive(self, kind: str, items: List[Item], **span_args) -> List[Row]:
        before = metrics_snapshot(self.server)
        # The client is the load generator, not the system under test:
        # freezing the harness's own heap keeps a full collection of it
        # from stalling the sender threads mid-slice.
        gc.collect()
        gc.freeze()
        try:
            with self.tracer.span(f"serve.phase.{kind}", **span_args):
                records = drive(self.server, items, self.tracer)
        finally:
            gc.unfreeze()
        self.snapshots[kind].append((before, metrics_snapshot(self.server)))
        # Keep a compact row per request and a few full predictions: whole
        # responses would grow the harness heap the in-process stages run in.
        rows = []
        for record in records:
            version = 0
            if record.status == 200:
                document = json.loads(record.data)
                if record.item.kind == "publish":
                    version = document["published"]["version"]
                else:
                    version = int(document["model"].rsplit("@", 1)[1])
            rows.append(
                Row(record.item.kind, record.item.due, record.sent, record.done,
                    record.status, version)
            )
        served = [r for r in records if r.item.kind == "predict" and r.status == 200]
        for record in self.sample_rng.sample(served, min(4, len(served))):
            self.samples.append((record.item, json.loads(record.data)["prediction"]))
        self.slices.append((kind, rows))
        return rows

    def phase(self, kind: str, rate: float, seconds: float) -> None:
        """Poisson arrivals; the low-rate phase also carries the publisher.

        A publish stalls the event loop for tens of milliseconds: at the
        low rate that delays a handful of requests, at the high rate
        dozens, which would make the high-rate p95 jump between runs.
        """
        publish = None
        if kind == "low":
            publish = (self.low_elapsed, PUBLISH_PERIOD_S, self._publish_body)
            self.low_elapsed += seconds
        self._drive(kind, schedule(self.source, self.rng, rate, seconds, True, publish))

    def ladder(self, steps: int) -> None:
        """Evenly spaced steps: double until a rate fails, then bisect.

        A failing rate is tried once more before it counts as failed, so
        one transient stall cannot end the climb; both tries are steps.
        """
        for _ in range(steps):
            items = schedule(self.source, self.rng, self.rate, LADDER_STEP_S, False)
            rows = self._drive("ladder", items, rate=self.rate)
            self.steps.append(_step_summary(self.rate, rows))
            passed = self.steps[-1]["passed"]
            if not passed and not self.retrying:
                self.retrying = True
                continue
            self.retrying = False
            low, high = self.bracket
            if passed:
                self.passed.append((self.rate, rows))
                low = self.rate
            else:
                high = self.rate
            self.bracket = [low, high]
            if high is None:
                self.rate *= 2
            elif low is None:
                self.rate /= 2
            else:
                self.rate = (low + high) / 2

    def outcome(self) -> Outcome:
        from repro import api, io

        outcome = Outcome()
        everything = [r for _, rows in self.slices for r in rows]
        predicts = [r for r in everything if r.kind == "predict"]
        publishes = [r for r in everything if r.kind == "publish"]
        outcome.attempted = len(everything)
        outcome.failed = sum(r.status != 200 for r in everything)
        outcome.checks["serve_all_200"] = outcome.failed == 0

        def phase_predicts(kind):
            return [
                r for k, rows in self.slices if k == kind for r in rows if r.kind == "predict"
            ]

        def round_p95_ms(kind):
            # The p95 of each round's slice, then the median over rounds:
            # one stall (a publish, a collection, the host) moves one
            # round's tail, not the run's.
            return median(
                [
                    percentile([r.latency for r in rows if r.kind == "predict"], 95.0)
                    for k, rows in self.slices
                    if k == kind
                ]
            ) * 1e3

        low, high = phase_predicts("low"), phase_predicts("high")
        latencies = {
            "serve.p50_ms": median([r.latency for r in low]) * 1e3,
            "serve.p95_ms": round_p95_ms("low"),
            "serve.p95_ms_high": round_p95_ms("high"),
            "serve.max_rps": math.nan,
        }
        if self.passed:
            _, best = max(self.passed, key=lambda entry: entry[0])
            done = [r for r in best if r.kind == "predict"]
            # Achieved rate: completions over the step's wall time.
            latencies["serve.max_rps"] = len(done) / max(r.done for r in done)
        outcome.checks["serve_ladder_has_passing_step"] = bool(self.passed)
        outcome.layers.update(latencies)
        # Untraced runs report them too, in the record.
        outcome.properties.update(latencies)

        # After a publish completes, every request sent later is served
        # by that version or a newer one.  Slices run one after another.
        stale = 0
        floor = 0
        for _, rows in self.slices:
            done_publishes = [
                (r.done, r.version) for r in rows if r.kind == "publish" and r.status == 200
            ]
            for row in rows:
                if row.kind != "predict" or row.status != 200:
                    continue
                required = max((v for t, v in done_publishes if t <= row.sent), default=floor)
                stale += row.version < required
            floor = max([floor] + [v for _, v in done_publishes])
        outcome.checks["served_by_new_version_after_publish"] = bool(publishes) and stale == 0
        outcome.failed += stale

        # Sampled served predictions equal the in-process facade bit for bit.
        mismatches = 0
        for item, served in self.samples:
            local = api.predict_mix(
                list(item.names), self.suite, ways=WAYS, frequency_ratios=list(item.ratios)
            ).to_dict()
            mismatches += json.loads(json.dumps(local)) != served
        outcome.checks["served_equals_predict_mix"] = bool(self.samples) and mismatches == 0
        outcome.failed += mismatches

        decode_times = []
        for _ in range(5):
            start = time.perf_counter()
            io.profile_suite_result_from_dict(self.document)
            decode_times.append(time.perf_counter() - start)

        lows, highs = self.snapshots["low"], self.snapshots["high"]
        every = lows + highs + self.snapshots["ladder"]
        hits = _summed(lows, "counters", "serve.cache.hits")
        misses = _summed(lows, "counters", "serve.cache.misses")
        flushes = [
            _summed(lows, "counters", f"serve.batch.flush_{reason}")
            for reason in ("linger", "size", "drain")
        ]

        def histogram_mean(pairs, name):
            count = _summed(pairs, "histograms", name, "count")
            return _summed(pairs, "histograms", name, "sum") / count if count else 0.0

        server_latency_s = _summed(lows, "histograms", "serve.predict.latency_s", "sum")
        outcome.layers.update(
            {
                "serve.cache.hit_ratio": hits / (hits + misses),
                "serve.queue_wait_ms": histogram_mean(lows, "serve.predict.queue_wait_s") * 1e3,
                "serve.batch.flush_linger_share": flushes[0] / max(sum(flushes), 1),
                "serve.batch.size_mean": histogram_mean(highs, "serve.batch.size"),
                "serve.batch.solve_ms": histogram_mean(lows, "serve.batch.solve_s") * 1e3,
                # Client time minus the server's own predict latency:
                # parse, encode and transport (hits count zero server time).
                "serve.http_overhead_ms": (
                    mean([r.done - r.sent for r in low]) - server_latency_s / len(low)
                ) * 1e3,
                "serve.publish_ms": mean([r.done - r.sent for r in publishes]) * 1e3,
                "serve.models.hot_swaps": _summed(every, "counters", "serve.models.hot_swaps"),
                "io.suite_decode_ms": median(decode_times) * 1e3,
                "serve.shed": _summed(every, "counters", "serve.predict.shed"),
                "serve.errors": _summed(every, "counters", "serve.http.errors"),
                "serve.client.late_ms": mean([r.sent - r.due for r in low + high]) * 1e3,
            }
        )
        outcome.properties.update(
            {
                "serve_rates": {"low": LOW_RATE, "high": HIGH_RATE, "ladder_start": LADDER_START},
                "serve_ladder": self.steps,
                "serve_repeat_share": self.source.repeats / self.source.requests,
                "serve_pstate_share": self.source.scaled / self.source.requests,
                "serve_key_space": MixSource.key_space(len(self.suite.names), len(self.ratios)),
                "serve_requests": len(predicts),
                "serve_publishes": len(publishes),
            }
        )
        return outcome


def warm(server: Server, suite) -> None:
    """First requests build the batcher and engine; keep them out of timing."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        names = list(suite.names)
        for mix in (names[:2], names[2:5], names[5:9]):
            status, _ = call(connection, "POST", "/v1/predict", predict_body(mix, [1.0] * len(mix)))
            if status != 200:
                raise RuntimeError(f"warm-up predict answered {status}")
    finally:
        connection.close()
