"""Occupancy tables are built once per (profile, ways) and then shared.

An occupancy table (the Eq. 4–5 growth curve) depends only on a
profile's immutable histogram and the cache associativity, so every
model that registers a profile reuses the table built by the first.
These tests pin the four properties that reuse must keep:

- **Build count**: repeated facade calls on one suite and one ``ways``
  build exactly one table per profile.
- **Bit identity**: results computed with reused tables equal those
  from a freshly decoded suite, which shares no table.
- **Lifetime**: a table dies with the suite that owns it.
- **Concurrency**: threads meeting a profile at once all get results
  equal to a serial call.
"""

import gc
import sys
import threading
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

from repro import api
from repro.api import AssignmentRequest, ProfileSuiteResult
from repro.core.feature import FeatureVector, ProfileVector
from repro.core.performance_model import PerformanceModel
from repro.core.power_model import CorePowerModel, PowerTrainingSet
from repro.errors import ConfigurationError
from repro.events import Event, RATE_EVENTS
from repro.parallel import ParallelPredictor
from repro.serve import ServeClient, start_server
from repro.workloads.spec import BENCHMARKS

NAMES = ["mcf", "gzip", "art", "vpr", "ammp"]
MACHINE = "4-core-server"  # 16-way domains
WAYS = 16
MIXES = [["mcf", "gzip"], ["art", "vpr", "mcf"], ["gzip", "gzip"], ["ammp"]]


def _oracle_document():
    return ProfileSuiteResult(
        machine=MACHINE,
        features={n: FeatureVector.oracle(BENCHMARKS[n], 2e8) for n in NAMES},
        profiles={
            n: ProfileVector(
                name=n,
                p_alone=20.0 + 2.0 * i,
                l1rpi=0.4,
                l2rpi=0.05,
                brpi=0.2,
                fppi=0.01 * i,
            )
            for i, n in enumerate(NAMES)
        },
    ).to_dict()


_DOCUMENT = _oracle_document()


def _suite():
    """The suite decoded afresh: bit-equal inputs, no shared objects.

    Decoding renormalises each histogram, so only two decodes of one
    document are guaranteed to hold bit-equal profiles.
    """
    return ProfileSuiteResult.from_dict(_DOCUMENT)


@pytest.fixture(scope="module")
def power_model():
    rng = np.random.default_rng(0)
    training = PowerTrainingSet()
    for _ in range(40):
        rates = {event: rng.uniform(0, 1e8) for event in RATE_EVENTS}
        power = 11.0 + 8e-8 * rates[Event.L1_REFS] + 2e-7 * rates[Event.L2_MISSES]
        training.add(rates, power)
    return CorePowerModel().fit(training, idle_core_watts=11.0)


@pytest.fixture()
def builds(monkeypatch):
    """Spy on every real table build: ``(name, ways)`` counts + tables."""
    counts = Counter()
    tables = []
    original = FeatureVector.occupancy_model

    def spy(self, max_ways):
        table = original(self, max_ways)
        counts[(self.name, max_ways)] += 1
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(FeatureVector, "occupancy_model", spy)
    return counts, tables


def _pick(names, suite, power_model):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return api.pick_assignment(names, suite, power_model, MACHINE)


class TestBuildCount:
    def test_repeated_facade_calls_build_one_table_per_profile(
        self, builds, power_model
    ):
        counts, _ = builds
        suite = _suite()
        for _ in range(3):
            for mix in MIXES:
                api.predict_mix(mix, suite, ways=WAYS)
            api.predict_mixes(MIXES, suite, ways=WAYS)
            _pick(["mcf", "gzip", "art"], suite, power_model)
            api.solve_assignment(
                AssignmentRequest(processes=("mcf", "gzip"), machine=MACHINE),
                suite,
                power_model,
            )
        assert counts == Counter({(n, WAYS): 1 for n in NAMES})

    def test_each_ways_builds_its_own_table(self, builds):
        counts, _ = builds
        suite = _suite()
        for ways in (4, 8, 4, 8):
            api.predict_mix(["mcf", "gzip"], suite, ways=ways)
        assert counts == Counter(
            {(n, ways): 1 for n in NAMES for ways in (4, 8)}
        )

    def test_occupancy_model_still_builds_afresh(self):
        feature = _suite().features["mcf"]
        assert feature.occupancy_model(WAYS) is not feature.occupancy_model(WAYS)


class TestBitIdentity:
    def test_predictions_and_batch_rows_match_a_fresh_suite(self):
        suite = _suite()
        # Prime the tables, then predict again through the reused ones.
        api.predict_mixes(MIXES, suite, ways=WAYS)
        fresh = _suite()
        for mix in MIXES:
            assert (
                api.predict_mix(mix, suite, ways=WAYS).to_dict()
                == api.predict_mix(mix, fresh, ways=WAYS).to_dict()
            )
        reused_rows = api.predict_mixes(MIXES, suite, ways=WAYS)
        fresh_rows = api.predict_mixes(MIXES, _suite(), ways=WAYS)
        assert [r.to_dict() for r in reused_rows] == [
            r.to_dict() for r in fresh_rows
        ]

    def test_v1_assign_pick_matches_a_fresh_suite(self, power_model):
        suite = _suite()
        names = ["mcf", "gzip", "art"]
        _pick(names, suite, power_model)  # prime the tables
        with start_server({"default": suite, "power": power_model}) as handle:
            with ServeClient(handle.host, handle.port) as client:
                served = client.assign(names, machine=MACHINE, objective="power")
        local = api._pick_assignment_impl(
            names, _suite(), power_model, MACHINE
        )
        assert served["pick"] == local.to_dict()


class TestLifetime:
    def test_tables_die_with_their_suite(self, builds):
        _, tables = builds
        suite = _suite()
        api.predict_mix(["mcf", "gzip"], suite, ways=WAYS)
        with ParallelPredictor(suite.features, ways=8) as predictor:
            predictor.predict_mixes([["art", "vpr"]])
        assert tables and all(ref() is not None for ref in tables)
        del suite, predictor
        gc.collect()
        assert all(ref() is None for ref in tables)


def _race(count, work):
    """Run ``work(index)`` on ``count`` threads released together.

    A short switch interval makes the threads interleave inside the
    table lookup; every join is bounded.
    """
    barrier = threading.Barrier(count)
    results = [None] * count
    errors = []

    def run(index):
        try:
            barrier.wait(timeout=30)
            results[index] = work(index)
        except Exception as error:  # reported by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return results


class TestConcurrency:
    def test_first_calls_from_many_threads_match_a_serial_call(self):
        suite = _suite()
        mixes = [MIXES[i % len(MIXES)] for i in range(8)]
        results = _race(
            len(mixes),
            lambda i: api.predict_mix(mixes[i], suite, ways=WAYS).to_dict(),
        )
        fresh = _suite()
        for mix, result in zip(mixes, results):
            assert result == api.predict_mix(mix, fresh, ways=WAYS).to_dict()
            assert result == api.predict_mix(mix, suite, ways=WAYS).to_dict()

    def test_racing_models_all_hold_one_table_per_profile(self):
        # Duplicate builds are allowed; a lost update is not: every
        # model must end up with the one stored table.
        suite = _suite()
        features = list(suite.features.values())

        def register(_):
            model = PerformanceModel(ways=WAYS)
            model.register_all(features)
            return model._occupancy_cache

        tables = _race(8, register)
        for name in NAMES:
            assert len({id(held[name]) for held in tables}) == 1


class TestUnknownProcesses:
    def test_predict_mix(self):
        with pytest.raises(ConfigurationError, match=r"unknown processes \['nope'\]"):
            api.predict_mix(["nope", "mcf"], _suite(), ways=WAYS)

    def test_predict_mixes(self):
        with pytest.raises(ConfigurationError, match=r"unknown processes \['nope'\]"):
            api.predict_mixes([["mcf"], ["gzip", "nope"]], _suite(), ways=WAYS)

    def test_pick_assignment(self, power_model):
        with pytest.raises(ConfigurationError, match=r"unknown processes \['nope'\]"):
            _pick(["nope", "mcf"], _suite(), power_model)

    def test_checked_before_any_table_is_built(self, builds):
        counts, _ = builds
        with pytest.raises(ConfigurationError):
            api.predict_mix(["nope"], _suite(), ways=WAYS)
        assert not counts
