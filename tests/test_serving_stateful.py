"""Stateful parity: any interleaving of fleet operations keeps the
batched paths bit-identical to the per-stream loop.

A hypothesis state machine drives two sync fleets with one config:
``ref`` makes every call with ``batched=False`` (the per-stream loop,
the paper-faithful reference). ``fast`` makes most calls with
``batched=True`` (tick engine, stacked retrains installed into engine
rows, predictor objects built on first read), but it also ticks and
retrains per stream and forecasts single streams, through their
objects or their engine rows. Writers detach: each per-stream write
hands its stream back from the engine, which reloads the row whole at
its next batched call.
Streams come and go, ticks arrive with and without level shifts,
retrains are ordered and run under drawn budgets, objects are read
between ticks, and ``fast`` is saved and reloaded mid-run. A budget of
0, 1 or 2 defers due streams, so re-added streams keep warming up past
``min_train`` and wrap their warm-up rows at ``history_limit``, and
ticks mix cold, engine-served and detached streams. After every step
both fleets must forecast the same bits and report the same
per-stream metrics.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core.config import LARConfig
from repro.serving import FleetConfig, PredictionFleet

NAMES = ("a", "b", "c", "d", "e")

CONFIG = FleetConfig(
    lar=LARConfig(window=5),
    min_train=20,
    retrain_window=40,
    audit_window=8,
    audit_interval=4,
    max_memory=16,
    history_limit=64,
    # Low enough that level shifts breach the QA and order retrains.
    qa_threshold=0.6,
    auto_retrain=False,
)


class FleetParity(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.fast = PredictionFleet(CONFIG)
        self.ref = PredictionFleet(CONFIG)
        self.t = 0
        self.saves = 0
        self.tmp = Path(tempfile.mkdtemp(prefix="fleet-parity-"))

    def teardown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _values(self, shift: bool) -> dict[str, float]:
        rng = np.random.default_rng(self.t)
        noise = rng.normal(0.0, 0.5, size=len(NAMES))
        return {
            name: 10.0 + 3.0 * np.sin(self.t / 5.0 + i) + float(noise[i])
            + (6.0 if shift and i % 2 == 0 else 0.0)
            for i, name in enumerate(NAMES)
            if name in self.fast
        }

    def _both(self):
        return ((self.fast, True), (self.ref, False))

    @initialize(names=st.sets(st.sampled_from(NAMES), min_size=1))
    def start(self, names):
        """Register *names* and serve them through warm-up and their
        initial trains, so that every run starts with trained streams."""
        for fleet, _ in self._both():
            for name in sorted(names):
                fleet.add_stream(name)
        for _ in range(CONFIG.min_train):
            values = self._values(shift=False)
            for fleet, batched in self._both():
                fleet.ingest(values, batched=batched)
            self.t += 1
        self.run_pending_retrains(batched=True, budget=None)

    @rule(name=st.sampled_from(NAMES))
    def add_stream(self, name):
        # Adding a removed name re-adds it cold.
        if name not in self.fast:
            for fleet, _ in self._both():
                fleet.add_stream(name)

    @rule(name=st.sampled_from(NAMES))
    def remove_stream(self, name):
        if name in self.fast:
            for fleet, _ in self._both():
                fleet.remove_stream(name)

    @rule(
        ticks=st.integers(1, 12), shift=st.booleans(), forecast=st.booleans()
    )
    def tick(self, ticks, shift, forecast):
        for _ in range(ticks):
            values = self._values(shift)
            if forecast:
                assert self.fast.forecast_all(batched=True) == (
                    self.ref.forecast_all(batched=False)
                ), self.t
            assert self.fast.ingest(values, batched=True) == (
                self.ref.ingest(values, batched=False)
            ), self.t
            self.t += 1

    @rule(
        ticks=st.integers(1, 6),
        shift=st.booleans(),
        forecast=st.sampled_from((None, True, False)),
    )
    def per_stream_tick(self, ticks, shift, forecast):
        """Ticks both fleets ingest through the per-stream loop, after a
        forecast ``fast`` makes batched (``True``), per stream
        (``False``) or not at all (``None``)."""
        for _ in range(ticks):
            values = self._values(shift)
            if forecast is not None:
                assert self.fast.forecast_all(batched=forecast) == (
                    self.ref.forecast_all(batched=False)
                ), self.t
            assert self.fast.ingest(values, batched=False) == (
                self.ref.ingest(values, batched=False)
            ), self.t
            self.t += 1

    @rule(name=st.sampled_from(NAMES), objects=st.booleans())
    def forecast_one(self, name, objects):
        """One stream's forecast, through its objects or through
        ``forecast(name)``; the next ingest audits it on both paths."""
        if name in self.fast and self.fast.is_trained(name):
            if objects:
                fc = self.fast.forecast_all((name,), batched=False)[name]
            else:
                fc = self.fast.forecast(name)
            assert fc == (
                self.ref.forecast_all((name,), batched=False)[name]
            ), self.t

    @rule(batched=st.booleans(), budget=st.sampled_from((None, 0, 1, 2)))
    def run_pending_retrains(self, batched, budget):
        assert self.fast.run_pending_retrains(
            budget=budget, batched=batched
        ) == self.ref.run_pending_retrains(budget=budget, batched=False)

    @rule(name=st.sampled_from(NAMES))
    def order_retrain(self, name):
        """What a QA breach does, on demand (as bench_fleet's storm)."""
        if name in self.fast and self.fast._streams[name].trained:
            for fleet, _ in self._both():
                fleet._retrain.schedule(fleet._streams[name], initial=False)

    @rule(name=st.sampled_from(NAMES))
    def read_objects(self, name):
        if name in self.fast:
            fast, ref = self.fast._streams[name], self.ref._streams[name]
            assert (fast.predictor is None) == (ref.predictor is None)

    @rule()
    def save_and_reload(self):
        directory = self.tmp / f"save{self.saves}"
        self.saves += 1
        self.fast.save(directory)
        self.fast = PredictionFleet.load(directory)

    @invariant()
    def bit_identical(self):
        assert self.fast.forecast_all(batched=True) == (
            self.ref.forecast_all(batched=False)
        ), self.t
        fast, ref = self.fast.metrics(), self.ref.metrics()
        assert fast == ref, self.t


TestFleetParity = FleetParity.TestCase
TestFleetParity.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)


@pytest.mark.slow
def test_fleet_parity_deep():
    run_state_machine_as_test(
        FleetParity,
        settings=settings(
            max_examples=150, stateful_step_count=60, deadline=None
        ),
    )
