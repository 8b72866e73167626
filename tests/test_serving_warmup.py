"""The fleet's warm-up ring against a model of per-stream deques.

Every cold stream's values live in one fleet-level ring
(:mod:`repro.serving.warmup`), which both tick paths write. A hypothesis
state machine drives one fleet and, as its model, what each cold stream
would buffer on its own: a ``deque(maxlen=history_limit)`` and a tick
count. Streams come and go, ticks carry random subsets of the streams
in random order on either path, initial trains run under drawn budgets
(so due streams keep buffering past ``min_train``), and the fleet is
saved and reloaded in the middle of warm-up. ``history_limit`` is drawn
as ``min_train`` (rows wrap at once), ``3 * min_train`` (the ring grows,
then wraps) or ``None`` (it only grows). After every step each cold
stream's ticks, history length, saved ``"buffer"`` list and the history
its initial train would fit equal the model's.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.config import LARConfig
from repro.serving import FleetConfig, PredictionFleet
from repro.serving.persistence import _stream_entry

NAMES = ("a", "b", "c", "d", "e")
MIN_TRAIN = 12


class WarmupModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.fleet: PredictionFleet | None = None
        # Per cold stream, the values it would buffer on its own; per
        # stream, the values it has ingested.
        self.model: dict[str, deque] = {}
        self.ticks: dict[str, int] = {}
        self.t = 0
        self.saves = 0
        self.tmp = Path(tempfile.mkdtemp(prefix="fleet-warmup-"))

    def teardown(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _add(self, name: str) -> None:
        self.fleet.add_stream(name)
        self.model[name] = deque(maxlen=self.limit)
        self.ticks[name] = 0

    @initialize(
        limit=st.sampled_from((MIN_TRAIN, 3 * MIN_TRAIN, None)),
        names=st.sets(st.sampled_from(NAMES), min_size=1),
    )
    def start(self, limit, names):
        self.limit = limit
        self.fleet = PredictionFleet(FleetConfig(
            lar=LARConfig(window=5),
            min_train=MIN_TRAIN,
            history_limit=limit,
            retrain_window=MIN_TRAIN,
            auto_retrain=False,
        ))
        for name in sorted(names):
            self._add(name)

    @rule(name=st.sampled_from(NAMES))
    def add_stream(self, name):
        if name not in self.fleet:
            self._add(name)

    @rule(name=st.sampled_from(NAMES))
    def remove_stream(self, name):
        if name in self.fleet:
            self.fleet.remove_stream(name)
            self.model.pop(name, None)
            del self.ticks[name]

    @rule(
        ticks=st.integers(1, 25),
        order=st.permutations(NAMES),
        size=st.integers(0, len(NAMES)),
        batched=st.booleans(),
    )
    def tick(self, ticks, order, size, batched):
        """*ticks* ticks of the first *size* streams of *order*."""
        names = [name for name in order[:size] if name in self.fleet]
        for _ in range(ticks):
            rng = np.random.default_rng(self.t)
            values = {
                name: 10.0 + np.sin(self.t / 4.0 + i) + rng.normal(0.0, 0.5)
                for i, name in enumerate(names)
            }
            self.fleet.ingest(values, batched=batched)
            for name, value in values.items():
                self.ticks[name] += 1
                if name in self.model:
                    self.model[name].append(value)
            self.t += 1

    @rule(budget=st.sampled_from((None, 0, 1, 2)), batched=st.booleans())
    def run_pending_retrains(self, budget, batched):
        done = self.fleet.run_pending_retrains(budget=budget, batched=batched)
        for name in done:
            values = self.model.pop(name, None)
            if values is not None:
                # An initial train: the model fit the stream's warm-up.
                predictor = self.fleet._streams[name].predictor
                assert predictor.recent_history().tolist() == list(values)

    @precondition(lambda self: self.fleet is not None and self.model)
    @rule()
    def save_and_reload(self):
        directory = self.tmp / f"save{self.saves}"
        self.saves += 1
        self.fleet.save(directory)
        manifest = json.loads((directory / "fleet.json").read_text())
        for entry in manifest["streams"]:
            model = self.model.get(entry["name"])
            assert entry["buffer"] == ([] if model is None else list(model))
        self.fleet = PredictionFleet.load(directory)

    @invariant()
    def cold_streams_match_the_model(self):
        fleet = self.fleet
        if fleet is None:
            return
        rows = {m.name: m for m in fleet.metrics().streams}
        assert rows.keys() == self.ticks.keys()
        for name, row in rows.items():
            assert row.ticks == self.ticks[name], name
            assert row.trained == (name not in self.model), name
        for name, values in self.model.items():
            assert rows[name].history_length == len(values), name
            entry = _stream_entry(fleet, fleet._streams[name])
            assert entry["buffer"] == list(values), name
        cold = tuple(self.model)
        if cold:
            plan = fleet._retrain.snapshot(cold)
            assert [h.tolist() for h in plan.histories] == [
                list(self.model[name]) for name in cold
            ]
        assert len(fleet._warmup) == len(cold)
        if not cold:
            # The last cold stream to leave dropped the ring's arrays.
            assert fleet._warmup._hist is None


TestWarmupModel = WarmupModel.TestCase
TestWarmupModel.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)


@pytest.mark.slow
def test_warmup_model_deep():
    run_state_machine_as_test(
        WarmupModel,
        settings=settings(
            max_examples=150, stateful_step_count=60, deadline=None
        ),
    )
