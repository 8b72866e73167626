"""Property-based invariants of the prediction fleet (hypothesis).

Three contracts a serving layer must keep under *any* usage pattern:

* arbitrary interleavings of ingest / forecast / add / remove never
  raise — a misbehaving caller cannot wedge the service;
* per-stream results are independent of how ingest calls are batched —
  serving N streams through one dict per tick equals serving each
  stream alone;
* a persisted-then-restored fleet reproduces the same next forecasts.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LARConfig
from repro.serving import FleetConfig, PredictionFleet
from repro.traces.synthetic import ar1_series



def _config(**overrides):
    defaults = dict(
        lar=LARConfig(window=5),
        min_train=20,
        qa_threshold=2.0,
        audit_window=8,
        audit_interval=4,
        retrain_window=40,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


# One fleet "program": a seed for the value feed and a list of
# (op, operand) codes interpreted below.
programs = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),
                  st.integers(min_value=0, max_value=7)),
        min_size=1,
        max_size=60,
    ),
)


class TestInterleavingsNeverRaise:
    @given(programs)
    @settings(max_examples=25, deadline=None)
    def test_random_op_sequences(self, program):
        seed, ops = program
        # The whole value feed is a pure function of the seed: stream
        # sK ingesting at op index t always sees values[t, K], however
        # the interleaving plays out. (Drawing from the generator
        # inside the loop made each value depend on how many streams
        # happened to exist at the time — under shrinking, hypothesis
        # would explore *different feeds*, not just different op
        # orders, and a failing example would not replay.)
        values = np.random.default_rng(seed).normal(
            10.0, 3.0, size=(len(ops), 64)
        )
        fleet = PredictionFleet(_config(), streams=["s0"])
        next_id = 1
        for t, (op, operand) in enumerate(ops):
            if op == 0 and len(fleet):  # ingest one tick for everyone
                fleet.ingest(
                    {name: float(values[t, int(name[1:])])
                     for name in fleet.stream_names}
                )
            elif op == 1:  # read path; warming-up streams omitted
                out = fleet.forecast_all()
                assert all(np.isfinite(fc.value) for fc in out.values())
            elif op == 2:  # grow the fleet
                fleet.add_stream(f"s{next_id}")
                next_id += 1
            elif op == 3 and len(fleet) > 1:  # shrink the fleet
                fleet.remove_stream(
                    fleet.stream_names[operand % len(fleet)]
                )
        metrics = fleet.metrics()
        assert metrics.n_streams == len(fleet)
        assert metrics.n_trained <= metrics.n_streams


class TestBatchGroupingIndependence:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_batched_equals_singleton_ingest(self, seed):
        names = ["x", "y", "z"]
        feeds = {
            name: 8.0 + 2.0 * ar1_series(60, phi=0.85, seed=seed + i)
            for i, name in enumerate(names)
        }
        batched = PredictionFleet(_config(), streams=names)
        singleton = PredictionFleet(_config(), streams=names)
        for t in range(60):
            batched.ingest({name: feeds[name][t] for name in names})
            for name in names:  # same values, one stream per call
                singleton.ingest({name: feeds[name][t]})
        a = batched.forecast_all()
        b = singleton.forecast_all()
        assert a.keys() == b.keys()
        for name in a:
            assert a[name].value == b[name].value
            assert a[name].predictor_label == b[name].predictor_label
        ma = {m.name: m for m in batched.metrics().streams}
        mb = {m.name: m for m in singleton.metrics().streams}
        for name in names:
            assert ma[name].selections == mb[name].selections
            assert ma[name].rolling_mse == mb[name].rolling_mse
            assert ma[name].retrain_count == mb[name].retrain_count


class TestPersistenceRoundtrip:
    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=0, max_value=59))
    @settings(max_examples=10, deadline=None)
    def test_restored_fleet_same_next_forecasts(self, seed, ticks):
        names = ["u", "v"]
        feeds = {
            name: 12.0 + 3.0 * ar1_series(60, phi=0.9, seed=seed + i)
            for i, name in enumerate(names)
        }
        fleet = PredictionFleet(_config(), streams=names)
        for t in range(ticks):
            fleet.forecast_all()
            fleet.ingest({name: feeds[name][t] for name in names})
        with tempfile.TemporaryDirectory() as directory:
            fleet.save(directory)
            restored = PredictionFleet.load(directory)
        original = fleet.forecast_all()
        back = restored.forecast_all()
        assert original.keys() == back.keys()
        for name in original:
            assert original[name].value == back[name].value
            assert (
                original[name].predictor_label
                == back[name].predictor_label
            )


class TestQAStateLegacyBackfill:
    def test_counterless_qa_state_resumes_identically(self):
        """Manifests written before the QA kept lifetime counters carry
        only the audit list; loading must backfill ``audits_total`` /
        ``breaches_total`` from it and then behave indistinguishably —
        including through the storm's next retrains, which exercise the
        restored label-cache tails."""
        names = ["u", "v"]
        n = 200
        feeds = {}
        for i, name in enumerate(names):
            series = 12.0 + 2.0 * ar1_series(n, phi=0.9, seed=11 * i + 3)
            for storm in (60, 120):  # jump runs -> clustered retrains
                for j in range(3):
                    series[storm + 10 * j :] += 15.0
            feeds[name] = series
        fleet = PredictionFleet(_config(), streams=names)
        for t in range(150):
            fleet.forecast_all()
            fleet.ingest({name: feeds[name][t] for name in names})
        with tempfile.TemporaryDirectory() as directory:
            fleet.save(directory)
            manifest_path = Path(directory) / "fleet.json"
            manifest = json.loads(manifest_path.read_text())
            for entry in manifest["streams"]:
                del entry["qa"]["audits_total"]
                del entry["qa"]["breaches_total"]
            manifest_path.write_text(json.dumps(manifest))
            restored = PredictionFleet.load(directory)
        by_name = {m.name: m for m in fleet.metrics().streams}
        for m in restored.metrics().streams:
            assert m.audits == by_name[m.name].audits
            assert m.breaches == by_name[m.name].breaches
        assert sum(m.audits for m in by_name.values()) > 0
        # Serve both through the tail of the feed: audits, breaches,
        # and forecasts stay in lockstep (the backfilled counters did
        # not perturb the audit schedule or the cached-retrain cycle).
        for t in range(150, n):
            a = fleet.forecast_all()
            b = restored.forecast_all()
            assert a.keys() == b.keys()
            for name in a:
                assert a[name].value == b[name].value
            values = {name: feeds[name][t] for name in names}
            fleet.ingest(values)
            restored.ingest(values)
        ra = fleet.metrics()
        rb = restored.metrics()
        assert ra.total_retrains == rb.total_retrains
        assert [
            (m.name, m.audits, m.breaches) for m in ra.streams
        ] == [(m.name, m.audits, m.breaches) for m in rb.streams]
