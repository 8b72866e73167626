"""Bit-equality of the stacked QA engine against per-stream ``record()``.

The batched tick engine mirrors every served stream's
:class:`~repro.core.qa.PredictionQualityAssuror` error window into one
``(S, audit_window)`` ring and records the whole fleet's audits with
vectorized kernels (:meth:`BatchedTickEngine._record_audits_stacked`).
That is an execution strategy, not a behavior change: the per-stream QA
objects must end up in the *identical* state the per-stream loop would
have left them in — same ``audits`` list (bit-identical window MSEs),
same lifetime counters, same error window and running sum, same breach
latch and ``on_breach`` dispatches, same ``state_dict``. These
properties drive batched and loop fleets through the same feeds across
audit geometries, mid-stream ``acknowledge_retraining`` resets, and
round-trips through persistence, and compare everything.

``PredictionQualityAssuror.record_batch`` (the standalone vectorized
API built on the same kernels) gets the same treatment against a
``record`` loop.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LARConfig
from repro.core.qa import PredictionQualityAssuror
from repro.serving import FleetConfig, PredictionFleet
from repro.traces.synthetic import ar1_series



def _config(audit_window, audit_interval, **overrides):
    defaults = dict(
        lar=LARConfig(window=5),
        min_train=20,
        qa_threshold=2.0,
        audit_window=audit_window,
        audit_interval=audit_interval,
        retrain_window=40,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _qa_state(fleet):
    """Every bit of per-stream QA state the stacked engine must preserve."""
    out = {}
    for name, state in fleet._streams.items():
        qa = state.qa
        out[name] = (
            tuple(qa.audits),
            qa.audits_total,
            qa.breaches_total,
            tuple(qa._sq_errors),
            qa._sq_sum,
            qa._step,
            qa._retraining_due,
            qa.state_dict(),
        )
    return out


def _serve_pair(seed, audit_window, audit_interval, ticks, *, ack_at=None,
                hooks=False):
    """Drive a batched and a loop fleet identically; return both + hook logs."""
    names = ["a", "b", "c", "d", "e"]
    feeds = {
        name: 10.0 + 2.0 * ar1_series(ticks, phi=0.9, seed=seed + i)
        for i, name in enumerate(names)
    }
    # Half the streams drift so some audits actually breach.
    for i, name in enumerate(names):
        if i % 2 == 0:
            feeds[name] = feeds[name].copy()
            feeds[name][ticks // 2 :] += 20.0
    fleets, logs = [], []
    for batched in (True, False):
        fleet = PredictionFleet(
            _config(audit_window, audit_interval), streams=names
        )
        log = []
        for t in range(ticks):
            if hooks and t == 25:
                # Wire breach hooks only once streams are trained, so
                # both paths see the same QA objects.
                for name in names:
                    qa = fleet._streams[name].qa
                    qa.on_breach = (
                        lambda rec, name=name, log=log: log.append(
                            (name, rec)
                        )
                    )
            fleet.forecast_all(batched=batched)
            fleet.ingest(
                {name: feeds[name][t] for name in names}, batched=batched
            )
            if ack_at is not None and t == ack_at:
                # An out-of-band reset, exactly what a retrain does —
                # the engine must notice (version bump) and resync its
                # ring mirror before the next tick's audits.
                fleet._streams[names[0]].qa.acknowledge_retraining()
            fleet.run_pending_retrains(batched=batched)
        fleets.append(fleet)
        logs.append(log)
    return fleets[0], fleets[1], logs[0], logs[1]


class TestStackedQAParity:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=15, deadline=None)
    def test_qa_state_bitwise_equal_across_audit_geometries(
        self, seed, audit_window, audit_interval
    ):
        batched, loop, _, _ = _serve_pair(
            seed, audit_window, audit_interval, 70
        )
        assert _qa_state(batched) == _qa_state(loop)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=69),
    )
    @settings(max_examples=10, deadline=None)
    def test_mid_stream_acknowledge_resyncs_mirror(self, seed, ack_at):
        batched, loop, _, _ = _serve_pair(seed, 8, 4, 70, ack_at=ack_at)
        assert _qa_state(batched) == _qa_state(loop)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_breach_callbacks_fire_identically(self, seed):
        batched, loop, log_b, log_l = _serve_pair(seed, 8, 4, 80, hooks=True)
        assert log_b == log_l
        assert len(log_b) > 0  # the drift actually produced breaches
        assert _qa_state(batched) == _qa_state(loop)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_state_dict_round_trip_continues_identically(self, seed):
        """Restore every QA mid-serve; both paths resume bit-identically.

        ``load_state_dict`` bumps ``version``, so this also exercises
        the engine's stale-mirror reload on the very next tick.
        """
        batched, loop, _, _ = _serve_pair(seed, 8, 4, 40)
        for fleet in (batched, loop):
            for state in fleet._streams.values():
                state.qa.load_state_dict(state.qa.state_dict())
        names = list(batched._streams)
        feeds = {
            name: 10.0 + 2.0 * ar1_series(30, phi=0.9, seed=seed + 77 + i)
            for i, name in enumerate(names)
        }
        for t in range(30):
            fa = batched.forecast_all(batched=True)
            fb = loop.forecast_all(batched=False)
            assert fa == fb
            batched.ingest(
                {name: feeds[name][t] for name in names}, batched=True
            )
            loop.ingest(
                {name: feeds[name][t] for name in names}, batched=False
            )
        assert _qa_state(batched) == _qa_state(loop)


class TestRecordBatchParity:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(min_value=1, max_value=17), min_size=1,
                 max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_record_batch_equals_record_loop(
        self, seed, audit_window, audit_interval, batch_sizes
    ):
        rng = np.random.default_rng(seed)
        calls_b, calls_l = [], []
        qa_b = PredictionQualityAssuror(
            0.5, audit_window=audit_window, audit_interval=audit_interval,
            on_breach=lambda rec: calls_b.append(rec),
        )
        qa_l = PredictionQualityAssuror(
            0.5, audit_window=audit_window, audit_interval=audit_interval,
            on_breach=lambda rec: calls_l.append(rec),
        )
        for size in batch_sizes:
            p = rng.normal(0.0, 1.5, size=size)
            o = rng.normal(0.0, 1.5, size=size)
            fired = qa_b.record_batch(p, o)
            expected = []
            for i in range(size):
                rec = qa_l.record(float(p[i]), float(o[i]))
                if rec is not None:
                    expected.append(rec)
            assert fired == expected
        assert qa_b.audits == qa_l.audits
        assert tuple(qa_b._sq_errors) == tuple(qa_l._sq_errors)
        assert qa_b._sq_sum == qa_l._sq_sum
        assert qa_b._step == qa_l._step
        assert qa_b._retraining_due == qa_l._retraining_due
        assert qa_b.audits_total == qa_l.audits_total
        assert qa_b.breaches_total == qa_l.breaches_total
        assert calls_b == calls_l
        assert qa_b.state_dict() == qa_l.state_dict()
        assert qa_b.rolling_mse == qa_l.rolling_mse
