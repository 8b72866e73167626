"""Bit-equality of the stacked QA engine against per-stream ``record()``.

The batched tick engine keeps every served stream's
:class:`~repro.core.qa.PredictionQualityAssuror` error window in one
``(S, audit_window)`` ring and records the whole fleet's audits with
vectorized kernels in :meth:`BatchedTickEngine.ingest_batch`, writing
them into the QA objects when a stream is checked out.
That is an execution strategy, not a behavior change: the per-stream QA
objects must end up in the *identical* state the per-stream loop would
have left them in — same lifetime counters, same error window and
running sum, same breach latch, same ``state_dict``, and the same
``on_breach`` dispatches (bit-identical window MSEs; with a threshold
every audit exceeds, that is every audit's record). These properties
drive batched and loop fleets through the same feeds across audit
geometries, retrains, and round-trips through persistence, and compare
everything.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LARConfig
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
            qa.audits_total,
            qa.breaches_total,
            tuple(qa._sq_errors),
            qa._sq_sum,
            qa._step,
            qa._retraining_due,
            qa.state_dict(),
        )
    return out


def _serve_pair(seed, audit_window, audit_interval, ticks, *,
                hooks=False, hook_tick=25, **overrides):
    """Drive a batched and a loop fleet identically; return both + hook logs.

    With *hooks*, every stream's ``on_breach`` appends ``(stream, record)``
    to the fleet's log from tick *hook_tick* on; *overrides* go to the
    fleet config.
    """
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
            _config(audit_window, audit_interval, **overrides), streams=names
        )
        log = []
        for t in range(ticks):
            if hooks and t == hook_tick:
                # By default the hooks arrive mid-serve, on QAs whose
                # streams the engine already serves.
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

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_breach_callbacks_fire_identically(self, seed):
        batched, loop, log_b, log_l = _serve_pair(seed, 8, 4, 80, hooks=True)
        assert log_b == log_l
        assert len(log_b) > 0  # the drift actually produced breaches
        assert _qa_state(batched) == _qa_state(loop)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_every_audit_record_matches_when_every_audit_breaches(self, seed):
        """A threshold every audit exceeds sends every audit's record to
        ``on_breach`` on both paths, so the two logs pin every window
        MSE bit for bit."""
        batched, loop, log_b, log_l = _serve_pair(
            seed, 8, 4, 80, hooks=True, hook_tick=0, qa_threshold=1e-9
        )
        assert log_b == log_l
        for fleet in (batched, loop):
            qas = [state.qa for state in fleet._streams.values()]
            assert len(log_b) == sum(qa.audits_total for qa in qas) > 0
            assert all(qa.breaches_total == qa.audits_total for qa in qas)
        assert _qa_state(batched) == _qa_state(loop)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_state_dict_round_trip_continues_identically(self, seed):
        """Restore every QA mid-serve; both paths resume bit-identically."""
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
