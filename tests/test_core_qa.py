"""Unit tests for the Prediction Quality Assuror."""

import numpy as np
import pytest

from repro.core.qa import AuditRecord, PredictionQualityAssuror
from repro.exceptions import ConfigurationError


class TestConstruction:
    def test_invalid_threshold(self):
        # NaN compares false with every window MSE, so it would never breach.
        for threshold in (0.0, float("nan")):
            with pytest.raises(ConfigurationError):
                PredictionQualityAssuror(threshold=threshold)

    def test_invalid_windows(self):
        with pytest.raises(ConfigurationError):
            PredictionQualityAssuror(audit_window=0)
        with pytest.raises(ConfigurationError):
            PredictionQualityAssuror(audit_interval=0)

    def test_invalid_callback(self):
        with pytest.raises(ConfigurationError):
            PredictionQualityAssuror(on_breach="notify")


class TestAuditing:
    def test_audit_fires_on_interval(self):
        qa = PredictionQualityAssuror(threshold=10.0, audit_interval=3)
        assert qa.record(0.0, 0.1) is None
        assert qa.record(0.0, 0.1) is None
        audit = qa.record(0.0, 0.1)
        assert isinstance(audit, AuditRecord)
        assert audit.step == 3
        assert not audit.breached

    def test_breach_latches(self):
        qa = PredictionQualityAssuror(threshold=0.5, audit_interval=1, audit_window=4)
        qa.record(0.0, 10.0)  # squared error 100 >> 0.5
        assert qa.retraining_due
        # Good predictions do not clear the latch by themselves.
        qa.record(0.0, 0.0)
        assert qa.retraining_due

    def test_acknowledge_clears_latch_and_history(self):
        qa = PredictionQualityAssuror(threshold=0.5, audit_interval=1, audit_window=4)
        qa.record(0.0, 10.0)
        qa.acknowledge_retraining()
        assert not qa.retraining_due
        # After the error history reset, a clean audit passes.
        audit = qa.record(0.0, 0.0)
        assert not audit.breached

    def test_window_mse_uses_recent_only(self):
        qa = PredictionQualityAssuror(threshold=100.0, audit_interval=1, audit_window=2)
        qa.record(0.0, 10.0)
        qa.record(0.0, 0.0)
        audit = qa.record(0.0, 0.0)
        assert audit.window_mse == pytest.approx(0.0)

    def test_on_breach_callback(self):
        seen = []
        qa = PredictionQualityAssuror(
            threshold=0.5, audit_interval=1, on_breach=seen.append
        )
        qa.record(0.0, 5.0)
        assert len(seen) == 1
        assert seen[0].breached

    def test_non_finite_rejected(self):
        qa = PredictionQualityAssuror()
        with pytest.raises(ConfigurationError):
            qa.record(float("nan"), 1.0)

    def test_audit_history_kept(self):
        """The QA keeps its audit history as counts: ``audits_total``
        counts the audits ``record()`` returned."""
        qa = PredictionQualityAssuror(
            threshold=1.0, audit_interval=3, audit_window=3
        )
        errors = [0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        audits = [qa.record(err, 0.0) for err in errors]
        audits = [a for a in audits if a is not None]
        assert qa.audits_total == len(audits) == 3
        assert qa.breaches_total == sum(a.breached for a in audits) == 1


class TestRollingMse:
    def test_zero_before_any_record(self):
        assert PredictionQualityAssuror().rolling_mse == 0.0

    def test_matches_audit_window_mean(self):
        qa = PredictionQualityAssuror(threshold=10.0, audit_window=4)
        for err in (1.0, 2.0, 3.0):
            qa.record(err, 0.0)
        assert qa.rolling_mse == pytest.approx((1.0 + 4.0 + 9.0) / 3.0)

    def test_windowed(self):
        qa = PredictionQualityAssuror(threshold=10.0, audit_window=2)
        for err in (5.0, 1.0, 2.0):
            qa.record(err, 0.0)
        assert qa.rolling_mse == pytest.approx((1.0 + 4.0) / 2.0)

    def test_running_sum_tracks_evictions(self):
        """The O(1) running sum stays consistent with the deque through
        many wrap-arounds of the window."""
        qa = PredictionQualityAssuror(threshold=1e9, audit_window=5)
        rng = np.random.default_rng(4)
        for _ in range(200):
            qa.record(float(rng.normal()), 0.0)
        assert qa.rolling_mse == pytest.approx(
            float(np.mean(qa._sq_errors)), rel=1e-12
        )

    def test_acknowledge_resets_running_sum(self):
        qa = PredictionQualityAssuror(threshold=1e9)
        qa.record(3.0, 0.0)
        qa.acknowledge_retraining()
        assert qa.rolling_mse == 0.0
        qa.record(2.0, 0.0)
        assert qa.rolling_mse == 4.0


class TestStateDict:
    def drive(self, audits=None):
        """19 records; the audits they return go to *audits* if given."""
        qa = PredictionQualityAssuror(
            threshold=0.5, audit_window=8, audit_interval=4
        )
        rng = np.random.default_rng(3)
        for _ in range(19):
            audit = qa.record(float(rng.normal()), 0.0)
            if audit is not None and audits is not None:
                audits.append(audit)
        return qa

    def test_roundtrip_resumes_audit_schedule(self):
        qa = self.drive()
        clone = PredictionQualityAssuror(
            threshold=0.5, audit_window=8, audit_interval=4
        ).load_state_dict(qa.state_dict())
        assert clone.step == qa.step
        assert clone.retraining_due == qa.retraining_due
        assert clone.rolling_mse == qa.rolling_mse
        # The next record must behave identically in both instances.
        audit_a = qa.record(0.3, 0.0)
        audit_b = clone.record(0.3, 0.0)
        assert audit_a == audit_b

    def test_state_is_json_serializable(self):
        import json

        state = json.loads(json.dumps(self.drive().state_dict()))
        clone = PredictionQualityAssuror(
            threshold=0.5, audit_window=8, audit_interval=4
        ).load_state_dict(state)
        assert clone.step == 19

    def test_malformed_state_rejected(self):
        qa = PredictionQualityAssuror()
        with pytest.raises(ConfigurationError):
            qa.load_state_dict({"sq_errors": []})
        with pytest.raises(ConfigurationError):
            qa.load_state_dict(
                {"sq_errors": [], "step": -1, "retraining_due": False}
            )

    def test_lifetime_counters_round_trip(self):
        audits = []
        qa = self.drive(audits)
        assert qa.audits_total == len(audits)
        assert qa.breaches_total == sum(1 for a in audits if a.breached)
        assert qa.breaches_total > 0
        clone = PredictionQualityAssuror(
            threshold=0.5, audit_window=8, audit_interval=4
        ).load_state_dict(qa.state_dict())
        assert clone.audits_total == qa.audits_total
        assert clone.breaches_total == qa.breaches_total

    def test_legacy_state_backfills_counters(self):
        """States written before the counters existed kept every audit:
        the breach count comes from that list, the audit count from the
        step. A 5.x state's list and ``audits_total`` are ignored."""
        pre_counter = {
            "sq_errors": [0.25, 4.0],
            "step": 9,
            "retraining_due": True,
            "audits": [
                {"step": 4, "window_mse": 0.1, "breached": False},
                {"step": 8, "window_mse": 2.1, "breached": True},
            ],
        }
        v5 = {**pre_counter, "audits_total": 2, "breaches_total": 1}
        for state in (pre_counter, v5):
            clone = PredictionQualityAssuror(
                threshold=0.5, audit_window=8, audit_interval=4
            ).load_state_dict(state)
            assert clone.audits_total == 2
            assert clone.breaches_total == 1
            assert clone.step == 9 and clone.retraining_due
            assert set(clone.state_dict()) == {
                "sq_errors", "sq_sum", "step", "retraining_due",
                "breaches_total",
            }

    def test_malformed_counters_rejected(self):
        qa = PredictionQualityAssuror()
        state = self.drive().state_dict()
        state["breaches_total"] = "many"
        with pytest.raises(ConfigurationError):
            qa.load_state_dict(state)

    def test_running_sum_travels_verbatim(self):
        """The history-dependent running sum is persisted as-is, so the
        restored QA reports the *exact* rolling_mse the original did."""
        qa = self.drive()
        state = qa.state_dict()
        assert state["sq_sum"] == qa._sq_sum
        clone = PredictionQualityAssuror(
            threshold=0.5, audit_window=8, audit_interval=4
        ).load_state_dict(state)
        assert clone._sq_sum == qa._sq_sum
        assert clone.rolling_mse == qa.rolling_mse

    def test_legacy_state_backfills_running_sum(self):
        """States written before ``sq_sum`` existed re-sum the saved
        window in record order."""
        qa = self.drive()
        state = qa.state_dict()
        del state["sq_sum"]
        clone = PredictionQualityAssuror(
            threshold=0.5, audit_window=8, audit_interval=4
        ).load_state_dict(state)
        assert clone._sq_sum == sum(state["sq_errors"], 0.0)
        assert clone.rolling_mse == pytest.approx(qa.rolling_mse, rel=1e-12)

    def test_malformed_running_sum_rejected(self):
        qa = PredictionQualityAssuror()
        state = self.drive().state_dict()
        state["sq_sum"] = "heavy"
        with pytest.raises(ConfigurationError):
            qa.load_state_dict(state)
