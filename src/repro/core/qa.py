"""The Prediction Quality Assuror (paper §3.2, Figure 1).

The QA "periodically audits the prediction performance by calculating
the average MSE of historical prediction data stored in the prediction
DB. When the average MSE of the audit window exceeds a predefined
threshold, it directs the LARPredictor to re-train the predictors and
the classifier using recent performance data."

This module implements exactly that contract as a small state machine:
(prediction, observation) pairs stream in via :meth:`record`; every
*audit_interval* records an audit runs over the last *audit_window*
pairs; a breach flips :attr:`retraining_due` and invokes the optional
callback. The component is deliberately decoupled from the predictor —
it audits whatever made the predictions, which is also what makes it
independently testable.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.util.validation import check_positive_int

__all__ = ["PredictionQualityAssuror", "AuditRecord"]


@dataclass(frozen=True)
class AuditRecord:
    """One completed audit.

    Attributes
    ----------
    step:
        Total records seen when the audit ran.
    window_mse:
        Average squared error over the audit window.
    breached:
        Whether the threshold was exceeded.
    """

    step: int
    window_mse: float
    breached: bool


class PredictionQualityAssuror:
    """Threshold-triggered retraining monitor.

    Parameters
    ----------
    threshold:
        Audit-window MSE above which retraining is ordered. The natural
        scale is normalized MSE: 1.0 means "no better than predicting the
        training mean".
    audit_window:
        Number of most recent (prediction, observation) pairs each audit
        averages over.
    audit_interval:
        Run an audit every this many recorded pairs (1 = audit on every
        record, the paper's "periodically").
    on_breach:
        Optional callback invoked with the :class:`AuditRecord` of each
        breaching audit — the hook the resource manager wires to
        re-training.
    """

    def __init__(
        self,
        threshold: float = 1.0,
        *,
        audit_window: int = 32,
        audit_interval: int = 8,
        on_breach: Callable[[AuditRecord], None] | None = None,
    ):
        threshold = float(threshold)
        if not threshold > 0.0:  # also rejects NaN, which never breaches
            raise ConfigurationError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold
        self.audit_window = check_positive_int(audit_window, name="audit_window")
        self.audit_interval = check_positive_int(audit_interval, name="audit_interval")
        if on_breach is not None and not callable(on_breach):
            raise ConfigurationError("on_breach must be callable")
        self.on_breach = on_breach
        self._sq_errors: deque[float] = deque(maxlen=self.audit_window)
        # Running sum of the deque contents, maintained alongside it so
        # :attr:`rolling_mse` is O(1) instead of an O(window) mean per
        # metrics snapshot. History-dependent (each eviction subtracts
        # the evicted value), so persistence carries it verbatim.
        self._sq_sum = 0.0
        self._step = 0
        self._retraining_due = False
        #: Breaching audits over the QA's lifetime. Audits themselves are
        #: not kept: :meth:`record` returns each one and ``on_breach``
        #: receives each breaching one, so a caller that wants a log
        #: keeps its own.
        self.breaches_total = 0

    # -- streaming interface ------------------------------------------------

    @property
    def step(self) -> int:
        """Total (prediction, observation) pairs recorded so far."""
        return self._step

    @property
    def audits_total(self) -> int:
        """Audits run over the QA's lifetime.

        An audit runs exactly when the step reaches a multiple of
        ``audit_interval``, so the count follows from the step counter.
        """
        return self._step // self.audit_interval

    @property
    def retraining_due(self) -> bool:
        """Latched breach flag; cleared by :meth:`acknowledge_retraining`."""
        return self._retraining_due

    @property
    def rolling_mse(self) -> float:
        """Mean squared error over the current audit window.

        The same quantity an audit would report right now, without
        waiting for the next audit boundary — what a fleet-level metrics
        snapshot exposes per stream. 0.0 before any pair is recorded.

        O(1): computed from a running sum maintained alongside the
        window, so fleet-wide metrics snapshots don't pay an O(window)
        mean per stream. The running sum accumulates in record order
        (subtracting evicted values), so the result can differ from the
        audit's freshly computed ``window_mse`` by a few ulps.
        """
        if not self._sq_errors:
            return 0.0
        return self._sq_sum / len(self._sq_errors)

    def record(self, prediction: float, observation: float) -> AuditRecord | None:
        """Record one pair; return the audit record if an audit ran."""
        err = float(prediction) - float(observation)
        if not np.isfinite(err):
            raise ConfigurationError(
                "non-finite prediction/observation recorded with the QA"
            )
        sq = err * err
        if len(self._sq_errors) == self.audit_window:
            self._sq_sum -= self._sq_errors[0]
        self._sq_errors.append(sq)
        self._sq_sum += sq
        self._step += 1
        if self._step % self.audit_interval == 0:
            return self._audit()
        return None

    def acknowledge_retraining(self) -> None:
        """Clear the breach latch and the error history after a retrain."""
        self._retraining_due = False
        self._sq_errors.clear()
        self._sq_sum = 0.0

    # -- persistence ----------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the mutable audit state.

        Captures everything :meth:`load_state_dict` needs to resume the
        audit schedule exactly: the error window, the step counter (which
        also gives :attr:`audits_total`), the breach latch and the
        lifetime breach counter (with the audit count, what
        :class:`~repro.serving.fleet.StreamMetrics` reports, so a fleet
        restored from disk shows the same metrics it saved). Its size
        does not grow with the number of audits run. Configuration
        (threshold/windows) travels with the constructor, not the state.
        """
        return {
            "sq_errors": [float(e) for e in self._sq_errors],
            # The running sum is history-dependent (every eviction
            # subtracted the evicted value), so it travels verbatim: a
            # restored QA reports the exact rolling_mse the original
            # did, not a freshly re-summed approximation of it.
            "sq_sum": self._sq_sum,
            "step": self._step,
            "retraining_due": self._retraining_due,
            "breaches_total": self.breaches_total,
        }

    def load_state_dict(self, state: dict) -> "PredictionQualityAssuror":
        """Restore the state captured by :meth:`state_dict`.

        States written before 6.0 also carry an ``audits`` list and an
        ``audits_total`` counter; both are ignored (the audit count
        follows from ``step``), except that a state without
        ``breaches_total`` counts it from the list's breached entries.
        """
        try:
            sq_errors = [float(e) for e in state["sq_errors"]]
            step = int(state["step"])
            due = bool(state["retraining_due"])
            if "breaches_total" in state:
                breaches_total = int(state["breaches_total"])
            else:
                # Written before the counters existed: those states
                # kept every audit.
                breaches_total = sum(
                    1 for a in state.get("audits", []) if bool(a["breached"])
                )
            # States written before the running sum existed backfill it
            # by summing the saved window in record order — the best
            # reconstruction available without the eviction history.
            sq_sum = float(state.get("sq_sum", sum(sq_errors, 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed QA state: {exc}") from exc
        if step < 0:
            raise ConfigurationError(f"QA step must be >= 0, got {step}")
        self._sq_errors = deque(sq_errors, maxlen=self.audit_window)
        self._sq_sum = sq_sum
        self._step = step
        self._retraining_due = due
        self.breaches_total = breaches_total
        return self

    # -- internals -------------------------------------------------------------

    def _audit(self) -> AuditRecord:
        window_mse = float(np.mean(self._sq_errors)) if self._sq_errors else 0.0
        breached = window_mse > self.threshold
        record = AuditRecord(step=self._step, window_mse=window_mse, breached=breached)
        if breached:
            self.breaches_total += 1
            self._retraining_due = True
            if self.on_breach is not None:
                self.on_breach(record)
        return record

    def __repr__(self) -> str:
        return (
            f"PredictionQualityAssuror(threshold={self.threshold}, "
            f"audit_window={self.audit_window}, "
            f"audit_interval={self.audit_interval}, step={self._step}, "
            f"retraining_due={self._retraining_due})"
        )
