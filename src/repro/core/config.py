"""Configuration for the LARPredictor workflow.

One frozen dataclass holds every knob of Figure 2's pipeline so that a
configuration can be validated eagerly, hashed into experiment records,
and swept by the ablation harness. Paper defaults throughout: window
m = 5 (m = 16 for VM1's 30-minute trace), PCA to n = 2 components,
k = 3 nearest neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.exceptions import ConfigurationError
from repro.util.validation import check_positive_int_fields

__all__ = ["LARConfig", "PAPER_WINDOW_SHORT", "PAPER_WINDOW_LONG"]

#: Prediction order used for the 24-hour, 5-minute-interval traces (VM2-VM5).
PAPER_WINDOW_SHORT = 5
#: Prediction order used for VM1's 7-day, 30-minute-interval trace
#: ("prediction order = 16", Table 2 caption).
PAPER_WINDOW_LONG = 16


@dataclass(frozen=True)
class LARConfig:
    """All tunables of the LARPredictor pipeline.

    Every count is stored as a plain ``int``: a numpy integer is
    converted, and a bool or a float raises ``ConfigurationError``.

    Attributes
    ----------
    window:
        Prediction order *m*: frame length, and the default AR order.
    n_components:
        PCA output dimension *n* (< window). ``None`` disables PCA, the
        "PCA off" ablation arm.
    min_variance:
        Alternative PCA policy — keep enough components to explain this
        variance fraction. Mutually exclusive with *n_components*.
    k:
        k-NN neighbourhood size (odd).
    ar_order:
        AR model order; ``None`` (default) uses *window*, matching the
        paper's single "prediction order" parameter.
    extended_pool:
        Use the ten-member extended pool instead of the paper's three.
    """

    window: int = PAPER_WINDOW_SHORT
    n_components: int | None = 2
    min_variance: float | None = None
    k: int = 3
    ar_order: int | None = None
    extended_pool: bool = False

    def __post_init__(self) -> None:
        check_positive_int_fields(
            self, ("window", "k"), optional=("n_components", "ar_order")
        )
        if self.window < 2:
            raise ConfigurationError(f"window must be >= 2, got {self.window}")
        if self.n_components is not None and self.min_variance is not None:
            raise ConfigurationError(
                "n_components and min_variance are mutually exclusive"
            )
        if self.n_components is not None and self.n_components > self.window:
            raise ConfigurationError(
                f"n_components={self.n_components} exceeds window={self.window}"
            )
        if self.min_variance is not None and not 0.0 < self.min_variance <= 1.0:
            raise ConfigurationError(
                f"min_variance must be in (0, 1], got {self.min_variance}"
            )
        if self.k % 2 == 0:
            raise ConfigurationError(
                f"k must be odd to avoid vote ties, got {self.k}"
            )
        if self.ar_order is not None and self.ar_order > self.window:
            raise ConfigurationError(
                f"ar_order={self.ar_order} exceeds window={self.window}; "
                f"frames would be too short for the AR model"
            )

    @property
    def effective_ar_order(self) -> int:
        """The AR order actually used: explicit, or the window."""
        return self.ar_order if self.ar_order is not None else self.window

    def with_(self, **changes) -> "LARConfig":
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    @classmethod
    def paper_short(cls) -> "LARConfig":
        """The configuration used for VM2-VM5 (m = 5, n = 2, k = 3)."""
        return cls(window=PAPER_WINDOW_SHORT)

    @classmethod
    def paper_long(cls) -> "LARConfig":
        """The configuration used for VM1 (m = 16, n = 2, k = 3)."""
        return cls(window=PAPER_WINDOW_LONG)
