"""Small helpers shared by the benchmark's workload modules."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Metric(NamedTuple):
    """One measured number and the sample count behind it."""

    value: float
    n: int


def median(values) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
