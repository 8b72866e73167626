"""Input validation helpers.

Every public entry point of the library funnels its array arguments through
these functions so error messages are uniform and numerical code further
down can assume clean, contiguous ``float64`` data (which also keeps the
vectorized kernels fast: no surprise object arrays, no NaN propagation).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DataError

__all__ = [
    "as_series",
    "as_matrix",
    "check_finite",
    "check_positive_int",
    "check_positive_int_fields",
    "check_odd",
    "check_fraction",
]


def as_series(
    values,
    *,
    name: str = "series",
    min_length: int = 1,
    allow_empty: bool = False,
) -> np.ndarray:
    """Coerce *values* to a 1-D contiguous ``float64`` array.

    Parameters
    ----------
    values:
        Any sequence convertible by :func:`numpy.asarray`.
    name:
        Label used in error messages.
    min_length:
        Minimum number of elements required (ignored when *allow_empty*
        is true and the input is empty).
    allow_empty:
        Permit zero-length input.

    Returns
    -------
    numpy.ndarray
        A C-contiguous ``float64`` copy-or-view of the input.

    Raises
    ------
    DataError
        If the input is not 1-D, contains non-finite values, or is shorter
        than *min_length*.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DataError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        if allow_empty:
            return arr
        raise DataError(f"{name} must not be empty")
    if arr.size < min_length:
        raise DataError(
            f"{name} has {arr.size} values but at least {min_length} are required"
        )
    check_finite(arr, name=name)
    return arr


def as_matrix(values, *, name: str = "matrix", min_rows: int = 1) -> np.ndarray:
    """Coerce *values* to a 2-D contiguous ``float64`` array.

    Raises
    ------
    DataError
        If the input is not 2-D, has fewer than *min_rows* rows, or
        contains non-finite values.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < min_rows:
        raise DataError(
            f"{name} has {arr.shape[0]} rows but at least {min_rows} are required"
        )
    check_finite(arr, name=name)
    return arr


def check_finite(arr: np.ndarray, *, name: str = "array") -> None:
    """Raise :class:`DataError` if *arr* contains NaN or infinity."""
    if not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise DataError(f"{name} contains {bad} non-finite value(s)")


def check_positive_int(value, *, name: str) -> int:
    """Validate that *value* is an integer >= 1 and return it as ``int``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


def check_positive_int_fields(obj, names, *, optional=()) -> None:
    """Check the fields *names* of the frozen dataclass *obj* with
    :func:`check_positive_int` and store the plain ``int`` it returns;
    the fields in *optional* may also be ``None``."""
    for name in (*names, *optional):
        value = getattr(obj, name)
        if value is not None or name in names:
            object.__setattr__(obj, name, check_positive_int(value, name=name))


def check_odd(value, *, name: str) -> int:
    """Validate that *value* is a positive odd integer (k-NN vote size)."""
    value = check_positive_int(value, name=name)
    if value % 2 == 0:
        raise ConfigurationError(f"{name} must be odd to avoid vote ties, got {value}")
    return value


def check_fraction(value, *, name: str) -> float:
    """Validate that *value* lies in the open-closed interval (0, 1]."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
    if not 0.0 < value <= 1.0:
        raise ConfigurationError(f"{name} must be in (0, 1], got {value}")
    return value
