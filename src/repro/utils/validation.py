"""Argument validation helpers.

Every public constructor in the library validates its arguments eagerly so
that configuration mistakes surface at build time rather than as silently
wrong estimates deep inside an experiment run.
"""

from __future__ import annotations

from numbers import Integral, Real


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if it is a real number strictly greater than zero.

    Raises:
        TypeError: if ``value`` is not a real number.
        ValueError: if ``value`` is not strictly positive.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if it is a real number greater than or equal to zero."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not value >= 0:  # also rejects NaN
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def require_positive_int(value: int, name: str) -> int:
    """Return ``value`` if it is an integer strictly greater than zero."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return int(value)


def require_probability(value: float, name: str) -> float:
    """Return ``value`` if it lies in the open interval (0, 1)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not 0 < value < 1:
        raise ValueError(f"{name} must be in the open interval (0, 1), got {value!r}")
    return float(value)


def require_in_range(value: float, name: str, low: float, high: float) -> float:
    """Return ``value`` if it lies in the closed interval [low, high]."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return float(value)
