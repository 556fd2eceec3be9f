"""Scalar argument contracts, declared once.

A size, rate, duration, weight or learning rate is checked where it
enters the program, by one of the kinds below, so that a bad value fails
with a ``ValueError`` naming the argument instead of three layers later
as a numpy traceback. Every kind keeps the same rules:

* each bound is written ``not v >= low``, so NaN fails every kind;
* a ``bool`` is never a number, and a non-number (a string, ``None``)
  is a ``ValueError`` that names the argument, not a ``TypeError``;
* ``inf`` is legal only where a kind's ``inf=True`` says so.

Data checks (ids in range, offsets non-decreasing, a span's parent)
test arrays or state, not arguments, and stay at their call sites.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["count", "positive", "nonnegative", "fraction", "finite",
           "service_seconds"]

# exact classes, so a bool (or numpy bool) is never a number; one set
# lookup keeps the checks on hot paths (every priced batch, every modeled
# collective) cheap
_SCALARS = set(np.sctypeDict.values()) - {np.timedelta64}
_INTEGERS = frozenset(
    [int] + [t for t in _SCALARS if issubclass(t, np.integer)])
_NUMBERS = _INTEGERS | frozenset(
    [float] + [t for t in _SCALARS if issubclass(t, np.floating)])


def count(name: str, v, low: int = 1) -> None:
    """An integer (not a bool) >= ``low``."""
    if v.__class__ not in _INTEGERS or not v >= low:
        raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")


def positive(name: str, v, low: float = 0, inf: bool = False) -> None:
    """A number > ``low``, finite unless ``inf``."""
    if v.__class__ not in _NUMBERS or not v > low \
            or not (inf or math.isfinite(v)):
        raise ValueError(f"{name} must be a number > {low:g}"
                         f"{'' if inf else ' and finite'}, got {v!r}")


def nonnegative(name: str, v, low: float = 0, inf: bool = False) -> None:
    """A number >= ``low``, finite unless ``inf``."""
    if v.__class__ not in _NUMBERS or not v >= low \
            or not (inf or math.isfinite(v)):
        raise ValueError(f"{name} must be a number >= {low:g}"
                         f"{'' if inf else ' and finite'}, got {v!r}")


def fraction(name: str, v, zero: bool = True, one: bool = True) -> None:
    """A number in ``[0, 1]``; ``zero=False`` or ``one=False`` opens that
    end of the interval."""
    if v.__class__ not in _NUMBERS or not (v >= 0 if zero else v > 0) \
            or not (v <= 1 if one else v < 1):
        raise ValueError(f"{name} must be a number in "
                         f"{'[' if zero else '('}0, 1{']' if one else ')'}, "
                         f"got {v!r}")


def finite(name: str, v) -> None:
    """Any finite number."""
    if v.__class__ not in _NUMBERS or not math.isfinite(v):
        raise ValueError(f"{name} must be a finite number, got {v!r}")


def service_seconds(value) -> float:
    """A service estimate as float seconds, checked finite and >= 0 (a
    ``ValueError`` names it otherwise): the batcher's and router's check."""
    seconds = float(value)
    if not 0.0 <= seconds < math.inf:
        raise ValueError("a service estimate must be finite and >= 0, "
                         f"got {seconds!r}")
    return seconds
