"""Convex per-sample losses and their Fenchel conjugates.

Both losses act on the margin score ``z = w . x`` against a binary label
``y in {-1, +1}``:

* ``squared``:  0.5 * (z - y)^2
* ``logistic``: log(1 + exp(-y * z))

The dual machinery needs ``-loss*(-a)`` per coordinate.  For squared loss
this is ``a*y - a^2/2`` with unconstrained ``a``; for logistic it is the
binary entropy ``-[s log s + (1-s) log(1-s)]`` of ``s = a*y``, defined on
``s in [0, 1]`` with ``0 log 0 = 0``.
"""

from __future__ import annotations

import math

import numpy as np

SQUARED = "squared"
LOGISTIC = "logistic"
LOSS_KINDS = (SQUARED, LOGISTIC)


class DualDomainError(ValueError):
    """Dual coordinate outside the conjugate's domain."""


def check_kind(kind: str) -> str:
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {kind!r}")
    return kind


def loss_values(kind: str, scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Vector of per-sample losses at margin scores."""
    if kind == SQUARED:
        return 0.5 * (scores - labels) ** 2
    if kind == LOGISTIC:
        # log(1 + e^m) = max(m, 0) + log1p(e^-|m|): cannot overflow, and is
        # cheaper than np.logaddexp(0, m), which handles general pairs
        m = -labels * scores
        return np.maximum(m, 0.0) + np.log1p(np.exp(-np.abs(m)))
    raise ValueError(f"unknown loss kind {kind!r}")


def mean_loss(kind: str, w: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean loss of the scores ``features @ w``, one row per labelled sample."""
    # the sum and division np.mean makes, without its few microseconds of set-up
    return float(loss_values(kind, features @ w, labels).sum() / len(labels))


def _entropy(s: float) -> float:
    # 0 log 0 := 0 at both endpoints
    total = 0.0
    if s > 0.0:
        total += s * math.log(s)
    if s < 1.0:
        total += (1.0 - s) * math.log(1.0 - s)
    return total


def conjugate_term(kind: str, alpha_i: float, y_i: float) -> float:
    """The dual contribution -loss*(-alpha_i) of a single coordinate."""
    if kind == SQUARED:
        return alpha_i * y_i - 0.5 * alpha_i * alpha_i
    if kind == LOGISTIC:
        s = alpha_i * y_i
        if s < -1e-12 or s > 1.0 + 1e-12:
            raise DualDomainError(f"alpha*y = {s} outside [0, 1]")
        return -_entropy(min(max(s, 0.0), 1.0))
    raise ValueError(f"unknown loss kind {kind!r}")


def feasible_interval(kind: str, y_i: float) -> tuple[float, float]:
    """Admissible range for a dual coordinate with label y_i."""
    if kind == SQUARED:
        return (-math.inf, math.inf)
    lo, hi = 0.0, y_i  # alpha*y in [0, 1]
    return (min(lo, hi), max(lo, hi))


def is_feasible(kind: str, alpha_i: float, y_i: float, tol: float = 1e-12) -> bool:
    lo, hi = feasible_interval(kind, y_i)
    return lo - tol <= alpha_i <= hi + tol
