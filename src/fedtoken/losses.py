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


def mean_loss(kind: str, w: np.ndarray, features: np.ndarray,
              labels: np.ndarray | None) -> float:
    """Mean loss of the scores ``features @ w``, one row per labelled sample.

    ``labels`` may be ``None``: each row then already carries its sample's
    label, so ``features @ w`` is the loss's whole argument.  For squared
    loss that is the residual ``z - y``; for logistic loss it is the margin
    ``-y * z``, and labels are +-1, so a row folded that way gives the same
    loss, to the bit, as the labelled row.  No label product is taken.
    """
    # np.dot, not @: matmul takes an (n, 1) matrix through a loop that is
    # not BLAS, several times slower at n_test rows
    z = np.dot(features, w)
    # sums and a division by hand, without np.mean's few microseconds of set-up
    if kind == SQUARED:
        if labels is not None:
            z -= labels
        return float(0.5 * (z @ z) / len(z))
    if kind == LOGISTIC:
        if labels is not None:
            z *= -labels
        return float(_softplus(z).sum() / len(z))
    raise ValueError(f"unknown loss kind {kind!r}")


def _softplus(m: np.ndarray) -> np.ndarray:
    """log(1 + e^m) elementwise, computed in place of the margins ``m``.

    ``max(m, 0) + log1p(e^-|m|)`` cannot overflow, and is cheaper than
    np.logaddexp(0, m), which handles general pairs.
    """
    t = np.abs(m)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    np.maximum(m, 0.0, out=m)
    m += t
    return m


def conjugate(kind: str, alpha: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Elementwise dual contribution -loss*(-alpha_i) of each coordinate."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if kind == SQUARED:
        return alpha * labels - 0.5 * alpha * alpha
    if kind == LOGISTIC:
        s = alpha * labels
        outside = (s < -1e-12) | (s > 1.0 + 1e-12)
        if np.any(outside):
            raise DualDomainError(f"alpha*y = {s[outside].flat[0]} outside [0, 1]")
        s = np.clip(s, 0.0, 1.0)
        t = 1.0 - s
        # 0 log 0 := 0 at both endpoints; log(1) stands in for log(0)
        return -(s * np.log(np.where(s > 0.0, s, 1.0))
                 + t * np.log(np.where(t > 0.0, t, 1.0)))
    raise ValueError(f"unknown loss kind {kind!r}")
