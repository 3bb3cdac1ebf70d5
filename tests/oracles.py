"""Reference computations the program itself does not need, kept for tests.

Each works on the array API: a dense ``alpha`` with one dual coordinate per
row of the dataset, and a step ``rho`` aligned with a partition's rows.
"""

import numpy as np

from fedtoken import losses


def is_feasible(kind: str, alpha: np.ndarray, labels: np.ndarray,
                tol: float = 1e-12) -> bool:
    """Whether every coordinate lies in its feasible interval, up to tol."""
    lo, hi = np.array([losses.feasible_interval(kind, float(y)) for y in labels]).T
    return bool(np.all((lo - tol <= alpha) & (alpha <= hi + tol)))


def coordinate_value(loss: str, alpha_i: float, y_i: float, r: float,
                     base: float, qcoef: float) -> float:
    """One-dimensional subproblem objective (scaled by D, constants dropped)."""
    return float(losses.conjugate(loss, alpha_i + r, y_i)) - base * r - 0.5 * qcoef * r * r


def local_gain(part, dataset, alpha: np.ndarray, model, loss: str, lam: float,
               rho: np.ndarray) -> float:
    """Local dual objective improvement of a step rho over rho = 0."""
    D = len(dataset)
    a, y, X = alpha[part.rows], dataset.labels[part.rows], dataset.features[part.rows]
    sep = float(np.sum(losses.conjugate(loss, a + rho, y) - losses.conjugate(loss, a, y)))
    lin = float(rho @ (X @ model.phi))
    dvec = X.T @ rho
    return (sep - lin) / D - float(dvec @ dvec) / (2.0 * lam * D * D)
