"""Reference computations the program itself does not need, kept for tests.

Each works on the array API: a dense ``alpha`` with one dual coordinate per
row of the dataset, and a step ``rho`` aligned with a partition's rows.
"""

import numpy as np

from fedtoken import losses
from fedtoken.dual import LocalUpdate, _solve_logistic


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


def scalar_local_solve(part, dataset, alpha: np.ndarray, model, loss: str, hyper,
                       stream) -> LocalUpdate:
    """One client's randomized exact coordinate ascent, one coordinate at a time.

    The per-client loop that ``dual.local_solve`` runs in lockstep across a
    cohort: ``stream`` is the client's own local-solve stream, and each
    coordinate costs one ``dot`` and one axpy on the client's running model.
    """
    losses.check_kind(loss)
    idx = part.rows
    X = dataset.features[idx]
    y = dataset.labels[idx]
    scale = 1.0 / (hyper.lam * len(dataset))
    a = alpha[idx]
    if loss == losses.LOGISTIC:
        a = np.clip(a, np.minimum(0.0, y), np.maximum(0.0, y))
    rows = list(X)
    ys, alphas = y.tolist(), a.tolist()
    qs = (np.einsum("ij,ij->i", X, X) * scale).tolist()
    rho = [0.0] * len(rows)
    w = model.phi.copy()
    squared = loss == losses.SQUARED
    gen = stream.generator()

    for _ in range(hyper.local_passes):
        for j in gen.permutation(len(rows)).tolist():
            xj, rj, qj = rows[j], rho[j], qs[j]
            base = float(xj.dot(w)) - rj * qj
            if squared:
                r = (ys[j] - alphas[j] - base) / (1.0 + qj)
            else:
                r = _solve_logistic(alphas[j], ys[j], base, qj)
            w += ((r - rj) * scale) * xj
            rho[j] = r

    rho_arr = np.array(rho)
    return LocalUpdate(client_id=part.client_id, rho=rho_arr,
                       delta_phi=X.T @ rho_arr / (hyper.lam * len(dataset)))
