"""Primal/dual objectives and the per-client dual coordinate-ascent solver.

The global problem is L2-regularized empirical risk minimization.  Its dual
keeps one coordinate per training sample; the shared vector

    phi(alpha) = (1 / (lambda * D)) * sum_i alpha_i * x_i

coincides with the primal model under the quadratic regularizer, so model
and dual state stay in exact correspondence round after round.

A client owns the dual coordinates of its local samples.  One local solve
runs a fixed number of randomized passes over those coordinates, solving
each one-dimensional subproblem exactly: closed form for squared loss, a
bracketed Newton root find in logit space for logistic.  The resulting step
``rho`` never decreases the client's local dual objective relative to
``rho = 0``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import losses
from .data import ClientPartition, Dataset
from .rng import RngStream

UPLOAD_HEADER_BYTES = 64
MODEL_MAGIC = b"FTMD"
MODEL_VERSION = 1

NEWTON_TOL = 1e-8  # on |F|; the closed-form last step leaves O(F^2)
NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class Hyperparams:
    lam: float
    local_passes: int = 1

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be > 0")
        if self.local_passes < 1:
            raise ValueError("local_passes must be >= 1")


@dataclass(frozen=True)
class GlobalModel:
    phi: np.ndarray
    round: int = 0

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        if not np.all(np.isfinite(phi)):
            raise ValueError("model vector must be finite")
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class LocalUpdate:
    client_id: int
    rho: np.ndarray  # one step per row of the partition, in its index order
    delta_phi: np.ndarray
    upload_bytes: int


def upload_size(d: int) -> int:
    return 8 * d + UPLOAD_HEADER_BYTES


def primal_objective(w: np.ndarray, dataset: Dataset, loss: str, lam: float) -> float:
    return losses.mean_loss(loss, w, dataset.features, dataset.labels) \
        + lam * 0.5 * float(w @ w)


def phi_of_alpha(alpha: np.ndarray, dataset: Dataset, lam: float) -> np.ndarray:
    return dataset.features.T @ alpha / (lam * len(dataset))


def dual_objective(alpha: np.ndarray, dataset: Dataset, loss: str, lam: float) -> float:
    conj = float(losses.conjugate(loss, alpha, dataset.labels).sum())
    phi = phi_of_alpha(alpha, dataset, lam)
    return conj / len(dataset) - lam * 0.5 * float(phi @ phi)


def duality_gap(alpha: np.ndarray, dataset: Dataset, loss: str, lam: float) -> float:
    w = phi_of_alpha(alpha, dataset, lam)
    return primal_objective(w, dataset, loss, lam) - dual_objective(alpha, dataset, loss, lam)


def _logit_residual(t: float, q: float, c: float) -> tuple[float, float, float]:
    """F(t) = t + q*sigmoid(t) + c, its slope F'(t) and sigmoid(t).

    The logistic coordinate step is optimal where F vanishes, with t the
    logit of the new alpha*y.  The derivative of the coordinate objective
    in the step r is -y * F(t).
    """
    if t >= 0.0:
        s = 1.0 / (1.0 + math.exp(-t))
    else:
        e = math.exp(t)
        s = e / (1.0 + e)
    return t + q * s + c, 1.0 + q * s * (1.0 - s), s


def _solve_logistic(alpha_i: float, y_i: float, base: float, qcoef: float) -> float:
    """Exact maximizer of the logistic one-dimensional subproblem over the step r.

    With s = (alpha_i + r) * y_i and t = logit(s), optimality reads
    F(t) = t + q*sigmoid(t) + c = 0 with c = y*base - q*alpha*y.  Since
    1 <= F' <= 1 + q/4, the root lies in [-c - q, -c].  Newton starts from
    one Newton step off t = 0, stays inside the shrinking bracket, and ends
    with a closed-form last step once |F| is small.
    """
    if qcoef == 0.0 and base == 0.0:
        return 0.5 * y_i - alpha_i  # entropy-only optimum at s = 1/2
    c = y_i * base - qcoef * alpha_i * y_i
    lo, hi = -c - qcoef, -c
    t = min(max(-(c + 0.5 * qcoef) / (1.0 + 0.25 * qcoef), lo), hi)
    for _ in range(NEWTON_MAX_ITER):
        f, slope, s = _logit_residual(t, qcoef, c)
        if abs(f) <= NEWTON_TOL:
            # the last Newton step, taken on s = sigmoid(t) to first order
            s -= s * (1.0 - s) * f / slope
            break
        if f > 0.0:
            hi = t
        else:
            lo = t
        t_new = t - f / slope
        t = t_new if lo <= t_new <= hi else 0.5 * (lo + hi)
    # s in [0, 1] up to rounding: clip the step into the feasible interval
    if y_i > 0.0:
        return min(max(s - alpha_i, -alpha_i), 1.0 - alpha_i)
    return min(max(-s - alpha_i, -1.0 - alpha_i), -alpha_i)


def local_solve(part: ClientPartition, dataset: Dataset, alpha: np.ndarray,
                model: GlobalModel, loss: str, hyper: Hyperparams,
                stream: RngStream) -> LocalUpdate:
    """Run randomized exact coordinate ascent over the client's dual block.

    ``dataset`` is the client's view of the training data (labels may have
    been poisoned locally) and ``alpha`` the global dual vector; only the
    rows in ``part`` are read.  The solve keeps the running model
    w = phi + (1 / (lambda * D)) * X_local^T rho, so each coordinate costs
    one dot and one axpy.  The returned ``delta_phi`` is recomputed from
    the final ``rho`` in one pass so it matches (1 / (lambda * D)) *
    X_local^T rho exactly.
    """
    losses.check_kind(loss)
    idx = part.rows
    X = dataset.features[idx]
    y = dataset.labels[idx]
    scale = 1.0 / (hyper.lam * len(dataset))
    a = alpha[idx]
    if loss == losses.LOGISTIC:
        # commits keep alpha*y inside [0, 1] up to rounding; clip the dust
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
    return LocalUpdate(
        client_id=part.client_id,
        rho=rho_arr,
        delta_phi=X.T @ rho_arr / (hyper.lam * len(dataset)),
        upload_bytes=upload_size(dataset.d),
    )


def commit(alpha: np.ndarray, rows: np.ndarray, rho: np.ndarray, nu: float) -> None:
    """Fold an accepted step into the dual vector in place: alpha += nu * rho."""
    alpha[rows] += nu * rho


def save_model(path, phi: np.ndarray) -> None:
    phi = np.asarray(phi, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        fh.write(struct.pack("<Q", phi.shape[0]))
        fh.write(phi.astype("<f8").tobytes())


def load_model(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MODEL_MAGIC:
        raise ValueError("not a model snapshot file")
    version, = struct.unpack("<I", blob[4:8])
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model snapshot version {version}")
    d, = struct.unpack("<Q", blob[8:16])
    if len(blob) != 16 + 8 * d:
        raise ValueError("model snapshot truncated")
    return np.frombuffer(blob[16:], dtype="<f8").copy()
