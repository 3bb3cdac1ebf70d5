"""Primal/dual objectives and the cohort's lockstep dual coordinate-ascent solve.

The global problem is L2-regularized empirical risk minimization.  Its dual
keeps one coordinate per training sample; the shared vector

    phi(alpha) = (1 / (lambda * D)) * sum_i alpha_i * x_i

coincides with the primal model under the quadratic regularizer, so model
and dual state stay in exact correspondence round after round.

A client owns the dual coordinates of its local samples.  Its local solve
runs a fixed number of randomized passes over those coordinates, given the
round-start model, solving each one-dimensional subproblem exactly: closed
form for squared loss, a bracketed Newton root find in logit space for
logistic.  The resulting step ``rho`` never decreases the client's local
dual objective relative to ``rho = 0``.

The clients' solves read disjoint rows and their own running models, so
they are independent, as CoCoA's local solvers are (Jaggi et al., NeurIPS
2014).  :func:`local_solve` therefore runs a whole cohort at once.  For
logistic loss, step k of every client's pass is one gathered block of rows,
one batched row dot, one scalar Newton solve per client and one batched
model update.  A squared-loss step is linear in the steps before it, so a
pass goes in blocks of ``SQUARED_BLOCK`` positions: a row dot against the
block-start models and a batched Gram matrix set up a forward substitution
whose every step is one ``np.vecdot`` call for the whole cohort, and one
product moves the models after the block.  Each client still visits its
rows in the order its own stream draws.
"""

from __future__ import annotations

import math
import numbers
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
SQUARED_BLOCK = 32  # squared-loss step positions solved per block


@dataclass(frozen=True)
class Hyperparams:
    lam: float
    local_passes: int = 1

    def __post_init__(self):
        # written to reject NaN, which every comparison rejects
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lam must be a finite number > 0, not {self.lam!r}")
        if not isinstance(self.local_passes, numbers.Integral) or self.local_passes < 1:
            raise ValueError(f"local_passes must be an integer >= 1, not {self.local_passes!r}")


@dataclass(frozen=True)
class GlobalModel:
    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        if not np.all(np.isfinite(phi)):
            raise ValueError("model vector must be finite")
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class Cohort:
    """The partitions of the clients that train in one round."""
    partitions: tuple[ClientPartition, ...]

    def __len__(self) -> int:
        """The number of dual coordinates the cohort owns: its rows."""
        return sum(len(p) for p in self.partitions)


@dataclass(frozen=True)
class LocalUpdate:
    client_id: int
    rho: np.ndarray  # one step per row of the partition, in its index order
    delta_phi: np.ndarray


@dataclass(frozen=True)
class CohortUpdate:
    updates: dict[int, LocalUpdate]  # by client id, in the cohort's order
    upload_bytes: int                # what the solved clients upload, all together


def upload_size(d: int) -> int:
    return 8 * d + UPLOAD_HEADER_BYTES


def phi_of_alpha(alpha: np.ndarray, dataset: Dataset, lam: float) -> np.ndarray:
    return dataset.features.T @ alpha / (lam * len(dataset))


def duality_gap(alpha: np.ndarray, dataset: Dataset, loss: str, lam: float) -> float:
    """Primal minus dual objective at w = phi(alpha).

    Both objectives carry the same term lam/2 * |w|^2, formed here once.
    """
    w = phi_of_alpha(alpha, dataset, lam)
    reg = lam * 0.5 * float(w @ w)
    primal = losses.mean_loss(loss, w, dataset.features, dataset.labels) + reg
    conj = float(losses.conjugate(loss, alpha, dataset.labels).sum())
    return primal - (conj / len(dataset) - reg)


def _solve_logistic(alpha_i: float, y_i: float, base: float, qcoef: float) -> float:
    """Exact maximizer of the logistic one-dimensional subproblem over the step r.

    With s = (alpha_i + r) * y_i and t = logit(s), optimality reads
    F(t) = t + q*sigmoid(t) + c = 0 with c = y*base - q*alpha*y; the
    derivative of the coordinate objective in r is -y * F(t).  Since
    1 <= F' = 1 + q*s*(1 - s) <= 1 + q/4, the root lies in [-c - q, -c].
    Newton starts from one Newton step off t = 0, stays inside the
    shrinking bracket, and ends with a closed-form last step once |F| is
    small.  The clamps are comparisons, not ``min``/``max`` calls: this runs
    once per logistic coordinate step.
    """
    if qcoef == 0.0 and base == 0.0:
        return 0.5 * y_i - alpha_i  # entropy-only optimum at s = 1/2
    exp = math.exp
    c = y_i * base - qcoef * alpha_i * y_i
    lo, hi = -c - qcoef, -c
    t = -(c + 0.5 * qcoef) / (1.0 + 0.25 * qcoef)
    if t < lo:
        t = lo
    if t > hi:
        t = hi
    for _ in range(NEWTON_MAX_ITER):
        if t >= 0.0:
            s = 1.0 / (1.0 + exp(-t))
        else:
            e = exp(t)
            s = e / (1.0 + e)
        f = t + qcoef * s + c
        slope = 1.0 + qcoef * s * (1.0 - s)
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
        r, r_lo, r_hi = s - alpha_i, -alpha_i, 1.0 - alpha_i
    else:
        r, r_lo, r_hi = -s - alpha_i, -1.0 - alpha_i, -alpha_i
    if r < r_lo:
        r = r_lo
    if r > r_hi:
        r = r_hi
    return r


def local_solve(part: Cohort, dataset: Dataset, alpha: np.ndarray,
                model: GlobalModel, loss: str, hyper: Hyperparams,
                stream: RngStream) -> CohortUpdate:
    """Run every cohort client's randomized exact coordinate ascent in lockstep.

    ``dataset`` is the clients' view of the training data (labels may have
    been poisoned locally) and ``alpha`` the global dual vector; only the
    rows of the cohort's partitions are read.  ``stream`` is the round's
    local-solve stream: client c draws one row permutation per pass from
    ``stream.scoped(client=c)``, as a solve of its own would.

    Each client keeps its running model w_c = phi + (1 / (lambda * D)) *
    X_c^T rho_c.  The clients are ordered by (size descending, client id),
    so those still visiting rows at step k of a pass are a leading slice
    of that order.

    Logistic: step k gathers each active client's k-th permuted row into
    one block, takes one batched row dot against the running models, runs
    one scalar Newton solve per active client and moves the models with one
    batched axpy.

    Squared: the step at row j solves for the change ``c = r - rho`` in
    closed form, ``c_j = inv_j * (y_j - a_j - rho_j - x_j.w)`` with
    ``inv = 1 / (1 + q)``; ``rho`` moves only between passes, so
    ``y - a - rho`` holds for a pass.  Within a block of ``SQUARED_BLOCK``
    positions the running model is the block-start model w0 plus
    ``scale * sum_{i<j} c_i x_i``, so

        c_j = t_j - scale * inv_j * sum_{i<j} (x_j.x_i) c_i,
        t_j = (y_j - a_j - rho_j) * inv_j - inv_j * (x_j.w0):

    forward substitution on a lower-triangular system.  One row dot and one
    batched Gram product fill every client's matrix ``A`` (row j is ``t_j``
    and then the coefficients of c_0 .. c_{j-1}); step j is then a single
    ``np.vecdot`` of row j with ``(1, c_0, .., c_{j-1})`` for the whole
    cohort, and one product moves each model by ``scale * sum_j c_j x_j``
    after the block.  These are the iterates of the step-by-step loop, in
    the same order, with their sums grouped differently, so they agree with
    it to rounding.  A client's slots past its last row hold row 0 with a
    zero ``inv``, so their steps are 0 and its model stays put.

    Each ``delta_phi`` is recomputed from the client's final ``rho`` in one
    pass, so it matches (1 / (lambda * D)) * X_c^T rho_c exactly.
    """
    losses.check_kind(loss)
    parts = sorted(part.partitions, key=lambda p: (-len(p), p.client_id))
    sizes = [len(p) for p in parts]
    starts = np.cumsum([0, *sizes]).tolist()
    idx = np.concatenate([np.zeros(0, np.intp), *(p.sample_indices for p in parts)])
    X, y, a = dataset.features[idx], dataset.labels[idx], alpha[idx]
    lam_d = hyper.lam * len(dataset)
    scale = 1.0 / lam_d
    squared = loss == losses.SQUARED
    if not squared:
        # commits keep alpha*y inside [0, 1] up to rounding; clip the dust
        a = np.clip(a, np.minimum(0.0, y), np.maximum(0.0, y))
    q = np.einsum("ij,ij->i", X, X) * scale
    rho = np.zeros(len(idx))
    models = np.tile(model.phi, (len(parts), 1))
    gens = [stream.scoped(client=p.client_id).generator() for p in parts]
    # live[k, i]: client i has a k-th row; active[k]: how many clients do
    live = np.arange(max(sizes, default=0))[:, None] < np.array(sizes, dtype=np.intp)
    active = np.count_nonzero(live, axis=1).tolist()
    if squared:
        inv = 1.0 / (1.0 + q)
        # One block's buffers and each step's views into them, built once:
        # step j writes every client's c_j = A[:, j, :j+1] . C[:j+1] into
        # C[j+1], with C[0] = 1.  C is position-major so that no step's
        # output shares memory bounds with its input, which would copy it.
        A = np.empty((len(parts), SQUARED_BLOCK, SQUARED_BLOCK + 1))
        C = np.empty((SQUARED_BLOCK + 1, len(parts)))
        C[0] = 1.0
        steps = [(A[:, j, :j + 1], C[:j + 1].T, C[j + 1]) for j in range(SQUARED_BLOCK)]

    for _ in range(hyper.local_passes):
        # order[k, i]: client i's k-th row of this pass, as an index into X;
        # the slots past a client's last row stay 0
        order = np.zeros(live.shape, dtype=np.intp)
        for i, (gen, n) in enumerate(zip(gens, sizes)):
            order[:n, i] = starts[i] + gen.permutation(n)
        if squared:
            # client-major: INV[i, k] is for client i's k-th row of the pass,
            # and 0 past its last row, which makes every step there 0
            INV = np.where(live.T, inv.take(order.T), 0.0)
            TI = (y - a - rho).take(order.T) * INV
            NSI = -scale * INV
            dR = np.empty(INV.shape)  # the pass's changes, in INV's slots
            for k in range(0, len(live), SQUARED_BLOCK):
                Xb = X.take(order[k:k + SQUARED_BLOCK].T, axis=0)
                b = Xb.shape[1]
                np.subtract(TI[:, k:k + b], INV[:, k:k + b] * np.vecdot(Xb, models[:, None]),
                            out=A[:, :b, 0])
                np.matmul(Xb * NSI[:, k:k + b, None], Xb.transpose(0, 2, 1),
                          out=A[:, :b, 1:b + 1])
                for Aj, Cj, cj in steps[:b]:
                    np.vecdot(Aj, Cj, out=cj)
                Cb = C[1:b + 1].T
                models += scale * (Cb[:, None] @ Xb)[:, 0]
                dR[:, k:k + b] = Cb
            rho[order.T[live.T]] += dR[live.T]
        else:
            Xp, Rp = X.take(order, axis=0), rho[order]
            # vecdot takes each row's dot as ndarray.dot does, to the bit
            Qp = q[order]
            RQ = Rp * Qp
            As, Ys, Qs = a[order].tolist(), y[order].tolist(), Qp.tolist()
            for k, na in enumerate(active):
                B, W, rk = Xp[k, :na], models[:na], Rp[k, :na]
                base = np.vecdot(B, W) - RQ[k, :na]
                # map stops at the shortest input, base: the active clients
                r = np.array(list(map(_solve_logistic, As[k], Ys[k], base.tolist(), Qs[k])))
                W += ((r - rk) * scale)[:, None] * B
                rk[:] = r
            rho[order[live]] = Rp[live]

    solved = {}
    for p, lo, hi in zip(parts, starts, starts[1:]):
        solved[p.client_id] = LocalUpdate(client_id=p.client_id, rho=rho[lo:hi],
                                          delta_phi=X[lo:hi].T @ rho[lo:hi] / lam_d)
    return CohortUpdate(updates={p.client_id: solved[p.client_id] for p in part.partitions},
                        upload_bytes=len(part.partitions) * upload_size(dataset.d))


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
    if len(blob) < 16:
        raise ValueError("model snapshot truncated")
    if blob[:4] != MODEL_MAGIC:
        raise ValueError("not a model snapshot file")
    version, = struct.unpack("<I", blob[4:8])
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model snapshot version {version}")
    d, = struct.unpack("<Q", blob[8:16])
    if len(blob) != 16 + 8 * d:
        raise ValueError("model snapshot truncated")
    return np.frombuffer(blob[16:], dtype="<f8").copy()
