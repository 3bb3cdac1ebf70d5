"""Reference computations the program itself does not need, kept for tests.

The dual-solver references work on the array API: a dense ``alpha`` with one
dual coordinate per row of the dataset, and a step ``rho`` aligned with a
partition's rows.  The Shapley references query games as ``tmc_shapley`` does.
"""

import math
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from fedtoken import losses
from fedtoken.dual import NEWTON_MAX_ITER, NEWTON_TOL, LocalUpdate, _solve_logistic
from fedtoken.valuation import ContributionVector

EXACT_SHAPLEY_MAX_PLAYERS = 10


class OracleSizeError(ValueError):
    """Exact enumeration requested for too many participants."""


class GameUtility:
    """A game from an arbitrary set function, queried as a ``UtilityContext`` is.

    An id gets the next free mask bit the first time it is seen, and a miss
    decodes its mask back into the frozenset of ids that ``fn`` scores.
    """

    def __init__(self, fn: Callable[[frozenset[int]], float]):
        self.queries = self.evaluations = 0
        self._fn = fn
        self._cache: dict[int, float] = {}
        self._bits: dict[int, int] = {}  # in bit order

    def bit(self, client) -> int:
        client = int(client)
        if client not in self._bits:
            self._bits[client] = 1 << len(self._bits)
        return self._bits[client]

    def mask(self, subset) -> int:
        key = 0
        for c in subset:
            key |= self.bit(c)
        return key

    def value(self, subset) -> float:
        key = subset if isinstance(subset, int) else self.mask(subset)
        self.queries += 1
        cached = self._cache.get(key)
        if cached is None:
            members = frozenset(c for i, c in enumerate(self._bits) if key >> i & 1)
            cached = self._cache[key] = float(self._fn(members))
            self.evaluations += 1
        return cached


def exact_shapley(ctx, participants: Sequence[int]) -> ContributionVector:
    """Exact Shapley values by subset enumeration with multiplicity weights."""
    players = [int(p) for p in participants]
    m = len(players)
    if m > EXACT_SHAPLEY_MAX_PLAYERS:
        raise OracleSizeError(f"{m} participants exceed the enumeration limit "
                              f"of {EXACT_SHAPLEY_MAX_PLAYERS}")
    fact = math.factorial
    weights = [fact(k) * fact(m - 1 - k) / fact(m) for k in range(m)]
    u = {p: 0.0 for p in players}
    for n in players:
        others = [p for p in players if p != n]
        for k in range(m):
            for combo in combinations(others, k):
                s = frozenset(combo)
                marginal = ctx.value(s | {n}) - ctx.value(s)
                u[n] += weights[k] * marginal
    return ContributionVector(u=u, permutations_used=fact(m))


def is_feasible(kind: str, alpha: np.ndarray, labels: np.ndarray,
                tol: float = 1e-12) -> bool:
    """Whether every coordinate lies in its feasible interval, up to tol."""
    lo, hi = np.array([losses.feasible_interval(kind, float(y)) for y in labels]).T
    return bool(np.all((lo - tol <= alpha) & (alpha <= hi + tol)))


def coordinate_value(loss: str, alpha_i: float, y_i: float, r: float,
                     base: float, qcoef: float) -> float:
    """One-dimensional subproblem objective (scaled by D, constants dropped)."""
    return float(losses.conjugate(loss, alpha_i + r, y_i)) - base * r - 0.5 * qcoef * r * r


def logit_residual(t: float, q: float, c: float) -> tuple[float, float, float]:
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


def reference_solve_logistic(alpha_i: float, y_i: float, base: float,
                             qcoef: float) -> float:
    """``dual._solve_logistic`` written with ``logit_residual`` and ``min``/``max``.

    The plain form of the same float operations, in the same order, that
    the program's solver inlines.
    """
    if qcoef == 0.0 and base == 0.0:
        return 0.5 * y_i - alpha_i
    c = y_i * base - qcoef * alpha_i * y_i
    lo, hi = -c - qcoef, -c
    t = min(max(-(c + 0.5 * qcoef) / (1.0 + 0.25 * qcoef), lo), hi)
    for _ in range(NEWTON_MAX_ITER):
        f, slope, s = logit_residual(t, qcoef, c)
        if abs(f) <= NEWTON_TOL:
            s -= s * (1.0 - s) * f / slope
            break
        if f > 0.0:
            hi = t
        else:
            lo = t
        t_new = t - f / slope
        t = t_new if lo <= t_new <= hi else 0.5 * (lo + hi)
    if y_i > 0.0:
        return min(max(s - alpha_i, -alpha_i), 1.0 - alpha_i)
    return min(max(-s - alpha_i, -1.0 - alpha_i), -alpha_i)


def scalar_fisher_yates(gen: np.random.Generator, items) -> tuple[int, ...]:
    """One Fisher-Yates shuffle of ``items`` with one scalar draw per swap."""
    arr = list(items)
    for i in range(len(arr) - 1, 0, -1):
        j = int(gen.integers(0, i + 1))
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(arr)


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
