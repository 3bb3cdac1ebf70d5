"""Reference computations the program itself does not need, kept for tests.

The dual-solver references work on the array API: a dense ``alpha`` with one
dual coordinate per row of the dataset, and a step ``rho`` aligned with a
partition's rows.  The primal and dual objectives are the two halves that
``dual.duality_gap`` inlines.  The Shapley references query games as
``tmc_shapley`` does.  The token references compute in ``Fraction``s what
``tokenomics`` computes on integers.  The CSV reference reads a file as
``data.load_csv`` promises to, by a plain loop with no numpy parser.  The
run reference recomputes every round of a run from these pieces.
"""

import math
import operator
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from fedtoken import losses
from fedtoken.dual import (NEWTON_MAX_ITER, NEWTON_TOL, GlobalModel, Hyperparams, LocalUpdate,
                           _solve_logistic, phi_of_alpha)
from fedtoken.harness import build_simulation
from fedtoken.ledger import Chain
from fedtoken.rng import RngStream
from fedtoken.scheduler import FEDAVG_ALL, FEDTOKEN, sample_cohort, select_top_q
from fedtoken.tokenomics import PROPORTIONAL_FAIR, RoundAllocation
from fedtoken.valuation import SUM_WEIGHTING, ContributionVector, draw_permutations

EXACT_SHAPLEY_MAX_PLAYERS = 10


class OracleSizeError(ValueError):
    """Exact enumeration requested for too many participants."""


class GameUtility:
    """A game from an arbitrary set function, queried as a ``UtilityContext`` is.

    An id gets the next free mask bit the first time it is seen, and a miss
    decodes its mask back into the frozenset of ids that ``fn`` scores.  As
    in the context, ``value`` takes only a mask, a bit no id owns is a
    ``LookupError``, and a rejected key counts no query.
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

    def value(self, key: int) -> float:
        key = operator.index(key)
        cached = self._cache.get(key)
        if cached is None:
            if key >> len(self._bits):
                raise LookupError(f"mask {key:#x} names an unknown client")
            members = frozenset(c for i, c in enumerate(self._bits) if key >> i & 1)
            cached = self._cache[key] = float(self._fn(members))
            self.evaluations += 1
        self.queries += 1
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
                s = ctx.mask(combo)
                marginal = ctx.value(s | ctx.bit(n)) - ctx.value(s)
                u[n] += weights[k] * marginal
    return ContributionVector(u=u, permutations_used=fact(m))


def loss_values(kind: str, scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Vector of per-sample losses at margin scores."""
    if kind == losses.SQUARED:
        return 0.5 * (scores - labels) ** 2
    if kind == losses.LOGISTIC:
        return losses._softplus(-labels * scores)
    raise ValueError(f"unknown loss kind {kind!r}")


def primal_objective(w: np.ndarray, dataset, loss: str, lam: float) -> float:
    """Mean loss at the model w plus the regularizer lam/2 * |w|^2."""
    return losses.mean_loss(loss, w, dataset.features, dataset.labels) \
        + lam * 0.5 * float(w @ w)


def dual_objective(alpha: np.ndarray, dataset, loss: str, lam: float) -> float:
    """Mean conjugate at alpha minus lam/2 * |phi(alpha)|^2."""
    conj = float(losses.conjugate(loss, alpha, dataset.labels).sum())
    phi = phi_of_alpha(alpha, dataset, lam)
    return conj / len(dataset) - lam * 0.5 * float(phi @ phi)


def feasible_interval(kind: str, y_i: float) -> tuple[float, float]:
    """Admissible range for a dual coordinate with label y_i."""
    if kind == losses.SQUARED:
        return (-math.inf, math.inf)
    lo, hi = 0.0, y_i  # alpha*y in [0, 1]
    return (min(lo, hi), max(lo, hi))


def is_feasible(kind: str, alpha: np.ndarray, labels: np.ndarray,
                tol: float = 1e-12) -> bool:
    """Whether every coordinate lies in its feasible interval, up to tol."""
    lo, hi = np.array([feasible_interval(kind, float(y)) for y in labels]).T
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
    idx = part.sample_indices
    a, y, X = alpha[idx], dataset.labels[idx], dataset.features[idx]
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
    idx = part.sample_indices
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


def fraction_allocate_pf(u: dict[int, float], pool: int) -> dict[int, int]:
    """``tokenomics.allocate_pf`` with each quota an exact ``Fraction``."""
    if pool < 0:
        raise ValueError("pool must be >= 0")
    weights = {c: Fraction(max(float(v), 0.0)) for c, v in u.items()}
    total = sum(weights.values())
    if total == 0 or pool == 0:
        return {c: 0 for c in u}
    quotas = {c: Fraction(pool) * w / total for c, w in weights.items()}
    shares = {c: int(q) for c, q in quotas.items()}  # floor: quotas are >= 0
    leftover = pool - sum(shares.values())
    by_remainder = sorted(quotas, key=lambda c: (-(quotas[c] - shares[c]), c))
    for c in by_remainder[:leftover]:
        shares[c] += 1
    return shares


def fraction_discounted(p0: int, zeta: float, t: int) -> int:
    """``tokenomics._discounted``: floor(p0 * zeta**t) in ``Fraction``s."""
    if t <= 1:
        return p0
    return int(p0 * Fraction(str(zeta)) ** t)


def csv_table(path, header: bool) -> np.ndarray:
    """The label-and-features table of a CSV file, or the error naming its first faulty line.

    The file is split at ``\\n`` only and one trailing empty line is dropped;
    each line, the header too, is decoded on its own, and each cell of a
    data line goes through ``float()``.
    """
    lines = Path(path).read_bytes().split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}:{lineno}: not UTF-8 (byte 0x{raw[err.start]:02x})") from None
        if header and lineno == 1:
            continue
        cells = line.split(",")
        if len(cells) < 2:
            raise ValueError(f"{path}:{lineno}: expected label plus features")
        try:
            row = [float(c) for c in cells]
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: {len(row)} columns, expected "
                             f"{len(rows[0])} as on the first row")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no rows")
    return np.array(rows, dtype=np.float64)


def oracle_run(cfg, paid: list[dict[int, float] | None]) -> list[dict]:
    """Every round that ``harness.run(cfg)`` records, recomputed the plain way.

    The cohort, each client's local-solve stream, the random-quota pick and
    the Shapley permutations come from the program's ``RngStream`` scopes, so
    both sides draw the same randomness.  The rest shares no fast path:
    each client solves alone (``scalar_local_solve``); a coalition's value
    is the round-start model's mean ``loss_values`` on the whole test set
    minus that of its candidate model ``phi + mean(deltas)`` (or
    ``nu * sum(deltas)``), with no cache, no snapping and no factor; the
    TMC scan queries every prefix afresh; and the round settles in
    ``Fraction``s onto a fresh ``Chain``.  Round t pays ``paid[t - 1]``, the
    program's own contributions (None for a policy that values nothing): a
    proportional split follows the last bits of each contribution, which
    the two sides share only to rounding.

    Each record holds the round, ``selected``, ``rejected``, ``flagged``,
    ``contributions``, ``utility_queries``, ``test_loss``, ``duality_gap``
    and ``block_hash``.
    """
    state = build_simulation(cfg)
    train, test = state.effective_train, state.test
    alpha, phi, remaining = state.alpha.copy(), state.model.phi, cfg.total_microtokens
    root, chain = RngStream(cfg.seed), Chain()
    hyper = Hyperparams(lam=cfg.lam, local_passes=cfg.local_passes)
    p0, quota = cfg.resolved_participation_base, cfg.resolved_quota

    def mean_test_loss(model):
        return float(loss_values(cfg.loss, test.features @ model, test.labels).mean())

    def step_weight(n):
        return 1.0 / max(n, 1) if cfg.nu == "auto" else float(cfg.nu)

    records = []
    for t in range(1, cfg.rounds + 1):
        cohort = sample_cohort(cfg.n_clients, cfg.m_fraction, t, root)
        solves = root.scoped(round=t, purpose="local-solve")
        updates = {c: scalar_local_solve(state.partitions[c], train, alpha, GlobalModel(phi),
                                         cfg.loss, hyper, solves.scoped(client=c))
                   for c in cohort}
        u, queries = {}, 0
        if cfg.aggregation == FEDTOKEN:
            nu, v_ref = step_weight(quota), mean_test_loss(phi)

            def value(members):
                nonlocal queries
                queries += 1
                if not members:
                    return 0.0
                total = sum(updates[c].delta_phi for c in sorted(members))
                scale = nu if cfg.weighting == SUM_WEIGHTING else 1.0 / len(members)
                return v_ref - mean_test_loss(phi + scale * total)

            gen = root.scoped(round=t, client=0, purpose="shapley-perms").generator()
            perms = draw_permutations(gen, cohort, cfg.delta)
            v_full = value(cohort)
            marginals = {c: 0.0 for c in cohort}
            for perm in perms:
                v_prev = value(())
                for k, c in enumerate(perm):
                    if abs(v_full - v_prev) < cfg.eps:
                        break  # the rest of the permutation adds nothing
                    v_m = value(perm[:k + 1])
                    marginals[c] += v_m - v_prev
                    v_prev = v_m
            u = {c: marginals[c] / len(perms) for c in cohort}
            queries += 2  # the efficiency residual's full and empty coalitions
            chosen = select_top_q(ContributionVector(u, len(perms)), quota)
            selected, rejected = chosen.selected, chosen.rejected
            flagged = chosen.flagged_non_contributing
        elif cfg.aggregation == FEDAVG_ALL:
            selected, rejected, flagged = cohort, (), ()
        else:
            gen = root.scoped(round=t, client=0, purpose="random-quota").generator()
            picked = {cohort[int(i)] for i in gen.choice(len(cohort), size=quota, replace=False)}
            selected = tuple(sorted(picked))
            rejected, flagged = tuple(c for c in cohort if c not in picked), ()

        nu = step_weight(len(selected))
        phi = phi + nu * sum((updates[c].delta_phi for c in selected), np.zeros(train.d))
        for c in selected:
            alpha[state.partitions[c].sample_indices] += nu * updates[c].rho

        pool = min(cfg.resolved_per_round_microtokens, remaining)
        participation = {}
        for c in cohort:
            if c in flagged:
                want = 0
            elif c in selected:
                want = p0 if cfg.participation_for_selected else 0
            else:
                want = fraction_discounted(p0, cfg.zeta, t)
            participation[c] = min(want, pool)
            pool -= participation[c]
        if paid[t - 1] is not None and cfg.allocation == PROPORTIONAL_FAIR:
            contribution = fraction_allocate_pf({c: paid[t - 1][c] for c in selected}, pool)
        else:
            ranked = sorted(selected)
            contribution = {c: pool // len(ranked) + (rank < pool % len(ranked))
                            for rank, c in enumerate(ranked)}
        issued = sum(participation.values()) + sum(contribution.values())
        remaining -= issued
        block = chain.append_block(t, RoundAllocation(t, contribution, participation, issued))

        w = phi_of_alpha(alpha, train, cfg.lam)
        records.append({
            "round": t, "selected": selected, "rejected": rejected, "flagged": flagged,
            "contributions": u, "utility_queries": queries,
            "test_loss": mean_test_loss(phi),
            "duality_gap": primal_objective(w, train, cfg.loss, cfg.lam)
            - dual_objective(alpha, train, cfg.loss, cfg.lam),
            "block_hash": block.block_hash.hex(),
        })
        if remaining == 0:
            break
    return records
