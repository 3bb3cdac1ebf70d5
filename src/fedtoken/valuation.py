"""Utility scoring of update subsets and Shapley contribution estimates.

A round's utility function scores a coalition of client updates by the
test-set improvement of the candidate model built from them.  Contribution
vectors come from either exact subset enumeration (small games only) or
the truncated Monte-Carlo permutation estimator, which freezes a prefix
scan once the running prefix value is within ``eps`` of the full-coalition
value.

Subset values are cached per round so overlapping prefix scans share work;
``queries`` counts every lookup and ``evaluations`` only cache misses.  A
round's context stacks its client deltas once into an m x d float64 array,
rows in ascending client id.  A coalition's candidate model sums its rows
in that order, so a cached value never depends on which permutation
reached the subset first; each miss then scores the n_test x d test set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations as iter_permutations
from typing import Callable, Sequence

import numpy as np

from . import losses
from .data import Dataset
from .rng import RngStream

MEAN_WEIGHTING = "mean"
SUM_WEIGHTING = "sum"
WEIGHTINGS = (MEAN_WEIGHTING, SUM_WEIGHTING)

EXACT_SHAPLEY_MAX_PLAYERS = 10


class OracleSizeError(ValueError):
    """Exact enumeration requested for too many participants."""


@dataclass(frozen=True)
class ContributionVector:
    u: dict[int, float]
    permutations_used: int
    truncation_eps: float


@dataclass(frozen=True)
class PermutationPlan:
    """How to draw permutations: sampled from a stream, or an explicit list."""
    delta: int
    eps: float
    stream: RngStream | None = None
    permutations: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.permutations is not None:
            object.__setattr__(self, "delta", len(self.permutations))
        if self.delta < 1:
            raise ValueError("need at least one permutation")
        if self.eps < 0:
            raise ValueError("eps must be >= 0")
        if self.permutations is None and self.stream is None:
            raise ValueError("either a stream or explicit permutations is required")


def all_permutations_plan(participants: Sequence[int], eps: float = 0.0) -> PermutationPlan:
    """Plan enumerating every ordering of the participants."""
    perms = tuple(iter_permutations(tuple(participants)))
    return PermutationPlan(delta=len(perms), eps=eps, permutations=perms)


class CachedUtility:
    """Per-round cache of subset values; subclasses score a miss in ``_evaluate``."""

    def __init__(self):
        self.queries = 0
        self.evaluations = 0
        self._cache: dict[frozenset[int], float] = {}

    def value(self, subset) -> float:
        subset = frozenset(map(int, subset))
        self.queries += 1
        cached = self._cache.get(subset)
        if cached is None:
            cached = self._cache[subset] = self._evaluate(subset)
            self.evaluations += 1
        return cached

    def _evaluate(self, subset: frozenset[int]) -> float:
        raise NotImplementedError


class UtilityContext(CachedUtility):
    """Round-scoped utility: candidate models from client deltas, scored on test data.

    The candidate for a subset S is the round-start model plus the mean of
    the subset's deltas (``mean`` weighting) or ``nu`` times their sum
    (``sum`` weighting).  The returned score is ``v_ref`` minus the mean
    test loss; with the default ``v_ref`` (test loss of the round-start
    model) the empty coalition scores exactly zero.
    """

    def __init__(self, phi_t: np.ndarray, deltas: dict[int, np.ndarray],
                 test_set: Dataset, loss: str, v_ref: float | None = None,
                 weighting: str = MEAN_WEIGHTING, nu: float = 1.0):
        super().__init__()
        if weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting {weighting!r}")
        if len(test_set) == 0:
            raise ValueError("test set must be non-empty")
        losses.check_kind(loss)
        self._rows = {c: i for i, c in enumerate(sorted(map(int, deltas)))}
        self.phi_t = np.asarray(phi_t, dtype=np.float64)
        self._deltas = np.array([deltas[c] for c in self._rows], dtype=np.float64
                                ).reshape(len(self._rows), self.phi_t.size)
        self.test_set, self.loss, self.weighting, self.nu = test_set, loss, weighting, nu
        self.v_ref = float(self._test_loss(frozenset()) if v_ref is None else v_ref)

    def _test_loss(self, subset: frozenset[int]) -> float:
        try:
            rows = sorted(self._rows[c] for c in subset)
        except KeyError as err:
            raise LookupError(f"unknown client id {err.args[0]}") from None
        w = self.phi_t
        if rows:
            scale = 1.0 / len(rows) if self.weighting == MEAN_WEIGHTING else self.nu
            w = w + scale * self._deltas.take(rows, axis=0).sum(axis=0)
        return losses.mean_loss(self.loss, w, self.test_set.features, self.test_set.labels)

    def _evaluate(self, subset: frozenset[int]) -> float:
        return self.v_ref - self._test_loss(subset)


class GameUtility(CachedUtility):
    """Utility backed by an arbitrary set function; same counting interface."""

    def __init__(self, fn: Callable[[frozenset[int]], float]):
        super().__init__()
        self._fn = fn

    def _evaluate(self, subset: frozenset[int]) -> float:
        return float(self._fn(subset))


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
    return ContributionVector(u=u, permutations_used=fact(m), truncation_eps=0.0)


def _fisher_yates(gen: np.random.Generator, items: Sequence[int]) -> tuple[int, ...]:
    arr = list(items)
    for i in range(len(arr) - 1, 0, -1):
        j = int(gen.integers(0, i + 1))
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(arr)


def tmc_shapley(ctx, participants: Sequence[int], plan: PermutationPlan) -> ContributionVector:
    """Truncated Monte-Carlo Shapley over ``plan.delta`` permutations.

    Each permutation is scanned front to back, tracking the prefix value.
    Once the previous prefix value comes within ``plan.eps`` of the
    full-coalition value the rest of the scan is frozen (marginals of the
    remaining players are zero for that permutation).  Values are folded
    into a running mean in permutation order, so results are a pure
    function of the plan.
    """
    players = tuple(int(p) for p in participants)
    if plan.permutations is not None:
        perms = plan.permutations
    else:
        gen = plan.stream.generator()
        perms = tuple(_fisher_yates(gen, players) for _ in range(plan.delta))
    v_full = ctx.value(frozenset(players))
    u = {p: 0.0 for p in players}
    for c, perm in enumerate(perms, start=1):
        v_prev = ctx.value(frozenset())
        truncated = False
        prefix: set[int] = set()
        for n in perm:
            prefix.add(n)
            if not truncated and abs(v_full - v_prev) < plan.eps:
                truncated = True
            v_m = v_prev if truncated else ctx.value(frozenset(prefix))
            u[n] = ((c - 1) / c) * u[n] + (v_m - v_prev) / c
            v_prev = v_m
    return ContributionVector(u=u, permutations_used=len(perms), truncation_eps=plan.eps)


def efficiency_residual(u: ContributionVector, ctx, participants: Sequence[int]) -> float:
    """Sum of attributed values minus the grand-coalition improvement."""
    players = frozenset(int(p) for p in participants)
    return sum(u.u[p] for p in players) - (ctx.value(players) - ctx.value(frozenset()))
