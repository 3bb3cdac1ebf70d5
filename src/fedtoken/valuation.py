"""Utility scoring of update subsets and Shapley contribution estimates.

A round's utility function scores a coalition of client updates by the
test-set improvement of the candidate model built from them.  Contribution
vectors come from either exact subset enumeration (small games only) or
the truncated Monte-Carlo permutation estimator, which freezes a prefix
scan once the running prefix value is within ``eps`` of the full-coalition
value.

Subset values are cached per round so overlapping prefix scans share work;
``queries`` counts every lookup and ``evaluations`` only cache misses.  The
cache keys a subset by an int mask with one bit per client, so a step along
a permutation prefix sets one more bit, and a mask is the same int whatever
order its members were added in.  A round's permutations come from one
bounded-integer draw on the round's stream, which gives the same swap
indices, and leaves the stream in the same state, as one scalar draw per
swap.

A round's context works in test-score space.  One GEMM gives each client's
scores on the test set, ``S = deltas @ X_test.T`` (m x n_test), and every
candidate model's scores are the round-start scores ``X_test @ phi_t`` plus
``scale`` times a sum of rows of ``S``.  The context keeps that sum for the
last subset it scored and moves it to the next one by adding and
subtracting the rows whose membership changed, so a step along a
permutation prefix is one row add, whatever m and d are.

Float sums depend on their order, and a cached value must not depend on
which query path reached its subset first.  So ``S`` is split into two
parts, ``hi`` and ``lo``, and each is rounded onto a grid: multiples of a
power of two ``q`` with ``sum_c max_i |part[c, i]| < 2**52 * q`` (``q`` is
at least 2**-1074, the smallest subnormal).  Every partial sum of any set of
rows of one part is then an integer multiple of ``q`` below ``2**53 * q``,
which float64 holds exactly, so a subset's sum is the same bits whatever
order its rows were added and subtracted in.

``hi`` is ``S`` rounded to the grid that its own bound sets.  ``lo = S - hi``
is the rounding remainder, exact in float64 and at most ``q / 2`` an entry,
rounded in turn to its own much finer grid.  With ``hi`` alone, a client
whose scores lie many orders of magnitude below the largest client's keeps
only a few multiples of ``q``: with delta scales from 1e-8 to 1e8, a subset
value was off by 2.5e-9 relative.  With ``lo`` the scores are off by at most
about ``m * 2**-105`` times the bound, so a value matches the candidate
model's direct test loss to rounding.
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
    """Per-round cache of subset values; subclasses score a miss in ``_evaluate``.

    A subset is keyed by an int mask: client ``ids[i]`` owns bit ``1 << i``.
    ``value`` takes a mask or any iterable of ids, and both reach the same
    cache entry.  An id or mask bit the utility does not know is a
    ``LookupError``.
    """

    def __init__(self, ids=()):
        self.queries = 0
        self.evaluations = 0
        self._cache: dict[int, float] = {}
        self._bits: dict[int, int] = {c: 1 << i for i, c in enumerate(ids)}

    def bit(self, client) -> int:
        """The mask bit of one client id."""
        try:
            return self._bits[int(client)]
        except KeyError:
            raise LookupError(f"unknown client id {client}") from None

    def mask(self, subset) -> int:
        """The mask of an iterable of client ids."""
        key = 0
        for c in subset:
            key |= self.bit(c)
        return key

    def value(self, subset) -> float:
        key = subset if isinstance(subset, int) else self.mask(subset)
        self.queries += 1
        cached = self._cache.get(key)
        if cached is None:
            # a negative mask has infinitely many bits set
            if key >> len(self._bits):
                raise LookupError(f"mask {key:#x} names an unknown client")
            cached = self._cache[key] = self._evaluate(key)
            self.evaluations += 1
        return cached

    def _evaluate(self, key: int) -> float:
        raise NotImplementedError


class UtilityContext(CachedUtility):
    """Round-scoped utility: candidate models from client deltas, scored on test data.

    The candidate for a subset S is the round-start model plus the mean of
    the subset's deltas (``mean`` weighting) or ``nu`` times their sum
    (``sum`` weighting).  The returned score is ``v_ref`` minus the mean
    test loss; with the default ``v_ref`` (test loss of the round-start
    model) the empty coalition scores exactly zero.

    Clients own mask bits in sorted-id order.  The candidate's test scores
    are ``s0 + scale * (hi_sum + lo_sum)``: the round-start scores plus the
    subset's sums over the two grid-snapped parts of the per-client score
    matrix (see the module docstring).  A miss moves the running sums from
    the last scored mask, adding and subtracting the rows of the bits set
    in ``key ^ last``, or restarts them from zero when that adds fewer
    rows.  It then makes one ``losses.mean_loss`` call on the n_test x 3
    columns ``[s0, hi_sum, lo_sum]`` with weights ``(1, scale, scale)``,
    kept in one preallocated buffer.
    """

    def __init__(self, phi_t: np.ndarray, deltas: dict[int, np.ndarray],
                 test_set: Dataset, loss: str, v_ref: float | None = None,
                 weighting: str = MEAN_WEIGHTING, nu: float = 1.0):
        ids = sorted(map(int, deltas))
        super().__init__(ids)
        if weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting {weighting!r}")
        if len(test_set) == 0:
            raise ValueError("test set must be non-empty")
        losses.check_kind(loss)
        self.phi_t = np.asarray(phi_t, dtype=np.float64)
        stacked = np.array([deltas[c] for c in ids], dtype=np.float64
                           ).reshape(len(ids), self.phi_t.size)
        features = test_set.features
        parts = _split_on_grids(stacked, features)
        self._parts = list(parts)  # by bit position
        # the round-start scores, then the subset's running hi and lo sums,
        # which F order lays out as one contiguous (2, n_test) block
        self._columns = np.zeros((len(test_set), 3), order="F")
        self._columns[:, 0] = features @ self.phi_t
        self._sum = self._columns.T[1:]
        self._last = 0
        self._weights = np.ones(3)
        self.test_set, self.loss, self.weighting, self.nu = test_set, loss, weighting, nu
        self.v_ref = float(self._test_loss(0) if v_ref is None else v_ref)

    def _test_loss(self, key: int) -> float:
        changed = key ^ self._last
        size = key.bit_count()
        if changed.bit_count() > size:
            self._sum.fill(0.0)
            add, drop = key, 0
        else:
            add, drop = changed & key, changed & self._last
        total, parts = self._sum, self._parts
        while add:
            low = add & -add
            np.add(total, parts[low.bit_length() - 1], out=total)
            add ^= low
        while drop:
            low = drop & -drop
            np.subtract(total, parts[low.bit_length() - 1], out=total)
            drop ^= low
        self._last = key
        weights = self._weights
        weights[1] = weights[2] = self.nu if self.weighting == SUM_WEIGHTING \
            else 1.0 / max(size, 1)
        return losses.mean_loss(self.loss, weights, self._columns, self.test_set.labels)

    def _evaluate(self, key: int) -> float:
        return self.v_ref - self._test_loss(key)


def _split_on_grids(deltas: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Test scores of each delta as (m, 2, n_test) parts, each snapped to its own grid.

    Each client's two parts are one contiguous block, so moving the running
    sums by a client is one contiguous add.
    """
    scores = deltas @ features.T
    parts = np.empty((deltas.shape[0], 2, features.shape[0]))
    hi, lo = parts[:, 0], parts[:, 1]
    _snap(scores, hi)
    np.subtract(scores, hi, out=lo)
    _snap(lo, lo)
    return parts


def _snap(a: np.ndarray, out: np.ndarray) -> None:
    """Round the rows of ``a`` into ``out`` on the grid their summed maxima set."""
    bound = float(np.maximum(a.max(axis=1), -a.min(axis=1)).sum())
    if bound == 0.0 or not math.isfinite(bound):
        np.copyto(out, a)
        return
    shift = max(math.frexp(bound)[1] - 52, -1074)
    np.ldexp(a, -shift, out=out)
    np.rint(out, out=out)
    np.ldexp(out, shift, out=out)


class GameUtility(CachedUtility):
    """Utility backed by an arbitrary set function; same counting interface.

    An id gets the next free mask bit the first time it is seen, and a miss
    decodes its mask back into the frozenset of ids that ``fn`` scores.
    """

    def __init__(self, fn: Callable[[frozenset[int]], float]):
        super().__init__()
        self._fn = fn
        self._ids: list[int] = []  # by bit position

    def bit(self, client) -> int:
        client = int(client)
        bit = self._bits.get(client)
        if bit is None:
            bit = self._bits[client] = 1 << len(self._ids)
            self._ids.append(client)
        return bit

    def _evaluate(self, key: int) -> float:
        return float(self._fn(frozenset(c for i, c in enumerate(self._ids) if key >> i & 1)))


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


def _fisher_yates(gen: np.random.Generator, items: Sequence[int],
                  count: int) -> list[tuple[int, ...]]:
    """``count`` Fisher-Yates shuffles of ``items``, with one draw for every swap index.

    Swap ``i`` (from the last position down to 1) takes an index below
    ``i + 1``; the array bound draws them in the order, and with the values,
    that one scalar ``gen.integers(0, i + 1)`` per swap would.
    """
    n = len(items)
    if n < 2:
        return [tuple(items)] * count
    picks = iter(gen.integers(0, np.tile(np.arange(n, 1, -1), count)).tolist())
    perms = []
    for _ in range(count):
        arr = list(items)
        for i in range(n - 1, 0, -1):
            j = next(picks)
            arr[i], arr[j] = arr[j], arr[i]
        perms.append(tuple(arr))
    return perms


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
        perms = _fisher_yates(plan.stream.generator(), players, plan.delta)
    # an id of an explicit permutation outside the participants is a KeyError
    bit = {p: ctx.bit(p) for p in players}
    v_full = ctx.value(ctx.mask(players))
    u = {p: 0.0 for p in players}
    for c, perm in enumerate(perms, start=1):
        v_prev = ctx.value(0)
        key = 0
        truncated = False
        for n in perm:
            if not truncated and abs(v_full - v_prev) < plan.eps:
                truncated = True
            if truncated:
                v_m = v_prev
            else:
                key |= bit[n]
                v_m = ctx.value(key)
            u[n] = ((c - 1) / c) * u[n] + (v_m - v_prev) / c
            v_prev = v_m
    return ContributionVector(u=u, permutations_used=len(perms), truncation_eps=plan.eps)


def efficiency_residual(u: ContributionVector, ctx, participants: Sequence[int]) -> float:
    """Sum of attributed values minus the grand-coalition improvement."""
    players = frozenset(int(p) for p in participants)
    return sum(u.u[p] for p in players) - (ctx.value(players) - ctx.value(frozenset()))
