"""Utility scoring of update subsets and truncated Monte-Carlo Shapley estimates.

A round's utility function scores a coalition of client updates by the
test-set improvement of the candidate model built from them.  Contribution
vectors come from the truncated Monte-Carlo permutation estimator, which
freezes a prefix scan once the running prefix value is within ``eps`` of the
full-coalition value.  The caller supplies the permutations, drawn for a
round by ``draw_permutations``.  Exact subset enumeration, the reference the
estimator is tested against, lives in ``tests/oracles.py``.

Subset values are cached per round so overlapping prefix scans share work;
``queries`` counts every lookup and ``evaluations`` only cache misses.  The
cache keys a subset by an int mask with one bit per client, so a step along
a permutation prefix sets one more bit, and a mask is the same int whatever
order its members were added in.

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
from typing import Iterable, Sequence

import numpy as np

from . import losses
from .data import Dataset

MEAN_WEIGHTING = "mean"
SUM_WEIGHTING = "sum"
WEIGHTINGS = (MEAN_WEIGHTING, SUM_WEIGHTING)


@dataclass(frozen=True)
class ContributionVector:
    u: dict[int, float]
    permutations_used: int


class UtilityContext:
    """Round-scoped utility: candidate models from client deltas, scored on test data.

    The candidate for a subset S is the round-start model plus the mean of
    the subset's deltas (``mean`` weighting) or ``nu`` times their sum
    (``sum`` weighting).  The returned score is ``v_ref``, the test loss of
    the round-start model, minus the candidate's mean test loss, so the
    empty coalition scores exactly zero.

    A subset is keyed by an int mask: the i-th client in sorted-id order owns
    bit ``1 << i``.  ``value`` takes a mask or any iterable of ids, and both
    reach the same cache entry.  An id or mask bit the context does not know
    is a ``LookupError``.

    The candidate's test scores are ``s0 + scale * (hi_sum + lo_sum)``: the
    round-start scores plus the subset's sums over the two grid-snapped
    parts of the per-client score matrix (see the module docstring).  A miss
    moves the running sums from the last scored mask by the rows of the bits
    set in ``key ^ last``, or restarts them from zero when that adds fewer
    rows.  It then makes one ``losses.mean_loss`` call on the n_test x 3
    columns ``[s0, hi_sum, lo_sum]`` with weights ``(1, scale, scale)``.
    """

    def __init__(self, phi_t: np.ndarray, deltas: dict[int, np.ndarray],
                 test_set: Dataset, loss: str, weighting: str = MEAN_WEIGHTING,
                 nu: float = 1.0):
        ids = sorted(map(int, deltas))
        self.queries = self.evaluations = 0
        self._cache: dict[int, float] = {}
        self._bits: dict[int, int] = {c: 1 << i for i, c in enumerate(ids)}
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
        self.v_ref = self._test_loss(0)

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
            cached = self._cache[key] = self.v_ref - self._test_loss(key)
            self.evaluations += 1
        return cached

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


def draw_permutations(gen: np.random.Generator, items: Sequence[int],
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


def tmc_shapley(ctx, participants: Sequence[int], permutations: Iterable[Sequence[int]],
                eps: float) -> ContributionVector:
    """Truncated Monte-Carlo Shapley over the given permutations of the participants.

    Each permutation is scanned front to back, tracking the prefix value.
    Once the previous prefix value comes within ``eps`` of the
    full-coalition value the rest of the scan is frozen (marginals of the
    remaining players are zero for that permutation).  Values are folded
    into a running mean in permutation order, so results are a pure
    function of the permutations.  An id outside the participants is a
    ``LookupError``.
    """
    players = tuple(int(p) for p in participants)
    bit = {p: ctx.bit(p) for p in players}
    v_full = ctx.value(ctx.mask(players))
    u = {p: 0.0 for p in players}
    c = 0
    for c, perm in enumerate(permutations, start=1):
        v_prev = ctx.value(0)
        key = 0
        truncated = False
        for n in perm:
            if not truncated and abs(v_full - v_prev) < eps:
                truncated = True
            if truncated:
                v_m = v_prev
            else:
                key |= bit[n]
                v_m = ctx.value(key)
            u[n] = ((c - 1) / c) * u[n] + (v_m - v_prev) / c
            v_prev = v_m
    return ContributionVector(u=u, permutations_used=c)


def efficiency_residual(u: ContributionVector, ctx, participants: Sequence[int]) -> float:
    """Sum of attributed values minus the grand-coalition improvement."""
    players = frozenset(int(p) for p in participants)
    return sum(u.u[p] for p in players) - (ctx.value(players) - ctx.value(frozenset()))
