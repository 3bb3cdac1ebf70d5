"""Budgeted token issuance: contribution awards, participation set-asides.

All amounts are integer microtokens (1e-6 token) and all arithmetic is on
integers, so the cumulative issue never exceeds the budget by even one unit.
Each round draws at most ``per_round_microtokens`` from the remaining
budget, pays participation set-asides first (discounted by zeta^t, computed
once a round, for clients left out of aggregation), then splits the rest
across the selected clients either proportionally to their clipped
contributions or equally.

Clients flagged as non-contributing (u <= 0) receive nothing that round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

PROPORTIONAL_FAIR = "pf"
EQUAL_PAY = "ep"
ALLOCATION_KINDS = (PROPORTIONAL_FAIR, EQUAL_PAY)


@dataclass(frozen=True)
class Budget:
    total_microtokens: int
    per_round_microtokens: int
    participation_base_microtokens: int
    remaining: int

    def __post_init__(self):
        if self.total_microtokens < 0 or self.remaining < 0:
            raise ValueError("budget amounts must be non-negative")
        if self.per_round_microtokens > self.total_microtokens:
            raise ValueError("per-round pool exceeds the total budget")

    @property
    def exhausted(self) -> bool:
        return self.remaining == 0


@dataclass(frozen=True)
class AllocationPolicy:
    kind: str
    discount_zeta: float
    participation_for_selected: bool = False

    def __post_init__(self):
        if self.kind not in ALLOCATION_KINDS:
            raise ValueError(f"unknown allocation kind {self.kind!r}")
        if not 0.0 < self.discount_zeta < 1.0:
            raise ValueError("discount_zeta must be in (0, 1)")


@dataclass(frozen=True)
class RoundAllocation:
    round: int
    contribution_awards: dict[int, int]
    participation_awards: dict[int, int]
    total_issued: int


def allocate_pf(u: dict[int, float], pool: int) -> dict[int, int]:
    """Proportional split of an integer pool by clipped contribution weights.

    Integerized by largest remainder so the shares sum to the pool exactly;
    remainder ties go to the lower client id.  A non-positive weight sum
    issues nothing.
    """
    if pool < 0:
        raise ValueError("pool must be >= 0")
    # each clipped weight is n / d with d a power of two, so the largest d
    # is a common denominator and w = n * (den // d) / den exactly
    ratios = [max(float(v), 0.0).as_integer_ratio() for v in u.values()]
    den = max((d for _, d in ratios), default=1)
    weights = [n * (den // d) for n, d in ratios]
    total = sum(weights)
    if total == 0 or pool == 0:
        return {c: 0 for c in u}
    # the quota pool * w / total as floor and remainder over the same total
    parts = {c: divmod(pool * w, total) for c, w in zip(u, weights)}
    shares = {c: q for c, (q, _) in parts.items()}
    leftover = pool - sum(shares.values())
    by_remainder = sorted(parts, key=lambda c: (-parts[c][1], c))
    for c in by_remainder[:leftover]:
        shares[c] += 1
    return shares


def allocate_ep(selected, pool: int) -> dict[int, int]:
    """Equal split; the remainder goes one microtoken each to the lowest ids."""
    if pool < 0:
        raise ValueError("pool must be >= 0")
    ids = sorted(int(c) for c in selected)
    if not ids:
        return {}
    base, extra = divmod(pool, len(ids))
    return {c: base + (1 if rank < extra else 0) for rank, c in enumerate(ids)}


def _discounted(p0: int, zeta: float, t: int) -> int:
    # exact decimal semantics: floor(p0 * zeta**t) with zeta = a / b in lowest terms
    if t <= 1:
        return p0
    a, b = Fraction(str(zeta)).as_integer_ratio()
    return p0 * a**t // b**t


def participation_rewards(cohort, selection, t: int, policy: AllocationPolicy,
                          p0: int) -> dict[int, int]:
    """Set-aside awards for round t.

    Unselected cohort members that were not flagged get the set-aside,
    undiscounted in the first round and scaled by zeta^t afterwards.
    Selected clients get the full set-aside only if the policy says so;
    flagged clients always get zero.
    """
    if t < 1:
        raise ValueError("rounds are 1-based")
    selected = set(selection.selected)
    flagged = set(selection.flagged_non_contributing)
    discounted = _discounted(p0, policy.discount_zeta, t)
    awards: dict[int, int] = {}
    for c in sorted(int(c) for c in cohort):
        if c in flagged:
            awards[c] = 0
        elif c in selected:
            awards[c] = p0 if policy.participation_for_selected else 0
        else:
            awards[c] = discounted
    return awards


def settle_round(budget: Budget, policy: AllocationPolicy,
                 u: dict[int, float] | None, selection, t: int) -> tuple[RoundAllocation, Budget]:
    """Issue this round's tokens and return the decremented budget.

    The round pool is capped by what remains.  Participation set-asides are
    paid first (clipped, lowest ids first, if the pool cannot cover them);
    the rest is the contribution pool for the selected clients.  When no
    contribution vector is available (baseline policies) the contribution
    pool is split equally.  A remaining balance of zero after settlement is
    the budget-exhausted signal.
    """
    pool_round = min(budget.per_round_microtokens, budget.remaining)
    cohort = sorted(set(selection.selected) | set(selection.rejected)
                    | set(selection.flagged_non_contributing))

    wanted = participation_rewards(cohort, selection, t, policy,
                                   budget.participation_base_microtokens)
    participation: dict[int, int] = {}
    left = pool_round
    for c in sorted(wanted):
        grant = min(wanted[c], left)
        participation[c] = grant
        left -= grant

    selected = sorted(int(c) for c in selection.selected)
    if u is not None and policy.kind == PROPORTIONAL_FAIR:
        contribution = allocate_pf({c: u[c] for c in selected}, left)
    else:
        contribution = allocate_ep(selected, left)

    flagged = set(selection.flagged_non_contributing)
    assert all(contribution.get(c, 0) == 0 and participation.get(c, 0) == 0
               for c in flagged)

    total = sum(participation.values()) + sum(contribution.values())
    allocation = RoundAllocation(
        round=t,
        contribution_awards=contribution,
        participation_awards=participation,
        total_issued=total,
    )
    return allocation, replace(budget, remaining=budget.remaining - total)
