"""Budgeted token issuance: contribution awards, participation set-asides.

All amounts are integer microtokens (1e-6 token) and all arithmetic is on
integers, so the cumulative issue never exceeds the budget by even one unit.
``settle_round`` reads the ``[tokens]`` settings from the config, which
``config.validate`` has checked, and the microtokens left as a plain int.
Round t draws a pool of at most ``per_round_microtokens`` from what is left.
One pass over the sorted cohort grants each client its participation
set-aside and clips it to what the pool still holds: flagged clients get
nothing, selected clients the undiscounted base if
``participation_for_selected`` is set and nothing otherwise, and the rest
the base discounted by zeta^t (computed once a round).  What the pool has
left is split across the selected clients, either proportionally to their
clipped contributions or equally.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

PROPORTIONAL_FAIR = "pf"
EQUAL_PAY = "ep"
ALLOCATION_KINDS = (PROPORTIONAL_FAIR, EQUAL_PAY)


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


def settle_round(cfg, remaining: int, u: dict[int, float] | None, selection,
                 t: int) -> tuple[RoundAllocation, int]:
    """Issue round t's tokens out of ``remaining``; return them and what is left.

    ``u`` is None under the baseline policies, which value nothing, so their
    contribution pool is split equally.  Zero left is the budget-exhausted
    signal.
    """
    p0 = cfg.resolved_participation_base
    discounted = _discounted(p0, cfg.zeta, t)
    selected = set(selection.selected)
    flagged = set(selection.flagged_non_contributing)
    left = min(cfg.resolved_per_round_microtokens, remaining)
    participation: dict[int, int] = {}
    for c in sorted(selected | set(selection.rejected) | flagged):
        if c in flagged:
            want = 0
        elif c in selected:
            want = p0 if cfg.participation_for_selected else 0
        else:
            want = discounted
        participation[c] = min(want, left)
        left -= participation[c]

    ranked = sorted(selected)
    if u is not None and cfg.allocation == PROPORTIONAL_FAIR:
        contribution = allocate_pf({c: u[c] for c in ranked}, left)
    else:
        contribution = allocate_ep(ranked, left)
    assert all(contribution.get(c, 0) == 0 for c in flagged)

    total = sum(participation.values()) + sum(contribution.values())
    return RoundAllocation(t, contribution, participation, total), remaining - total
