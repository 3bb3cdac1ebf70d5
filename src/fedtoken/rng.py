"""Scope-keyed deterministic random streams.

Every source of randomness in a run is drawn from an :class:`RngStream`
keyed by ``(root_seed, round, client, purpose)``.  Identical keys always
yield identical draw sequences, and distinct keys yield independent
streams, so per-client draws do not depend on the order in which clients
are processed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    root_seed: int
    round: int = 0
    client: int = 0
    purpose: str = ""

    def scoped(self, *, round: int | None = None, client: int | None = None,
               purpose: str | None = None) -> "RngStream":
        """Return a stream re-keyed with the given scope labels."""
        return RngStream(self.root_seed,
                         self.round if round is None else round,
                         self.client if client is None else client,
                         self.purpose if purpose is None else purpose)

    def _entropy(self) -> int:
        key = f"{self.root_seed}|{self.round}|{self.client}|{self.purpose}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:16], "big")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this scope; repeated calls restart the stream."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self._entropy())))
