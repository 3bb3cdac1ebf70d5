"""Append-only hash-chained record of token transactions.

One block per round.  Canonical block bytes are big-endian:

    index (8B) || prev_hash (32B) || tx_count (4B)
    || per-tx [ round (4B) || client_id (4B) || kind (1B) || amount (8B) ]

``block_hash`` is the SHA-256 of that region and is stored right after it.
A ledger file is the magic ``FTLG``, a 2-byte version (= 1), then the
concatenated blocks.  The genesis block's prev_hash is 32 zero bytes.
Blocks carry only non-zero transactions, ordered by (client_id, kind);
absence means a zero award.  There are no timestamps, so identical runs
write byte-identical files.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

from .tokenomics import RoundAllocation

LEDGER_MAGIC = b"FTLG"
LEDGER_VERSION = 1
GENESIS_PREV_HASH = bytes(32)

KIND_CONTRIBUTION = 0
KIND_PARTICIPATION = 1

_TX_STRUCT = struct.Struct(">IIBQ")
# the widest values the round (4B), client_id (4B) and amount (8B) fields hold
MAX_ROUND = MAX_CLIENT_ID = 2**32 - 1
MAX_AMOUNT = 2**64 - 1
_HEAD_STRUCT = struct.Struct(">Q32sI")


class SequencingError(ValueError):
    """Block appended out of round order."""


class LedgerFormatError(ValueError):
    """Persisted ledger bytes are not a well-formed chain."""

    def __init__(self, message: str, block_index: int | None = None):
        super().__init__(message)
        self.block_index = block_index


@dataclass(frozen=True)
class TokenTransaction:
    round: int
    client_id: int
    kind: int
    amount_microtokens: int

    def __post_init__(self):
        if self.kind not in (KIND_CONTRIBUTION, KIND_PARTICIPATION):
            raise ValueError(f"unknown transaction kind {self.kind}")
        if self.amount_microtokens < 0:
            raise ValueError("amounts are non-negative")

    def to_bytes(self) -> bytes:
        return _TX_STRUCT.pack(self.round, self.client_id, self.kind,
                               self.amount_microtokens)


@dataclass(frozen=True)
class Block:
    index: int
    prev_hash: bytes
    transactions: tuple[TokenTransaction, ...]
    block_hash: bytes

    def body_bytes(self) -> bytes:
        head = _HEAD_STRUCT.pack(self.index, self.prev_hash, len(self.transactions))
        return head + b"".join(tx.to_bytes() for tx in self.transactions)

    def to_bytes(self) -> bytes:
        return self.body_bytes() + self.block_hash


def _hash_body(body: bytes) -> bytes:
    return hashlib.sha256(body).digest()


def _allocation_transactions(t: int, allocation: RoundAllocation) -> tuple[TokenTransaction, ...]:
    txs = []
    for client, amount in allocation.contribution_awards.items():
        if amount:
            txs.append(TokenTransaction(t, client, KIND_CONTRIBUTION, amount))
    for client, amount in allocation.participation_awards.items():
        if amount:
            txs.append(TokenTransaction(t, client, KIND_PARTICIPATION, amount))
    txs.sort(key=lambda tx: (tx.client_id, tx.kind))
    return tuple(txs)


class Chain:
    """In-memory chain; single writer, verified append-only growth."""

    def __init__(self, blocks: list[Block] | None = None):
        self.blocks: list[Block] = list(blocks or [])

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def head_hash(self) -> bytes:
        return self.blocks[-1].block_hash if self.blocks else GENESIS_PREV_HASH

    def append_block(self, t: int, allocation: RoundAllocation) -> Block:
        expected = len(self.blocks) + 1
        if t != expected:
            raise SequencingError(f"expected round {expected}, got {t}")
        if allocation.round != t:
            raise SequencingError(f"allocation is for round {allocation.round}, not {t}")
        txs = _allocation_transactions(t, allocation)
        draft = Block(len(self.blocks), self.head_hash, txs, b"")
        block = Block(draft.index, draft.prev_hash, txs, _hash_body(draft.body_bytes()))
        self.blocks.append(block)
        return block

    def verify(self) -> int | None:
        """Recompute every hash and link; None if clean, else first bad index.

        Also checks the writer's invariants, which a re-hashed forgery could
        break: block k carries only round k + 1 transactions, in strictly
        increasing (client_id, kind) order.
        """
        prev = GENESIS_PREV_HASH
        for k, block in enumerate(self.blocks):
            if block.index != k:
                return k
            if block.prev_hash != prev:
                return k
            if _hash_body(block.body_bytes()) != block.block_hash:
                return k
            if any(tx.round != k + 1 for tx in block.transactions):
                return k
            keys = [(tx.client_id, tx.kind) for tx in block.transactions]
            if any(a >= b for a, b in zip(keys, keys[1:])):
                return k
            prev = block.block_hash
        return None

    def balances(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for block in self.blocks:
            for tx in block.transactions:
                out[tx.client_id] = out.get(tx.client_id, 0) + tx.amount_microtokens
        return out

    def total_issued(self) -> int:
        return sum(tx.amount_microtokens
                   for block in self.blocks for tx in block.transactions)

    def query_round(self, t: int) -> tuple[TokenTransaction, ...]:
        if not 1 <= t <= len(self.blocks):
            raise LookupError(f"round {t} is not on the chain")
        return self.blocks[t - 1].transactions

    def to_bytes(self) -> bytes:
        header = LEDGER_MAGIC + struct.pack(">H", LEDGER_VERSION)
        return header + b"".join(block.to_bytes() for block in self.blocks)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Chain":
        blocks, error = _parse_blocks(blob)
        if error is not None:
            raise error
        return cls(blocks)

    @classmethod
    def load(cls, path: str | Path) -> "Chain":
        return cls.from_bytes(Path(path).read_bytes())


def append_to_file(fh, block: Block) -> None:
    """Persist a freshly appended block through an open binary ledger file.

    The file already holds the header (``Chain().to_bytes()``) and every
    earlier block.  On an unbuffered handle this is one ``write`` call, so
    the block is in the file when the call returns.
    """
    view = memoryview(block.to_bytes())
    while view:  # a raw handle may write short
        view = view[fh.write(view):]


def _parse_blocks(blob: bytes) -> tuple[list[Block], LedgerFormatError | None]:
    """Parse as far as the bytes allow; on damage, report where they broke."""
    if len(blob) < 6 or blob[:4] != LEDGER_MAGIC:
        return [], LedgerFormatError("not a ledger file", block_index=0)
    version, = struct.unpack(">H", blob[4:6])
    if version != LEDGER_VERSION:
        return [], LedgerFormatError(f"unsupported ledger version {version}",
                                     block_index=0)
    blocks: list[Block] = []
    pos = 6
    while pos < len(blob):
        k = len(blocks)
        if pos + _HEAD_STRUCT.size > len(blob):
            return blocks, LedgerFormatError(f"block {k} header truncated", block_index=k)
        index, prev_hash, tx_count = _HEAD_STRUCT.unpack_from(blob, pos)
        pos += _HEAD_STRUCT.size
        need = tx_count * _TX_STRUCT.size + 32
        if pos + need > len(blob):
            return blocks, LedgerFormatError(f"block {k} body truncated", block_index=k)
        txs = []
        for _ in range(tx_count):
            rnd, client, kind, amount = _TX_STRUCT.unpack_from(blob, pos)
            pos += _TX_STRUCT.size
            if kind not in (KIND_CONTRIBUTION, KIND_PARTICIPATION):
                return blocks, LedgerFormatError(
                    f"block {k} has an invalid transaction kind", block_index=k)
            txs.append(TokenTransaction(rnd, client, kind, amount))
        block_hash = blob[pos:pos + 32]
        pos += 32
        blocks.append(Block(index, prev_hash, tuple(txs), block_hash))
    return blocks, None


def verify_file(path: str | Path) -> tuple[int | None, int]:
    """Verify persisted bytes; (first bad block index or None, blocks seen).

    Hash and link failures on the parseable prefix take precedence over
    structural damage further along; a clean prefix followed by broken
    framing reports the block whose byte region broke.  Header damage is
    attributed to index 0.
    """
    blocks, error = _parse_blocks(Path(path).read_bytes())
    chain = Chain(blocks)
    bad = chain.verify()
    if bad is None and error is not None:
        bad = error.block_index if error.block_index is not None else 0
    return bad, len(blocks)
