"""Append-only hash-chained record of token transactions.

One block per round.  Canonical block bytes are big-endian:

    index (8B) || prev_hash (32B) || tx_count (4B)
    || per-tx [ round (4B) || client_id (4B) || kind (1B) || amount (8B) ]

``block_hash`` is the SHA-256 of that region and is stored right after it.
A ledger file is ``LEDGER_HEADER`` (the magic ``FTLG``, then a 2-byte
version = 1), then the concatenated blocks.  The genesis block's prev_hash
is 32 zero bytes.  Blocks carry only non-zero transactions, ordered by
(client_id, kind); absence means a zero award.  There are no timestamps, so
identical runs write byte-identical files.

The blocks live only in the file.  A ``Chain`` is the ledger's head, all
that making the next block needs; ``iter_blocks`` reads a file back one
verified block at a time, as each check needs only the previous hash.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .tokenomics import RoundAllocation

LEDGER_MAGIC = b"FTLG"
LEDGER_VERSION = 1
LEDGER_HEADER = LEDGER_MAGIC + struct.pack(">H", LEDGER_VERSION)
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
    """The ledger's head: single writer, verified append-only growth.

    It holds the last block, whose index gives the block count, and each
    client's running balance; the writer persists each block it appends.
    """

    def __init__(self):
        self.head: Block | None = None
        self._balances: dict[int, int] = {}

    def __len__(self) -> int:
        return self.head.index + 1 if self.head is not None else 0

    def _fold(self, block: Block) -> None:
        for tx in block.transactions:
            self._balances[tx.client_id] = \
                self._balances.get(tx.client_id, 0) + tx.amount_microtokens
        self.head = block

    def append_block(self, t: int, allocation: RoundAllocation) -> Block:
        if t != len(self) + 1:
            raise SequencingError(f"expected round {len(self) + 1}, got {t}")
        if allocation.round != t:
            raise SequencingError(f"allocation is for round {allocation.round}, not {t}")
        txs = _allocation_transactions(t, allocation)
        prev = self.head.block_hash if self.head is not None else GENESIS_PREV_HASH
        draft = Block(t - 1, prev, txs, b"")
        block = Block(t - 1, prev, txs, _hash_body(draft.body_bytes()))
        self._fold(block)
        return block

    def balances(self) -> dict[int, int]:
        return dict(self._balances)

    @classmethod
    def load(cls, path: str | Path) -> "Chain":
        """Fold a ledger file's blocks into a head; a file that does not verify raises."""
        chain = cls()
        for block in iter_blocks(path):
            chain._fold(block)
        return chain


def append_to_file(fh, block: Block) -> None:
    """Persist a freshly appended block through an open binary ledger file.

    The file already holds ``LEDGER_HEADER`` and every earlier block.  On an
    unbuffered handle this is one ``write`` call, so the block is in the file
    when the call returns.
    """
    view = memoryview(block.to_bytes())
    while view:  # a raw handle may write short
        view = view[fh.write(view):]


def iter_blocks(path: str | Path) -> Iterator[Block]:
    """Yield a ledger file's blocks in order, each once it verifies.

    Every hash and link is recomputed, and so are the writer's invariants,
    which a re-hashed forgery could break: block k carries only round k + 1
    transactions of a known kind, in strictly increasing (client_id, kind)
    order.  The first block that fails or is cut short raises
    ``LedgerFormatError`` with its index, so a fault in the parseable prefix
    wins over damage further along; header damage is block 0.  No read asks
    for more bytes than the file has left, whatever a ``tx_count`` claims.
    """
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size - len(LEDGER_HEADER)
        if fh.read(len(LEDGER_HEADER)) != LEDGER_HEADER:
            raise LedgerFormatError(f"{path}: not a version {LEDGER_VERSION} ledger file",
                                    block_index=0)
        prev, k = GENESIS_PREV_HASH, 0

        def fault(reason: str) -> LedgerFormatError:
            return LedgerFormatError(f"{path}: block {k} {reason}", block_index=k)

        while left:
            if left < _HEAD_STRUCT.size:
                raise fault("header truncated")
            head = fh.read(_HEAD_STRUCT.size)
            index, prev_hash, tx_count = _HEAD_STRUCT.unpack(head)
            left -= _HEAD_STRUCT.size + tx_count * _TX_STRUCT.size + 32
            if left < 0:
                raise fault("body truncated")
            tx_bytes, block_hash = fh.read(tx_count * _TX_STRUCT.size), fh.read(32)
            # the layout is fixed-width, so these are the block's body_bytes()
            if index != k or prev_hash != prev or _hash_body(head + tx_bytes) != block_hash:
                raise fault("does not verify")
            txs, key = [], (-1, -1)
            for rnd, client, kind, amount in _TX_STRUCT.iter_unpack(tx_bytes):
                if kind not in (KIND_CONTRIBUTION, KIND_PARTICIPATION) or rnd != k + 1 \
                        or (client, kind) <= key:
                    raise fault("breaks the writer's kind, round or order")
                key = (client, kind)
                txs.append(TokenTransaction(rnd, client, kind, amount))
            yield Block(index, prev_hash, tuple(txs), block_hash)
            prev, k = block_hash, k + 1


def verify_file(path: str | Path) -> tuple[int | None, int]:
    """Verify persisted bytes: (None, blocks) or (first bad index, blocks before it)."""
    try:
        return None, sum(1 for _ in iter_blocks(path))
    except LedgerFormatError as err:
        return err.block_index, err.block_index
