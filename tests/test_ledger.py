import hashlib
import struct
import subprocess

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from fedtoken.ledger import (Block, Chain, GENESIS_PREV_HASH, KIND_CONTRIBUTION,
                             KIND_PARTICIPATION, LedgerFormatError, SequencingError,
                             TokenTransaction, append_to_file, verify_file)
from fedtoken.tokenomics import RoundAllocation


def _allocation(t, contribution=None, participation=None):
    contribution = contribution or {}
    participation = participation or {}
    total = sum(contribution.values()) + sum(participation.values())
    return RoundAllocation(round=t, contribution_awards=contribution,
                           participation_awards=participation, total_issued=total)


def _sample_chain(rounds=3):
    chain = Chain()
    for t in range(1, rounds + 1):
        chain.append_block(t, _allocation(t, {1: 500 + t, 3: 250},
                                          {2: 100 * t}))
    return chain


def test_genesis_links_to_zero_hash():
    chain = Chain()
    block = chain.append_block(1, _allocation(1, {0: 10}))
    assert block.prev_hash == GENESIS_PREV_HASH == bytes(32)
    assert block.index == 0


def test_identical_allocations_hash_differently_across_rounds():
    chain = Chain()
    b1 = chain.append_block(1, _allocation(1, {0: 10}))
    b2 = chain.append_block(2, _allocation(2, {0: 10}))
    assert b1.block_hash != b2.block_hash
    assert b2.prev_hash == b1.block_hash


def test_block_hash_matches_documented_byte_layout():
    chain = Chain()
    block = chain.append_block(1, _allocation(1, {7: 1234}, {5: 99}))
    # reconstruct the canonical bytes independently: index, prev hash,
    # tx count, then (round, client, kind, amount) big-endian per tx,
    # ordered by (client_id, kind)
    body = struct.pack(">Q", 0) + bytes(32) + struct.pack(">I", 2)
    body += struct.pack(">IIBQ", 1, 5, KIND_PARTICIPATION, 99)
    body += struct.pack(">IIBQ", 1, 7, KIND_CONTRIBUTION, 1234)
    assert block.block_hash == hashlib.sha256(body).digest()


def test_block_hash_matches_external_hash_tool(tmp_path):
    chain = Chain()
    block = chain.append_block(1, _allocation(1, {2: 42}))
    body_path = tmp_path / "body.bin"
    body_path.write_bytes(block.body_bytes())
    out = subprocess.run(["sha256sum", str(body_path)], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split()[0] == block.block_hash.hex()


def test_verify_clean_chain():
    assert _sample_chain().verify() is None


def _rehashed(chain, k, transactions):
    """Swap block k's transactions, then re-hash and re-link every block from k."""
    blocks = chain.blocks[:k]
    prev = blocks[-1].block_hash if blocks else GENESIS_PREV_HASH
    for j, block in enumerate(chain.blocks[k:], start=k):
        txs = transactions if j == k else block.transactions
        draft = Block(j, prev, txs, b"")
        blocks.append(Block(j, prev, txs, hashlib.sha256(draft.body_bytes()).digest()))
        prev = blocks[-1].block_hash
    return Chain(blocks)


@pytest.mark.parametrize("forge", ["wrong-round", "unsorted", "duplicate"])
def test_rehashed_chain_that_breaks_a_writer_invariant_is_detected(tmp_path, forge):
    chain = _sample_chain(4)
    txs = list(chain.blocks[2].transactions)  # round 3: clients 1, 2, 3
    if forge == "wrong-round":
        txs[1] = TokenTransaction(2, txs[1].client_id, txs[1].kind,
                                  txs[1].amount_microtokens)
    elif forge == "unsorted":
        txs[0], txs[1] = txs[1], txs[0]
    else:
        txs[1] = TokenTransaction(3, txs[0].client_id, txs[0].kind, 7)
    forged = _rehashed(chain, 2, tuple(txs))
    # hashes and links are consistent, so only the invariants catch it
    assert all(b.prev_hash == a.block_hash
               for a, b in zip(forged.blocks, forged.blocks[1:]))
    assert forged.verify() == 2
    path = tmp_path / "ledger.ftlg"
    path.write_bytes(forged.to_bytes())
    assert verify_file(path) == (2, 4)
    assert _rehashed(chain, 2, chain.blocks[2].transactions).verify() is None


def test_sequencing_errors():
    chain = Chain()
    with pytest.raises(SequencingError):
        chain.append_block(2, _allocation(2, {0: 1}))
    chain.append_block(1, _allocation(1, {0: 1}))
    with pytest.raises(SequencingError):
        chain.append_block(3, _allocation(3, {0: 1}))
    with pytest.raises(SequencingError):
        chain.append_block(2, _allocation(5, {0: 1}))


def test_amount_bit_flip_is_detected_at_its_block(tmp_path):
    chain = _sample_chain(4)
    path = tmp_path / "ledger.ftlg"
    path.write_bytes(chain.to_bytes())
    blob = bytearray(path.read_bytes())
    # locate block 2's first tx amount: header 6 + two blocks before it
    block_sizes = [len(b.to_bytes()) for b in chain.blocks]
    offset = 6 + sum(block_sizes[:2]) + 8 + 32 + 4 + 9  # into the amount field
    blob[offset] ^= 0x01
    path.write_bytes(bytes(blob))
    bad, _ = verify_file(path)
    assert bad == 2


def test_truncating_the_last_block_leaves_a_valid_prefix(tmp_path):
    chain = _sample_chain(3)
    path = tmp_path / "ledger.ftlg"
    path.write_bytes(chain.to_bytes())
    blob = path.read_bytes()
    last_size = len(chain.blocks[-1].to_bytes())
    path.write_bytes(blob[:-last_size])
    bad, n_blocks = verify_file(path)
    assert bad is None and n_blocks == 2


def test_removing_an_interior_block_is_detected_at_the_splice(tmp_path):
    chain = _sample_chain(3)
    path = tmp_path / "ledger.ftlg"
    sizes = [len(b.to_bytes()) for b in chain.blocks]
    blob = chain.to_bytes()
    start = 6 + sizes[0]
    spliced = blob[:start] + blob[start + sizes[1]:]
    path.write_bytes(spliced)
    bad, _ = verify_file(path)
    assert bad == 1


def test_balances_and_round_queries():
    chain = Chain()
    chain.append_block(1, _allocation(1, {4: 3 * 10**6}))
    chain.append_block(2, _allocation(2, {4: 2 * 10**6}, {9: 7}))
    assert chain.balances() == {4: 5 * 10**6, 9: 7}
    txs = chain.query_round(2)
    assert {(tx.client_id, tx.kind, tx.amount_microtokens) for tx in txs} == {
        (4, KIND_CONTRIBUTION, 2 * 10**6), (9, KIND_PARTICIPATION, 7)}
    with pytest.raises(LookupError):
        chain.query_round(3)


def test_sum_of_balances_equals_total_issued():
    chain = _sample_chain(5)
    assert sum(chain.balances().values()) == chain.total_issued()


def test_zero_amount_awards_are_not_recorded():
    chain = Chain()
    block = chain.append_block(1, _allocation(1, {0: 0, 1: 5}, {2: 0}))
    assert [(tx.client_id, tx.amount_microtokens) for tx in block.transactions] == [(1, 5)]


def test_file_round_trip_and_incremental_append(tmp_path):
    full_path = tmp_path / "full.ftlg"
    inc_path = tmp_path / "inc.ftlg"
    chain = Chain()
    with open(inc_path, "wb", buffering=0) as fh:
        fh.write(Chain().to_bytes())
        for t in range(1, 5):
            chain.append_block(t, _allocation(t, {t: t * 11}))
            append_to_file(fh, chain.blocks[-1])
            # unbuffered: the block is in the file before the handle closes
            assert Chain.load(inc_path).blocks == chain.blocks
    full_path.write_bytes(chain.to_bytes())
    assert full_path.read_bytes() == inc_path.read_bytes()
    loaded = Chain.load(full_path)
    assert loaded.verify() is None
    assert loaded.total_issued() == chain.total_issued()


class _ShortWriter:
    """A raw file that takes at most three bytes a write."""

    def __init__(self):
        self.data = bytearray()

    def write(self, view):
        self.data += view[:3]
        return min(len(view), 3)


def test_append_to_file_finishes_a_short_write():
    chain = _sample_chain(2)
    fh = _ShortWriter()
    for block in chain.blocks:
        append_to_file(fh, block)
    assert bytes(fh.data) == chain.to_bytes()[6:]


def test_serialization_is_deterministic():
    a = _sample_chain(3).to_bytes()
    b = _sample_chain(3).to_bytes()
    assert a == b


def test_bad_magic_is_a_format_error(tmp_path):
    path = tmp_path / "junk.ftlg"
    path.write_bytes(b"NOPE" + bytes(10))
    bad, _ = verify_file(path)
    assert bad == 0
    with pytest.raises(LedgerFormatError):
        Chain.load(path)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n_rounds=st.integers(1, 8))
def test_random_allocation_sequences_always_verify(seed, n_rounds):
    gen = np.random.Generator(np.random.PCG64(seed))
    chain = Chain()
    expected_total = 0
    for t in range(1, n_rounds + 1):
        contribution = {int(c): int(gen.integers(0, 10**7))
                        for c in gen.choice(20, size=int(gen.integers(0, 5)),
                                            replace=False)}
        participation = {int(c): int(gen.integers(0, 10**5))
                         for c in gen.choice(20, size=int(gen.integers(0, 4)),
                                             replace=False)}
        total = sum(contribution.values()) + sum(participation.values())
        chain.append_block(t, RoundAllocation(t, contribution, participation, total))
        expected_total += total
    assert chain.verify() is None
    assert chain.total_issued() == expected_total
    assert sum(chain.balances().values()) == expected_total
    reloaded = Chain.from_bytes(chain.to_bytes())
    assert reloaded.verify() is None
    assert reloaded.total_issued() == expected_total


def test_random_bit_flips_are_always_detected(tmp_path):
    chain = _sample_chain(6)
    path = tmp_path / "ledger.ftlg"
    path.write_bytes(chain.to_bytes())
    blob = path.read_bytes()
    sizes = [len(b.to_bytes()) for b in chain.blocks]
    starts = np.cumsum([6] + sizes).tolist()
    gen = np.random.Generator(np.random.PCG64(0))
    for _ in range(200):
        bit = int(gen.integers(0, len(blob) * 8))
        mutated = bytearray(blob)
        mutated[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(mutated))
        bad, _ = verify_file(path)
        assert bad is not None
        byte_pos = bit // 8
        if byte_pos >= 6:
            expect = max(k for k in range(len(sizes)) if starts[k] <= byte_pos)
            assert bad == expect
        else:
            assert bad == 0
