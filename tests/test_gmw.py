import numpy as np
import pytest
from conftest import closing, deal, drbg_from, run_parties

from hybrid2pc import circuits as cc
from hybrid2pc import gmw, transport
from hybrid2pc.correlated import Exhausted, PartyMaterial, ResourceManifest
from hybrid2pc.gmw import BoolShare, GmwEngine
from hybrid2pc.ring import RingParams
from hybrid2pc.transport import ProtocolError


def manifest(num_bmt, ring_=RingParams(32)):
    return ResourceManifest(bytes(16), ring_, num_bmt=num_bmt)


def engines(channels, num_bmt):
    m0, m1 = deal(manifest(num_bmt))
    c0, c1 = channels
    return GmwEngine(0, c0, m0), GmwEngine(1, c1, m1)


def to_bits(v, w):
    sh = np.arange(w, dtype=np.uint64)
    return ((np.atleast_1d(np.asarray(v, np.uint64))[:, None] >> sh) & np.uint64(1)).astype(np.uint8)


def from_bits(bits):
    sh = np.arange(bits.shape[1], dtype=np.uint64)
    return (bits.astype(np.uint64) << sh).sum(axis=1, dtype=np.uint64)


def eval_both(channels, circ, x, y, num_bmt=None, seed=0):
    """Share x/y randomly, evaluate on both sides, reconstruct outputs."""
    lc = cc.levelize(circ)
    need = circ.num_and * max(len(np.atleast_1d(x)), 1) if num_bmt is None else num_bmt
    e0, e1 = engines(channels, need)
    gen = drbg_from(seed)
    w0, w1 = len(circ.inputs0), len(circ.inputs1)
    x0, x1 = gmw.share_bits(to_bits(x, w0) if w0 else np.zeros((len(np.atleast_1d(x)), 0), np.uint8), gen)
    y0, y1 = gmw.share_bits(to_bits(y, w1) if w1 else np.zeros((len(np.atleast_1d(x)), 0), np.uint8), gen)
    s0, s1 = run_parties(
        lambda: e0.evaluate(lc, x0, y0),
        lambda: e1.evaluate(lc, x1, y1),
    )
    return s0.bits ^ s1.bits, (e0, e1)


def test_single_and_trace_example(channels):
    # x=1 as (0,1), y=1 as (1,0), triple a=1 as (1,0), b=0, c=0 as (1,1)
    c0, c1 = channels
    zeros = np.zeros(0, np.uint64)

    def mk(role, a, b, c):
        return PartyMaterial(role, RingParams(32), zeros, zeros, zeros,
                             np.array([a], np.uint8), np.array([b], np.uint8),
                             np.array([c], np.uint8))

    e0 = GmwEngine(0, c0, mk(0, 1, 0, 1))
    e1 = GmwEngine(1, c1, mk(1, 0, 0, 1))
    circ = cc.build_bitand(1)
    lc = cc.levelize(circ)
    s0, s1 = run_parties(
        lambda: e0.evaluate(lc, BoolShare([[0]], 0), BoolShare([[1]], 0)),
        lambda: e1.evaluate(lc, BoolShare([[1]], 1), BoolShare([[0]], 1)),
    )
    assert s0.bits[0, 0] == 0 and s1.bits[0, 0] == 1
    assert (s0.bits ^ s1.bits)[0, 0] == 1


def test_xor_only_circuit_zero_online_bytes(channels):
    c0, c1 = channels
    out, _ = eval_both(channels, cc.build_bitxor(32), np.arange(100, dtype=np.uint64),
                       np.arange(100, dtype=np.uint64) * 3)
    assert np.array_equal(from_bits(out), np.arange(100, dtype=np.uint64) ^ (np.arange(100, dtype=np.uint64) * 3))
    assert c0.ledger.payload_bytes() == 0 and c1.ledger.payload_bytes() == 0


def test_1000_parallel_32bit_ands_bytes(channels):
    c0, c1 = channels
    rng = np.random.default_rng(1)
    x = rng.integers(0, 1 << 32, 1000, dtype=np.uint64)
    y = rng.integers(0, 1 << 32, 1000, dtype=np.uint64)
    out, _ = eval_both(channels, cc.build_bitand(32), x, y)
    assert np.array_equal(from_bits(out), x & y)
    # 2 bits per gate per direction, 32000 gates, single round
    for ch in (c0, c1):
        assert ch.ledger.payload_bytes(msg_type=transport.GMW_DE, direction="sent") == 8000
        assert ch.ledger.messages(msg_type=transport.GMW_DE, direction="sent") == 1
    assert (c0.flights, c1.flights) == (1, 1)


def test_1000_single_bit_ands_ledger(channels):
    # 2 bits per gate per direction: 1000 gates -> 2000 bits = 250 bytes
    c0, c1 = channels
    rng = np.random.default_rng(8)
    x = rng.integers(0, 2, 1000, dtype=np.uint64)
    y = rng.integers(0, 2, 1000, dtype=np.uint64)
    out, _ = eval_both(channels, cc.build_bitand(1), x, y)
    assert np.array_equal(from_bits(out), x & y)
    for ch in (c0, c1):
        assert ch.ledger.payload_bytes(msg_type=transport.GMW_DE, direction="sent") == 250


def test_library_exhaustive_8bit(channels):
    all8 = np.arange(256, dtype=np.uint64)
    a, b = np.repeat(all8, 256), np.tile(all8, 256)
    cases = [
        (cc.build_add(8, "depth"), a, b, (a + b) & np.uint64(255)),
        (cc.build_sub(8, "depth"), a, b, (a - b) & np.uint64(255)),
        (cc.build_eq(8), a, b, (a == b).astype(np.uint64)),
    ]
    for i, (circ, x, y, expect) in enumerate(cases):
        with closing(*transport.channel_pair()) as chans:
            out, _ = eval_both(chans, circ, x, y, seed=i)
        assert np.array_equal(from_bits(out), expect), circ.name


def test_rounds_equal_and_levels(channels):
    c0, c1 = channels
    circ = cc.build_add(32, "depth")
    depth = cc.levelize(circ).depth
    rng = np.random.default_rng(2)
    x = rng.integers(0, 1 << 32, 50, dtype=np.uint64)
    y = rng.integers(0, 1 << 32, 50, dtype=np.uint64)
    out, _ = eval_both(channels, circ, x, y)
    assert np.array_equal(from_bits(out), (x + y) & np.uint64((1 << 32) - 1))
    assert (c0.flights, c1.flights) == (depth, depth)
    assert c0.ledger.messages(msg_type=transport.GMW_DE, direction="sent") == depth


def test_triple_exhaustion(channels):
    e0, e1 = engines(channels, 5)
    circ = cc.build_bitand(8)
    lc = cc.levelize(circ)
    with pytest.raises(Exhausted):
        run_parties(
            lambda: e0.evaluate(lc, BoolShare(np.zeros((1, 8), np.uint8), 0),
                                BoolShare(np.zeros((1, 8), np.uint8), 0)),
            lambda: e1.evaluate(lc, BoolShare(np.zeros((1, 8), np.uint8), 1),
                                BoolShare(np.zeros((1, 8), np.uint8), 1)),
        )


def test_desync_detected(channels):
    e0, e1 = engines(channels, 64)
    e1._round_index = 7  # simulate a missed level on one side
    circ = cc.build_bitand(8)
    lc = cc.levelize(circ)
    z = np.zeros((1, 8), np.uint8)
    with pytest.raises(ProtocolError):
        run_parties(
            lambda: e0.evaluate(lc, BoolShare(z, 0), BoolShare(z, 0)),
            lambda: e1.evaluate(lc, BoolShare(z, 1), BoolShare(z, 1)),
        )


def test_more_than_one_cycle_rejected(channels):
    # every circuit is combinational: a second cycle is refused before
    # either role sends a frame
    e0, e1 = engines(channels, 16)
    lc = cc.levelize(cc.build_bitand(8))
    z = np.zeros((1, 8), np.uint8)
    with pytest.raises(gmw.GmwError, match="one cycle"):
        run_parties(
            lambda: e0.evaluate(lc, BoolShare(z, 0), BoolShare(z, 0), 2),
            lambda: e1.evaluate(lc, BoolShare(z, 1), BoolShare(z, 1), 2),
        )
    assert [c.ledger.messages() for c in channels] == [0, 0]
