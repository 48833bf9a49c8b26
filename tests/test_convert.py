import hashlib

import numpy as np
import pytest
from conftest import deal, drbg_from, run_parties

from hybrid2pc import ass, circuits, convert, gmw, ring, transport
from hybrid2pc.correlated import ResourceManifest
from hybrid2pc.gmw import BoolShare
from hybrid2pc.ring import RingParams
from hybrid2pc.session import PartySession


def sessions(channels, ring_=RingParams(32), **kw):
    m = ResourceManifest(bytes(16), ring_, **kw)
    m0, m1 = deal(m)
    c0, c1 = channels
    s0 = PartySession(0, m, m0, c0)
    s1 = PartySession(1, m, m1, c1)
    return s0, s1


def test_y2b_exhaustive_one_bit(channels):
    # both bit values under both permute classes, via a 1-bit b2y + y2b trip
    for s0_bit in (0, 1):
        for s1_bit in (0, 1):
            chans = transport.channel_pair()
            se0, se1 = sessions(chans, num_labels=1)
            b0 = BoolShare(np.array([[s0_bit]], np.uint8), 0)
            b1 = BoolShare(np.array([[s1_bit]], np.uint8), 1)

            def p0():
                ys = convert.b2y(se0.gc, b0)
                return convert.y2b(se0.gc, ys)

            def p1():
                ys = convert.b2y(se1.gc, b1)
                return convert.y2b(se1.gc, ys)

            r0, r1 = run_parties(p0, p1)
            assert gmw.reconstruct_bits(r0, r1)[0, 0] == s0_bit ^ s1_bit


def test_y2b_reads_constant_outputs(channels):
    # x & y, CONST1 and CONST0 at x = y = 1: under decode "none" a constant
    # output's label LSBs must XOR to the constant, as any other wire's do
    b = circuits.Builder("and_one_zero")
    (x,), (y,) = b.inputs(0, 1), b.inputs(1, 1)
    b.outputs = [b.and_(x, y), circuits.CONST1, circuits.CONST0]
    circ = b.build()
    se0, se1 = sessions(channels, num_labels=1)
    one = np.ones((1, 1), np.uint8)
    r0, r1 = run_parties(
        *(lambda se=se: convert.y2b(se.gc, se.gc.run_shares(circ, one, 1, "none"))
          for se in (se0, se1)))
    assert gmw.reconstruct_bits(r0, r1).tolist() == [[1, 1, 0]]


def test_y2b_zero_online_bytes(channels):
    c0, c1 = channels
    se0, se1 = sessions(channels, num_labels=32)
    bits = np.random.default_rng(0).integers(0, 2, (1, 32), np.uint8)
    b0, b1 = gmw.share_bits(bits, drbg_from(1))
    run_parties(
        lambda: convert.b2y(se0.gc, b0), lambda: convert.b2y(se1.gc, b1)
    )
    before0 = c0.ledger.payload_bytes()
    before1 = c1.ledger.payload_bytes()
    # y2b itself: free; measure no new traffic
    # (the YaoShare objects live on each side already)
    assert c0.ledger.payload_bytes() == before0
    assert c1.ledger.payload_bytes() == before1


def test_b2y_roundtrip_32bit(channels):
    p = RingParams(32)
    n = 100
    se0, se1 = sessions(channels, num_labels=32 * n)
    rng = np.random.default_rng(2)
    vals = rng.integers(0, p.modulus, n, dtype=np.uint64)
    bits = ring.bits_of(vals, p)
    b0, b1 = gmw.share_bits(bits, drbg_from(rng))

    def p0():
        ys = convert.b2y(se0.gc, b0)
        return convert.y2b(se0.gc, ys)

    def p1():
        ys = convert.b2y(se1.gc, b1)
        return convert.y2b(se1.gc, ys)

    r0, r1 = run_parties(p0, p1)
    back = ring.from_bits(gmw.reconstruct_bits(r0, r1), p)
    assert np.array_equal(back, vals)


def test_a2y_matches_oracle(channels):
    p = RingParams(32)
    n = 10**4
    se0, se1 = sessions(channels, num_labels=32 * n)
    rng = np.random.default_rng(3)
    x = rng.integers(0, p.modulus, n, dtype=np.uint64)
    x0, x1 = ass.share(x, p, drbg_from(rng))

    def p0():
        ys = convert.a2y(se0.gc, x0, p)
        return convert.y2b(se0.gc, ys)

    def p1():
        ys = convert.a2y(se1.gc, x1, p)
        return convert.y2b(se1.gc, ys)

    r0, r1 = run_parties(p0, p1)
    got = ring.from_bits(gmw.reconstruct_bits(r0, r1), p)
    assert np.array_equal(got, x)


def test_a2y_with_scale_discharge(channels):
    # shift debt rewired for free: the 32 - debt output bits are the low
    # bits of the truncation oracle, whose higher bits repeat the top one;
    # y2a sign-extends them back to the whole truncated value
    p = RingParams(32, 7, 12)
    n = 1000
    debt = 12
    w = p.l - debt
    se0, se1 = sessions(channels, ring_=p, num_labels=32 * n, num_dabits=w * n)
    rng = np.random.default_rng(4)
    x = rng.integers(0, p.modulus, n, dtype=np.uint64)
    x0, x1 = ass.share(x, p, drbg_from(rng))

    def run(se, xs):
        ys = convert.a2y(se.gc, xs, p, shift=debt)
        return convert.y2b(se.gc, ys), convert.y2a(se.gc, p, se.dabits, ys)

    (b0, a0), (b1, a1) = run_parties(lambda: run(se0, x0), lambda: run(se1, x1))
    got = gmw.reconstruct_bits(b0, b1)
    expect = ring.bits_of(ring.truncate(x, p, shift=debt), p)
    assert got.shape == (n, w)
    assert np.array_equal(got, expect[:, :w])
    assert np.array_equal(expect[:, w:], np.repeat(got[:, -1:], debt, axis=1))
    assert np.array_equal(ass.reconstruct(a0, a1, p), ring.truncate(x, p, shift=debt))


def test_b2a_exhaustive_one_bit(channels):
    p = RingParams(8)
    for s0_bit in (0, 1):
        for s1_bit in (0, 1):
            chans = transport.channel_pair()
            se0, se1 = sessions(chans, ring_=p, num_dabits=1)
            b0 = BoolShare(np.array([[s0_bit]], np.uint8), 0)
            b1 = BoolShare(np.array([[s1_bit]], np.uint8), 1)
            r0, r1 = run_parties(
                lambda: convert.b2a(se0.channel, p, se0.dabits, b0),
                lambda: convert.b2a(se1.channel, p, se1.dabits, b1),
            )
            assert int(ass.reconstruct(r0, r1, p)[0]) == (s0_bit ^ s1_bit)


def test_b2a_extremes_and_random(channels):
    p = RingParams(32)
    n = 1000
    se0, se1 = sessions(channels, num_dabits=32 * (n + 2))
    rng = np.random.default_rng(5)
    vals = np.concatenate([
        np.array([0, p.mask], dtype=np.uint64),
        rng.integers(0, p.modulus, n, dtype=np.uint64),
    ])
    bits = ring.bits_of(vals, p)
    b0, b1 = gmw.share_bits(bits, drbg_from(rng))
    r0, r1 = run_parties(
        lambda: convert.b2a(se0.channel, p, se0.dabits, BoolShare(b0.bits, 0)),
        lambda: convert.b2a(se1.channel, p, se1.dabits, BoolShare(b1.bits, 1)),
    )
    assert np.array_equal(ass.reconstruct(r0, r1, p), vals)


@pytest.mark.parametrize("w", range(1, 8))
def test_b2a_narrow_weights_exhaustive_8bit(w):
    # every w-bit pattern at l = 8: ReLU-style weights 2^j give its unsigned
    # value, max-style weights (top bit -2^(w-1) mod 2^8) its sign extension
    p = RingParams(8)
    chans = transport.channel_pair()
    vals = np.arange(1 << w, dtype=np.uint64)
    se0, se1 = sessions(chans, ring_=p, num_dabits=2 * w * len(vals))
    bits = ring.bits_of(vals, p)[:, :w]
    b0, b1 = gmw.share_bits(bits, drbg_from(w))

    def run(se, bs):
        return [convert.b2a(se.channel, p, se.dabits, BoolShare(bs.bits, se.role),
                            signed=signed) for signed in (False, True)]

    (u0, s0), (u1, s1) = run_parties(lambda: run(se0, b0), lambda: run(se1, b1))
    assert np.array_equal(ass.reconstruct(u0, u1, p), vals)
    top = vals >> np.uint64(w - 1)  # two's complement of the w-bit words
    extended = ring.from_signed(vals.astype(np.int64) - (top.astype(np.int64) << w), p)
    assert np.array_equal(ass.reconstruct(s0, s1, p), extended)
    for ch in chans:
        ch.close()


@pytest.mark.parametrize("w", [8, 32, 64])
def test_roundtrips_preserve_reconstruction(w, channels):
    p = RingParams(w)
    n = 10**4
    se0, se1 = sessions(channels, ring_=p, num_labels=3 * w * n, num_dabits=2 * w * n)
    rng = np.random.default_rng(6)
    x = rng.integers(0, p.modulus, n, dtype=np.uint64)
    x0, x1 = ass.share(x, p, drbg_from(rng))

    def roundtrip(se, xs):
        # a2y -> y2a
        ys = convert.a2y(se.gc, xs, p)
        back_a = convert.y2a(se.gc, p, se.dabits, ys)
        # a2b -> b2a on the result
        bs = convert.a2b(se.gc, back_a, p)
        back2 = convert.b2a(se.channel, p, se.dabits, bs)
        # b2y -> y2b
        ys2 = convert.b2y(se.gc, bs)
        bs2 = convert.y2b(se.gc, ys2)
        return back2, bs2

    (a0, bb0), (a1, bb1) = run_parties(
        lambda: roundtrip(se0, x0), lambda: roundtrip(se1, x1)
    )
    assert np.array_equal(ass.reconstruct(a0, a1, p), x)
    assert np.array_equal(ring.from_bits(gmw.reconstruct_bits(bb0, bb1), p), x)


def test_b2a_ot_message_count(channels):
    # one daBit per bit, opened with one masked bit each way: ceil(n/8)
    # bytes of OT_CHOICES per role in one flight, and no OT_PAIRS
    c0, c1 = channels
    p = RingParams(16)
    n = 10
    se0, se1 = sessions(channels, ring_=p, num_dabits=16 * n)
    bits = np.zeros((n, 16), np.uint8)
    run_parties(
        lambda: convert.b2a(c0, p, se0.dabits, BoolShare(bits, 0)),
        lambda: convert.b2a(c1, p, se1.dabits, BoolShare(bits, 1)),
    )
    for c in (c0, c1):
        assert c.ledger.payload_bytes(direction="sent", msg_type=transport.OT_CHOICES) == n * 16 // 8
        assert c.ledger.payload_bytes(direction="sent") == n * 16 // 8
        assert c.ledger.messages(direction="sent") == 1 and c.flights == 1
        assert c.ledger.payload_bytes(msg_type=transport.OT_PAIRS) == 0
    # a zero-width batch sends nothing and draws nothing
    empty = [convert.b2a(c, p, se.dabits, BoolShare(np.zeros((3, 0), np.uint8), se.role))
             for c, se in ((c0, se0), (c1, se1))]
    assert [len(a) for a in empty] == [3, 3]
    assert c0.ledger.messages() == c1.ledger.messages() == 2
    assert se0.dabits.left() == se1.dabits.left() == 0


def test_b2a_openings_are_masked(channels, monkeypatch):
    # 256 all-zero share bits: a b2a that sent its bits c_i unmasked
    # would put all-zero openings on the wire
    sent = {}
    orig = transport.Channel.send

    def send(self, msg_type, payload):
        sent[self] = bytes(memoryview(payload).cast("B"))
        return orig(self, msg_type, payload)

    monkeypatch.setattr(transport.Channel, "send", send)
    c0, c1 = channels
    p = RingParams(32)
    se0, se1 = sessions(channels, ring_=p, num_dabits=256)
    bits = np.zeros((8, 32), np.uint8)
    r0, r1 = run_parties(
        lambda: convert.b2a(c0, p, se0.dabits, BoolShare(bits, 0)),
        lambda: convert.b2a(c1, p, se1.dabits, BoolShare(bits, 1)),
    )
    assert not ass.reconstruct(r0, r1, p).any()
    assert len(sent[c0]) == len(sent[c1]) == 32
    assert any(sent[c0]) and any(sent[c1])


# SHA-256 of each role's OT_CHOICES payloads, its daBit openings, in one
# seeded b2a per ring width (7 values of 5 bits, daBits dealt from
# conftest's seeds, input bits split with the test's own stream): b2a's
# wire bytes, which depend on nothing else.
PINNED_OT_WIRE = {
    8: ("400a80dd4dd280c6def49dd2a6381c088062ca1bf089ae4c4b6ad1b0d81ef45d",
        "df81bb1c7abe586fb772ee1be12c8bfd785120749dd3103884da2a79960bdef4"),
    16: ("43b3525e45f645b5cb9e81d1d9e98fd4a9541c3b33de28f7afb9ec8503362cd8",
         "0bf8327c47ab3b77d06929bbec7466ae2c26cb385a5314a17d3511ea0b5c27fc"),
    32: ("269cb3e6e86b70cb5f54d3ae267f21ff7d7fb484bb8fa4b03a3862b642ef1ff5",
         "9c9f1905b70906690d9c723c37a17d0a53ae2beaa1024d80b41c82541a6dd42b"),
    64: ("bf84e2d0164a5403ab2c1f499d9b7fa922486f35ed5eb9be9c040d58780ddbf8",
         "0ebba693b6bd4b2a263a4121bf2319248fd78645bb813d2b101d6ae221757976"),
}


@pytest.mark.parametrize("l", sorted(PINNED_OT_WIRE))
def test_b2a_ot_wire_bytes_pinned(l, channels, monkeypatch):
    c0, c1 = channels
    digests = {c0: hashlib.sha256(), c1: hashlib.sha256()}
    orig = transport.Channel.send

    def send(self, msg_type, payload):
        assert msg_type == transport.OT_CHOICES
        digests[self].update(memoryview(payload).cast("B"))
        return orig(self, msg_type, payload)

    monkeypatch.setattr(transport.Channel, "send", send)
    p, n, w = RingParams(l), 7, 5
    se0, se1 = sessions(channels, ring_=p, num_dabits=n * w)
    rng = np.random.default_rng(l)
    vals = rng.integers(0, 1 << w, n, dtype=np.uint64)
    # test data: the input bits are split with the test's own stream
    bits = ring.bits_of(vals, p)[:, :w]
    mask = rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
    r0, r1 = run_parties(
        lambda: convert.b2a(c0, p, se0.dabits, BoolShare(mask, 0)),
        lambda: convert.b2a(c1, p, se1.dabits, BoolShare(bits ^ mask, 1)),
    )
    assert np.array_equal(ass.reconstruct(r0, r1, p), vals)
    assert (digests[c0].hexdigest(), digests[c1].hexdigest()) == PINNED_OT_WIRE[l]
