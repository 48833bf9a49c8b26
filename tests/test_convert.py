import hashlib

import numpy as np
import pytest
from conftest import deal, drbg_from, run_parties

from hybrid2pc import ass, convert, gmw, ring, transport
from hybrid2pc.correlated import ResourceManifest
from hybrid2pc.gmw import BoolShare
from hybrid2pc.ring import RingParams
from hybrid2pc.session import PartySession


def sessions(channels, ring_=RingParams(32), **kw):
    m = ResourceManifest(bytes(16), ring_, **kw)
    m0, m1 = deal(m)
    c0, c1 = channels
    s0 = PartySession(0, m, m0, c0, rng=np.random.default_rng(100))
    s1 = PartySession(1, m, m1, c1, rng=np.random.default_rng(200))
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
    se0, se1 = sessions(channels, ring_=p, num_labels=32 * n, num_ot=w * n)
    rng = np.random.default_rng(4)
    x = rng.integers(0, p.modulus, n, dtype=np.uint64)
    x0, x1 = ass.share(x, p, drbg_from(rng))

    def run(se, xs):
        ys = convert.a2y(se.gc, xs, p, shift=debt)
        return convert.y2b(se.gc, ys), convert.y2a(se.gc, p, se.ot, ys, se.drbg)

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
            se0, se1 = sessions(chans, ring_=p, num_ot=1)
            b0 = BoolShare(np.array([[s0_bit]], np.uint8), 0)
            b1 = BoolShare(np.array([[s1_bit]], np.uint8), 1)
            r0, r1 = run_parties(
                lambda: convert.b2a(0, p, se0.ot, b0, se0.drbg),
                lambda: convert.b2a(1, p, se1.ot, b1, se1.drbg),
            )
            assert int(ass.reconstruct(r0, r1, p)[0]) == (s0_bit ^ s1_bit)


def test_b2a_extremes_and_random(channels):
    p = RingParams(32)
    n = 1000
    se0, se1 = sessions(channels, num_ot=32 * (n + 2))
    rng = np.random.default_rng(5)
    vals = np.concatenate([
        np.array([0, p.mask], dtype=np.uint64),
        rng.integers(0, p.modulus, n, dtype=np.uint64),
    ])
    bits = ring.bits_of(vals, p)
    b0, b1 = gmw.share_bits(bits, drbg_from(rng))
    r0, r1 = run_parties(
        lambda: convert.b2a(0, p, se0.ot, BoolShare(b0.bits, 0), se0.drbg),
        lambda: convert.b2a(1, p, se1.ot, BoolShare(b1.bits, 1), se1.drbg),
    )
    assert np.array_equal(ass.reconstruct(r0, r1, p), vals)


@pytest.mark.parametrize("w", range(1, 8))
def test_b2a_narrow_weights_exhaustive_8bit(w):
    # every w-bit pattern at l = 8: ReLU-style weights 2^j give its unsigned
    # value, max-style weights (top bit -2^(w-1) mod 2^8) its sign extension
    p = RingParams(8)
    chans = transport.channel_pair()
    vals = np.arange(1 << w, dtype=np.uint64)
    se0, se1 = sessions(chans, ring_=p, num_ot=2 * w * len(vals))
    bits = ring.bits_of(vals, p)[:, :w]
    b0, b1 = gmw.share_bits(bits, drbg_from(w))

    def run(se, bs):
        return [convert.b2a(se.role, p, se.ot, BoolShare(bs.bits, se.role), se.drbg,
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
    se0, se1 = sessions(channels, ring_=p, num_labels=3 * w * n, num_ot=2 * w * n)
    rng = np.random.default_rng(6)
    x = rng.integers(0, p.modulus, n, dtype=np.uint64)
    x0, x1 = ass.share(x, p, drbg_from(rng))

    def roundtrip(se, xs):
        # a2y -> y2a
        ys = convert.a2y(se.gc, xs, p)
        back_a = convert.y2a(se.gc, p, se.ot, ys, se.drbg)
        # a2b -> b2a on the result
        bs = convert.a2b(se.gc, back_a, p)
        back2 = convert.b2a(se.role, p, se.ot, bs, se.drbg)
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
    c0, c1 = channels
    p = RingParams(16)
    n = 10
    se0, se1 = sessions(channels, ring_=p, num_ot=16 * n)
    bits = np.zeros((n, 16), np.uint8)
    run_parties(
        lambda: convert.b2a(0, p, se0.ot, BoolShare(bits, 0), se0.drbg),
        lambda: convert.b2a(1, p, se1.ot, BoolShare(bits, 1), se1.drbg),
    )
    # l OTs of l-bit messages per value: choices n*l bits, pairs n*l*2*l bits
    assert c1.ledger.payload_bytes(msg_type=transport.OT_CHOICES) == n * 16 // 8
    assert c0.ledger.payload_bytes(msg_type=transport.OT_PAIRS) == n * 16 * 2 * 2


# SHA-256 of every OT_CHOICES and OT_PAIRS payload of one seeded b2a per
# ring width (7 values of 5 bits, masks dealt from conftest's seeds, role
# 0's masks r from its session generator, keyed from a seeded rng): the OT
# engine's wire bytes, so that no change to how it holds masks or
# messages moves one. OT_CHOICES depends only on the dealt masks and the
# test's input split; OT_PAIRS also on role 0's r, so it moves with the
# session generator's stream.
PINNED_OT_WIRE = {
    8: ("f718bf0231816b458b9365bc7d6cc0be22642583fabf83ddf91dc5d5a4ab6c00",
        "f75b283015c60ea039e4f763f8d6744644450ad9e7221ec7326b3386f22e1697"),
    16: ("cf3d5b7d16e708b1d236d32d179dac56ae0c6e138ea00ada67f653dad32f4142",
         "65085191773f0609980805085a054726294f1b2d3691ed0fdae5c6ade543be42"),
    32: ("7b8ce3128ea6ec8c43534a2285613344ea2be9990236abcad7d8097fde4c4a37",
         "6bb904ab7522007c23a12a711cc2c82beb627f5b3f3a8a3cd41d0d4a3362c70e"),
    64: ("a47bd8cf80d775df0c66e30b6ca2895845667be22299d6149e6c772162a8b8fd",
         "87e6d7821c8910a4879a4385ff7cfa6014b61e7382fa4b55bad245043cb8d0c3"),
}


@pytest.mark.parametrize("l", sorted(PINNED_OT_WIRE))
def test_b2a_ot_wire_bytes_pinned(l, channels, monkeypatch):
    digests = {transport.OT_CHOICES: hashlib.sha256(), transport.OT_PAIRS: hashlib.sha256()}
    orig = transport.Channel.send

    def send(self, msg_type, payload):
        if msg_type in digests:
            digests[msg_type].update(memoryview(payload).cast("B"))
        return orig(self, msg_type, payload)

    monkeypatch.setattr(transport.Channel, "send", send)
    p, n, w = RingParams(l), 7, 5
    se0, se1 = sessions(channels, ring_=p, num_ot=n * w)
    rng = np.random.default_rng(l)
    vals = rng.integers(0, 1 << w, n, dtype=np.uint64)
    # test data: the input bits are split with the test's own stream
    bits = ring.bits_of(vals, p)[:, :w]
    mask = rng.integers(0, 2, size=bits.shape, dtype=np.uint8)
    b0, b1 = BoolShare(mask, 0), BoolShare(bits ^ mask, 1)
    r0, r1 = run_parties(
        lambda: convert.b2a(0, p, se0.ot, BoolShare(b0.bits, 0), se0.drbg),
        lambda: convert.b2a(1, p, se1.ot, BoolShare(b1.bits, 1), se1.drbg),
    )
    assert np.array_equal(ass.reconstruct(r0, r1, p), vals)
    got = tuple(digests[t].hexdigest() for t in (transport.OT_CHOICES, transport.OT_PAIRS))
    assert got == PINNED_OT_WIRE[l]
