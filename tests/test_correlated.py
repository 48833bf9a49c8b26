import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deal, run_parties

from hybrid2pc import circuits as cc
from hybrid2pc import convert
from hybrid2pc import correlated as cr
from hybrid2pc.ass import ArithShare, AssEngine
from hybrid2pc.gc import GcSession
from hybrid2pc.gmw import BoolShare, GmwEngine
from hybrid2pc.ring import RingParams
from hybrid2pc.session import PartySession
from hybrid2pc.transport import Disconnected, channel_pair

SEED0 = hashlib.sha256(b"party-0").digest()
SEED1 = hashlib.sha256(b"party-1").digest()

L32 = RingParams(32)


def manifest(**kw):
    return cr.ResourceManifest(bytes(16), kw.pop("ring", L32), **kw)


def vdps(blocks):
    """((role-0 masks, a2) per block, role-1 masks per block, a3 flat)."""
    t0, t1 = deal(manifest(vdp_blocks=blocks))
    return (t0.vdp_mask, t0.vdp_scalar), t1.vdp_mask, np.concatenate(t1.vdp_scalar)


def test_amt_correction_formula():
    # a0=1,a1=1,b0=3,b1=1,c0=5 -> c1 = 2*4-5 = 3
    p = RingParams(8)
    c1 = ((1 + 1) * (3 + 1) - 5) % p.modulus
    assert c1 == 3


def test_amt_relation_holds():
    n = 10**5
    t0, t1 = deal(manifest(num_amt=n))
    a0, b0, c0, a1, b1, c1 = t0.amt_a, t0.amt_b, t0.amt_c, t1.amt_a, t1.amt_b, t1.amt_c
    mask = np.uint64(L32.mask)
    lhs = ((a0 + a1) & mask) * ((b0 + b1) & mask) & mask
    rhs = (c0 + c1) & mask
    assert np.array_equal(lhs, rhs)


def test_bmt_relation_exhaustive():
    # correction formula over all 2^5 share combinations
    for v in range(32):
        a0, a1, b0, b1, c0 = [(v >> i) & 1 for i in range(5)]
        c1 = ((a0 ^ a1) & (b0 ^ b1)) ^ c0
        assert (c0 ^ c1) == ((a0 ^ a1) & (b0 ^ b1))


def test_bmt_batch_relation():
    n = 10**5
    t0, t1 = deal(manifest(num_bmt=n))
    a0, b0, c0, a1, b1, c1 = t0.bmt_a, t0.bmt_b, t0.bmt_c, t1.bmt_a, t1.bmt_b, t1.bmt_c
    assert np.array_equal((a0 ^ a1) & (b0 ^ b1), c0 ^ c1)


def test_bmt_example_truth_table():
    # a0=1,a1=0,b0=1,b1=1,c0=1 -> c1 = (1&0)^1 = 1, so c = 0 = a&b
    a0, a1, b0, b1, c0 = 1, 0, 1, 1, 1
    c1 = ((a0 ^ a1) & (b0 ^ b1)) ^ c0
    assert c1 == 1
    assert (c0 ^ c1) == 0 == ((a0 ^ a1) & (b0 ^ b1))


@pytest.mark.parametrize("n", [1000, 2**15 + 3])
def test_dabits_are_xor_and_additive_shares_of_one_bit(n):
    # b0 ^ b1 = a0 + a1 mod 2^l, a value in {0, 1}, at every ring width
    for l in (8, 16, 32, 64):
        p = RingParams(l)
        t0, t1 = deal(manifest(ring=p, num_dabits=n))
        assert t0.dabit_b.shape == t1.dabit_b.shape == (n,)
        assert t0.dabit_a.shape == t1.dabit_a.shape == (n,)
        assert t0.dabit_a.dtype == t1.dabit_a.dtype == p.dtype
        b = t0.dabit_b ^ t1.dabit_b
        assert np.array_equal(t0.dabit_a + t1.dabit_a, b.astype(p.dtype)), l
        assert 0 < b.sum() < n  # b is not constant
        assert (t1.dabit_a > 1).any()  # role 0's a0 masks b in role 1's a1


def test_dabits_empty_batch():
    for l in (8, 64):
        t0, t1 = deal(manifest(ring=RingParams(l), num_dabits=0))
        assert t0.dabit_b.size == t1.dabit_b.size == 0
        assert t0.dabit_a.shape == t1.dabit_a.shape == (0,)


def test_vdps_formula_example():
    # n=2, a0=[1,2], a1=[3,4], a2=5 -> a3 = 11-5 = 6
    assert (1 * 3 + 2 * 4) - 5 == 6


def test_vdps_relation():
    blocks = [(1, 1), (1, 2), (1, 100), (1, 7)]
    (v0, a2), v1, a3 = vdps(blocks)
    a2 = np.concatenate(a2)
    mask = np.uint64(L32.mask)
    for i in range(len(blocks)):
        dot = int(((v0[i] * v1[i]) & mask).sum() & mask)
        assert (int(a2[i]) + int(a3[i])) % L32.modulus == dot


def test_vdps_length_one_is_single_mult_shift():
    (v0, a2), v1, a3 = vdps([(1, 1)])
    a0, a1 = int(v0[0][0, 0]), int(v1[0][0, 0])
    assert (a0 * a1 - int(a2[0][0])) % L32.modulus == int(a3[0])


def test_blocking_leaves_streams_and_corrections_unchanged():
    # one block of 3 products and three blocks of 1 draw the same bytes
    (v0, a2), v1, a3 = vdps([(3, 5), (2, 1)])
    (w0, b2), w1, b3 = vdps([(1, 5)] * 3 + [(1, 1)] * 2)
    assert [v.shape for v in v0] == [v.shape for v in v1] == [(3, 5), (2, 1)]
    for whole, parts in ((v0, w0), (v1, w1), (a2, b2)):
        assert np.array_equal(np.concatenate([v.ravel() for v in whole]),
                              np.concatenate([v.ravel() for v in parts]))
    assert np.array_equal(a3, b3)
    mask = np.uint64(L32.mask)
    dots = np.concatenate([(v * w).sum(axis=1) & mask for v, w in zip(v0, v1)])
    assert np.array_equal((np.concatenate(a2) + a3) & mask, dots)


def test_seed_symmetry_dealer_vs_party():
    # the dealer's locally expanded views and a party's own expansion are
    # byte-identical; hash both sides over 10^5 items of each kind
    m = manifest(num_amt=10**5, num_bmt=10**5, num_dabits=10**5, num_labels=10**5,
                 vdp_blocks=((10**5, 1),))

    def digest(mat):
        h = hashlib.sha256()
        for arr in (mat.amt_a, mat.amt_b, mat.amt_c, mat.bmt_a, mat.bmt_b, mat.bmt_c,
                    mat.dabit_b, mat.dabit_a, mat.delta, mat.label_k0, mat.label_r,
                    mat.label_k):
            if arr is not None:  # role 1's corrections before open_bundle
                h.update(np.ascontiguousarray(arr).tobytes())
        for arr in mat.vdp_mask + mat.vdp_scalar:
            h.update(arr.tobytes())
        return h.digest()

    assert digest(cr.expand_role0(SEED0, m)) == digest(cr.expand_role0(SEED0, m))
    dealer_view = cr.expand_role1(SEED1, m)
    party_view = cr.expand_role1(SEED1, m)
    assert digest(dealer_view) == digest(party_view)
    completed = cr.open_bundle(1, cr.compute_corrections(SEED0, SEED1, m), m)
    mask = np.uint64(L32.mask)
    m0 = cr.expand_role0(SEED0, m)
    lhs = ((m0.amt_a + completed.amt_a) & mask) * ((m0.amt_b + completed.amt_b) & mask)
    assert np.array_equal(lhs & mask, (m0.amt_c + completed.amt_c) & mask)
    assert np.array_equal(
        (m0.bmt_a ^ completed.bmt_a) & (m0.bmt_b ^ completed.bmt_b),
        m0.bmt_c ^ completed.bmt_c,
    )


def test_stream_independence_across_resource_types():
    # adding B-MTs to the manifest must not shift A-MT values
    small = cr.expand_role0(SEED0, manifest(num_amt=100))
    big = cr.expand_role0(SEED0, manifest(num_amt=100, num_bmt=5000, num_dabits=17,
                                          num_labels=9))
    assert np.array_equal(small.amt_a, big.amt_a)
    assert np.array_equal(small.amt_c, big.amt_c)
    # nor labels the daBits, nor the number of labels the session offset
    alone = cr.expand_role0(SEED0, manifest(num_dabits=17))
    assert np.array_equal(alone.dabit_b, big.dabit_b)
    assert np.array_equal(alone.dabit_a, big.dabit_a)
    assert np.array_equal(small.delta, big.delta)


def test_correction_payload_sizes():
    # amortized offline payload: l bits per A-MT, 1 bit per B-MT, l per
    # daBit, 128 per label, l bits per dot product, after role 1's seed;
    # role 0 gets its seed alone
    m = manifest(num_amt=1000, num_bmt=1000, num_dabits=1000, num_labels=1000,
                 vdp_blocks=((1, 3), (1, 9)))
    bundle = cr.compute_corrections(SEED0, SEED1, m)
    assert len(bundle) == cr.bundle_size(1, m) == (32 + 1000 * 4 + 125 + 1000 * 4
                                                   + 1000 * 16 + 2 * 4)
    assert bytes(bundle[:32]) == SEED1
    assert cr.bundle_size(0, m) == 32


def test_manifest_roundtrip():
    m = manifest(num_amt=5, num_bmt=6, num_dabits=7, num_labels=8,
                 vdp_blocks=((1, 1), (1, 2), (1, 3)))
    assert cr.ResourceManifest.decode(m.session_id, m.encode()) == m


def test_manifest_is_head_plus_one_pair_per_block():
    m = manifest(num_dabits=7, num_labels=9, vdp_blocks=[(19600, 25), (2000, 980)])
    payload = m.encode()
    head = 3 + 4 * 4  # the ring's l, alpha and beta; four u32 counts
    assert len(payload) == head + 2 * 8
    assert np.frombuffer(payload[3:head], "<u4").tolist() == [0, 0, 7, 9]
    assert np.frombuffer(payload[head:], "<u4").tolist() == [19600, 25, 2000, 980]
    back = cr.ResourceManifest.decode(m.session_id, payload)
    assert back == m and back.vdp_blocks == ((19600, 25), (2000, 980))
    assert m.vdp_lengths == (25,) * 19600 + (980,) * 2000
    for bad in (payload[:-1], payload + bytes(4), payload[:head - 1],
                payload[:head] + bytes(8), payload[:head + 4] + bytes(4)):
        with pytest.raises(ValueError):
            cr.ResourceManifest.decode(m.session_id, bad)


def test_manifest_validation():
    with pytest.raises(ValueError):
        cr.ResourceManifest(bytes(3), L32)
    with pytest.raises(ValueError):
        manifest(vdp_blocks=((1, 0),))
    with pytest.raises(ValueError):
        manifest(vdp_blocks=((0, 3),))
    with pytest.raises(ValueError):  # a ring with no whole-byte wire encoding
        manifest(ring=RingParams(12), num_amt=1)


@pytest.mark.parametrize("count", ["num_amt", "num_bmt", "num_dabits", "num_labels"])
def test_manifest_counts_are_u32(count):
    # every count travels as a u32: past it, a count raises, never wraps
    m = manifest(**{count: 2**32 - 1})
    assert cr.ResourceManifest.decode(m.session_id, m.encode()) == m
    for bad in (2**32, -1):
        with pytest.raises(ValueError):
            manifest(**{count: bad})


# a manifest-shaped payload (a head, then u32 pairs) or any bytes at all
_PAYLOADS = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.binary(min_size=19, max_size=19), st.lists(st.binary(min_size=8, max_size=8),
                                                            max_size=3)).map(
        lambda t: t[0] + b"".join(t[1])))


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
def test_manifest_decode_parses_or_raises_valueerror(payload):
    # the dealer's one reader of outside bytes: a payload it accepts
    # encodes back to itself, and any other raises ValueError
    try:
        m = cr.ResourceManifest.decode(bytes(16), payload)
    except ValueError:
        return
    assert m.encode() == payload


# Digests of the normative expansion of a mixed manifest (ragged dot
# products, reads that cross 64 KB DRBG requests), one per resource: its
# role 0 stream, its role 1 stream and role 1's correction section as
# open_bundle reads it. Parties and dealer must derive every byte
# identically, so a change to a stream layout, the DRBG or the correction
# encoding must fail here, in the resource it touched.
PINNED_MANIFEST = dict(
    num_amt=3001, num_bmt=1001, num_dabits=3003, num_labels=3003,
    vdp_blocks=tuple((1, (7 * i) % 13 + 1) for i in range(2000)),
)
# The manifest, amt, bmt, label and vdp digests were recorded while b2a
# still ran on dealt OT masks, and daBits moved none of them; "label"
# equals PINNED_LABELS below.
PINNED = {
    "manifest": "fa35e9dfee1f0c3b27523139246e9fc4d02c0f6d5caad4515e8ffe039f3616a2",
    "amt": "f36b55586066f5cf977df26909eb9c8cb0b1205c6b984e52e94d940e239cf89d",
    "bmt": "5511e0c473daa41988903a4c56590934aad1fb57960eea522b1f8d226736d941",
    "label": "a25e95b937a888b7ba1a16a89ece1b62342b7dd7e38eac2e490db20f927205ec",
    "vdp": "e3c7dfc75dc4e3781708cb16549fa59d29fb48885bb2bd2398175a3b80d04b28",
    "dabit": "ac44d19274f99a820a26f90feadd4a23094d66629ab536d6db7bb5b85e009f5d",
}


def _arrays_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _flat(blocks) -> np.ndarray:
    """Per-block arrays as the one flat vector the digests were taken over."""
    return np.concatenate([b.ravel() for b in blocks])


def _pinned_digests() -> dict:
    m = manifest(**PINNED_MANIFEST)
    m0 = cr.expand_role0(SEED0, m)
    m1 = cr.expand_role1(SEED1, m)
    c1 = cr.open_bundle(1, cr.compute_corrections(SEED0, SEED1, m), m)
    return {
        "manifest": hashlib.sha256(m.encode()).hexdigest(),
        "amt": _arrays_digest(m0.amt_a, m0.amt_b, m0.amt_c, m1.amt_a, m1.amt_b, c1.amt_c),
        "bmt": _arrays_digest(m0.bmt_a, m0.bmt_b, m0.bmt_c, m1.bmt_a, m1.bmt_b, c1.bmt_c),
        "label": _arrays_digest(m0.delta, m0.label_k0, m1.label_r, c1.label_k),
        "vdp": _arrays_digest(_flat(m0.vdp_mask), _flat(m0.vdp_scalar), _flat(m1.vdp_mask),
                              _flat(c1.vdp_scalar)),
        "dabit": _arrays_digest(m0.dabit_b, m0.dabit_a, m1.dabit_b, c1.dabit_a),
    }


def test_expansion_and_corrections_pinned():
    assert _pinned_digests() == PINNED


# Digest of the label streams and role 1's keys: delta and k0 from seed0,
# r from seed1, K = k0 ^ r*delta from the bundle.
PINNED_LABELS = "a25e95b937a888b7ba1a16a89ece1b62342b7dd7e38eac2e490db20f927205ec"


def test_label_expansion_pinned():
    m = manifest(num_labels=3003)
    m0 = cr.expand_role0(SEED0, m)
    m1 = cr.open_bundle(1, cr.compute_corrections(SEED0, SEED1, m), m)
    assert _arrays_digest(m0.delta, m0.label_k0, m1.label_r, m1.label_k) == PINNED_LABELS


# A bundle that disagrees with its manifest: (role, bundle -> malformed bundle)
MALFORMED_BUNDLES = {
    "role0-short-of-seed": (0, lambda b: b[:31]),
    "role1-short-of-seed": (1, lambda b: b[:31]),
    "role0-trailing-byte": (0, lambda b: b + bytes(1)),
    "role1-one-byte-short": (1, lambda b: b[:-1]),
    "role1-one-byte-long": (1, lambda b: b + bytes(1)),
}


@pytest.mark.parametrize("case", MALFORMED_BUNDLES)
def test_open_bundle_rejects_malformed(case):
    role, spoil = MALFORMED_BUNDLES[case]
    m = manifest(num_amt=3, num_bmt=9, num_dabits=2, vdp_blocks=((2, 3),))
    bundle = (SEED0, bytes(cr.compute_corrections(SEED0, SEED1, m)))[role]
    assert cr.open_bundle(role, bundle, m).role == role
    with pytest.raises(ValueError):
        cr.open_bundle(role, spoil(bundle), m)


@settings(max_examples=50, deadline=None)
@given(role=st.sampled_from([0, 1]), counts=st.lists(st.integers(0, 9), min_size=4, max_size=4),
       blocks=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=2),
       skew=st.integers(-64, 64).filter(bool))
def test_open_bundle_of_wrong_length_raises_valueerror(role, counts, blocks, skew):
    m = manifest(**dict(zip(("num_amt", "num_bmt", "num_dabits", "num_labels"), counts)),
                 vdp_blocks=blocks)
    size = cr.bundle_size(role, m)
    with pytest.raises(ValueError, match="bundle of"):
        cr.open_bundle(role, bytes(max(0, size + skew)), m)


# Over-draws through each engine: (manifest, drawing role, draw(material,
# channel)), each asking for one item more than was dealt.


def _draw_amt(mat, ch):
    x = ArithShare(np.zeros(3, np.uint64), 0)
    AssEngine(0, L32, ch, mat).mul_mt(x, x)


def _draw_bmt(mat, ch):
    x = BoolShare(np.zeros((1, 8), np.uint8), 1)
    GmwEngine(1, ch, mat).evaluate(cc.levelize(cc.build_by_name("bitand", 8)), x, x)


def _draw_vdp(mat, ch):
    e = AssEngine(1, L32, ch, mat)
    e.vdp_masks.take(1)  # the one dealt block
    e.vdp(None, ArithShare(np.zeros(2, np.uint64), 1), 2)


def _draw_dabits(mat, ch):
    bits = BoolShare(np.zeros((1, 5), np.uint8), mat.role)
    convert.b2a(ch, L32, cr.Supply("dabits", mat.dabit_b, mat.dabit_a), bits)


def _draw_labels(mat, ch):
    GcSession(mat.role, ch, mat).input_labels(np.zeros(5, np.uint8))


OVERDRAWS = {
    "amt": (dict(num_amt=2), 0, _draw_amt),
    "bmt": (dict(num_bmt=7), 1, _draw_bmt),
    "vdp": (dict(vdp_blocks=((1, 2),)), 1, _draw_vdp),
    "dabits-role0": (dict(num_dabits=4), 0, _draw_dabits),
    "dabits-role1": (dict(num_dabits=4), 1, _draw_dabits),
    "labels-garbler": (dict(num_labels=4), 0, _draw_labels),
    "labels-evaluator": (dict(num_labels=4), 1, _draw_labels),
}


@pytest.mark.parametrize("resource", OVERDRAWS)
def test_overdraw_raises_exhausted_before_any_frame(resource):
    kw, role, draw = OVERDRAWS[resource]
    mats = deal(manifest(**kw))
    chans = channel_pair()
    try:
        with pytest.raises(cr.Exhausted):
            draw(mats[role], chans[role])
        assert chans[role].ledger.messages() == 0
        chans[role].close()
        with pytest.raises(Disconnected):  # the peer's socket holds no frame
            chans[1 - role].recv()
    finally:
        for ch in chans:
            ch.close()


def test_supply_is_single_use():
    s = cr.Supply("amt", np.arange(5), np.arange(5) * 10)
    a, b = s.take(2)
    assert a.tolist() == [0, 1] and b.tolist() == [0, 10]
    assert s.take(3)[0].tolist() == [2, 3, 4] and s.left() == 0
    with pytest.raises(cr.Exhausted):
        s.take(1)
    assert s.used == 5
    with pytest.raises(cr.Exhausted):  # no material dealt
        cr.Supply("bmt").take(0)


def test_leftovers_name_every_supply():
    # the manifest deals one item more of each resource than the run draws
    m = manifest(num_amt=3, num_bmt=9, num_dabits=5, num_labels=5, vdp_blocks=((1, 2), (1, 1)))
    lc = cc.levelize(cc.build_by_name("bitand", 8))
    chans = channel_pair()
    sessions = [PartySession(r, m, mat, ch)
                for r, (mat, ch) in enumerate(zip(deal(m), chans))]

    def run(se):
        zero = np.zeros(2, np.uint64)
        se.ass.mul_mt(ArithShare(zero, se.role), ArithShare(zero, se.role))
        bits = BoolShare(np.zeros((1, 8), np.uint8), se.role)
        se.gmw.evaluate(lc, bits, bits)
        convert.b2a(se.channel, L32, se.dabits, BoolShare(np.zeros((1, 4), np.uint8), se.role))
        convert.b2y(se.gc, BoolShare(np.zeros((1, 4), np.uint8), se.role))
        se.ass.vdp(zero if se.role == 0 else None, ArithShare(zero, se.role), 2)

    try:
        run_parties(lambda: run(sessions[0]), lambda: run(sessions[1]))
    finally:
        for ch in chans:
            ch.close()
    for se in sessions:
        assert se.leftovers() == {"amt": 1, "bmt": 1, "dabits": 1, "labels": 1, "vdp": 1}
        supplies = (se.ass.amt, se.gmw.bmt, se.dabits, se.gc.labels, se.ass.vdp_masks)
        assert [s.used for s in supplies] == [2, 8, 4, 4, 1]
        with pytest.raises(AssertionError):
            se.assert_exhausted()
