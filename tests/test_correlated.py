import hashlib

import numpy as np
import pytest

from conftest import deal, ot_masks, run_parties

from hybrid2pc import circuits as cc
from hybrid2pc import correlated as cr
from hybrid2pc.ass import ArithShare, AssEngine
from hybrid2pc.gmw import BoolShare, GmwEngine
from hybrid2pc.ot import OtReceiver, OtSender
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


@pytest.mark.parametrize("n", [1000, 2 * cr._SELECT_CHUNK + 3])
def test_ot_masks_select_qr(n):
    # the dealer selects in chunks of _SELECT_CHUNK items; cross two bounds
    q, r, qr = ot_masks(n)
    expect = np.where(r[:, None].astype(bool), q[:, 1], q[:, 0])
    assert np.array_equal(qr, expect)


def test_ot_empty_batch():
    q, r, qr = ot_masks(0)
    assert q.shape == (0, 2, 16) and r.size == 0 and qr.shape == (0, 16)


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
    m = manifest(num_amt=10**5, num_bmt=10**5, num_ot=10**5,
                 vdp_blocks=((10**5, 1),))

    def digest(mat):
        h = hashlib.sha256()
        for arr in (mat.amt_a, mat.amt_b, mat.amt_c, mat.bmt_a, mat.bmt_b, mat.bmt_c,
                    mat.ot_q, mat.ot_r, mat.ot_qr):
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
    big = cr.expand_role0(SEED0, manifest(num_amt=100, num_bmt=5000, num_ot=17))
    assert np.array_equal(small.amt_a, big.amt_a)
    assert np.array_equal(small.amt_c, big.amt_c)


def test_correction_payload_sizes():
    # amortized offline payload: l bits per A-MT, 1 bit per B-MT, 128 per OT,
    # l bits per dot product, after role 1's seed; role 0 gets its seed alone
    m = manifest(num_amt=1000, num_bmt=1000, num_ot=1000, vdp_blocks=((1, 3), (1, 9)))
    bundle = cr.compute_corrections(SEED0, SEED1, m)
    assert len(bundle) == cr.bundle_size(1, m) == 32 + 1000 * 4 + 125 + 1000 * 16 + 2 * 4
    assert bytes(bundle[:32]) == SEED1
    assert cr.bundle_size(0, m) == 32


def test_manifest_roundtrip():
    m = manifest(num_amt=5, num_bmt=6, num_ot=7, vdp_blocks=((1, 1), (1, 2), (1, 3)))
    assert cr.ResourceManifest.decode(m.session_id, m.encode()) == m


def test_manifest_is_head_plus_one_pair_per_block():
    m = manifest(num_ot=7, vdp_blocks=[(19600, 25), (2000, 980)])
    payload = m.encode()
    assert len(payload) == 27 + 2 * 8
    assert np.frombuffer(payload[27:], "<u4").tolist() == [19600, 25, 2000, 980]
    back = cr.ResourceManifest.decode(m.session_id, payload)
    assert back == m and back.vdp_blocks == ((19600, 25), (2000, 980))
    assert m.vdp_lengths == (25,) * 19600 + (980,) * 2000
    for bad in (payload[:-1], payload + bytes(4), payload[:26],
                payload[:27] + bytes(8), payload[:31] + bytes(4)):
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


# Digests of the normative expansion of a mixed manifest (ragged dot
# products, reads that cross 64 KB DRBG requests). Parties and dealer must
# derive every byte identically, so a change to a stream layout, the DRBG
# or the correction encoding must fail here.
PINNED_MANIFEST = dict(
    num_amt=3001, num_bmt=1001, num_ot=3003,
    vdp_blocks=tuple((1, (7 * i) % 13 + 1) for i in range(2000)),
)
PINNED = {
    "manifest": "cfeeff0056a99bca99d9ac4ed73728d9b77d3a38ddabe40fc76e9d83b670845e",
    "role0": "3ca25ddce8887567cee5e6969e43e9a748b47aa763338a7849d1df6563e8ca57",
    "role1": "3c315de319a367ded18cf79323c4fd70d01c2e78bb841682ac74d50cfa6779a2",
    "corrections": "3ae9b449ee62a5dc49a84dd0fc18f6449a3351a940b018b93e6ada3f453a9415",
    "bundle1": "ed2506c1f1da844b704ecc588f995ffb37476ae88b5327350f101c3a7fafd45b",
}


def _arrays_digest(*arrays) -> str:
    """Ring elements are hashed as <u8, the dtype the digests were recorded in."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<u8" if a.dtype == L32.dtype else a.dtype)
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
    bundle1 = cr.compute_corrections(SEED0, SEED1, m)
    c1 = cr.open_bundle(1, bundle1, m)
    return {
        "manifest": hashlib.sha256(m.encode()).hexdigest(),
        "role0": _arrays_digest(m0.amt_a, m0.amt_b, m0.amt_c, m0.bmt_a, m0.bmt_b,
                                m0.bmt_c, m0.ot_q, _flat(m0.vdp_mask),
                                _flat(m0.vdp_scalar)),
        "role1": _arrays_digest(m1.amt_a, m1.amt_b, m1.bmt_a, m1.bmt_b, m1.ot_r,
                                _flat(m1.vdp_mask)),
        "corrections": _arrays_digest(c1.amt_c, c1.bmt_c, c1.ot_qr,
                                      _flat(c1.vdp_scalar)),
        "bundle1": hashlib.sha256(bytes(bundle1)).hexdigest(),
    }


def test_expansion_and_corrections_pinned():
    assert _pinned_digests() == PINNED


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
    m = manifest(num_amt=3, num_bmt=9, num_ot=2, vdp_blocks=((2, 3),))
    bundle = (SEED0, bytes(cr.compute_corrections(SEED0, SEED1, m)))[role]
    assert cr.open_bundle(role, bundle, m).role == role
    with pytest.raises(ValueError):
        cr.open_bundle(role, spoil(bundle), m)


# Over-draws through each engine: (manifest, drawing role, draw(material,
# channel)), each asking for one item more than was dealt.


def _draw_amt(mat, ch):
    x = ArithShare(np.zeros(3, np.uint64), 0)
    AssEngine(0, L32, ch, mat).mul_mt(x, x)


def _draw_bmt(mat, ch):
    x = BoolShare(np.zeros((1, 8), np.uint8), 1)
    GmwEngine(1, ch, mat).evaluate(cc.levelize(cc.build_bitand(8)), x, x)


def _draw_vdp(mat, ch):
    e = AssEngine(1, L32, ch, mat)
    e.vdp_masks.take(1)  # the one dealt block
    e.vdp(None, ArithShare(np.zeros(2, np.uint64), 1), 2)


def _draw_ot_sender(mat, ch):
    m = np.zeros((5, 16), np.uint8)
    OtSender(mat.ot_q, ch).send(m, m, 128)


def _draw_ot_receiver(mat, ch):
    OtReceiver(mat.ot_r, mat.ot_qr, ch).recv(np.zeros(5, np.uint8), 128)


OVERDRAWS = {
    "amt": (dict(num_amt=2), 0, _draw_amt),
    "bmt": (dict(num_bmt=7), 1, _draw_bmt),
    "vdp": (dict(vdp_blocks=((1, 2),)), 1, _draw_vdp),
    "ot-sender": (dict(num_ot=4), 0, _draw_ot_sender),
    "ot-receiver": (dict(num_ot=4), 1, _draw_ot_receiver),
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
    m = manifest(num_amt=3, num_bmt=9, num_ot=5, vdp_blocks=((1, 2), (1, 1)))
    lc = cc.levelize(cc.build_bitand(8))
    chans = channel_pair()
    sessions = [PartySession(r, m, mat, ch)
                for r, (mat, ch) in enumerate(zip(deal(m), chans))]

    def run(se):
        zero = np.zeros(2, np.uint64)
        se.ass.mul_mt(ArithShare(zero, se.role), ArithShare(zero, se.role))
        bits = BoolShare(np.zeros((1, 8), np.uint8), se.role)
        se.gmw.evaluate(lc, bits, bits)
        if se.role == 0:
            se.ot.send(np.zeros((4, 16), np.uint8), np.ones((4, 16), np.uint8), 128)
        else:
            se.ot.recv(np.zeros(4, np.uint8), 128)
        se.ass.vdp(zero if se.role == 0 else None, ArithShare(zero, se.role), 2)

    try:
        run_parties(lambda: run(sessions[0]), lambda: run(sessions[1]))
    finally:
        for ch in chans:
            ch.close()
    for se in sessions:
        assert se.leftovers() == {"amt": 1, "bmt": 1, "ot": 1, "vdp": 1}
        supplies = (se.ass.amt, se.gmw.bmt, se.ot.masks, se.ass.vdp_masks)
        assert [s.used for s in supplies] == [2, 8, 4, 1]
        with pytest.raises(AssertionError):
            se.assert_exhausted()
