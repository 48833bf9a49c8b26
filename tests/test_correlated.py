import hashlib

import numpy as np
import pytest

from hybrid2pc import correlated as cr
from hybrid2pc.ring import RingParams
from hybrid2pc.stp import CorrelatedBundle

SEED0 = hashlib.sha256(b"party-0").digest()
SEED1 = hashlib.sha256(b"party-1").digest()

L32 = RingParams(32)


def manifest(**kw):
    return cr.ResourceManifest(bytes(16), kw.pop("ring", L32), **kw)


def test_amt_correction_formula():
    # a0=1,a1=1,b0=3,b1=1,c0=5 -> c1 = 2*4-5 = 3
    p = RingParams(8)
    c1 = ((1 + 1) * (3 + 1) - 5) % p.modulus
    assert c1 == 3


def test_amt_relation_holds():
    n = 10**5
    (a0, b0, c0), (a1, b1), c1 = cr.gen_amt_batch(SEED0, SEED1, n, L32)
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
    (a0, b0, c0), (a1, b1), c1 = cr.gen_bmt_batch(SEED0, SEED1, n)
    assert np.array_equal((a0 ^ a1) & (b0 ^ b1), c0 ^ c1)


def test_bmt_example_truth_table():
    # a0=1,a1=0,b0=1,b1=1,c0=1 -> c1 = (1&0)^1 = 1, so c = 0 = a&b
    a0, a1, b0, b1, c0 = 1, 0, 1, 1, 1
    c1 = ((a0 ^ a1) & (b0 ^ b1)) ^ c0
    assert c1 == 1
    assert (c0 ^ c1) == 0 == ((a0 ^ a1) & (b0 ^ b1))


def test_ot_masks_select_qr():
    q, r, qr = cr.gen_ot_masks(SEED0, SEED1, 1000)
    expect = np.where(r[:, None].astype(bool), q[:, 1], q[:, 0])
    assert np.array_equal(qr, expect)


def test_ot_empty_batch():
    q, r, qr = cr.gen_ot_masks(SEED0, SEED1, 0)
    assert q.shape == (0, 2, 16) and r.size == 0 and qr.shape == (0, 16)


def test_vdps_formula_example():
    # n=2, a0=[1,2], a1=[3,4], a2=5 -> a3 = 11-5 = 6
    assert (1 * 3 + 2 * 4) - 5 == 6


def test_vdps_relation():
    lengths = [1, 2, 100, 7]
    v0, v1, a3 = cr.gen_vdps(SEED0, SEED1, lengths, L32)
    mask = np.uint64(L32.mask)
    for i in range(len(lengths)):
        dot = int(((v0.vec_for(i) * v1.vec_for(i)) & mask).sum() & mask)
        assert (int(v0.scalar[i]) + int(a3[i])) % L32.modulus == dot


def test_vdps_length_one_is_single_mult_shift():
    v0, v1, a3 = cr.gen_vdps(SEED0, SEED1, [1], L32)
    a0, a1 = int(v0.vec[0]), int(v1.vec[0])
    assert (a0 * a1 - int(v0.scalar[0])) % L32.modulus == int(a3[0])


def test_seed_symmetry_dealer_vs_party():
    # the dealer's locally expanded views and a party's own expansion are
    # byte-identical; hash both sides over 10^5 items of each kind
    m = manifest(num_amt=10**5, num_bmt=10**5, num_ot=10**5,
                 vdp_lengths=(1,) * 10**5)

    def digest(mat):
        h = hashlib.sha256()
        for arr in (mat.amt_a, mat.amt_b, mat.amt_c, mat.bmt_a, mat.bmt_b, mat.bmt_c):
            h.update(np.ascontiguousarray(arr).tobytes())
        for arr in (mat.ot_q, mat.ot_r, mat.ot_qr):
            if arr is not None:
                h.update(np.ascontiguousarray(arr).tobytes())
        h.update(mat.vdp.vec.tobytes() + mat.vdp.scalar.tobytes())
        return h.digest()

    assert digest(cr.expand_role0(SEED0, m)) == digest(cr.expand_role0(SEED0, m))
    dealer_view = cr.expand_role1(SEED1, m)
    party_view = cr.expand_role1(SEED1, m)
    assert digest(dealer_view) == digest(party_view)
    corr = cr.compute_corrections(SEED0, SEED1, m)
    completed = cr.apply_corrections(party_view, corr)
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
    # amortized offline payload: l bits per A-MT, 1 bit per B-MT, 128 per OT
    m = manifest(num_amt=1000, num_bmt=1000, num_ot=1000, vdp_lengths=(3, 9))
    corr = cr.compute_corrections(SEED0, SEED1, m)
    payload = corr.encode(L32)
    assert len(payload) == 1000 * 4 + 125 + 1000 * 16 + 2 * 4
    back = cr.Corrections.decode(payload, m)
    assert np.array_equal(back.c1_amt, corr.c1_amt)
    assert np.array_equal(back.c1_bmt, corr.c1_bmt)
    assert np.array_equal(back.qr, corr.qr)
    assert np.array_equal(back.a3, corr.a3)


def test_manifest_roundtrip():
    m = manifest(num_amt=5, num_bmt=6, num_ot=7, vdp_lengths=(1, 2, 3))
    assert cr.ResourceManifest.decode(m.session_id, m.encode()) == m


def test_manifest_validation():
    with pytest.raises(ValueError):
        cr.ResourceManifest(bytes(3), L32)
    with pytest.raises(ValueError):
        manifest(vdp_lengths=(0,))


# Digests of the normative expansion of a mixed manifest (ragged dot
# products, reads that cross 64 KB DRBG requests). Parties and dealer must
# derive every byte identically, so a change to a stream layout, the DRBG
# or the correction encoding must fail here.
PINNED_MANIFEST = dict(
    num_amt=3001, num_bmt=1001, num_ot=3003,
    vdp_lengths=tuple((7 * i) % 13 + 1 for i in range(2000)),
)
PINNED = {
    "manifest": "0e8cccc5b845447a69e8e0f4297d352d6069f20ca1dc1ac407357b2bf3a0288b",
    "role0": "3ca25ddce8887567cee5e6969e43e9a748b47aa763338a7849d1df6563e8ca57",
    "role1": "3c315de319a367ded18cf79323c4fd70d01c2e78bb841682ac74d50cfa6779a2",
    "corrections": "3ae9b449ee62a5dc49a84dd0fc18f6449a3351a940b018b93e6ada3f453a9415",
    "bundle1": "ed2506c1f1da844b704ecc588f995ffb37476ae88b5327350f101c3a7fafd45b",
}


def _arrays_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _pinned_digests() -> dict:
    m = manifest(**PINNED_MANIFEST)
    m0 = cr.expand_role0(SEED0, m)
    m1 = cr.expand_role1(SEED1, m)
    corr = cr.compute_corrections(SEED0, SEED1, m)
    return {
        "manifest": hashlib.sha256(m.encode()).hexdigest(),
        "role0": _arrays_digest(m0.amt_a, m0.amt_b, m0.amt_c, m0.bmt_a, m0.bmt_b,
                                m0.bmt_c, m0.ot_q, m0.vdp.vec, m0.vdp.scalar),
        "role1": _arrays_digest(m1.amt_a, m1.amt_b, m1.bmt_a, m1.bmt_b, m1.ot_r,
                                m1.vdp.vec),
        "corrections": _arrays_digest(corr.c1_amt, corr.c1_bmt, corr.qr, corr.a3),
        "bundle1": hashlib.sha256(
            bytes(CorrelatedBundle(1, SEED1, corr).encode(m.ring))).hexdigest(),
    }


def test_expansion_and_corrections_pinned():
    assert _pinned_digests() == PINNED
