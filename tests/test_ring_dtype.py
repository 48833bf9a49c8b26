"""A ring element is held in RingParams.dtype at every width: in shares, in
the dealt material and in what is read back from the wire."""

import numpy as np
import pytest

from conftest import SEED0, SEED1, drbg_from, reconstruct, run_parties

from hybrid2pc import ass, convert, correlated, gmw, ring
from hybrid2pc.correlated import ResourceManifest
from hybrid2pc.gmw import BoolShare
from hybrid2pc.ring import RingParams
from hybrid2pc.session import PartySession

WIDTHS = [8, 16, 32, 64]


def _exact(v) -> np.ndarray:
    return np.asarray(v).astype(object)


@pytest.mark.parametrize("l", WIDTHS)
def test_protocol_outputs_are_ring_dtype(l, channels):
    p = RingParams(l)
    n, k = 40, 3
    m = ResourceManifest(bytes(16), p, num_amt=n, num_dabits=n * l, vdp_blocks=((n, k),))
    bundle = correlated.compute_corrections(SEED0, SEED1, m)
    se = [PartySession(role, m, correlated.open_bundle(role, seed_or_bundle, m), ch)
          for role, seed_or_bundle, ch in zip((0, 1), (SEED0, bundle), channels)]
    rng = np.random.default_rng(l)
    x, y = (rng.integers(0, p.modulus, n, dtype=np.uint64) for _ in range(2))
    clear = rng.integers(0, p.modulus, n * k, dtype=np.uint64)
    vec = rng.integers(0, p.modulus, n * k, dtype=np.uint64)
    gen = drbg_from(rng)
    xs, ys, vs = ass.share(x, p, gen), ass.share(y, p, gen), ass.share(vec, p, gen)
    bits = gmw.share_bits(ring.bits_of(x, p), gen)

    def run(s):
        r = s.role
        return (s.ass.mul_mt(xs[r], ys[r]),
                s.ass.vdp(clear if r == 0 else None, vs[r], k),
                convert.b2a(s.channel, p, s.dabits, BoolShare(bits[r].bits, r)))

    outs = run_parties(lambda: run(se[0]), lambda: run(se[1]))
    for share in (*xs, *ys, *vs, *outs[0], *outs[1]):
        assert share.value.dtype == p.dtype
    (prod0, dot0, conv0), (prod1, dot1, conv1) = outs
    mod = p.modulus
    assert np.array_equal(_exact(reconstruct(prod0, prod1, p)), _exact(x) * _exact(y) % mod)
    dots = (_exact(clear) * _exact(vec)).reshape(n, k).sum(axis=1) % mod
    assert np.array_equal(_exact(reconstruct(dot0, dot1, p)), dots)
    assert np.array_equal(_exact(reconstruct(conv0, conv1, p)), _exact(x))


@pytest.mark.parametrize("l", WIDTHS)
def test_role1_bundle_sections_are_views(l):
    p = RingParams(l)
    m = ResourceManifest(bytes(16), p, num_amt=5, num_bmt=3, num_dabits=1,
                         vdp_blocks=((2, 4), (3, 1)))
    bundle = correlated.compute_corrections(SEED0, SEED1, m)
    mat = correlated.open_bundle(1, bundle, m)
    raw = np.frombuffer(bundle, np.uint8)
    for arr in (mat.amt_c, *mat.vdp_scalar):
        assert arr.dtype == p.dtype
        assert np.shares_memory(arr, raw)


@pytest.mark.parametrize("l", WIDTHS)
def test_from_wire_is_a_view(l):
    p = RingParams(l)
    x = np.arange(7, dtype=np.uint64) * 37
    raw = p.to_wire(x).tobytes()
    back = p.from_wire(raw)
    assert back.dtype == p.dtype
    assert np.shares_memory(back, np.frombuffer(raw, np.uint8))
    assert np.array_equal(back, x)


@pytest.mark.parametrize("l", [2, 12, 63])
def test_no_ring_off_the_machine_word_widths(l):
    with pytest.raises(ValueError, match="not one of"):
        RingParams(l)
