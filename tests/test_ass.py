import numpy as np
import pytest
import scipy.stats
from conftest import deal, drbg_from, run_parties

from hybrid2pc import ass, transport
from hybrid2pc.ass import ArithShare, AssEngine, AssError
from hybrid2pc.correlated import Exhausted, PartyMaterial, ResourceManifest
from hybrid2pc.ring import RingParams
from hybrid2pc.transport import ProtocolError

L8 = RingParams(8)
L32 = RingParams(32)


def engines(channels, manifest):
    m0, m1 = deal(manifest)
    c0, c1 = channels
    return AssEngine(0, manifest.ring, c0, m0), AssEngine(1, manifest.ring, c1, m1)


def manifest(ring=L32, **kw):
    return ResourceManifest(bytes(16), ring, **kw)


def test_share_reconstruct_zero():
    rng = np.random.default_rng(0)
    s0, s1 = ass.share(0, L8, drbg_from(rng))
    assert ass.reconstruct(s0, s1, L8) == 0


def test_share_example():
    # shares (250, 9) reconstruct to 3 at l=8
    assert ass.reconstruct(ArithShare(250, 0), ArithShare(9, 1), L8) == 3


def test_share_uniform_chi_squared():
    rng = np.random.default_rng(1)
    n = 10**5
    s0, _ = ass.share(np.full(n, 42, dtype=np.uint64), L8, drbg_from(rng))
    counts = np.bincount(s0.value.astype(np.int64), minlength=256)
    _, pvalue = scipy.stats.chisquare(counts)
    assert pvalue > 0.001


def test_linear_example():
    # eta=3, shares of 5 = (7, 254) -> (21, 250); reconstruct 15
    z0 = ass.linear([(3, ArithShare(7, 0))], L8)
    z1 = ass.linear([(3, ArithShare(254, 1))], L8)
    assert int(z0.value[0]) == 21 and int(z1.value[0]) == 250
    assert ass.reconstruct(z0, z1, L8) == 15


def test_linear_identity_and_offset():
    x0, x1 = ArithShare(100, 0), ArithShare(50, 1)
    z0 = ass.linear([(1, x0)], L8, const=0)
    assert int(z0.value[0]) == 100
    z0 = ass.linear([(1, x0)], L8, const=1)
    z1 = ass.linear([(1, x1)], L8, const=1)  # role 1 must not add it
    assert ass.reconstruct(z0, z1, L8) == (150 + 1) % 256


def test_linear_role_mixing_rejected():
    with pytest.raises(AssError):
        ass.linear([(1, ArithShare(1, 0)), (1, ArithShare(2, 1))], L8)


def test_reconstruct_role_mismatch_rejected():
    with pytest.raises(AssError):
        ass.reconstruct(ArithShare(1, 0), ArithShare(2, 0), L8)


def test_mul_mt_trace_example(channels):
    # x=3 as (250,9), y=5 as (7,254), triple a=(1,1) b=(3,1) c=(5,3)
    c0, c1 = channels
    zeros = np.zeros(0, np.uint8)

    def mk(role, a, b, c):
        return PartyMaterial(
            role, L8,
            np.array([a], L8.dtype), np.array([b], L8.dtype),
            np.array([c], L8.dtype), zeros, zeros, zeros,
        )

    e0 = AssEngine(0, L8, c0, mk(0, 1, 3, 5))
    e1 = AssEngine(1, L8, c1, mk(1, 1, 1, 3))
    z0, z1 = run_parties(
        lambda: e0.mul_mt(ArithShare(250, 0), ArithShare(7, 0)),
        lambda: e1.mul_mt(ArithShare(9, 1), ArithShare(254, 1)),
    )
    assert int(z0.value[0]) == 9 and int(z1.value[0]) == 6
    assert ass.reconstruct(z0, z1, L8) == 15


def test_mul_mt_zero_operand(channels):
    m = manifest(ring=L8, num_amt=16)
    e0, e1 = engines(channels, m)
    rng = np.random.default_rng(2)
    x0, x1 = ass.share(np.zeros(16, np.uint64), L8, drbg_from(rng))
    y0, y1 = ass.share(rng.integers(0, 256, 16, dtype=np.uint64), L8, drbg_from(rng))
    z0, z1 = run_parties(lambda: e0.mul_mt(x0, y0), lambda: e1.mul_mt(x1, y1))
    assert not ass.reconstruct(z0, z1, L8).any()


def test_mul_mt_exhaustive_l8(channels):
    # all 2^16 operand pairs in one batched round
    m = manifest(ring=L8, num_amt=1 << 16)
    e0, e1 = engines(channels, m)
    xs = np.arange(256, dtype=np.uint64)
    x = np.repeat(xs, 256)
    y = np.tile(xs, 256)
    rng = np.random.default_rng(3)
    x0, x1 = ass.share(x, L8, drbg_from(rng))
    y0, y1 = ass.share(y, L8, drbg_from(rng))
    z0, z1 = run_parties(lambda: e0.mul_mt(x0, y0), lambda: e1.mul_mt(x1, y1))
    assert np.array_equal(ass.reconstruct(z0, z1, L8), (x * y) & np.uint64(255))
    assert channels[0].ledger.messages(msg_type=transport.ASS_EF, direction="sent") == 1


def test_mul_mt_comm_bytes_and_round(channels):
    c0, c1 = channels
    m = manifest(num_amt=1000)
    e0, e1 = engines(channels, m)
    rng = np.random.default_rng(4)
    x0, x1 = ass.share(rng.integers(0, L32.modulus, 1000, np.uint64), L32, drbg_from(rng))
    y0, y1 = ass.share(rng.integers(0, L32.modulus, 1000, np.uint64), L32, drbg_from(rng))
    run_parties(lambda: e0.mul_mt(x0, y0), lambda: e1.mul_mt(x1, y1))
    # 2*l bits per direction per multiplication, one round
    for ch in (c0, c1):
        assert ch.ledger.payload_bytes(direction="sent") == 1000 * 2 * 4
        assert ch.ledger.messages(direction="sent") == 1
        assert ch.ledger.messages(msg_type=transport.ASS_EF, direction="sent") == 1


def test_triple_exhaustion(channels):
    m = manifest(ring=L8, num_amt=2)
    e0, e1 = engines(channels, m)
    rng = np.random.default_rng(5)
    x0, x1 = ass.share(np.zeros(3, np.uint64), L8, drbg_from(rng))
    with pytest.raises(Exhausted):
        e0.mul_mt(x0, x0)


def test_mul_da_trace_example(channels):
    # x=3, y=(200,61), a0=10, a1=20, a2=7, a3=193 -> shares (53,218) -> 15
    c0, c1 = channels
    zeros = np.zeros(0, np.uint8)
    zu = np.zeros(0, L8.dtype)

    def mk(role, vec, scalar):
        return PartyMaterial(role, L8, zu, zu, zu, zeros, zeros, zeros,
                             vdp_mask=[np.array([[vec]], L8.dtype)],
                             vdp_scalar=[np.array([scalar], L8.dtype)])

    e0 = AssEngine(0, L8, c0, mk(0, 10, 7))
    e1 = AssEngine(1, L8, c1, mk(1, 20, 193))
    z0, z1 = run_parties(
        lambda: e0.mul_da([3], ArithShare(200, 0)),
        lambda: e1.mul_da(None, ArithShare(61, 1)),
    )
    assert int(z0.value[0]) == 53 and int(z1.value[0]) == 218
    assert ass.reconstruct(z0, z1, L8) == 15
    # a3 consistency: a0*a1 - a2 = 200 - 7 = 193
    assert (10 * 20 - 7) % 256 == 193


def test_mul_da_exhaustive_l8(channels):
    m = manifest(ring=L8, vdp_blocks=((1 << 16, 1),))
    e0, e1 = engines(channels, m)
    xs = np.arange(256, dtype=np.uint64)
    x = np.repeat(xs, 256)
    y = np.tile(xs, 256)
    rng = np.random.default_rng(6)
    y0, y1 = ass.share(y, L8, drbg_from(rng))
    z0, z1 = run_parties(
        lambda: e0.mul_da(x, y0), lambda: e1.mul_da(None, y1)
    )
    assert np.array_equal(ass.reconstruct(z0, z1, L8), (x * y) & np.uint64(255))


def test_mul_da_comm_half_of_mt(channels):
    c0, c1 = channels
    m = manifest(vdp_blocks=((1000, 1),))
    e0, e1 = engines(channels, m)
    rng = np.random.default_rng(7)
    y0, y1 = ass.share(rng.integers(0, L32.modulus, 1000, np.uint64), L32, drbg_from(rng))
    run_parties(
        lambda: e0.mul_da(rng.integers(0, L32.modulus, 1000, np.uint64), y0),
        lambda: e1.mul_da(None, y1),
    )
    # l bits per direction per multiplication (vs 2*l on the triple path)
    for ch in (c0, c1):
        assert ch.ledger.payload_bytes(direction="sent") == 1000 * 4
    assert c0.ledger.messages(msg_type=transport.DA_MASKED, direction="sent") == 1


def test_vdp_matches_plaintext_oracle(channels):
    n, trials = 100, 10**4
    m = manifest(vdp_blocks=((trials, n),))
    e0, e1 = engines(channels, m)
    rng = np.random.default_rng(8)
    x = rng.integers(0, L32.modulus, trials * n, dtype=np.uint64)
    y = rng.integers(0, L32.modulus, trials * n, dtype=np.uint64)
    y0, y1 = ass.share(y, L32, drbg_from(rng))
    z0, z1 = run_parties(
        lambda: e0.vdp(x, y0, n), lambda: e1.vdp(None, y1, n)
    )
    got = ass.reconstruct(z0, z1, L32)
    mask = np.uint64(L32.mask)
    expect = np.add.reduceat((x * y) & mask, np.arange(0, trials * n, n)) & mask
    assert np.array_equal(got, expect)
    # one round regardless of batch
    assert channels[0].ledger.messages(msg_type=transport.DA_MASKED, direction="sent") == 1


def test_general_two_shared_operand_da_oracle():
    # Both operands shared: two masked-exchange instances plus local terms.
    # The triple path dominates this variant in the engine, so it lives
    # here as an algebraic oracle rather than as engine code: with masks
    # (a0, a1) per cross term and the offline shift a3 = a0*a1 - a2,
    # z = x0*y0 + x1*y1 + cross(x0, y1) + cross(x1, y0) reconstructs x*y.
    rng = np.random.default_rng(12)
    p = L8
    mod = p.modulus

    def cross(x_clear, y_clear):
        # one offline-shifted instance: holder of x learns y+a1 only
        a0, a1, a2 = (int(v) for v in rng.integers(0, mod, 3))
        a3 = (a0 * a1 - a2) % mod
        u = (x_clear + a0) % mod
        v = (y_clear + a1) % mod
        z_x = (-a0 * v + a2) % mod  # x-holder's share
        z_y = (y_clear * u + a3) % mod  # y-holder's share
        return z_x, z_y

    for _ in range(200):
        x0, x1, y0, y1 = (int(v) for v in rng.integers(0, mod, 4))
        c0a, c0b = cross(x0, y1)  # P0 holds x0, P1 holds y1
        c1b, c1a = cross(x1, y0)  # P1 holds x1, P0 holds y0
        z0 = (x0 * y0 + c0a + c1a) % mod
        z1 = (x1 * y1 + c0b + c1b) % mod
        assert (z0 + z1) % mod == ((x0 + x1) * (y0 + y1)) % mod


def test_vdp_length_mismatch_rejected(channels):
    m = manifest(vdp_blocks=((1, 3),))
    e0, e1 = engines(channels, m)
    with pytest.raises(AssError):
        e0.vdp(np.zeros(4, np.uint64), ArithShare(np.zeros(4, np.uint64), 0), 4)
    assert channels[0].ledger.messages() == 0


# A peer whose reply has the wrong element count: (manifest, the engine's
# call, the frame type and element count the fake peer answers with).
SHORT_REPLIES = {
    "vdp-role0": (dict(vdp_blocks=((4, 3),)), 0,
                  lambda e: e.vdp(np.zeros(12), ArithShare(np.zeros(12), 0), 3),
                  transport.DA_MASKED, 1),
    "vdp-role1": (dict(vdp_blocks=((4, 3),)), 1,
                  lambda e: e.vdp(None, ArithShare(np.zeros(12), 1), 3),
                  transport.DA_MASKED, 1),
    "mul_mt": (dict(num_amt=2), 0,
               lambda e: e.mul_mt(ArithShare(np.zeros(2), 0), ArithShare(np.zeros(2), 0)),
               transport.ASS_EF, 3),
}


@pytest.mark.parametrize("case", SHORT_REPLIES)
def test_peer_reply_of_wrong_length_rejected(channels, case):
    # numpy would broadcast a short reply into wrong shares without an error
    kw, role, call, msg_type, count = SHORT_REPLIES[case]
    m = manifest(**kw)
    mat = deal(m)[role]
    mine, fake = channels[role], channels[1 - role]
    with pytest.raises(ProtocolError):
        run_parties(lambda: call(AssEngine(role, L32, mine, mat)),
                    lambda: fake.exchange(msg_type, bytes(4 * count)))


def test_share_input_roundtrip(channels):
    m = manifest(ring=L32)
    e0, e1 = engines(channels, m)
    gen0, gen1 = drbg_from(10), drbg_from(11)
    x = np.arange(5, dtype=np.uint64)
    s0, s1 = run_parties(
        lambda: e0.share_input(x, 5, owner=0, drbg=gen0),
        lambda: e1.share_input(None, 5, owner=0, drbg=gen1),
    )
    assert np.array_equal(ass.reconstruct(s0, s1, L32), x)
