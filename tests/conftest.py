"""Shared two-party test harness: run both roles in threads over a
socketpair, with correlated material dealt from fixed seeds through the
dealer's bundle format (the STP wire path has its own tests). The session
helpers close the channels they run on, so a socket left open is a test
failure (pyproject's filterwarnings)."""

import contextlib
import hashlib
import struct

import numpy as np
import pytest

from hybrid2pc import circuits as cc
from hybrid2pc import correlated, ml, stp
from hybrid2pc.bench import run_both
from hybrid2pc.drbg import SEED_BYTES, Drbg
from hybrid2pc.gc import GcSession, garble
from hybrid2pc.ring import RingParams, canon
from hybrid2pc.session import PartySession
from hybrid2pc.transport import channel_pair

SEED0 = hashlib.sha256(b"conftest-seed-0").digest()
SEED1 = hashlib.sha256(b"conftest-seed-1").digest()

# Online flights (role 0, role 1) of the three programs perfbench runs;
# its online_flights is role 1's count. test_ml pins the program's counts
# and test_perfbench_smoke the benchmark's, both against this table.
BENCHMARKED_FLIGHTS = {"mnist-lan-b20": (8, 10), "mnist-wan-b1": (6, 8), "svm-psk-b1": (2, 2)}


def deal(manifest):
    """Both party views, opened from the bundles the dealer would send."""
    bundle1 = correlated.compute_corrections(SEED0, SEED1, manifest)
    return (correlated.open_bundle(0, SEED0, manifest),
            correlated.open_bundle(1, bundle1, manifest))


def ot_masks(n, l):
    """Masks for n OTs in the ring of l bits, which no dealer deals, drawn
    here for testing the OT engine: the sender's (n, 2) mask pairs, the
    receiver's r bits and its (n,) selected masks qr = q[r], in the ring's
    dtype."""
    gen = Drbg(SEED0)
    q = gen.ring_elems(2 * n, RingParams(l).dtype).reshape(n, 2)
    r = gen.bits(n)
    return q, r, q[np.arange(n), r]


def drbg_from(seed):
    """A CTR-DRBG keyed from a numpy seed or Generator, for splitting test
    values into shares with ass.share and gmw.share_bits."""
    return Drbg(np.random.default_rng(seed).bytes(SEED_BYTES))


def reconstruct(s0, s1, p):
    """The ring elements that additive shares s0 and s1, one from each
    role, stand for."""
    assert s0.role != s1.role, "reconstruct needs one share from each role"
    return canon(s0.value, p) + canon(s1.value, p)


def from_bits(bits, p):
    """Inverse of ring.bits_of: ring elements of shape (..., l) bits."""
    b = np.asarray(bits, dtype=p.dtype)
    out = (b << np.arange(p.l, dtype=p.dtype)).sum(axis=-1, dtype=p.dtype)
    return int(out) if out.ndim == 0 else out


def simulate_words(c, x0, x1):
    """circuits.simulate on words: one integer per instance for each input
    group, bit j on the group's wire j; output bit j weighs 2^j."""

    def to_bits(v, width):
        if width == 0:
            return np.zeros((np.atleast_1d(np.asarray(v)).shape[0], 0), np.uint8)
        arr = np.atleast_1d(np.asarray(v, dtype=np.uint64))
        shifts = np.arange(width, dtype=np.uint64)
        return ((arr[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)

    out = cc.simulate(c, to_bits(x0, len(c.inputs0)), to_bits(x1, len(c.inputs1)))
    shifts = np.arange(out.shape[1], dtype=np.uint64)
    return (out.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)


def build_argmax(n, w, variant=cc.SIZE):
    """Index of the signed maximum of n w-bit values, ceil(log2 n) bits (at
    least 1), little-endian; the first maximum wins ties. Input: n*w wires
    in party 0's group, value 0 first. The index output of
    Builder.max_word, the ArgMax stage's body."""
    b = cc.Builder(f"argmax{n}x{w}_{variant}")
    flat = b.inputs(0, n * w)
    _, b.outputs = b.max_word([flat[i * w : (i + 1) * w] for i in range(n)], variant)
    return b.build()


# byte offsets of two u32s in the header of oversize_weights' file: the
# input width, and the Conv's padding before
INPUT_WIDTH_AT, CONV_PAD_AT = 19, 40


def oversize_weights(path, offset):
    """Writes the weight file of a Conv-then-ArgMax net on (1, 8, 8)
    inputs, with the header's u32 at offset set to 2^31."""
    conv = ml.Conv(maps=2, kernel=3, weights=np.zeros((2, 1, 3, 3)))
    ml.save_net(str(path), ml.NetSpec((1, 8, 8), [conv, ml.ArgMax()]), RingParams(32, 7, 12))
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, offset, 1 << 31)
    path.write_bytes(bytes(data))


def wide_input_weights(path):
    """Writes the 74-byte weight file of a net on (1, 65536, 65536) inputs
    whose one-map Conv has kernel 1 and stride 65536: every layer is one
    value wide, but one input is 2^32 ring elements."""
    conv = ml.Conv(maps=1, kernel=1, stride=1 << 16, weights=np.zeros((1, 1, 1, 1)))
    ml.save_net(str(path), ml.NetSpec((1, 1 << 16, 1 << 16), [conv, ml.ArgMax()]),
                RingParams(32, 7, 12))


def gc_sessions(c0, c1, num_labels):
    """A garbler and an evaluator over c0, c1 with num_labels dealt labels."""
    m0, m1 = deal(correlated.ResourceManifest(bytes(16), RingParams(8), num_labels=num_labels))
    return GcSession(0, c0, m0), GcSession(1, c1, m1)


def new_offset(rng):
    """A free-XOR offset with lsb 1 drawn from rng, for garbling outside a
    session, where no dealer hands one out."""
    r = rng.integers(0, 256, size=16, dtype=np.uint8)
    r[0] |= 1
    return r


def garble_frames(c, R, zero0, zero1, ninst=1, tweak=0):
    """gc.garble with its table frames kept: (the Garbling, the frames in
    order). The frames joined are the run's tables; evaluate takes the
    list as it is."""
    frames = []
    return garble(c, R, zero0, zero1, ninst, tweak, on_frame=frames.append), frames


def zero_labels(rng, c, ninst):
    """Fresh input zero labels of c for garble, drawn from rng in one
    (len(inputs0) + len(inputs1), ninst, 16) block and split into the
    two input groups, inputs0's first."""
    n0 = len(c.inputs0)
    zero = rng.integers(0, 256, size=(n0 + len(c.inputs1), ninst, 16), dtype=np.uint8)
    return zero[:n0], zero[n0:]


def run_parties(f0, f1, channels=()):
    """Run two party closures concurrently; re-raise the first failure.

    A party that raises leaves its peer at most bench.GRACE_S, after
    closing channels, so a peer blocked in recv cannot hang the suite.
    """
    return run_both(f0, f1, channels, timeout=120)


@contextlib.contextmanager
def closing(*ends):
    """The channels or sockets given, each closed when the block ends."""
    try:
        yield ends
    finally:
        for end in ends:
            end.close()


@contextlib.contextmanager
def dealt_sessions(manifest, channels=None):
    """Both parties' sessions over channels (a fresh pair when None), on
    material dealt in process; the channels close when the block ends."""
    with closing(*(channels or channel_pair())) as chans:
        yield [PartySession(r, manifest, mat, ch) for r, (mat, ch)
               in enumerate(zip(deal(manifest), chans))]


@contextlib.contextmanager
def stp_sessions(manifest, key=None):
    """Both parties' sessions, their bundles fetched from a local dealer,
    with key (or None) on the dealer and peer links; the dealer stops and
    the channels close when the block ends."""
    srv = stp.StpServer(timeout=10.0, cipher_key=key).start()
    try:
        with closing(*channel_pair(manifest.session_id, cipher_key=key)) as chans:
            yield run_parties(*(lambda r=r: PartySession.offline(
                r, manifest, srv.address, chans[r], stp_cipher_key=key) for r in (0, 1)))
    finally:
        srv.stop()


@pytest.fixture
def channels():
    with closing(*channel_pair()) as chans:
        yield chans
