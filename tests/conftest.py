"""Shared two-party test harness: run both roles in threads over a
socketpair, with correlated material dealt from fixed seeds through the
dealer's bundle format (the STP wire path has its own tests)."""

import hashlib

import numpy as np
import pytest

from hybrid2pc import correlated
from hybrid2pc.bench import run_both
from hybrid2pc.drbg import SEED_BYTES, Drbg
from hybrid2pc.gc import GcSession
from hybrid2pc.ring import RingParams
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


def zero_labels(rng, c, ninst):
    """Fresh input zero labels of c for garble, drawn from rng: one
    (len(inputs0) + len(inputs1), ninst, 16) array, inputs0 first."""
    return rng.integers(0, 256, size=(len(c.inputs0) + len(c.inputs1), ninst, 16),
                        dtype=np.uint8)


def run_parties(f0, f1, channels=()):
    """Run two party closures concurrently; re-raise the first failure.

    A party that raises leaves its peer at most bench.GRACE_S, after
    closing channels, so a peer blocked in recv cannot hang the suite.
    """
    return run_both(f0, f1, channels, timeout=120)


@pytest.fixture
def channels():
    c0, c1 = channel_pair()
    yield c0, c1
    c0.close()
    c1.close()
