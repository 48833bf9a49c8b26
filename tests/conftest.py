"""Shared two-party test harness: run both roles in threads over a
socketpair, with correlated material dealt from fixed seeds through the
dealer's bundle format (the STP wire path has its own tests)."""

import hashlib
import threading

import numpy as np
import pytest

from hybrid2pc import correlated
from hybrid2pc.drbg import SEED_BYTES, Drbg
from hybrid2pc.gc import GcSession
from hybrid2pc.ring import RingParams
from hybrid2pc.transport import channel_pair

SEED0 = hashlib.sha256(b"conftest-seed-0").digest()
SEED1 = hashlib.sha256(b"conftest-seed-1").digest()

# Online flights (role 0, role 1) of the three programs perfbench runs;
# its online_flights is role 1's count. test_ml pins the program's counts
# and test_perfbench_smoke the benchmark's, both against this table.
BENCHMARKED_FLIGHTS = {"mnist-lan-b20": (6, 10), "mnist-wan-b1": (6, 8), "svm-psk-b1": (2, 2)}


def deal(manifest):
    """Both party views, opened from the bundles the dealer would send."""
    bundle1 = correlated.compute_corrections(SEED0, SEED1, manifest)
    return (correlated.open_bundle(0, SEED0, manifest),
            correlated.open_bundle(1, bundle1, manifest))


def ot_masks(n, l):
    """n OTs dealt in the ring of l bits: the sender's (n, 2) mask pairs,
    the receiver's r bits and its (n,) selected masks, in the ring's
    dtype."""
    m0, m1 = deal(correlated.ResourceManifest(bytes(16), RingParams(l), num_ot=n))
    return m0.ot_q, m1.ot_r, m1.ot_qr


def drbg_from(seed):
    """A party generator keyed from a numpy seed or Generator, as
    PartySession keys its own from the rng a caller passes."""
    return Drbg(np.random.default_rng(seed).bytes(SEED_BYTES))


def gc_sessions(c0, c1, num_labels, seeds=(1, 2)):
    """A garbler and an evaluator over c0, c1 with num_labels dealt labels."""
    m0, m1 = deal(correlated.ResourceManifest(bytes(16), RingParams(8), num_labels=num_labels))
    return (GcSession(0, c0, m0, drbg_from(seeds[0])),
            GcSession(1, c1, m1, drbg_from(seeds[1])))


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


def run_parties(f0, f1):
    """Run two party closures concurrently; re-raise the first failure."""
    results = [None, None]
    errors = []

    def wrap(i, f):
        try:
            results[i] = f()
        except BaseException as e:  # noqa: BLE001 - surfaced below
            errors.append(e)

    t0 = threading.Thread(target=wrap, args=(0, f0))
    t1 = threading.Thread(target=wrap, args=(1, f1))
    t0.start()
    t1.start()
    t0.join(120)
    t1.join(120)
    if errors:
        raise errors[0]
    if t0.is_alive() or t1.is_alive():
        raise TimeoutError("party thread did not finish")
    return results


@pytest.fixture
def channels():
    c0, c1 = channel_pair()
    yield c0, c1
    c0.close()
    c1.close()
