"""Dealt Delta-correlated labels: the dealer's offset delta stays with role
0, role 1's keys are k0 ^ r*delta, and the evaluator's garbled inputs put
no OT pairs on the wire."""

import hashlib

import numpy as np
from conftest import SEED0, SEED1, deal, dealt_sessions, run_parties

from hybrid2pc import correlated as cr
from hybrid2pc import ml, transport
from hybrid2pc.ring import RingParams

P32 = RingParams(32, 7, 12)
N = 1000


def _labels(n=N, seed0=SEED0):
    m = cr.ResourceManifest(bytes(16), P32, num_labels=n)
    return (cr.open_bundle(0, seed0, m),
            cr.open_bundle(1, cr.compute_corrections(seed0, SEED1, m), m))


def test_role1_material_holds_no_delta():
    m0, m1 = _labels()
    assert m0.delta is not None and m1.delta is None
    for name, value in vars(m1).items():
        rows = value if isinstance(value, list) else [value]
        for arr in rows:
            if isinstance(arr, np.ndarray) and arr.dtype == np.uint8 and arr.shape[-1:] == (16,):
                assert not (arr.reshape(-1, 16) == m0.delta).all(axis=1).any(), name


def test_dealt_keys_differ_by_zero_or_delta():
    m0, m1 = _labels()
    assert m0.delta.shape == (16,) and m0.delta[0] & 1 == 1
    diff = m0.label_k0 ^ m1.label_k
    zero, full = (diff == 0).all(axis=1), (diff == m0.delta).all(axis=1)
    assert (zero | full).all()
    assert np.array_equal(full, m1.label_r.astype(bool))
    assert 0 < full.sum() < N  # r is not constant


def test_delta_comes_from_seed0():
    other = hashlib.sha256(b"another seed0").digest()
    d0, d1 = _labels(seed0=SEED0)[0].delta, _labels(seed0=other)[0].delta
    assert not np.array_equal(d0, d1)
    # the offset does not depend on how many labels were dealt
    assert np.array_equal(_labels(n=3)[0].delta, d0)


def test_garbler_offset_is_the_dealt_delta():
    with dealt_sessions(cr.ResourceManifest(bytes(16), P32, num_labels=4)) as (s0, s1):
        assert np.array_equal(s0.gc.R, deal(s0.manifest)[0].delta)
        assert s1.gc.R is None


def test_svm_session_puts_no_ot_pairs_on_the_wire():
    rng = np.random.default_rng(1)
    d = 100
    model = ml.SvmModel(rng.uniform(-1, 1, d), 0.3)
    query = rng.uniform(-1, 1, (1, d))
    with dealt_sessions(ml.plan_svm_manifest(d, 1, P32, bytes(16))) as (s0, s1):
        _, got = run_parties(lambda: ml.svm_classify(s0, model, None, d, 1),
                             lambda: ml.svm_classify(s1, None, query, d, 1))
    assert np.array_equal(got, ml.svm_oracle(model, query, P32))
    for s in (s0, s1):
        s.assert_exhausted()
        assert s.channel.ledger.wire_bytes(msg_type=transport.OT_PAIRS) == 0
    # the evaluator's 32 share bits cross as 4 bytes of masked bits
    assert s1.channel.ledger.payload_bytes(direction="sent",
                                           msg_type=transport.OT_CHOICES) == 4


def test_mnist_wan_ot_pairs_are_b2a_alone():
    rng = np.random.default_rng(2)
    net = ml.mnist_like_net(rng)
    image = rng.uniform(0, 1, (1, 1, 28, 28))
    with dealt_sessions(ml.plan_nn_manifest(net, P32, 1, ml.WAN, bytes(16))) as (s0, s1):
        _, got = run_parties(lambda: ml.nn_infer(s0, net, None, 1, ml.WAN),
                             lambda: ml.nn_infer(s1, net.public(), image, 1, ml.WAN))
    assert np.array_equal(got, ml.nn_oracle(net, image, P32))
    s0.assert_exhausted()
    s1.assert_exhausted()
    # b2a opens 19 bits per ReLU value on daBits, one masked bit each way
    # per layer; role 1 also masks its 32 share bits per garbled value
    opened = (19 * 980 + 7) // 8 + (19 * 100 + 7) // 8
    for s in (s0, s1):
        assert s.channel.ledger.wire_bytes(msg_type=transport.OT_PAIRS) == 0
    assert s0.channel.ledger.payload_bytes(direction="sent",
                                           msg_type=transport.OT_CHOICES) == opened
    assert s1.channel.ledger.payload_bytes(direction="sent", msg_type=transport.OT_CHOICES) == (
        opened + 4 * (980 + 100) + 40)
