import hashlib
import threading

import numpy as np
from conftest import SEED0, SEED1, run_parties

from hybrid2pc import circuits as cc
from hybrid2pc import ring, transport
from hybrid2pc.correlated import gen_ot_masks
from hybrid2pc.gc import GcSession, evaluate, garble, new_offset
from hybrid2pc.ot import OtReceiver, OtSender
from hybrid2pc.ring import RingParams


def to_bits(v, w):
    sh = np.arange(w, dtype=np.uint64)
    return ((np.atleast_1d(np.asarray(v, np.uint64))[:, None] >> sh) & np.uint64(1)).astype(np.uint8)


def from_bits(bits):
    sh = np.arange(bits.shape[0], dtype=np.uint64)
    return (bits.astype(np.uint64).T << sh).sum(axis=1, dtype=np.uint64)


def sessions(channels, num_ot, seeds=(1, 2)):
    c0, c1 = channels
    q, r, qr = gen_ot_masks(SEED0, SEED1, num_ot)
    g = GcSession(0, c0, OtSender(q, c0), np.random.default_rng(seeds[0]))
    e = GcSession(1, c1, OtReceiver(r, qr, c1), np.random.default_rng(seeds[1]))
    return g, e


def run_circuit(channels, circ, x, y, cycles=1, decode="evaluator", num_ot=None):
    ninst = max(len(np.atleast_1d(x)), 1)
    need = len(circ.inputs1) * ninst if num_ot is None else num_ot
    g, e = sessions(channels, need)
    bits0 = to_bits(x, len(circ.inputs0)) if len(circ.inputs0) else None
    bits1 = to_bits(y, len(circ.inputs1)) if len(circ.inputs1) else None
    r0, r1 = run_parties(
        lambda: g.run(circ, ("bits", bits0), ("bits", None), cycles, ninst, decode),
        lambda: e.run(circ, ("bits", None), ("bits", bits1), cycles, ninst, decode),
    )
    return r0, r1


def test_and_truth_table(channels):
    circ = cc.parse_circuit("W 5 IN0 2 IN1 3 OUT 4 CONST0 0 CONST1 1\nAND 2 3 4\n")
    _, out = run_circuit(channels, circ, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    assert out.ravel().tolist() == [0, 0, 0, 1]


def test_xor_only_zero_ciphertexts():
    rng = np.random.default_rng(0)
    g = garble(cc.build_bitxor(16), 1, rng, new_offset(rng), ninst=4)
    assert all(len(t) == 0 for t in g.tables)


def test_table_bytes_exact():
    rng = np.random.default_rng(0)
    for circ in (cc.build_add(32, "size"), cc.build_cmp(16, "depth")):
        for ninst in (1, 7):
            g = garble(circ, 1, rng, new_offset(rng), ninst=ninst)
            assert sum(len(t) for t in g.tables) == 32 * circ.num_and * ninst


def test_garble_determinism():
    c = cc.build_add(8, "size")
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        g = garble(c, 1, rng, new_offset(rng), ninst=3)
        runs.append((b"".join(g.tables), g.decode.tobytes()))
    assert runs[0] == runs[1]


def test_library_exhaustive_8bit_over_channel():
    all8 = np.arange(256, dtype=np.uint64)
    a, b = np.repeat(all8, 256), np.tile(all8, 256)
    p8 = RingParams(8)
    cases = [
        (cc.build_add(8, "size"), (a + b) & np.uint64(255)),
        (cc.build_cmp(8, "size"), (ring.to_signed(a, p8) > ring.to_signed(b, p8)).astype(np.uint64)),
    ]
    for circ, expect in cases:
        chans = transport.channel_pair()
        _, out = run_circuit(chans, circ, a, b)
        assert np.array_equal(from_bits(out), expect), circ.name


def test_cmp_32bit_random_pairs(channels):
    rng = np.random.default_rng(5)
    n = 10**4
    p = RingParams(32)
    a = rng.integers(0, p.modulus, n, dtype=np.uint64)
    b = rng.integers(0, p.modulus, n, dtype=np.uint64)
    _, out = run_circuit(channels, cc.build_cmp(32, "size"), a, b)
    assert np.array_equal(out[0].astype(bool), ring.to_signed(a, p) > ring.to_signed(b, p))


def test_no_evaluator_input_no_ot_frames(channels):
    c0, c1 = channels
    _, out = run_circuit(channels, cc.build_relu(8), np.arange(256, dtype=np.uint64),
                         np.zeros((256, 0), np.uint8))
    s = ring.to_signed(np.arange(256, dtype=np.uint64), RingParams(8))
    assert np.array_equal(from_bits(out), np.where(s > 0, np.arange(256), 0))
    assert c0.ledger.messages(msg_type=transport.OT_PAIRS) == 0
    assert c1.ledger.messages(msg_type=transport.OT_CHOICES) == 0


def test_online_bytes_formula(channels):
    c0, c1 = channels
    circ = cc.build_add(32, "size")
    n = 50
    rng = np.random.default_rng(6)
    x = rng.integers(0, 1 << 32, n, dtype=np.uint64)
    y = rng.integers(0, 1 << 32, n, dtype=np.uint64)
    run_circuit(channels, circ, x, y)
    sent = c0.ledger
    tables = sent.payload_bytes(msg_type=transport.GC_TABLES, direction="sent")
    inlabels = sent.payload_bytes(msg_type=transport.GC_INLABELS, direction="sent")
    pairs = sent.payload_bytes(msg_type=transport.OT_PAIRS, direction="sent")
    decode = sent.payload_bytes(msg_type=transport.GC_DECODE, direction="sent")
    assert tables == 32 * circ.num_and * n
    assert inlabels == 16 * 32 * n  # garbler input labels
    assert pairs == 2 * 16 * 32 * n  # evaluator inputs via OT pairs
    assert decode == (32 * n + 7) // 8
    assert c1.ledger.payload_bytes(msg_type=transport.OT_CHOICES, direction="sent") == (32 * n + 7) // 8


def test_decode_policy_both(channels):
    circ = cc.build_add(8, "size")
    r0, r1 = run_circuit(channels, circ, np.array([100]), np.array([200]), decode="both")
    assert from_bits(r0)[0] == from_bits(r1)[0] == (100 + 200) % 256


def test_sequential_counter_over_channel(channels):
    circ = cc.build_counter(8)
    _, out = run_circuit(channels, circ, np.zeros((2, 0), np.uint8),
                         np.zeros((2, 0), np.uint8), cycles=6)
    assert np.array_equal(from_bits(out), [6, 6])


def test_identity_passthrough(channels):
    b = cc.Builder("ident")
    x = b.inputs(0, 8)
    b.outputs = x
    _, out = run_circuit(channels, b.build(), np.arange(256, dtype=np.uint64),
                         np.zeros((256, 0), np.uint8))
    assert np.array_equal(from_bits(out), np.arange(256))


def test_label_hygiene_permute_bits_balanced():
    # the evaluator-visible permute bit of a wire should split evenly
    # across garblings
    c = cc.build_bitand(1)
    lsbs = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        R = new_offset(rng)
        g = garble(c, 1, rng, R, ninst=1)
        lsbs.append(int(g.in_zero[c.inputs0[0]][0, 0] & 1))
    ones = sum(lsbs)
    assert 60 <= ones <= 140  # ~Binomial(200, 1/2), far beyond 6 sigma


def test_yao_labels_rebind_into_next_circuit(channels):
    # outputs retained from one garbled run feed a later circuit directly
    # (same session offset), here: add -> relu
    n = 500
    rng = np.random.default_rng(8)
    p = RingParams(16)
    x = rng.integers(0, p.modulus, n, dtype=np.uint64)
    y = rng.integers(0, p.modulus, n, dtype=np.uint64)
    adder = cc.build_add(16, "size")
    relu = cc.build_relu(16)
    g, e = sessions(channels, 16 * n)

    def garbler():
        ys = g.run(adder, ("bits", to_bits(x, 16)), ("bits", None),
                   ninst=n, decode="none")
        return g.run(relu, ("yao", ys), None, ninst=n)

    def evaluator():
        ys = e.run(adder, ("bits", None), ("bits", to_bits(y, 16)),
                   ninst=n, decode="none")
        return e.run(relu, ("yao", ys), None, ninst=n)

    _, out = run_parties(garbler, evaluator)
    s = ring.to_signed((x + y) & np.uint64(p.mask), p)
    expect = np.where(s > 0, (x + y) & np.uint64(p.mask), 0)
    assert np.array_equal(from_bits(out), expect)


def test_gc_rounds_constant_in_size(channels):
    # message count is independent of instance count
    counts = []
    for n in (1, 64):
        chans = transport.channel_pair()
        x = np.arange(n, dtype=np.uint64)
        run_circuit(chans, cc.build_add(16, "size"), x, x)
        counts.append(chans[0].ledger.messages() + chans[1].ledger.messages())
    assert counts[0] == counts[1]


def _garble_digest(jobs) -> str:
    """Garble and evaluate (all-zero inputs) every job; digest everything."""
    h = hashlib.sha256()
    for circ, cycles, ninst, seed in jobs:
        rng = np.random.default_rng(seed)
        g = garble(circ, cycles, rng, new_offset(rng), ninst=ninst)
        for t in g.tables:
            h.update(t)
        for labels in (*g.in_zero.values(), *g.reg_zero.values(), g.out_zero, g.decode):
            h.update(np.ascontiguousarray(labels).tobytes())
        out = evaluate(circ, cycles, g.tables, g.in_zero, g.reg_zero, ninst)
        h.update(out.tobytes())
    return h.hexdigest()


def test_concurrent_garbling_matches_serial():
    # the fixed-key hash keeps one AES context per thread; two threads
    # garbling at once must produce exactly the serial tables and labels
    jobs = [(cc.build_add(32, "size"), 1, 5, 1), (cc.build_cmp(16, "depth"), 1, 9, 2),
            (cc.build_counter(6), 4, 3, 3), (cc.build_relu(32), 1, 16, 4)]
    serial = _garble_digest(jobs)
    start = threading.Barrier(2)
    got = []

    def worker():
        start.wait()
        got.extend(_garble_digest(jobs) for _ in range(3))

    run_parties(worker, worker)
    assert got == [serial] * 6
