import hashlib
import threading

import numpy as np
import pytest
from conftest import SEED0, SEED1, run_parties
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid2pc import circuits as cc
from hybrid2pc import gc as gc_mod
from hybrid2pc import gmw, ring, transport
from hybrid2pc.correlated import PartyMaterial, gen_ot_masks
from hybrid2pc.gc import GcSession, YaoShare, evaluate, garble, new_offset
from hybrid2pc.gmw import GmwEngine
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


def _active(circ, g, R, in0, in1):
    """Evaluator's active input labels for input bits in0, in1."""
    active = {}
    for bits, wires in ((in0, circ.inputs0), (in1, circ.inputs1)):
        for k, w in enumerate(wires):
            active[w] = g.in_zero[w] ^ (bits[:, k, None] * R)
    return active


def _interpreter_digest(circ, cycles, ninst, seed, preset):
    """Garble and evaluate on random inputs; check the decoded outputs
    against simulate and digest tables, labels, decode bits and outputs."""
    rng = np.random.default_rng(seed)
    R = new_offset(rng)
    aux = np.random.default_rng(seed + 1000)
    pre = ({w: aux.integers(0, 256, (ninst, 16), dtype=np.uint8) for w in circ.inputs1}
           if preset else None)
    g = garble(circ, cycles, rng, R, ninst=ninst, preset=pre)
    in0 = aux.integers(0, 2, (ninst, len(circ.inputs0)), dtype=np.uint8)
    in1 = aux.integers(0, 2, (ninst, len(circ.inputs1)), dtype=np.uint8)
    reg_active = {r.q: g.reg_zero[r.q] ^ (R * np.uint8(r.init)) for r in circ.registers}
    out = evaluate(circ, cycles, g.tables, _active(circ, g, R, in0, in1), reg_active, ninst)
    decoded = (out[..., 0] & 1) ^ g.decode
    assert np.array_equal(decoded.T, cc.simulate(circ, in0, in1, cycles))
    h = hashlib.sha256()
    for t in g.tables:
        h.update(t)
    for w in (*circ.inputs0, *circ.inputs1):
        h.update(np.ascontiguousarray(g.in_zero[w]).tobytes())
    for r in circ.registers:
        h.update(np.ascontiguousarray(g.reg_zero[r.q]).tobytes())
    for arr in (g.out_zero, g.decode, out):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# Recorded with the per-gate interpreter that preceded the layered one. The
# circuits are "depth" builds and the counter, whose netlists are fixed.
_GOLDEN = {
    ("add16", 1, False): "84b8fa0452125eb321f6bea9c82676a4d5c6462e7ace269a249bcdfe4adaf158",
    ("add16", 7, False): "cab0388e0adb73c311e85208a437e268ca7e807b4fa6fbdf4db9557463b92955",
    ("add16", 7, True): "5cbd857709cdeedfd47c79a22ea16c73c95a88ab30cad61bdb1e5cf47eb3ced1",
    ("cmp32", 1, False): "9f0e7f2be08c2d9560e30c60399750763aacd865a60a9e0534febc73b224b470",
    ("cmp32", 7, False): "e7abc850ddb9788ba48b6b19efc3e505701fa21d5d357ec98bdc0eb56ba6543c",
    ("max4x8", 1, False): "829ebaafa529cd0e7a6f913bb043545558ca2849f98f4f199b93dbef30b20b63",
    ("max4x8", 7, False): "dbadefe97a7d08a1d2ddce4309bea76736936ea1c698d5d13aebf13ea75da6f7",
    ("counter4", 1, False): "d1a752335099a06c16b3e02399e78fc113395823ace9b3b13ef39d71604c12a0",
    ("counter4", 7, False): "2aced24b2b6d08dcc66476b699a1fe15cde592e9e7a1f8eacd9ee33ac4f47417",
}


@pytest.mark.parametrize("name,cycles,ninst,preset", [
    ("add16", 1, 1, False), ("add16", 1, 7, False), ("add16", 1, 7, True),
    ("cmp32", 1, 1, False), ("cmp32", 1, 7, False),
    ("max4x8", 1, 1, False), ("max4x8", 1, 7, False),
    ("counter4", 3, 1, False), ("counter4", 3, 7, False),
])
def test_interpreter_golden_digests(name, cycles, ninst, preset):
    circ = {"add16": lambda: cc.build_add(16, "depth"),
            "cmp32": lambda: cc.build_cmp(32, "depth"),
            "max4x8": lambda: cc.build_max_tree(4, 8, "depth"),
            "counter4": lambda: cc.build_counter(4)}[name]()
    got = _interpreter_digest(circ, cycles, ninst, seed=ninst + 17, preset=preset)
    assert got == _GOLDEN[(name, ninst, preset)]


@st.composite
def _netlists(draw):
    """Random combinational XOR/AND/NOT netlists in topological order."""
    n0 = draw(st.integers(0, 4))
    n1 = draw(st.integers(0 if n0 else 1, 4))
    ngates = draw(st.integers(1, 40))
    wires = list(range(2, 2 + n0 + n1))
    op, ga, gb, go = [], [], [], []
    for i in range(ngates):
        kind = draw(st.sampled_from([cc.XOR, cc.AND, cc.NOT]))
        a = draw(st.sampled_from(wires))
        b = a if kind == cc.NOT else draw(st.sampled_from(wires))
        o = 2 + n0 + n1 + i
        op.append(kind), ga.append(a), gb.append(b), go.append(o)
        wires.append(o)
    outs = draw(st.lists(st.sampled_from(wires + [cc.CONST0, cc.CONST1]),
                         min_size=1, max_size=8))
    return cc.Circuit(
        nwires=2 + n0 + n1 + ngates,
        inputs0=tuple(range(2, 2 + n0)),
        inputs1=tuple(range(2 + n0, 2 + n0 + n1)),
        outputs=tuple(outs),
        op=np.array(op, np.uint8), ga=np.array(ga, np.int32),
        gb=np.array(gb, np.int32), go=np.array(go, np.int32),
    ).validate()


def _gmw_outputs(circ, in0, in1, rng):
    """Reconstructed GMW outputs over a channel, with triples drawn here."""
    ninst = in0.shape[0]
    n = circ.num_and * ninst
    a0, b0, c0, a1, b1 = (rng.integers(0, 2, n, dtype=np.uint8) for _ in range(5))
    c1 = ((a0 ^ a1) & (b0 ^ b1)) ^ c0
    empty = np.zeros(0, np.uint64)
    mats = [PartyMaterial(0, RingParams(32), empty, empty, empty, a0, b0, c0),
            PartyMaterial(1, RingParams(32), empty, empty, empty, a1, b1, c1)]
    x0, x1 = gmw.share_bits(in0, rng)
    y0, y1 = gmw.share_bits(in1, rng)
    c0_, c1_ = transport.channel_pair()
    try:
        e0, e1 = GmwEngine(0, c0_, mats[0]), GmwEngine(1, c1_, mats[1])
        lc = cc.levelize(circ)
        s0, s1 = run_parties(lambda: e0.evaluate(lc, x0, y0),
                             lambda: e1.evaluate(lc, x1, y1))
    finally:
        c0_.close()
        c1_.close()
    assert e0.bmt_left() == 0
    return gmw.reconstruct_bits(s0, s1)


@settings(max_examples=40, deadline=None)
@given(circ=_netlists(), ninst=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_random_netlists_gc_and_gmw_match_simulate(circ, ninst, seed):
    rng = np.random.default_rng(seed)
    in0 = rng.integers(0, 2, (ninst, len(circ.inputs0)), dtype=np.uint8)
    in1 = rng.integers(0, 2, (ninst, len(circ.inputs1)), dtype=np.uint8)
    expect = cc.simulate(circ, in0, in1)
    R = new_offset(rng)
    g = garble(circ, 1, rng, R, ninst=ninst)
    out = evaluate(circ, 1, g.tables, _active(circ, g, R, in0, in1), {}, ninst)
    assert np.array_equal(((out[..., 0] & 1) ^ g.decode).T, expect)
    assert np.array_equal(_gmw_outputs(circ, in0, in1, rng), expect)


def test_tweaks_do_not_repeat_across_runs(channels, monkeypatch):
    # a label rebound from one run into the next must not be hashed again
    # under the same tweak: every fixed-key AES input block of the second
    # run differs from those of the first, on both roles
    b = cc.Builder("pass_and")
    x, y = b.inputs(0, 1), b.inputs(1, 1)
    b.outputs = [x[0], y[0], b.and_(x[0], y[0])]
    circ = b.build()
    n = 8
    xs, ys = np.arange(n) & 1, (np.arange(n) >> 1) & 1
    seen = {}
    phase = threading.local()
    orig = gc_mod._fixed_key_encrypt

    def spy(blk):
        rows = np.ascontiguousarray(blk).view(np.uint8).reshape(-1, 16)
        seen.setdefault((threading.get_ident(), phase.run), set()).update(
            r.tobytes() for r in rows)
        return orig(blk)

    monkeypatch.setattr(gc_mod, "_fixed_key_encrypt", spy)
    g, e = sessions(channels, 2 * n)

    def party(s, bind0, bind1):
        phase.run = 1
        ys_ = s.run(circ, bind0, bind1, ninst=n, decode="none")
        phase.run = 2
        lab = ys_.labels
        out = s.run(circ, ("yao", YaoShare(lab[:, 0:1], s.role)),
                    ("yao", YaoShare(lab[:, 1:2], s.role)), ninst=n)
        return ys_.lsb_bits(), out

    (l0, _), (l1, out) = run_parties(
        lambda: party(g, ("bits", to_bits(xs, 1)), ("bits", None)),
        lambda: party(e, ("bits", None), ("bits", to_bits(ys, 1))),
    )
    expect = np.stack([xs, ys, xs & ys], axis=1)
    assert np.array_equal(l0 ^ l1, expect)
    assert np.array_equal(out.T, expect)
    threads = {t for t, _ in seen}
    assert len(threads) == 2
    for t in threads:
        assert seen[(t, 1)] and seen[(t, 2)]
        assert not seen[(t, 1)] & seen[(t, 2)]
    assert g.tweak == e.tweak > 0
