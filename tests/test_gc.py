import hashlib
import itertools
import threading

import numpy as np
import pytest
from conftest import (closing, dealt_sessions, drbg_from, gc_sessions, new_offset, run_parties,
                      zero_labels)
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid2pc import circuits as cc
from hybrid2pc import gc as gc_mod
from hybrid2pc import gmw, ml, ring, transport
from hybrid2pc.correlated import PartyMaterial
from hybrid2pc.gc import YaoShare, evaluate, garble
from hybrid2pc.gmw import GmwEngine
from hybrid2pc.ring import RingParams


def to_bits(v, w):
    sh = np.arange(w, dtype=np.uint64)
    return ((np.atleast_1d(np.asarray(v, np.uint64))[:, None] >> sh) & np.uint64(1)).astype(np.uint8)


def from_bits(bits):
    sh = np.arange(bits.shape[0], dtype=np.uint64)
    return (bits.astype(np.uint64).T << sh).sum(axis=1, dtype=np.uint64)


def zero_binds(circ, role, ninst=1):
    """Both input groups of circ bound to all-zero labels, as a YaoShare
    each: a well-formed binding that draws no dealt label."""
    return [YaoShare(np.zeros((len(w), ninst, 16), np.uint8), role)
            for w in (circ.inputs0, circ.inputs1)]


def run_circuit(channels, circ, x, y):
    ninst = max(len(np.atleast_1d(x)), 1)
    g, e = gc_sessions(*channels, len(circ.inputs1) * ninst)
    bits0, bits1 = (to_bits(v, len(w)) if w else np.zeros((ninst, 0), np.uint8)
                    for v, w in ((x, circ.inputs0), (y, circ.inputs1)))
    r0, r1 = run_parties(
        lambda: g.run_shares(circ, bits0, ninst, "evaluator"),
        lambda: e.run_shares(circ, bits1, ninst, "evaluator"),
    )
    return r0, r1


def test_and_truth_table(channels):
    circ = cc.build_bitand(1)
    _, out = run_circuit(channels, circ, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    assert out.ravel().tolist() == [0, 0, 0, 1]


def test_xor_only_zero_ciphertexts():
    rng = np.random.default_rng(0)
    c = cc.build_bitxor(16)
    g = garble(c, new_offset(rng), *zero_labels(rng, c, 4), ninst=4)
    assert len(g.tables) == 0


def test_table_bytes_exact():
    rng = np.random.default_rng(0)
    for circ in (cc.build_add(32, "size"), cc.build_cmp(16, "depth")):
        for ninst in (1, 7):
            g = garble(circ, new_offset(rng), *zero_labels(rng, circ, ninst), ninst=ninst)
            assert len(g.tables) == 32 * circ.num_and * ninst


def test_garble_determinism():
    c = cc.build_add(8, "size")
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        g = garble(c, new_offset(rng), *zero_labels(rng, c, 3), ninst=3)
        runs.append((bytes(g.tables), g.decode.tobytes()))
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
        with closing(*transport.channel_pair()) as chans:
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
    decode = sent.payload_bytes(msg_type=transport.GC_DECODE, direction="sent")
    assert tables == 32 * circ.num_and * n
    assert inlabels == 0  # the garbler's inputs take zero labels x*R: none cross
    assert sent.payload_bytes(direction="sent") == tables + decode
    assert sent.payload_bytes(msg_type=transport.OT_PAIRS) == 0  # evaluator inputs are dealt
    assert decode == (32 * n + 7) // 8
    # one masked bit per evaluator input, from the evaluator alone
    assert c1.ledger.payload_bytes(msg_type=transport.OT_CHOICES, direction="sent") == (32 * n + 7) // 8
    assert c1.ledger.payload_bytes(direction="sent") == (32 * n + 7) // 8


def test_short_table_buffer_rejected():
    circ = cc.build_add(8, "size")
    rng = np.random.default_rng(9)
    R, zero = new_offset(rng), zero_labels(rng, circ, 2)
    g = garble(circ, R, *zero, ninst=2)
    with pytest.raises(gc_mod.GcError):
        evaluate(circ, [g.tables[:-8]], *zero, 2)


def test_more_than_one_cycle_rejected(channels):
    # every circuit is combinational: a second cycle is refused before
    # either role sends a frame
    circ = cc.build_add(8, "size")
    g, e = gc_sessions(*channels, 8)
    with pytest.raises(gc_mod.GcError, match="one cycle"):
        run_parties(lambda: g.run(circ, *zero_binds(circ, 0), cycles=2),
                    lambda: e.run(circ, *zero_binds(circ, 1), cycles=2))
    assert [c.ledger.messages() for c in channels] == [0, 0]


def test_unknown_decode_policy_rejected(channels):
    # only the evaluator decodes, or neither: any other policy is refused
    # before either role sends a frame
    circ = cc.build_add(8, "size")
    g, e = gc_sessions(*channels, 8)
    with pytest.raises(gc_mod.GcError, match="decode policy"):
        run_parties(lambda: g.run(circ, *zero_binds(circ, 0), decode="both"),
                    lambda: e.run(circ, *zero_binds(circ, 1), decode="both"))
    assert [c.ledger.messages() for c in channels] == [0, 0]


@pytest.mark.parametrize("group", [0, 1])
def test_unbound_input_group_with_wires_rejected(channels, group):
    # a None binding is only for an empty group: for one with wires the
    # evaluator would compute on labels nobody set
    circ, n = cc.build_bitand(8), 3

    def binds(role):
        out = zero_binds(circ, role, n)
        out[group] = None
        return out

    g, e = gc_sessions(*channels, 1)
    with pytest.raises(gc_mod.GcError, match=f"input group {group} .*not None"):
        run_parties(lambda: g.run(circ, *binds(0), ninst=n),
                    lambda: e.run(circ, *binds(1), ninst=n))
    assert [c.ledger.messages() for c in channels] == [0, 0]


def _asym():
    """x[0] & y[0] over 3 garbler and 5 evaluator input wires."""
    b = cc.Builder("asym")
    x, y = b.inputs(0, 3), b.inputs(1, 5)
    b.outputs = [b.and_(x[0], y[0])]
    return b.build()


ASYM, N = _asym(), 4
_OWN_WIDTH = (3, 5)
# each role's misuse of run_shares (its own share bits) and run (labels)
BAD_INPUTS = {
    "bits-none": lambda s: s.run_shares(ASYM, None, N, "none"),
    "bits-wrong-ninst": lambda s: s.run_shares(
        ASYM, np.zeros((N + 1, _OWN_WIDTH[s.role]), np.uint8), N, "none"),
    "bits-of-the-peers-width": lambda s: s.run_shares(
        ASYM, np.zeros((N, _OWN_WIDTH[1 - s.role]), np.uint8), N, "none"),
    "group0-unbound": lambda s: s.run(ASYM, None, zero_binds(ASYM, s.role, N)[1], ninst=N),
    "group1-unbound": lambda s: s.run(ASYM, zero_binds(ASYM, s.role, N)[0], None, ninst=N),
    "labels-instance-major": lambda s: s.run(
        ASYM, YaoShare(np.zeros((N, 3, 16), np.uint8), s.role),
        zero_binds(ASYM, s.role, N)[1], ninst=N),
    "labels-wrong-ninst": lambda s: s.run(ASYM, *zero_binds(ASYM, s.role, N + 1), ninst=N),
}


@pytest.mark.parametrize("role", [0, 1])
@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_rejected_before_any_label_or_frame(channels, case, role):
    # a role alone: it must raise GcError before it draws a dealt label or
    # sends or waits for a frame, whatever its peer would do
    s = gc_sessions(*channels, 5 * N)[role]
    with pytest.raises(gc_mod.GcError, match="input group|feeds bits"):
        BAD_INPUTS[case](s)
    assert s.labels.used == 0
    assert [c.ledger.messages() for c in channels] == [0, 0]
    assert s.tweak == 0


def test_identity_passthrough(channels):
    b = cc.Builder("ident")
    x = b.inputs(0, 8)
    b.outputs = x
    _, out = run_circuit(channels, b.build(), np.arange(256, dtype=np.uint64),
                         np.zeros((256, 0), np.uint8))
    assert np.array_equal(from_bits(out), np.arange(256))


def test_label_hygiene_permute_bits_balanced(monkeypatch):
    # the evaluator's view of a garbler input wire does not depend on the
    # garbler's bit: its active label there is 0, so its select bit is 0,
    # for all-zero and all-one bits alike; the select bit of the AND
    # output still splits evenly across instances
    c, n = cc.build_bitand(1), 200
    seen = []
    orig = gc_mod.evaluate

    def spy(circ, tables, active0, *args):
        seen.append(active0.copy())
        return orig(circ, tables, active0, *args)

    monkeypatch.setattr(gc_mod, "evaluate", spy)
    ones = np.ones((n, 1), np.uint8)
    for mine in (0 * ones, ones):
        chans = transport.channel_pair()
        g, e = gc_sessions(*chans, n)
        _, ys = run_parties(
            lambda: g.run_shares(c, mine, n, "none"), lambda: e.run_shares(c, ones, n, "none"))
        for ch in chans:
            ch.close()
        assert not seen.pop().any()  # label 0, select bit lsb(0) = 0
        out_ones = int(ys.lsb_bits().sum())
        assert 60 <= out_ones <= 140  # ~Binomial(200, 1/2), far beyond 6 sigma


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
    g, e = gc_sessions(*channels, 16 * n)

    def party(s, bits):
        return s.run(relu, s.run_shares(adder, bits, n, "none"), None, ninst=n)

    _, out = run_parties(lambda: party(g, to_bits(x, 16)), lambda: party(e, to_bits(y, 16)))
    s = ring.to_signed((x + y) & np.uint64(p.mask), p)
    expect = np.where(s > 0, (x + y) & np.uint64(p.mask), 0)
    assert np.array_equal(from_bits(out), expect)


def test_gc_rounds_constant_in_size(channels):
    # message and flight counts are independent of instance count
    counts, flights = [], []
    for n in (1, 64):
        x = np.arange(n, dtype=np.uint64)
        with closing(*transport.channel_pair()) as chans:
            run_circuit(chans, cc.build_add(16, "size"), x, x)
        counts.append(chans[0].ledger.messages() + chans[1].ledger.messages())
        flights.append((chans[0].flights, chans[1].flights))
    assert counts[0] == counts[1]
    assert flights[0] == flights[1]


def _garble_digest(jobs) -> str:
    """Garble and evaluate (all-zero inputs) every job; digest everything."""
    h = hashlib.sha256()
    for circ, ninst, seed in jobs:
        rng = np.random.default_rng(seed)
        R, zero = new_offset(rng), zero_labels(rng, circ, ninst)
        g = garble(circ, R, *zero, ninst=ninst)
        h.update(g.tables)
        for labels in (*zero, g.out_zero, g.decode):
            h.update(np.ascontiguousarray(labels).tobytes())
        out = evaluate(circ, [g.tables], *zero, ninst)
        h.update(out.tobytes())
    return h.hexdigest()


def test_concurrent_garbling_matches_serial():
    # the fixed-key hash keeps one AES context per thread; two threads
    # garbling at once must produce exactly the serial tables and labels
    jobs = [(cc.build_add(32, "size"), 5, 1), (cc.build_cmp(16, "depth"), 9, 2),
            (cc.build_relu(32), 16, 4)]
    serial = _garble_digest(jobs)
    start = threading.Barrier(2)
    got = []

    def worker():
        start.wait()
        got.extend(_garble_digest(jobs) for _ in range(3))

    run_parties(worker, worker)
    assert got == [serial] * 6


def _active(zero, R, in0, in1):
    """Evaluator's active labels of each input group for input bits in0, in1."""
    return [z ^ (bits.T[..., None] * R) for z, bits in zip(zero, (in0, in1))]


def _interpreter_digest(circ, ninst, seed, preset):
    """Garble and evaluate on random inputs; check the decoded outputs
    against simulate and digest tables, labels, decode bits and outputs."""
    rng = np.random.default_rng(seed)
    R = new_offset(rng)
    aux = np.random.default_rng(seed + 1000)
    if preset:
        # the digests' draw order: inputs0's labels from rng after R,
        # inputs1's from aux
        pre = np.stack([aux.integers(0, 256, (ninst, 16), dtype=np.uint8)
                        for _ in circ.inputs1])
        zero = (rng.integers(0, 256, (len(circ.inputs0), ninst, 16), dtype=np.uint8), pre)
    else:
        zero = zero_labels(rng, circ, ninst)
    g = garble(circ, R, *zero, ninst=ninst)
    in0 = aux.integers(0, 2, (ninst, len(circ.inputs0)), dtype=np.uint8)
    in1 = aux.integers(0, 2, (ninst, len(circ.inputs1)), dtype=np.uint8)
    out = evaluate(circ, [g.tables], *_active(zero, R, in0, in1), ninst)
    decoded = (out[..., 0] & 1) ^ g.decode
    assert np.array_equal(decoded.T, cc.simulate(circ, in0, in1))
    h = hashlib.sha256()
    h.update(g.tables)
    for arr in (*zero, g.out_zero, g.decode, out):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


# Recorded with the per-gate interpreter that preceded the layered one, on
# "depth" builds. The max4x8 digests were re-recorded when max_word began
# comparing (right, left), after the old netlist, rebuilt from its arrays,
# was shown to garble to the old digests on the new interpreter code.
_GOLDEN = {
    ("add16", 1, False): "84b8fa0452125eb321f6bea9c82676a4d5c6462e7ace269a249bcdfe4adaf158",
    ("add16", 7, False): "cab0388e0adb73c311e85208a437e268ca7e807b4fa6fbdf4db9557463b92955",
    ("add16", 7, True): "5cbd857709cdeedfd47c79a22ea16c73c95a88ab30cad61bdb1e5cf47eb3ced1",
    ("cmp32", 1, False): "9f0e7f2be08c2d9560e30c60399750763aacd865a60a9e0534febc73b224b470",
    ("cmp32", 7, False): "e7abc850ddb9788ba48b6b19efc3e505701fa21d5d357ec98bdc0eb56ba6543c",
    ("max4x8", 1, False): "6e113d32742ed0d2a4b357ad01c323f9f0888f88977f0f6590c1a443fed6d0e5",
    ("max4x8", 7, False): "6c54cb1c12ab925e5842a39d063bcf6ed3aa02d3db0ea9f4cb59b382b4522a71",
}


# Each id keeps a 1 after the name, where ids carried a cycle count when
# circuits could be sequential, so the ids stay those the suite has run.
@pytest.mark.parametrize("name,ninst,preset", list(_GOLDEN),
                         ids=[f"{n}-1-{i}-{p}" for n, i, p in _GOLDEN])
def test_interpreter_golden_digests(name, ninst, preset):
    circ = {"add16": lambda: cc.build_add(16, "depth"),
            "cmp32": lambda: cc.build_cmp(32, "depth"),
            "max4x8": lambda: cc.build_max_tree(4, 8, "depth")}[name]()
    got = _interpreter_digest(circ, ninst, seed=ninst + 17, preset=preset)
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
    x0, x1 = gmw.share_bits(in0, drbg_from(rng))
    y0, y1 = gmw.share_bits(in1, drbg_from(rng))
    c0_, c1_ = transport.channel_pair()
    try:
        e0, e1 = GmwEngine(0, c0_, mats[0]), GmwEngine(1, c1_, mats[1])
        lc = cc.levelize(circ)
        s0, s1 = run_parties(lambda: e0.evaluate(lc, x0, y0),
                             lambda: e1.evaluate(lc, x1, y1))
    finally:
        c0_.close()
        c1_.close()
    assert e0.bmt.left() == 0
    return s0.bits ^ s1.bits


@settings(max_examples=40, deadline=None)
@given(circ=_netlists(), ninst=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_random_netlists_gc_and_gmw_match_simulate(circ, ninst, seed):
    rng = np.random.default_rng(seed)
    in0 = rng.integers(0, 2, (ninst, len(circ.inputs0)), dtype=np.uint8)
    in1 = rng.integers(0, 2, (ninst, len(circ.inputs1)), dtype=np.uint8)
    expect = cc.simulate(circ, in0, in1)
    R = new_offset(rng)
    zero = zero_labels(rng, circ, ninst)
    g = garble(circ, R, *zero, ninst=ninst)
    out = evaluate(circ, [g.tables], *_active(zero, R, in0, in1), ninst)
    assert np.array_equal(((out[..., 0] & 1) ^ g.decode).T, expect)
    # the y2b reading: the two roles' label LSBs XOR to the outputs
    assert np.array_equal(((out[..., 0] ^ g.out_zero[..., 0]) & 1).T, expect)
    assert np.array_equal(_gmw_outputs(circ, in0, in1, rng), expect)


def test_tweaks_do_not_repeat_across_runs(channels, monkeypatch):
    # a label rebound from one run into the next must not be hashed again
    # under the same tweak: every fixed-key AES input block of the second
    # run differs from those of the first, on both roles; within a run the
    # blocks are pairwise distinct, though every garbler input label the
    # evaluator holds is 0
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
        seen.setdefault((threading.get_ident(), phase.run), []).extend(
            r.tobytes() for r in rows)
        return orig(blk)

    monkeypatch.setattr(gc_mod, "_fixed_key_encrypt", spy)
    g, e = gc_sessions(*channels, 2 * n)

    def party(s, bits):
        phase.run = 1
        ys_ = s.run_shares(circ, bits, n, "none")
        phase.run = 2
        lab = ys_.labels
        out = s.run(circ, YaoShare(lab[0:1], s.role), YaoShare(lab[1:2], s.role), ninst=n)
        return ys_.lsb_bits(), out

    (l0, _), (l1, out) = run_parties(lambda: party(g, to_bits(xs, 1)),
                                     lambda: party(e, to_bits(ys, 1)))
    expect = np.stack([xs, ys, xs & ys], axis=1)
    assert np.array_equal(l0 ^ l1, expect)
    assert np.array_equal(out.T, expect)
    threads = {t for t, _ in seen}
    assert len(threads) == 2
    assert all(len(set(blocks)) == len(blocks) for blocks in seen.values())
    for t in threads:
        assert seen[(t, 1)] and seen[(t, 2)]
        assert not set(seen[(t, 1)]) & set(seen[(t, 2)])
    assert g.tweak == e.tweak > 0


def _level_ends(circ, ninst):
    """Byte offsets in the tables at which circ's AND levels end."""
    return set(itertools.accumulate(32 * len(s.ands) * ninst for s in circ.levelized.spans))


def test_tables_stream_in_level_aligned_frames(channels, monkeypatch):
    # add8 is 7 AND levels of one gate: at 12 000 instances each holds
    # 384 000 B, so frames close after 3, 6 and 7 levels
    circ, n = cc.build_add(8, "size"), 12000
    schedule = gc_mod.frame_schedule(circ, n)
    assert schedule == [3 * 384000, 3 * 384000, 384000]
    sent = []
    orig = transport.Channel.send

    def spy(self, msg_type, payload):
        if msg_type == transport.GC_TABLES:
            sent.append(bytes(payload))
        return orig(self, msg_type, payload)

    monkeypatch.setattr(transport.Channel, "send", spy)
    g, e = gc_sessions(*channels, 1)
    _, out = run_parties(lambda: g.run(circ, *zero_binds(circ, 0, n), ninst=n),
                         lambda: e.run(circ, *zero_binds(circ, 1, n), ninst=n))
    assert [len(f) for f in sent] == schedule
    ends = list(itertools.accumulate(schedule))
    assert set(ends) <= _level_ends(circ, n)  # whole levels
    assert all(size >= gc_mod.FRAME_BYTES for size in schedule[:-1])
    assert channels[1].ledger.messages(msg_type=transport.GC_TABLES) == len(schedule)
    # the frames joined are the whole run's garbling, byte for byte
    zero = [b.labels for b in zero_binds(circ, 0, n)]
    whole = garble(circ, g.R, *zero, ninst=n).tables
    assert hashlib.sha256(b"".join(sent)).digest() == hashlib.sha256(whole).digest()
    assert not out.any()  # zero labels at both roles: all-zero inputs, sum 0


def test_frame_closes_at_the_first_level_end_holding_frame_bytes():
    b = cc.Builder("chain3")
    x, y = b.inputs(0, 1), b.inputs(1, 3)
    w = x[0]
    for yi in y:
        w = b.and_(w, yi)
    b.outputs = [w]
    chain, n = b.build(), gc_mod.FRAME_BYTES // 32  # one AND level of n: FRAME_BYTES
    assert gc_mod.frame_schedule(chain, n) == [gc_mod.FRAME_BYTES] * 3
    level = 32 * (n - 1)
    assert gc_mod.frame_schedule(chain, n - 1) == [2 * level, level]


def test_zero_and_run_sends_one_empty_frame(channels):
    circ = cc.build_bitxor(8)
    assert gc_mod.frame_schedule(circ, 50) == [0]
    x = np.arange(50, dtype=np.uint64)
    _, out = run_circuit(channels, circ, x, 3 * x)
    assert np.array_equal(from_bits(out), x ^ (3 * x))
    led = channels[1].ledger
    assert led.messages(msg_type=transport.GC_TABLES) == 1
    assert led.payload_bytes(msg_type=transport.GC_TABLES) == 0


def test_zero_instance_run_completes(channels):
    # add8's 7 AND levels hold 0 B each at ninst = 0: one empty frame
    # crosses, and the evaluator pulls no frame per level
    circ = cc.build_add(8, "size")
    assert circ.levelized.depth == 7
    assert gc_mod.frame_schedule(circ, 0) == [0]
    g, e = gc_sessions(*channels, 0)
    _, out = run_parties(lambda: g.run(circ, *zero_binds(circ, 0, 0), ninst=0),
                         lambda: e.run(circ, *zero_binds(circ, 1, 0), ninst=0))
    assert out.shape == (len(circ.outputs), 0)  # (outputs, instances)
    led = channels[1].ledger
    assert led.messages(msg_type=transport.GC_TABLES) == 1
    assert led.payload_bytes() == 0


def test_benchmarked_programs_table_frames(monkeypatch):
    # frames per garbled run of the programs perfbench runs: every wan and
    # svm stage fits in one, as a whole run did; lan's two ReLU identity
    # stages stream in 16 and 2
    runs = []
    orig = gc_mod.GcSession.run

    def spy(self, c, bind0, bind1, cycles=1, ninst=1, decode="evaluator"):
        if self.role == 1:
            runs.append(len(gc_mod.frame_schedule(c, ninst)))
        return orig(self, c, bind0, bind1, cycles, ninst, decode)

    monkeypatch.setattr(gc_mod.GcSession, "run", spy)
    p, rng = RingParams(32, 7, 12), np.random.default_rng(3)
    got = {}
    for name, profile, batch in (("mnist-lan-b20", ml.LAN, 20), ("mnist-wan-b1", ml.WAN, 1)):
        net = ml.mnist_like_net(rng)
        with dealt_sessions(ml.plan_nn_manifest(net, p, batch, profile, bytes(16))) as (s0, s1):
            run_parties(lambda: ml.nn_infer(s0, net, None, batch, profile),
                        lambda: ml.nn_infer(s1, net.public(),
                                            rng.uniform(0, 1, (batch, 1, 28, 28)), batch, profile))
        got[name] = (runs[:], s1.channel.ledger.messages(msg_type=transport.GC_TABLES))
        runs.clear()
    model = ml.SvmModel(rng.uniform(-1, 1, 100), 0.3)
    with dealt_sessions(ml.plan_svm_manifest(100, 1, p, bytes(16))) as (s0, s1):
        run_parties(lambda: ml.svm_classify(s0, model, None, 100, 1),
                    lambda: ml.svm_classify(s1, None, rng.uniform(-1, 1, (1, 100)), 100, 1))
    got["svm-psk-b1"] = (runs[:], s1.channel.ledger.messages(msg_type=transport.GC_TABLES))
    assert got == {"mnist-lan-b20": ([16, 2, 1], 19), "mnist-wan-b1": ([1, 1, 1], 3),
                   "svm-psk-b1": ([1], 1)}


def test_evaluator_pulls_a_frame_after_the_last_level_of_the_one_before(monkeypatch):
    # at each pull, the levels evaluated so far are exactly those of the
    # frames before: the evaluator works on frame k while frame k+1 is due
    circ, n = cc.build_add(8, "size"), 12000
    rng = np.random.default_rng(12)
    R, zero = new_offset(rng), zero_labels(rng, circ, n)
    g = garble(circ, R, *zero, ninst=n)
    levels, pulls = [], []
    orig = gc_mod.run_spans

    def counting(lc, one, in0, in1, and_level):
        def level(span, a, b):
            out = and_level(span, a, b)
            levels.append(span)
            return out
        return orig(lc, one, in0, in1, level)

    def frames():
        ends = itertools.accumulate(gc_mod.frame_schedule(circ, n), initial=0)
        for start, end in itertools.pairwise(ends):
            pulls.append(len(levels))
            yield g.tables[start:end]

    monkeypatch.setattr(gc_mod, "run_spans", counting)
    out = evaluate(circ, frames(), *zero, n)
    assert pulls == [0, 3, 6] and len(levels) == 7
    assert np.array_equal(out, evaluate(circ, [g.tables], *zero, n))


@pytest.mark.parametrize("case,error", [("level-split", "crosses"), ("over", "run over"),
                                        ("extra-frame", "run over"), ("short", "fall short")])
def test_misaligned_or_wrong_length_frames_rejected(case, error):
    circ, n = cc.build_add(8, "size"), 4
    rng = np.random.default_rng(14)
    R, zero = new_offset(rng), zero_labels(rng, circ, n)
    t = bytes(garble(circ, R, *zero, ninst=n).tables)
    level = 32 * n
    frames = {"level-split": [t[: level + 32], t[level + 32:]],
              "over": [t + bytes(32)],
              "extra-frame": [t, bytes(32)],
              "short": [t[:level], t[level:-level]]}[case]
    with pytest.raises(gc_mod.GcError, match=error):
        evaluate(circ, frames, *zero, n)
