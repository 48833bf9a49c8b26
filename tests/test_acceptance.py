"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they pass. Byte assertions are zero-slack on protocol payload in
null-cipher mode; time budgets follow each criterion's stated limit.
"""

import secrets
import threading
import time

import numpy as np
from conftest import (build_argmax, closing, deal, dealt_sessions, drbg_from, from_bits,
                      garble_frames, gc_sessions, new_offset, ot_masks, reconstruct, run_parties,
                      zero_labels)

from hybrid2pc import ass, circuits as cc, convert, gmw, ml, stp, transport
from hybrid2pc.bench import run_bench
from hybrid2pc.correlated import ResourceManifest
from hybrid2pc.gc import frame_schedule
from hybrid2pc.ot import OtReceiver, OtSender
from hybrid2pc.ring import RingParams
from hybrid2pc.transport import channel_pair


def _ok(n, msg):
    print(f"\n[criterion {n}] PASS: {msg}")


def to_bits(v, w):
    sh = np.arange(w, dtype=np.uint64)
    return ((np.atleast_1d(np.asarray(v, np.uint64))[:, None] >> sh) & np.uint64(1)).astype(np.uint8)


def from_bits_cols(bits):
    sh = np.arange(bits.shape[1], dtype=np.uint64)
    return (bits.astype(np.uint64) << sh).sum(axis=1, dtype=np.uint64)


# --------------------------------------------------------------------------
# 1. Offline communication exactness per dealt item (Table-10 equivalents)
# --------------------------------------------------------------------------


def test_criterion_1_offline_communication_per_item():
    t0 = time.time()
    n = 10**5
    server = stp.StpServer(timeout=10.0).start()
    results = []

    def fetch(manifest):
        out = [None, None]
        ledgers = [transport.ByteLedger(), transport.ByteLedger()]

        def go(role):
            out[role] = stp.request_bundle(server.address, manifest, role,
                                           ledger=ledgers[role])

        ts = [threading.Thread(target=go, args=(r,)) for r in (0, 1)]
        [t.start() for t in ts]
        [t.join() for t in ts]
        return ledgers[1]

    try:
        cases = []
        for l in (16, 32, 64):
            m = ResourceManifest(secrets.token_bytes(16), RingParams(l), num_amt=n)
            cases.append((f"A-MT l={l}", fetch(m), l * n))
        m = ResourceManifest(secrets.token_bytes(16), RingParams(32), num_bmt=n)
        cases.append(("B-MT", fetch(m), n))
        for l in (16, 32, 64):
            m = ResourceManifest(secrets.token_bytes(16), RingParams(l), num_dabits=n)
            cases.append((f"daBit l={l}", fetch(m), l * n))
        m = ResourceManifest(secrets.token_bytes(16), RingParams(32), num_labels=n)
        cases.append(("label", fetch(m), 128 * n))
    finally:
        server.stop()
    lines = []
    for name, ledger, exact_bits in cases:
        payload = ledger.payload_bytes(direction="recv", peer="stp")
        wire = ledger.wire_bytes(direction="recv", peer="stp")
        exact = exact_bits // 8
        assert payload == 32 + exact, (name, payload, exact)  # seed + corrections
        overhead = wire - exact
        assert overhead <= 0.01 * exact, (name, wire, exact)
        lines.append(f"{name}: {exact_bits / n:g} bits/item, overhead "
                     f"{100 * overhead / exact:.3f}%")
    dt = time.time() - t0
    assert dt < 30, f"criterion 1 took {dt:.1f}s"
    _ok(1, "; ".join(lines) + f" ({dt:.1f}s)")


# --------------------------------------------------------------------------
# 2. Online communication exactness for 1000 parallel 32-bit ops (Table 6)
# --------------------------------------------------------------------------


def test_criterion_2_online_communication_1000_ops():
    t0 = time.time()
    n = 1000
    p = RingParams(32)
    rows = {r.op: r for r in run_bench(ops=("ADD", "MULT", "AND"), n=n, width=32)}
    assert rows["ADD"].online_total == 0
    # A-SS MULT: 2*l bits per direction per multiplication = 16 KB total
    assert rows["MULT"].online_sent0 == rows["MULT"].online_sent1 == 8000
    assert rows["MULT"].online_total == 16000
    # GMW AND: 2 bits per gate per direction over 32000 gates = 8 KB each way
    assert rows["AND"].online_sent0 == rows["AND"].online_sent1 == 8000
    # GC tables: 2*128 bits per AND gate, per library circuit, zero slack
    table_checks = []
    for name in ("add", "sub", "cmp", "eq", "mux", "relu", "bitand", "bitxor"):
        circ = cc.build_by_name(name, 32)
        rng = np.random.default_rng(3)
        _, frames = garble_frames(circ, new_offset(rng), *zero_labels(rng, circ, n), n)
        assert sum(f.nbytes for f in frames) == 2 * 16 * circ.num_and * n, name
        table_checks.append(name)
    dt = time.time() - t0
    assert dt < 60, f"criterion 2 took {dt:.1f}s"
    _ok(2, f"ADD 0 B; MULT 16000 B total; AND 8000 B/direction; GC tables "
           f"exact for {len(table_checks)} circuits ({dt:.1f}s)")


# --------------------------------------------------------------------------
# 3. Protocol-correctness oracle suites
# --------------------------------------------------------------------------


def test_criterion_3_protocol_oracles():
    t0 = time.time()
    n = 10**5
    # (a) triple defining relations
    d0, d1 = deal(ResourceManifest(bytes(16), RingParams(32), num_amt=n, num_bmt=n))
    a0, b0, c0, a1, b1, c1 = d0.amt_a, d0.amt_b, d0.amt_c, d1.amt_a, d1.amt_b, d1.amt_c
    mask = np.uint64((1 << 32) - 1)
    assert np.array_equal(((a0 + a1) & mask) * ((b0 + b1) & mask) & mask,
                          (c0 + c1) & mask)
    assert np.array_equal((d0.bmt_a ^ d1.bmt_a) & (d0.bmt_b ^ d1.bmt_b),
                          d0.bmt_c ^ d1.bmt_c)

    # (b) the OT engine on ring elements, l = 64: all (r, b) plus randomized
    u64 = RingParams(64).dtype
    for r_bit in (0, 1):
        for b_bit in (0, 1):
            q = np.frombuffer(secrets.token_bytes(16), u64).reshape(1, 2).copy()
            m0, m1 = (np.frombuffer(secrets.token_bytes(8), u64) for _ in range(2))
            with closing(*channel_pair()) as (c0c, c1c):
                snd = OtSender(q, c0c)
                rcv = OtReceiver(np.array([r_bit], np.uint8), q[0, r_bit][None].copy(), c1c)
                _, got = run_parties(lambda: snd.send(m0, m1), lambda: rcv.recv([b_bit], 64))
            assert np.array_equal(got, m1 if b_bit else m0)
    rng = np.random.default_rng(0)
    q, r, qr = ot_masks(n, 64)  # masks are one ring element wide
    m0 = rng.integers(0, 1 << 64, n, u64)
    m1 = rng.integers(0, 1 << 64, n, u64)
    b = rng.integers(0, 2, n, np.uint8)
    with closing(*channel_pair()) as (c0c, c1c):
        snd, rcv = OtSender(q, c0c), OtReceiver(r, qr, c1c)
        _, got = run_parties(lambda: snd.send(m0, m1), lambda: rcv.recv(b, 64))
    assert np.array_equal(got, np.where(b.astype(bool), m1, m0))

    # (c) multiplication/VDP reconstruction vs arbitrary-precision oracle
    def check_mults(p, x, y, seed):
        nn = len(x)
        expect = (x.astype(object) * y.astype(object)) % p.modulus
        srng = np.random.default_rng(seed)
        x0, x1 = ass.share(x, p, drbg_from(srng))
        y0, y1 = ass.share(y, p, drbg_from(srng))
        m = ResourceManifest(bytes(16), p, num_amt=nn, vdp_blocks=((nn, 1),))
        with dealt_sessions(m) as (s0, s1):
            z0, z1 = run_parties(lambda: s0.ass.mul_mt(x0, y0),
                                 lambda: s1.ass.mul_mt(x1, y1))
            assert np.array_equal(reconstruct(z0, z1, p).astype(object), expect)
            z0, z1 = run_parties(lambda: s0.ass.vdp(x, y0, 1),
                                 lambda: s1.ass.vdp(None, y1, 1))
        assert np.array_equal(reconstruct(z0, z1, p).astype(object), expect)

    all8 = np.arange(256, dtype=np.uint64)
    check_mults(RingParams(8), np.repeat(all8, 256), np.tile(all8, 256), 1)
    for l, seed in ((32, 2), (64, 3)):
        p = RingParams(l)
        x = rng.integers(0, p.modulus, 10**4, dtype=np.uint64)
        y = rng.integers(0, p.modulus, 10**4, dtype=np.uint64)
        check_mults(p, x, y, seed)
        # VDP vs brute-force oracle
        length, count = 50, 200
        xv = rng.integers(0, p.modulus, length * count, dtype=np.uint64)
        yv = rng.integers(0, p.modulus, length * count, dtype=np.uint64)
        y0, y1 = ass.share(yv, p, drbg_from(rng))
        m = ResourceManifest(bytes(16), p, vdp_blocks=((count, length),))
        with dealt_sessions(m) as (s0, s1):
            z0, z1 = run_parties(
                lambda: s0.ass.vdp(xv, y0, length),
                lambda: s1.ass.vdp(None, y1, length),
            )
        got = reconstruct(z0, z1, p).astype(object)
        prods = (xv.astype(object) * yv.astype(object)) % p.modulus
        expect = np.array(
            [sum(prods[i * length : (i + 1) * length]) % p.modulus
             for i in range(count)], dtype=object)
        assert np.array_equal(got, expect)
    dt = time.time() - t0
    assert dt < 300, f"criterion 3 took {dt:.1f}s"
    _ok(3, f"10^5 triple relations, OT exhaustive+10^5, mult/VDP oracles "
           f"exhaustive l=8 and randomized l=32/64 ({dt:.1f}s)")


# --------------------------------------------------------------------------
# 4. Circuit-engine equivalence (GMW and GC vs plaintext simulation)
# --------------------------------------------------------------------------


def _gmw_eval(circ, in0_bits, in1_bits, seed=0):
    lc = cc.levelize(circ)
    ninst = max(in0_bits.shape[0], in1_bits.shape[0])
    m = ResourceManifest(bytes(16), RingParams(32),
                         num_bmt=circ.num_and * ninst)
    m0, m1 = deal(m)
    c0, c1 = channel_pair()
    e0 = gmw.GmwEngine(0, c0, m0)
    e1 = gmw.GmwEngine(1, c1, m1)
    rng = np.random.default_rng(seed)
    x0, x1 = gmw.share_bits(in0_bits, drbg_from(rng))
    y0, y1 = gmw.share_bits(in1_bits, drbg_from(rng))
    s0, s1 = run_parties(lambda: e0.evaluate(lc, x0, y0),
                         lambda: e1.evaluate(lc, x1, y1))
    out = s0.bits ^ s1.bits
    c0.close()
    c1.close()
    return out, (c0.flights, c1.flights), lc


def _gc_eval(circ, in0_bits, in1_bits):
    ninst = max(in0_bits.shape[0], in1_bits.shape[0])
    c0, c1 = channel_pair()
    g, e = gc_sessions(c0, c1, len(circ.inputs1) * ninst)
    _, out = run_parties(
        lambda: g.run_shares(circ, in0_bits, ninst, "evaluator"),
        lambda: e.run_shares(circ, in1_bits, ninst, "evaluator"),
    )
    c0.close()
    c1.close()
    return out.T  # (ninst, nout)


def test_criterion_4_engine_equivalence():
    t0 = time.time()
    all8 = np.arange(256, dtype=np.uint64)
    a8, b8 = np.repeat(all8, 256), np.tile(all8, 256)
    none = np.zeros((65536, 0), np.uint8)

    exhaustive = []
    for name in ("add", "sub", "cmp", "eq"):
        circ = cc.build_by_name(name, 8, "depth")
        ref = cc.simulate(circ, to_bits(a8, 8), to_bits(b8, 8))
        got, _, _ = _gmw_eval(circ, to_bits(a8, 8), to_bits(b8, 8))
        assert np.array_equal(got, ref), f"gmw {name}"
        got = _gc_eval(circ, to_bits(a8, 8), to_bits(b8, 8))
        assert np.array_equal(got, ref), f"gc {name}"
        exhaustive.append(name)
    # mux: exhaustive operands for each selector value
    circ = cc.build_by_name("mux", 8)
    for sel in (0, 1):
        in1 = np.concatenate([to_bits(b8, 8), np.full((65536, 1), sel, np.uint8)], axis=1)
        ref = cc.simulate(circ, to_bits(a8, 8), in1)
        got, _, _ = _gmw_eval(circ, to_bits(a8, 8), in1)
        assert np.array_equal(got, ref)
        assert np.array_equal(_gc_eval(circ, to_bits(a8, 8), in1), ref)
    exhaustive.append("mux")
    # relu: unary exhaustive; argmax: exhaustive over two 8-bit values
    circ = cc.build_by_name("relu", 8)
    ref = cc.simulate(circ, to_bits(all8, 8), none[:256])
    got, _, _ = _gmw_eval(circ, to_bits(all8, 8), none[:256])
    assert np.array_equal(got, ref)
    assert np.array_equal(_gc_eval(circ, to_bits(all8, 8), none[:256]), ref)
    exhaustive.append("relu")
    circ = build_argmax(2, 8)
    pairs = to_bits(a8 | (b8 << np.uint64(8)), 16)
    ref = cc.simulate(circ, pairs, none)
    got, _, _ = _gmw_eval(circ, pairs, none)
    assert np.array_equal(got, ref)
    assert np.array_equal(_gc_eval(circ, pairs, none), ref)
    exhaustive.append("argmax")

    # randomized 32/64-bit across 100 fresh share/label decompositions
    rng = np.random.default_rng(9)
    for w in (32, 64):
        builders = [
            cc.build_by_name("add", w, "depth"), cc.build_by_name("sub", w, "depth"),
            cc.build_by_name("cmp", w, "depth"), cc.build_by_name("eq", w), cc.build_by_name("mux", w),
            cc.build_by_name("relu", w), build_argmax(4, w),
        ]
        for circ in builders:
            per = 100  # 100 decompositions x 100 instances = 10^4 values
            w0, w1 = len(circ.inputs0), len(circ.inputs1)
            in0 = rng.integers(0, 2, (100, per, w0), np.uint8)
            in1 = rng.integers(0, 2, (100, per, w1), np.uint8)
            ref = cc.simulate(circ, in0.reshape(100 * per, w0),
                              in1.reshape(100 * per, w1))
            # GMW: one engine, fresh share decomposition per batch
            lc = cc.levelize(circ)
            m = ResourceManifest(bytes(16), RingParams(32),
                                 num_bmt=circ.num_and * per * 100)
            m0, m1 = deal(m)
            c0, c1 = channel_pair()
            e0, e1 = gmw.GmwEngine(0, c0, m0), gmw.GmwEngine(1, c1, m1)
            srng = np.random.default_rng(17)

            def run_gmw(e, xs, ys):
                def f():
                    outs = []
                    for k in range(100):
                        outs.append(e.evaluate(lc, xs[k], ys[k]).bits)
                    return np.concatenate(outs)
                return f

            shares0, shares1 = [], []
            for k in range(100):
                x0, x1 = gmw.share_bits(in0[k], drbg_from(srng))
                y0, y1 = gmw.share_bits(in1[k], drbg_from(srng))
                shares0.append((x0, y0))
                shares1.append((x1, y1))
            s0bits, s1bits = run_parties(
                run_gmw(e0, [s[0] for s in shares0], [s[1] for s in shares0]),
                run_gmw(e1, [s[0] for s in shares1], [s[1] for s in shares1]),
            )
            assert np.array_equal(s0bits ^ s1bits, ref), f"gmw {circ.name}"
            c0.close()
            c1.close()
            # GC: 100 runs in one session, each on its own tweaks and dealt labels
            c0, c1 = channel_pair()
            g, e = gc_sessions(c0, c1, w1 * per * 100)

            def run_gc(sess, role):
                def f():
                    outs = []
                    for k in range(100):
                        res = sess.run_shares(circ, (in0, in1)[role][k], per, "evaluator")
                        if role == 1:
                            outs.append(res.T)
                    return np.concatenate(outs) if outs else None
                return f

            _, gcout = run_parties(run_gc(g, 0), run_gc(e, 1))
            assert np.array_equal(gcout, ref), f"gc {circ.name}"
            c0.close()
            c1.close()
    dt = time.time() - t0
    assert dt < 600, f"criterion 4 took {dt:.1f}s"
    _ok(4, f"exhaustive 8-bit ({', '.join(exhaustive)}) and 10^4 x {{32,64}}-bit "
           f"over 100 decompositions, GMW+GC vs simulation ({dt:.1f}s)")


# --------------------------------------------------------------------------
# 5. Conversion round-trips
# --------------------------------------------------------------------------


def test_criterion_5_conversion_roundtrips():
    t0 = time.time()
    n = 10**4
    for w in (8, 32, 64):
        p = RingParams(w)
        m = ResourceManifest(bytes(16), p, num_labels=3 * w * n, num_dabits=2 * w * n)
        rng = np.random.default_rng(w)
        x = rng.integers(0, p.modulus, n, dtype=np.uint64)
        x0, x1 = ass.share(x, p, drbg_from(rng))

        def trip(se, xs):
            def f():
                ys = convert.a2y(se.gc, xs, p)
                a_back = convert.b2a(se.channel, p, se.dabits, convert.y2b(se.gc, ys),
                                     signed=True)
                bs = convert.y2b(se.gc, convert.a2y(se.gc, a_back, p))
                marker = se.channel.ledger.payload_bytes(direction="sent")
                bs2 = convert.y2b(se.gc, convert.b2y(se.gc, bs))
                free = (se.channel.ledger.payload_bytes(direction="sent") - marker
                        - se.role * ((bs.bits.size + 7) // 8))  # b2y's masked bits
                a_final = convert.b2a(se.channel, p, se.dabits, bs2)
                return a_final, bs2, free
            return f

        with dealt_sessions(m) as (s0, s1):
            (a0, b0, free0), (a1, b1, free1) = run_parties(trip(s0, x0), trip(s1, x1))
        assert np.array_equal(reconstruct(a0, a1, p), x), w
        assert np.array_equal(from_bits(b0.bits ^ b1.bits, p), x), w
        assert free0 == free1 == 0  # y2b itself added zero bytes
    dt = time.time() - t0
    assert dt < 120, f"criterion 5 took {dt:.1f}s"
    _ok(5, f"a2y->y2a, a2b->b2a, b2y->y2b preserve 10^4 values at w=8/32/64; "
           f"y2b costs 0 online bytes ({dt:.1f}s)")


# --------------------------------------------------------------------------
# 6. End-to-end SVM
# --------------------------------------------------------------------------


def test_criterion_6_svm_end_to_end():
    t0 = time.time()
    p = RingParams(32, 7, 12)
    total = 10**4
    sign = cc.stage_circuit("sign", p.l, p.beta)
    msg_counts = {}
    frames = {}
    for d in (10, 100, 1000):
        rng = np.random.default_rng(d)
        chunk = total if d <= 100 else 2000
        sent_msgs = None
        done = 0
        while done < total:
            b = min(chunk, total - done)
            model = ml.SvmModel(rng.uniform(-1, 1, (b, d)), rng.uniform(-1, 1, b))
            queries = rng.uniform(-1, 1, (b, d))
            expect = ml.svm_oracle(model, queries, p)
            m = ml.plan_svm_manifest(d, b, p, bytes(16))
            with dealt_sessions(m) as (s0, s1):
                _, got = run_parties(
                    lambda: ml.svm_classify(s0, model, None, d, b),
                    lambda: ml.svm_classify(s1, None, queries, d, b),
                )
            assert np.array_equal(got, expect), f"d={d}"
            s0.assert_exhausted()
            s1.assert_exhausted()
            led = s1.channel.ledger
            sent_msgs = led.messages(direction="sent", peer="peer")
            # received: the dot product's DA_MASKED, the sign stage's tables
            # in their level-aligned frames, whose count follows the batch,
            # and GC_DECODE
            frames[b] = len(frame_schedule(sign, b))
            recv_msgs = led.messages(direction="recv", peer="peer")
            assert recv_msgs == 1 + frames[b] + 1, (d, b, recv_msgs)
            flights = (s0.channel.flights, s1.channel.flights)
            non_gc = sum(
                led.messages(direction=dd, msg_type=t)
                for dd in ("sent", "recv")
                for t in (transport.APP_SHARE, transport.DA_MASKED)
            )
            assert non_gc == 2  # the dot-product round; the query is its own share
            done += b
        msg_counts[d] = (sent_msgs, flights)
    assert len(set(msg_counts.values())) == 1, msg_counts  # independent of d
    assert frames == {10**4: 13, 2000: 3}, frames
    dt = time.time() - t0
    assert dt < 300, f"criterion 6 took {dt:.1f}s"
    _ok(6, f"10^4 labels match the oracle at d=10/100/1000; role 1's messages sent "
           f"and both roles' flights {msg_counts[10]} independent of d; received "
           f"2 + the sign stage's table frames {frames} per batch ({dt:.1f}s)")


# --------------------------------------------------------------------------
# 7. End-to-end CNN on the 28x28 architecture
# --------------------------------------------------------------------------


def test_criterion_7_cnn_end_to_end():
    t0 = time.time()
    p = RingParams(32, 7, 12)
    rng = np.random.default_rng(77)
    net = ml.mnist_like_net(rng)
    images = rng.uniform(0, 1, size=(100, 1, 28, 28))
    expect = ml.nn_oracle(net, images, p)
    timings = {}
    for profile in (ml.LAN, ml.WAN):
        got_all = []
        online = 0.0
        for lo in range(0, 100, 20):
            batch = images[lo : lo + 20]
            m = ml.plan_nn_manifest(net, p, 20, profile, bytes(16))
            with dealt_sessions(m) as (s0, s1):
                t1 = time.time()
                _, got = run_parties(
                    lambda: ml.nn_infer(s0, net, None, 20, profile),
                    lambda: ml.nn_infer(s1, net.public(), batch, 20, profile),
                )
                online += time.time() - t1
            s0.assert_exhausted()
            s1.assert_exhausted()
            got_all.append(got)
        got_all = np.concatenate(got_all)
        assert np.array_equal(got_all, expect), profile
        per_image = online / 100
        assert per_image < 60, f"{profile}: {per_image:.2f}s per image"
        timings[profile] = per_image
    dt = time.time() - t0
    _ok(7, "100/100 class indices match the fixed-point oracle; online "
           f"per-image wall-clock lan={timings['lan'] * 1000:.0f} ms, "
           f"wan={timings['wan'] * 1000:.0f} ms (soft bound 60 s) ({dt:.1f}s)")


# --------------------------------------------------------------------------
# 8. Round-count invariants
# --------------------------------------------------------------------------


def test_criterion_8_round_counts():
    # rounds are flights, as each party's channel counts them
    t0 = time.time()
    # GMW flights == AND-level count on both sides, for a spread of circuits
    for circ in (cc.build_by_name("add", 16, "size"), cc.build_by_name("add", 16, "depth"),
                 cc.build_by_name("cmp", 32, "depth"), cc.build_by_name("relu", 32),
                 cc.build_by_name("bitand", 8)):
        in0 = np.zeros((5, len(circ.inputs0)), np.uint8)
        in1 = np.zeros((5, len(circ.inputs1)), np.uint8)
        _, flights, lc = _gmw_eval(circ, in0, in1)
        assert flights == (lc.depth, lc.depth), circ.name
    # GC online message and flight pattern is constant regardless of circuit size
    msgs = []
    for circ in (cc.build_by_name("add", 8, "size"), cc.build_by_name("add", 64, "depth")):
        c0, c1 = channel_pair()
        g, e = gc_sessions(c0, c1, len(circ.inputs1))
        run_parties(
            lambda: g.run_shares(circ, np.zeros((1, len(circ.inputs0)), np.uint8), 1,
                                 "evaluator"),
            lambda: e.run_shares(circ, np.zeros((1, len(circ.inputs1)), np.uint8), 1,
                                 "evaluator"),
        )
        msgs.append((c0.ledger.messages(direction="sent"),
                     c1.ledger.messages(direction="sent"), c0.flights, c1.flights))
        c0.close()
        c1.close()
    assert msgs[0] == msgs[1], msgs
    # each role's session flights independent of batch width: 1 vs 1000 ops
    for op in ("MULT", "AND"):
        flights = [run_bench(ops=(op,), n=n, width=32)[0].flights for n in (1, 1000)]
        assert flights[0] == flights[1], (op, flights)
    dt = time.time() - t0
    assert dt < 120, f"criterion 8 took {dt:.1f}s"
    _ok(8, f"GMW flights == AND levels on both sides; GC message and flight pattern "
           f"constant; 1 vs 1000 parallel ops use identical flights ({dt:.1f}s)")
