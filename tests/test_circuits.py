import hashlib

import numpy as np
import pytest

from hybrid2pc import circuits as cc
from hybrid2pc import ml, ring
from hybrid2pc.ring import RingParams


def to_bits(v, w):
    sh = np.arange(w, dtype=np.uint64)
    return ((np.atleast_1d(np.asarray(v, np.uint64))[:, None] >> sh) & np.uint64(1)).astype(np.uint8)


def signed(v, w):
    return ring.to_signed(np.asarray(v, np.uint64), RingParams(w))


ALL8 = np.arange(256, dtype=np.uint64)
A8 = np.repeat(ALL8, 256)
B8 = np.tile(ALL8, 256)
NONE8 = np.zeros((256, 0), np.uint8)


def test_parse_single_and_gate():
    c = cc.parse_circuit("W 5 IN0 2 IN1 3 OUT 4 CONST0 0 CONST1 1\nAND 2 3 4\n")
    assert len(c.inputs0) == 1 and len(c.inputs1) == 1 and len(c.outputs) == 1
    assert c.num_and == 1


def test_emit_parse_roundtrip():
    for circ in (cc.build_add(8, "size"), cc.build_cmp(16, "depth"), cc.build_counter(4)):
        text = cc.emit_circuit(circ)
        again = cc.parse_circuit(text)
        assert cc.emit_circuit(again) == text


def test_forward_reference_rejected():
    # gate reads a wire that is only driven later: cycle without register
    with pytest.raises(cc.CircuitError):
        cc.parse_circuit("W 6 IN0 2 IN1 3 OUT 4 CONST0 0 CONST1 1\nAND 2 5 4\nXOR 2 3 5\n")


def test_double_driven_wire_rejected():
    with pytest.raises(cc.CircuitError):
        cc.parse_circuit("W 5 IN0 2 IN1 3 OUT 4 CONST0 0 CONST1 1\nAND 2 3 4\nXOR 2 3 4\n")


def test_register_breaks_cycle():
    # q feeds the gate that drives d: legal only through a REG
    text = "W 4 IN0 IN1 OUT 3 CONST0 0 CONST1 1\nNOT 2 3\nREG 0 3 2\n"
    c = cc.parse_circuit(text)
    out = cc.simulate(c, np.zeros((1, 0), np.uint8), np.zeros((1, 0), np.uint8), cycles=2)
    assert out[0, 0] == 0  # 0 -> 1 -> 0


def test_levelize_no_and():
    c = cc.build_bitxor(8)
    assert cc.levelize(c).depth == 0


def test_levelize_ripple_vs_depth_opt():
    assert cc.levelize(cc.build_add(8, "size")).depth == 7
    assert cc.levelize(cc.build_add(8, "depth")).depth == 3


def test_levelize_independent_ands():
    c = cc.build_bitand(2)
    assert cc.levelize(c).depth == 1


def test_depth_opt_adder_bound():
    for w in (8, 16, 32, 64):
        d = cc.levelize(cc.build_add(w, "depth")).depth
        assert d <= int(np.ceil(np.log2(w))) + 2, (w, d)


@pytest.mark.parametrize("variant", ["size", "depth"])
def test_add_sub_exhaustive_8bit(variant):
    got = cc.simulate_words(cc.build_add(8, variant), A8, B8, 8)
    assert np.array_equal(got, (A8 + B8) & np.uint64(255))
    got = cc.simulate_words(cc.build_sub(8, variant), A8, B8, 8)
    assert np.array_equal(got, (A8 - B8) & np.uint64(255))


@pytest.mark.parametrize("variant", ["size", "depth"])
def test_cmp_exhaustive_8bit(variant):
    got = cc.simulate_words(cc.build_cmp(8, variant), A8, B8, 8)
    assert np.array_equal(got.astype(bool), signed(A8, 8) > signed(B8, 8))


def test_eq_exhaustive_8bit():
    got = cc.simulate_words(cc.build_eq(8), A8, B8, 8)
    assert np.array_equal(got.astype(bool), A8 == B8)


def test_mux_exhaustive_8bit():
    c = cc.build_mux(8)
    for sel in (0, 1):
        in1 = np.concatenate([to_bits(B8, 8), np.full((65536, 1), sel, np.uint8)], axis=1)
        out = cc.simulate(c, to_bits(A8, 8), in1)
        got = (out.astype(np.uint64) << np.arange(8, dtype=np.uint64)).sum(axis=1)
        assert np.array_equal(got, A8 if sel else B8)


def test_relu_exhaustive_8bit():
    got = cc.simulate_words(cc.build_relu(8), ALL8, NONE8, 8)
    s = signed(ALL8, 8)
    assert np.array_equal(got, np.where(s > 0, ALL8, 0))
    assert got[ring.from_signed(-1, RingParams(8))] == 0
    assert got[1] == 1


def test_relu_is_one_and_level():
    assert cc.levelize(cc.build_relu(64)).depth == 1


def test_shift_free_and_correct():
    for amount in (1, 4, 7):
        c = cc.build_shift(8, amount, arithmetic=True)
        assert c.num_gates == 0
        got = cc.simulate_words(c, ALL8, NONE8, 8)
        expect = ring.truncate(ALL8, RingParams(8), shift=amount)
        assert np.array_equal(got, expect)
    c = cc.build_shift(8, 3, arithmetic=False)
    got = cc.simulate_words(c, ALL8, NONE8, 8)
    assert np.array_equal(got, ALL8 >> np.uint64(3))


def test_argmax_tie_break():
    c = cc.build_argmax(4, 8)
    flat = sum(v << (8 * i) for i, v in enumerate([3, 9, 9, 1]))
    got = cc.simulate_words(c, np.array([flat], np.uint64), NONE8[:1], 8)
    assert got[0] == 1


def test_argmax_random_vs_numpy():
    rng = np.random.default_rng(11)
    n, w, trials = 7, 16, 2000
    c = cc.build_argmax(n, w, "depth")
    vals = rng.integers(0, 1 << w, size=(trials, n), dtype=np.uint64)
    bits = to_bits(vals.reshape(-1), w).reshape(trials, n * w)
    out = cc.simulate(c, bits, np.zeros((trials, 0), np.uint8))
    got = (out.astype(np.uint64) << np.arange(out.shape[1], dtype=np.uint64)).sum(axis=1)
    assert np.array_equal(got, np.argmax(signed(vals, w), axis=1).astype(np.uint64))


def test_max_tree_random():
    rng = np.random.default_rng(12)
    n, w, trials = 5, 16, 2000
    c = cc.build_max_tree(n, w)
    vals = rng.integers(0, 1 << w, size=(trials, n), dtype=np.uint64)
    bits = to_bits(vals.reshape(-1), w).reshape(trials, n * w)
    out = cc.simulate(c, bits, np.zeros((trials, 0), np.uint8))
    got = (out.astype(np.uint64) << np.arange(w, dtype=np.uint64)).sum(axis=1)
    expect = ring.from_signed(np.max(signed(vals, w), axis=1), RingParams(w))
    assert np.array_equal(got, expect)


def test_builders_random_32_64():
    rng = np.random.default_rng(13)
    n = 10**5
    for w in (32, 64):
        p = RingParams(w)
        a = rng.integers(0, p.modulus, size=n, dtype=np.uint64)
        b = rng.integers(0, p.modulus, size=n, dtype=np.uint64)
        for variant in ("size", "depth"):
            got = cc.simulate_words(cc.build_add(w, variant), a, b, w)
            assert np.array_equal(got, (a + b) & np.uint64(p.mask))
            got = cc.simulate_words(cc.build_sub(w, variant), a, b, w)
            assert np.array_equal(got, (a - b) & np.uint64(p.mask))
            got = cc.simulate_words(cc.build_cmp(w, variant), a, b, w)
            assert np.array_equal(got.astype(bool), signed(a, w) > signed(b, w))
        got = cc.simulate_words(cc.build_eq(w), a, b, w)
        assert np.array_equal(got.astype(bool), a == b)
        got = cc.simulate_words(cc.build_relu(w), a, np.zeros((n, 0)), w)
        assert np.array_equal(got, np.where(signed(a, w) > 0, a, 0))
        c = cc.build_mux(w)
        for sel in (0, 1):
            in1 = np.concatenate(
                [to_bits(b, w), np.full((n, 1), sel, np.uint8)], axis=1
            )
            out = cc.simulate(c, to_bits(a, w), in1)
            got = (out.astype(np.uint64) << np.arange(w, dtype=np.uint64)).sum(axis=1)
            assert np.array_equal(got, a if sel else b)


def test_counter_three_cycles():
    c = cc.build_counter(4)
    out = cc.simulate(c, np.zeros((1, 0), np.uint8), np.zeros((1, 0), np.uint8), cycles=3)
    assert (out[0].astype(int) * (1 << np.arange(4))).sum() == 3


def test_identity_wire():
    b = cc.Builder("ident")
    x = b.inputs(0, 4)
    b.outputs = x
    c = b.build()
    got = cc.simulate_words(c, np.arange(16, dtype=np.uint64), np.zeros((16, 0)), 4)
    assert np.array_equal(got, np.arange(16, dtype=np.uint64))


def test_and_const_one():
    bld = cc.Builder("t")
    x = bld.inputs(0, 1)
    assert bld.and_(x[0], cc.CONST1) == x[0]  # folded, no gate
    bld.outputs = [bld.and_(x[0], x[0])]
    assert bld.build().num_gates == 0


def test_sequential_unrolling_equivalence():
    # simulate(seq, cc cycles) == simulate(unrolled combinational, 1 cycle)
    w, cycles = 6, 4
    seq = cc.build_counter(w)
    b = cc.Builder("unrolled")
    state = [cc.CONST0] * w
    for _ in range(cycles):
        carry = cc.CONST1
        nxt = []
        for i in range(w):
            nxt.append(b.xor(state[i], carry))
            if i < w - 1:
                carry = b.and_(state[i], carry)
        state = nxt
    b.outputs = state
    unrolled = b.build()
    no_in = np.zeros((1, 0), np.uint8)
    assert np.array_equal(
        cc.simulate(seq, no_in, no_in, cycles=cycles),
        cc.simulate(unrolled, no_in, no_in),
    )


def test_build_by_name():
    assert cc.build_by_name("add", 8).num_and == cc.build_add(8).num_and
    with pytest.raises(cc.CircuitError):
        cc.build_by_name("nope", 8)


def test_width_zero_rejected():
    with pytest.raises(cc.CircuitError):
        cc.build_add(0)


def test_size_builders_use_one_and_per_full_adder():
    # Kolesnikov-Sadeghi-Schneider: w-1 ANDs per adder, w per comparator
    assert cc.build_add(32, "size").num_and == 31
    assert cc.build_sub(32, "size").num_and == 31
    assert cc.build_cmp(32, "size").num_and == 32
    assert [ml.stage_circuit(kind, 32, 12).num_and
            for kind in ("identity", "relu", "sign")] == [31, 62, 63]
    assert ml.stage_circuit("max", 32, 12, 4).num_and == 316
    assert ml.stage_circuit("argmax", 32, 12, 10).num_and == 875
    for w in (8, 16, 32):
        assert cc.levelize(cc.build_add(w, "size")).depth == w - 1


@pytest.mark.parametrize("circ", [
    cc.build_add(16, "size"), cc.build_sub(16, "depth"), cc.build_cmp(32, "size"),
    cc.build_argmax(5, 8, "depth"), cc.build_counter(5), cc.build_mux(8),
], ids=lambda c: c.name)
def test_spans_layer_the_schedule(circ):
    lc = cc.levelize(circ)
    one = circ.nwires  # the NOT-mask row
    assert len(lc.spans) == len(lc.schedule)
    for span, (locals_, ands) in zip(lc.spans, lc.schedule):
        # the layers hold exactly the span's local gates, NOT reading `one`
        order = np.concatenate([o for _, _, o in span.layers] + [np.zeros(0, np.intp)])
        assert sorted(order.tolist()) == sorted(circ.go[locals_].tolist())
        for g in locals_:
            k = next(i for i, (_, _, o) in enumerate(span.layers) if circ.go[g] in o)
            a, b, o = span.layers[k]
            j = o.tolist().index(circ.go[g])
            assert a[j] == circ.ga[g]
            assert b[j] == (one if circ.op[g] == cc.NOT else circ.gb[g])
        # no layer reads a wire written by itself or a later layer
        for k, (a, b, _) in enumerate(span.layers):
            later = set(np.concatenate([o for _, _, o in span.layers[k:]]).tolist())
            assert not later & (set(a.tolist()) | set(b.tolist()))
        assert np.array_equal(span.ands, ands)
        assert np.array_equal(span.and_out, circ.go[ands])


def test_levelized_is_computed_once():
    c = cc.build_cmp(16, "size")
    assert c.levelized is c.levelized
    assert c.levelized.depth == cc.levelize(c).depth == 16


def _pinned_netlists():
    """Every stage and library circuit the protocol runs, in a fixed order."""
    for w, shifts in ((8, (0, 3)), (32, (0, 12))):
        for shift in shifts:
            for kind, nvals in (("identity", 1), ("identity", 4), ("relu", 1),
                                ("sign", 1), ("max", 4), ("argmax", 10)):
                yield ml.stage_circuit(kind, w, shift, nvals)
        yield cc.build_relu(w)
        yield cc.build_max_tree(4, w, "depth")
        yield cc.build_argmax(10, w)
        yield cc.build_argmax(5, w, "depth")
        yield cc.build_shift(w, 3, arithmetic=True)
        yield cc.build_shift(w, 3, arithmetic=False)


# recorded before the stage bodies moved into circuits; a refactor of the
# builders must leave every netlist, and so this digest, as it is
PINNED_NETLISTS_SHA256 = "dfcfa2ee1f02d744558bf8396f423d233c292bdf4402c015a3f885cbe1fcab7e"


def test_stage_and_library_netlists_pinned():
    h = hashlib.sha256()
    for c in _pinned_netlists():
        h.update(cc.emit_circuit(c).encode())
    assert h.hexdigest() == PINNED_NETLISTS_SHA256


def _stage_words(c, x0, x1, w):
    """simulate() of a stage fed (n, nvals) share words by each role."""
    n = x0.shape[0]
    out = cc.simulate(c, to_bits(x0.reshape(-1), w).reshape(n, -1),
                      to_bits(x1.reshape(-1), w).reshape(n, -1))
    return out, (out.astype(np.uint64) << np.arange(out.shape[1], dtype=np.uint64)).sum(axis=1)


@pytest.mark.parametrize("shift", [0, 3])
def test_stages_exhaustive_8bit(shift):
    p = RingParams(8)
    x0, x1 = A8[:, None], B8[:, None]
    v = ring.truncate((A8 + B8) & np.uint64(p.mask), p, shift=shift)
    _, got = _stage_words(ml.stage_circuit("identity", 8, shift), x0, x1, 8)
    assert np.array_equal(got, v)
    _, got = _stage_words(ml.stage_circuit("relu", 8, shift), x0, x1, 8)
    assert np.array_equal(got, cc.simulate_words(cc.build_relu(8), v, np.zeros((len(v), 0)), 8))
    assert np.array_equal(got, np.where(signed(v, 8) > 0, v, 0))
    _, got = _stage_words(ml.stage_circuit("sign", 8, shift), x0, x1, 8)
    assert np.array_equal(got, (signed(v, 8) > 0).astype(np.uint64))


def test_max_and_argmax_stages_random_32bit():
    rng = np.random.default_rng(14)
    p, shift, trials = RingParams(32), 12, 500
    for kind, nvals, lib in (("max", 4, cc.build_max_tree(4, 32)),
                             ("argmax", 10, cc.build_argmax(10, 32))):
        x0 = rng.integers(0, p.modulus, size=(trials, nvals), dtype=np.uint64)
        x1 = rng.integers(0, p.modulus, size=(trials, nvals), dtype=np.uint64)
        v = ring.truncate((x0 + x1) & np.uint64(p.mask), p, shift=shift)
        out, got = _stage_words(ml.stage_circuit(kind, 32, shift, nvals), x0, x1, 32)
        ref = cc.simulate(lib, to_bits(v.reshape(-1), 32).reshape(trials, -1),
                          np.zeros((trials, 0), np.uint8))
        assert np.array_equal(out, ref), kind
        if kind == "max":
            expect = ring.from_signed(np.max(signed(v, 32), axis=1), p)
        else:
            expect = np.argmax(signed(v, 32), axis=1).astype(np.uint64)
        assert np.array_equal(got, expect), kind


def test_protocol_circuits_built_once():
    assert ml.stage_circuit("identity", 32, 12) is ml.stage_circuit("identity", 32, 12)
    assert cc.build_relu(32) is cc.build_relu(32)
    assert cc.build_max_tree(4, 32, cc.DEPTH) is cc.build_max_tree(4, 32, cc.DEPTH)
