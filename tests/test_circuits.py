import hashlib

import numpy as np
import pytest
from conftest import build_argmax, simulate_words

from hybrid2pc import circuits as cc
from hybrid2pc import cli, ml, ring
from hybrid2pc.ring import RingParams


def to_bits(v, w):
    sh = np.arange(w, dtype=np.uint64)
    return ((np.atleast_1d(np.asarray(v, np.uint64))[:, None] >> sh) & np.uint64(1)).astype(np.uint8)


def signed(v, w):
    """Two's-complement values of w-bit words, for any w in [1, 64]."""
    return (np.asarray(v, np.uint64) << np.uint64(64 - w)).view(np.int64) >> (64 - w)


ALL8 = np.arange(256, dtype=np.uint64)
A8 = np.repeat(ALL8, 256)
B8 = np.tile(ALL8, 256)
NONE8 = np.zeros((256, 0), np.uint8)


def build_shift(w, amount, arithmetic=True):
    """Right shift by a constant, the sign bit (arithmetic) or 0 filling
    the vacated bits: pure rewiring, zero gates."""
    b = cc.Builder(f"shr{w}_{amount}{'a' if arithmetic else 'l'}")
    x = b.inputs(0, w)
    fill = x[-1] if arithmetic else cc.CONST0
    b.outputs = [x[i + amount] if i + amount < w else fill for i in range(w)]
    return b.build()


def netlist(nwires, ins0, ins1, outs, *gates):
    """A Circuit from (op, a, b, o) gates, unvalidated."""
    op, ga, gb, go = zip(*gates)
    return cc.Circuit(nwires, ins0, ins1, outs, np.array(op, np.uint8), np.array(ga, np.int32),
                      np.array(gb, np.int32), np.array(go, np.int32))


def test_parse_single_and_gate():
    # the one-AND netlist other tests use, and its text export
    c = cc.build_by_name("bitand", 1)
    assert cc.emit_circuit(c) == "W 5 IN0 2 IN1 3 OUT 4 CONST0 0 CONST1 1\nAND 2 3 4\n"
    assert len(c.inputs0) == 1 and len(c.inputs1) == 1 and len(c.outputs) == 1
    assert c.num_and == 1


def test_forward_reference_rejected():
    # gate reads a wire that is only driven later
    with pytest.raises(cc.CircuitError, match="forward reference"):
        netlist(6, (2,), (3,), (4,), (cc.AND, 2, 5, 4), (cc.XOR, 2, 3, 5)).validate()


def test_double_driven_wire_rejected():
    with pytest.raises(cc.CircuitError, match="driven twice"):
        netlist(5, (2,), (3,), (4,), (cc.AND, 2, 3, 4), (cc.XOR, 2, 3, 4)).validate()


# Wires outside [0, nwires): simulate holds nwires rows and levelize one
# slot per wire, so a negative index would wrap silently onto another wire.
OUT_OF_RANGE = {
    "negative-gate-input": (6, (2,), (3,), (5,), (cc.XOR, 2, 3, 4), (cc.AND, 2, -3, 5)),
    "negative-output": (5, (2,), (3,), (-1,), (cc.AND, 2, 3, 4)),
    "negative-input": (5, (-2,), (3,), (4,), (cc.XOR, 3, 3, 4)),
    "gate-output-past-nwires": (5, (2,), (3,), (4,), (cc.AND, 2, 3, 4), (cc.NOT, 4, 4, 5)),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_wire_outside_range_rejected(case):
    with pytest.raises(cc.CircuitError, match="outside"):
        netlist(*OUT_OF_RANGE[case]).validate()


def test_levelize_no_and():
    c = cc.build_by_name("bitxor", 8)
    assert cc.levelize(c).depth == 0


def test_levelize_ripple_vs_depth_opt():
    assert cc.levelize(cc.build_by_name("add", 8, "size")).depth == 7
    assert cc.levelize(cc.build_by_name("add", 8, "depth")).depth == 3


def test_levelize_independent_ands():
    c = cc.build_by_name("bitand", 2)
    assert cc.levelize(c).depth == 1


def test_depth_opt_adder_bound():
    for w in (8, 16, 32, 64):
        d = cc.levelize(cc.build_by_name("add", w, "depth")).depth
        assert d <= int(np.ceil(np.log2(w))) + 2, (w, d)


# (ANDs, AND depth) of the depth adder and subtractor at w = 2..8: the
# Sklansky prefix reaches the ceil(log2 w) floor at every width
DEPTH_ADDER_COST = {2: (1, 1), 3: (3, 2), 4: (7, 2), 5: (9, 3), 6: (13, 3), 7: (17, 3),
                    8: (23, 3)}


@pytest.mark.parametrize("w", sorted(DEPTH_ADDER_COST))
def test_depth_adder_cost_at_narrow_widths(w):
    a, b = (x.ravel().astype(np.uint64) for x in np.meshgrid(np.arange(1 << w), np.arange(1 << w)))
    mask = np.uint64((1 << w) - 1)
    for name, want in (("add", (a + b) & mask), ("sub", (a - b) & mask)):
        c = cc.build_by_name(name, w, cc.DEPTH)
        assert (c.num_and, c.levelized.depth) == DEPTH_ADDER_COST[w], name
        assert np.array_equal(simulate_words(c, a, b), want), name


@pytest.mark.parametrize("variant", ["size", "depth"])
def test_add_sub_exhaustive_8bit(variant):
    got = simulate_words(cc.build_by_name("add", 8, variant), A8, B8)
    assert np.array_equal(got, (A8 + B8) & np.uint64(255))
    got = simulate_words(cc.build_by_name("sub", 8, variant), A8, B8)
    assert np.array_equal(got, (A8 - B8) & np.uint64(255))


@pytest.mark.parametrize("variant", ["size", "depth"])
def test_cmp_exhaustive_8bit(variant):
    got = simulate_words(cc.build_by_name("cmp", 8, variant), A8, B8)
    assert np.array_equal(got.astype(bool), signed(A8, 8) > signed(B8, 8))


def test_eq_exhaustive_8bit():
    got = simulate_words(cc.build_by_name("eq", 8), A8, B8)
    assert np.array_equal(got.astype(bool), A8 == B8)


def test_mux_exhaustive_8bit():
    c = cc.build_by_name("mux", 8)
    for sel in (0, 1):
        in1 = np.concatenate([to_bits(B8, 8), np.full((65536, 1), sel, np.uint8)], axis=1)
        out = cc.simulate(c, to_bits(A8, 8), in1)
        got = (out.astype(np.uint64) << np.arange(8, dtype=np.uint64)).sum(axis=1)
        assert np.array_equal(got, A8 if sel else B8)


def test_relu_exhaustive_8bit():
    got = simulate_words(cc.build_by_name("relu", 8), ALL8, NONE8)
    s = signed(ALL8, 8)
    assert np.array_equal(got, np.where(s > 0, ALL8, 0))
    assert got[ring.from_signed(-1, RingParams(8))] == 0
    assert got[1] == 1


def test_relu_is_one_and_level():
    assert cc.levelize(cc.build_by_name("relu", 64)).depth == 1


def test_shift_free_and_correct():
    for amount in (1, 4, 7):
        c = build_shift(8, amount, arithmetic=True)
        assert c.num_gates == 0
        got = simulate_words(c, ALL8, NONE8)
        expect = ring.truncate(ALL8, RingParams(8), shift=amount)
        assert np.array_equal(got, expect)
    c = build_shift(8, 3, arithmetic=False)
    got = simulate_words(c, ALL8, NONE8)
    assert np.array_equal(got, ALL8 >> np.uint64(3))


def test_argmax_tie_break():
    c = build_argmax(4, 8)
    flat = sum(v << (8 * i) for i, v in enumerate([3, 9, 9, 1]))
    got = simulate_words(c, np.array([flat], np.uint64), NONE8[:1])
    assert got[0] == 1


# at w = 2 most rows tie for the maximum, and an odd n carries a node up
# unmerged at some level of the tree
@pytest.mark.parametrize("w", [2, 16])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 10])
def test_argmax_random_vs_numpy(n, w):
    rng = np.random.default_rng(11)
    trials = 2000
    c = build_argmax(n, w, "depth")
    assert len(c.outputs) == max(1, (n - 1).bit_length())
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
            got = simulate_words(cc.build_by_name("add", w, variant), a, b)
            assert np.array_equal(got, (a + b) & np.uint64(p.mask))
            got = simulate_words(cc.build_by_name("sub", w, variant), a, b)
            assert np.array_equal(got, (a - b) & np.uint64(p.mask))
            got = simulate_words(cc.build_by_name("cmp", w, variant), a, b)
            assert np.array_equal(got.astype(bool), signed(a, w) > signed(b, w))
        got = simulate_words(cc.build_by_name("eq", w), a, b)
        assert np.array_equal(got.astype(bool), a == b)
        got = simulate_words(cc.build_by_name("relu", w), a, np.zeros((n, 0)))
        assert np.array_equal(got, np.where(signed(a, w) > 0, a, 0))
        c = cc.build_by_name("mux", w)
        for sel in (0, 1):
            in1 = np.concatenate(
                [to_bits(b, w), np.full((n, 1), sel, np.uint8)], axis=1
            )
            out = cc.simulate(c, to_bits(a, w), in1)
            got = (out.astype(np.uint64) << np.arange(w, dtype=np.uint64)).sum(axis=1)
            assert np.array_equal(got, a if sel else b)


def test_identity_wire():
    b = cc.Builder("ident")
    x = b.inputs(0, 4)
    b.outputs = x
    c = b.build()
    got = simulate_words(c, np.arange(16, dtype=np.uint64), np.zeros((16, 0)))
    assert np.array_equal(got, np.arange(16, dtype=np.uint64))


def test_and_const_one():
    bld = cc.Builder("t")
    x = bld.inputs(0, 1)
    assert bld.and_(x[0], cc.CONST1) == x[0]  # folded, no gate
    bld.outputs = [bld.and_(x[0], x[0])]
    assert bld.build().num_gates == 0


def test_build_by_name():
    assert cc.build_by_name("add", 8).num_and == 7  # SIZE by default
    with pytest.raises(cc.CircuitError):
        cc.build_by_name("nope", 8)
    with pytest.raises(cc.CircuitError, match="unknown variant"):
        cc.build_by_name("add", 8, "fast")
    # only add, sub and cmp have a netlist per variant, named after it; the
    # other names are one cached netlist for both
    for name in sorted(cc._LIBRARY):
        for w in (8, 32):
            size, depth = (cc.build_by_name(name, w, v) for v in (cc.SIZE, cc.DEPTH))
            if name in ("add", "sub", "cmp"):
                assert (size.name, depth.name) == (f"{name}{w}_size", f"{name}{w}_depth")
            else:
                assert size is depth and size.name == f"{name}{w}", name


def test_width_zero_rejected():
    with pytest.raises(cc.CircuitError):
        cc.build_by_name("add", 0)


def test_size_builders_use_one_and_per_full_adder():
    # Kolesnikov-Sadeghi-Schneider: w-1 ANDs per adder, w per comparator
    assert cc.build_by_name("add", 32, "size").num_and == 31
    assert cc.build_by_name("sub", 32, "size").num_and == 31
    assert cc.build_by_name("cmp", 32, "size").num_and == 32
    # after a shift by 12 the 31-AND share adder feeds bodies 20 bits wide
    assert [ml.stage_circuit(kind, 32, 12).num_and
            for kind in ("identity", "relu", "sign")] == [31, 50, 51]
    assert ml.stage_circuit("max", 32, 12, 4).num_and == 244
    # one compare-and-select tree: a chain of nine compares would be 201
    # AND levels deep
    argmax = ml.stage_circuit("argmax", 32, 12, 10)
    assert (argmax.num_and, argmax.levelized.depth) == (657, 96)
    # the GMW bodies at that width
    assert cc.build_by_name("relu", 20).num_and == 19
    tree = cc.build_max_tree(4, 20, "depth")
    assert (tree.num_and, tree.levelized.depth) == (222, 12)
    for w in (8, 16, 32):
        assert cc.levelize(cc.build_by_name("add", w, "size")).depth == w - 1


def _walk_slots(circ):
    """Walks circ's levelized steps on which wire each slot holds, as
    run_spans runs them: every read must find its own wire in its slot, a
    NOT reading CONST1, and every slot must be one of nslots. The layers
    of a span are its local gates by first layer after the local gates
    they read, each in gate order. Returns the wires the output slots hold
    at the end."""
    lc = circ.levelized
    ins = (*lc.in0_slots.tolist(), *lc.in1_slots.tolist())
    assert len({cc.CONST0, cc.CONST1, *ins}) == 2 + len(ins)  # inputs and constants apart
    holds = dict(zip((cc.CONST0, cc.CONST1, *ins), (cc.CONST0, cc.CONST1, *circ.inputs0,
                                                    *circ.inputs1)))
    b_of = np.where(circ.op == cc.NOT, cc.CONST1, circ.gb)
    assert len(lc.spans) == len(lc.schedule)
    for span, (locals_, ands) in zip(lc.spans, lc.schedule):
        layer = {}  # wire -> its layer in this span
        for g in locals_:
            layer[circ.go[g]] = 1 + max(layer.get(circ.ga[g], 0), layer.get(b_of[g], 0))
        groups = [[g for g in locals_ if layer[circ.go[g]] == k]
                  for k in range(1, max(layer.values(), default=0) + 1)]
        assert len(span.layers) == len(groups)
        assert np.array_equal(span.ands, ands)
        steps = [*zip(span.layers, groups), ((span.and_a, span.and_b, span.and_out), ands)]
        for (a, b, o), gates in steps:
            gates = np.asarray(gates, np.intp)
            assert len(a) == len(b) == len(o) == len(gates)
            assert max((*a, *b, *o), default=0) < lc.nslots
            assert [holds[s] for s in a.tolist()] == circ.ga[gates].tolist()
            assert [holds[s] for s in b.tolist()] == b_of[gates].tolist()
            assert len(set(o.tolist())) == len(o)  # one slot per output of the step
            holds.update(zip(o.tolist(), circ.go[gates].tolist()))
    return [holds[s] for s in lc.out_slots.tolist()]


@pytest.mark.parametrize("circ", [
    cc.build_by_name("add", 16, "size"), cc.build_by_name("sub", 16, "depth"), cc.build_by_name("cmp", 32, "size"),
    build_argmax(5, 8, "depth"), cc.build_by_name("mux", 8),
], ids=lambda c: c.name)
def test_spans_layer_the_schedule(circ):
    # the spans' layers and AND levels run exactly the schedule's gates,
    # each reading its own wires from their slots and none a wire written
    # by its own or a later layer; the outputs end in their slots
    assert _walk_slots(circ) == list(circ.outputs)
    assert circ.levelized.nslots < circ.nwires


def test_slots_hold_their_wires_in_every_netlist():
    # every library netlist and every stage circuit the protocol runs
    library = [cc.build_by_name(name, w, variant) for name in sorted(cc._LIBRARY)
               for w in (8, 32) for variant in (cc.SIZE, cc.DEPTH)]
    for circ in [*library, *_pinned_netlists()]:
        assert _walk_slots(circ) == list(circ.outputs), circ.name


# slots by liveness against wires, for the stages at w 32 and shift 12:
# each of the first three stages never holds more rows than its inputs
# and the two constants
STAGE_SLOTS = {("identity", 1): (227, 66), ("relu", 1): (247, 66), ("sign", 1): (269, 66),
               ("max", 4): (1391, 258), ("argmax", 10): (3678, 642)}


@pytest.mark.parametrize("kind,nvals", list(STAGE_SLOTS))
def test_stage_slots_pinned(kind, nvals):
    circ = ml.stage_circuit(kind, 32, 12, nvals)
    assert (circ.nwires, circ.levelized.nslots) == STAGE_SLOTS[(kind, nvals)]


def test_levelized_is_computed_once():
    c = cc.build_by_name("cmp", 16, "size")
    assert c.levelized is c.levelized
    assert c.levelized.depth == cc.levelize(c).depth == 16


def _pinned_netlists(narrow: bool = True):
    """Every stage and library circuit the protocol runs, in a fixed order;
    only the shift-0 stages and the library when narrow is False."""
    for w, shifts in ((8, (0, 3)), (32, (0, 12))):
        for shift in shifts if narrow else (0,):
            for kind, nvals in (("identity", 1), ("identity", 4), ("relu", 1),
                                ("sign", 1), ("max", 4), ("argmax", 10)):
                yield ml.stage_circuit(kind, w, shift, nvals)
        yield cc.build_by_name("relu", w)
        yield cc.build_max_tree(4, w, "depth")
        yield build_argmax(10, w)
        yield build_argmax(5, w, "depth")
        yield build_shift(w, 3, arithmetic=True)
        yield build_shift(w, 3, arithmetic=False)


def _digest(netlists) -> str:
    h = hashlib.sha256()
    for c in netlists:
        h.update(cc.emit_circuit(c).encode())
    return h.hexdigest()


# re-recorded when the stages after a shift became narrow; a refactor of
# the builders must leave every netlist, and so this digest, as it is;
# re-recorded again when argmax became max's compare-and-select tree, every
# netlist but the max and argmax ones unchanged
PINNED_NETLISTS_SHA256 = "c2b8e05c50452affcfe269c77a9082e7b420fa5927f1fb8ee4ecfc2e83b6e67f"
# recorded before the stages became narrow: narrowing touches no shift-0
# stage and no library circuit; re-recorded with the tree as above
SHIFT0_NETLISTS_SHA256 = "430e4209483e89a6722f240efe206f1284eb416bf86ad197e0001d8b4a29b062"


# recorded before the netlist text reader was removed: every library
# builder, at widths 8 and 32 and in both variants, exports as it did;
# re-recorded when the depth adder at w <= 8 became the Sklansky prefix,
# every netlist but add8 and sub8 in the depth variant unchanged
LIBRARY_EXPORT_SHA256 = "04eba5412a3e2d983b14a07d92f5f0470b1124dc4712fbb24ce276e9bf01bf85"


def test_library_export_pinned(capsys):
    h = hashlib.sha256()
    for name in sorted(cc._LIBRARY):
        for w in (8, 32):
            for variant in (cc.SIZE, cc.DEPTH):
                h.update(cc.emit_circuit(cc.build_by_name(name, w, variant)).encode())
    assert h.hexdigest() == LIBRARY_EXPORT_SHA256
    assert cli.main(["circuit", "--name", "cmp", "--width", "8", "--variant", "depth"]) == 0
    assert capsys.readouterr().out == cc.emit_circuit(cc.build_by_name("cmp", 8, cc.DEPTH))


def test_stage_and_library_netlists_pinned():
    assert _digest(_pinned_netlists()) == PINNED_NETLISTS_SHA256


def test_shift0_stage_and_library_netlists_unchanged():
    assert _digest(_pinned_netlists(narrow=False)) == SHIFT0_NETLISTS_SHA256


def _stage_words(c, x0, x1, w):
    """simulate() of a stage fed (n, nvals) share words by each role."""
    n = x0.shape[0]
    out = cc.simulate(c, to_bits(x0.reshape(-1), w).reshape(n, -1),
                      to_bits(x1.reshape(-1), w).reshape(n, -1))
    return out, (out.astype(np.uint64) << np.arange(out.shape[1], dtype=np.uint64)).sum(axis=1)


@pytest.mark.parametrize("shift", [0, 3])
def test_stages_exhaustive_8bit(shift):
    # each stage outputs the w = 8 - shift low bits of the truncated sum v;
    # the 8 - w bits above them only repeat bit w - 1
    p, w = RingParams(8), 8 - shift
    x0, x1 = A8[:, None], B8[:, None]
    v = ring.truncate((A8 + B8) & np.uint64(p.mask), p, shift=shift)
    low = v & np.uint64((1 << w) - 1)
    sign = (low >> np.uint64(w - 1)) & np.uint64(1)
    assert np.array_equal(v, low | sign * np.uint64((0xFF << w) & 0xFF))
    _, got = _stage_words(ml.stage_circuit("identity", 8, shift), x0, x1, 8)
    assert np.array_equal(got, low)
    out, got = _stage_words(ml.stage_circuit("relu", 8, shift), x0, x1, 8)
    assert out.shape[1] == w and not out[:, -1].any()  # the sign bit is 0
    assert np.array_equal(got, simulate_words(cc.build_by_name("relu", w), low, np.zeros((len(v), 0))))
    assert np.array_equal(got, np.where(signed(v, 8) > 0, v, 0))
    _, got = _stage_words(ml.stage_circuit("sign", 8, shift), x0, x1, 8)
    assert np.array_equal(got, (signed(v, 8) > 0).astype(np.uint64))


def test_max_and_argmax_stages_random_32bit():
    # the narrow stages equal the library circuits at width w = 20 on the
    # truncated values' low bits, and numpy on the values themselves
    rng = np.random.default_rng(14)
    p, shift, trials = RingParams(32), 12, 500
    w = p.l - shift
    for kind, nvals, lib in (("max", 4, cc.build_max_tree(4, w)),
                             ("argmax", 10, build_argmax(10, w))):
        x0 = rng.integers(0, p.modulus, size=(trials, nvals), dtype=np.uint64)
        x1 = rng.integers(0, p.modulus, size=(trials, nvals), dtype=np.uint64)
        v = ring.truncate((x0 + x1) & np.uint64(p.mask), p, shift=shift)
        low = v & np.uint64((1 << w) - 1)
        out, got = _stage_words(ml.stage_circuit(kind, 32, shift, nvals), x0, x1, 32)
        ref = cc.simulate(lib, to_bits(low.reshape(-1), w).reshape(trials, -1),
                          np.zeros((trials, 0), np.uint8))
        assert np.array_equal(out, ref), kind
        if kind == "max":
            expect = ring.from_signed(np.max(signed(v, 32), axis=1), p)
            assert np.array_equal(ring.from_signed(signed(got, w), p), expect)
        else:
            expect = np.argmax(signed(v, 32), axis=1).astype(np.uint64)
            assert np.array_equal(got, expect), kind
    # a shift of 6 leaves 2-bit bodies at ring width 8: most rows tie
    p, shift = RingParams(8), 6
    for nvals in (7, 10):
        x0 = rng.integers(0, p.modulus, size=(trials, nvals), dtype=np.uint64)
        x1 = rng.integers(0, p.modulus, size=(trials, nvals), dtype=np.uint64)
        v = signed(ring.truncate((x0 + x1) & np.uint64(p.mask), p, shift=shift), 8)
        assert ((v == v.max(axis=1, keepdims=True)).sum(axis=1) > 1).mean() > 0.5
        _, got = _stage_words(ml.stage_circuit("argmax", 8, shift, nvals), x0, x1, 8)
        assert np.array_equal(got, np.argmax(v, axis=1).astype(np.uint64)), nvals


def test_protocol_circuits_built_once():
    assert ml.stage_circuit("identity", 32, 12) is ml.stage_circuit("identity", 32, 12)
    # every spelling of one stage shares one cache entry
    before = cc._stage_circuit.cache_info().currsize
    sign = cc.stage_circuit("sign", 13, 2)
    assert sign is cc.stage_circuit("sign", 13, 2, 1)
    assert sign is cc.stage_circuit(kind="sign", w=np.int64(13), shift=2, nvals=1)
    assert cc._stage_circuit.cache_info().currsize == before + 1
    assert cc.build_by_name("relu", 32) is cc.build_by_name("relu", 32)
    assert cc.build_max_tree(4, 32, cc.DEPTH) is cc.build_max_tree(4, 32, cc.DEPTH)
    # relu has one netlist for both variants; defaults and numpy ints
    # spell the same key
    relu = cc.build_by_name("relu", 32)
    assert relu is cc.build_by_name("relu", 32, cc.SIZE) is cc.build_by_name("relu", 32, cc.DEPTH)
    assert relu is cc.build_by_name("relu", np.int64(32))
    tree = cc.build_max_tree(4, 32)
    assert tree is cc.build_max_tree(4, 32, cc.SIZE) is cc.build_max_tree(np.int64(4), 32)
