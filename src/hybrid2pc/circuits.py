"""Boolean circuits: representation, builder library, levelization, text export.

Circuits are netlists of two-input XOR/AND gates plus free NOT, listed in
topological order over wires. Wire 0 is constant 0 and wire 1 constant 1;
the builder folds constants so gates never read the constant wires (they
may still appear as outputs, e.g. the forced-zero sign bit of ReLU).
Every netlist is combinational: one pass computes its outputs, and the
instance axis carries a batch.

Two build styles exist where it matters: "size" (ripple structures, the
fewest ANDs, used under garbling where only AND count is paid) and
"depth" (parallel-prefix structures minimising AND depth, used under GMW
where every AND level costs a round). The "size" adders chain 1-AND full
adders, carry c' = c ^ ((a ^ c) & (b ^ c)) and sum a ^ b ^ c
(Kolesnikov-Sadeghi-Schneider, CANS 2009): at w bits, add and sub take
w-1 ANDs and the signed compare w, at AND depth w-1 and w.

stage_circuit() compiles the protocol's garbled stages: per-value share
adders, a free fixed-point shift, then a stage body (relu, max, argmax,
sign), each body a Builder word method that the library builders share.
The max and argmax bodies are the two results of one compare-and-select
tree, max_word; its levels, and carry_out's in the depth variant, are
_tree's, the one pairwise reduction.
After a shift by s the body runs on the l - s low bits of the shifted
value only, since its top s bits would be copies of its sign.
It, build_relu and build_max_tree (the GMW stages) are cached per
process with functools.cache, keyed on normalised arguments,
so each stage netlist is built, and levelized through Circuit.levelized,
once however its arguments are spelled.

levelize() turns a netlist into a schedule of local spans and AND levels,
each span further split into layers of independent XOR and NOT gates;
Circuit.levelized computes it once per circuit object. run_spans(), the
one interpreter, owns the wire array and the public 1 in CONST1 that NOT
reads, and walks the schedule with one vectorised XOR per layer and a
callback per AND level. GMW, garbling and evaluation all run on it, while
simulate() keeps a plain per-gate loop as the reference.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

XOR, AND, NOT = 0, 1, 2
_OPNAMES = {XOR: "XOR", AND: "AND", NOT: "NOT"}

CONST0, CONST1 = 0, 1

SIZE, DEPTH = "size", "depth"


class CircuitError(ValueError):
    pass


@dataclass
class Circuit:
    nwires: int
    inputs0: tuple[int, ...]
    inputs1: tuple[int, ...]
    outputs: tuple[int, ...]
    op: np.ndarray  # uint8 gate opcodes
    ga: np.ndarray  # int32 first input wire
    gb: np.ndarray  # int32 second input wire (== ga for NOT)
    go: np.ndarray  # int32 output wire
    name: str = ""
    # not a field: netlists hold no state, but perfbench's Probe reads
    # len(c.registers)
    registers = ()
    _levelized: "LevelizedCircuit | None" = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def levelized(self) -> "LevelizedCircuit":
        """levelize(self), computed on first use and kept with the circuit.

        Threads that race on the first use each levelize; the results are
        equal, so whichever is kept serves all.
        """
        if self._levelized is None:
            self._levelized = levelize(self)
        return self._levelized

    @property
    def num_gates(self) -> int:
        return len(self.op)

    @property
    def num_and(self) -> int:
        return int((self.op == AND).sum())

    def validate(self):
        if self.nwires < 2:
            raise CircuitError(f"{self.nwires} wires leave no room for the two constants")
        wires = np.concatenate([np.array(self.inputs0 + self.inputs1 + self.outputs, np.int64),
                                self.ga, self.gb, self.go])
        outside = wires[(wires < 0) | (wires >= self.nwires)]
        if outside.size:
            raise CircuitError(f"wire {outside[0]} outside [0, {self.nwires})")
        defined = np.zeros(self.nwires, dtype=bool)
        defined[[CONST0, CONST1]] = True
        for w in itertools.chain(self.inputs0, self.inputs1):
            if defined[w]:
                raise CircuitError(f"wire {w} driven twice (input)")
            defined[w] = True
        for i in range(self.num_gates):
            a, b, o = int(self.ga[i]), int(self.gb[i]), int(self.go[i])
            if self.op[i] not in _OPNAMES:
                raise CircuitError(f"unknown gate opcode {self.op[i]}")
            ins = (a,) if self.op[i] == NOT else (a, b)
            for w in ins:
                if not defined[w]:
                    raise CircuitError(
                        f"gate {i} reads undefined wire {w}: forward reference"
                    )
                if w in (CONST0, CONST1):
                    raise CircuitError(f"gate {i} reads a constant wire")
            if defined[o]:
                raise CircuitError(f"wire {o} driven twice (gate {i})")
            defined[o] = True
        for w in self.outputs:
            if not defined[w]:
                raise CircuitError(f"output wire {w} never driven")
        return self


class Span(NamedTuple):
    """One step of a levelized schedule, as wire-index arrays.

    layers: (a, b, out) per layer of mutually independent XOR and NOT
    gates, run in order. A NOT gate reads b = CONST1, the public 1.
    ands: gate indices of the AND level that follows; and_a, and_b,
    and_out: their wires.
    """

    layers: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    ands: np.ndarray
    and_a: np.ndarray
    and_b: np.ndarray
    and_out: np.ndarray


@dataclass
class LevelizedCircuit:
    """Execution schedule: alternating local spans and AND levels.

    schedule is a list of (local_gate_idx, and_gate_idx) pairs; running
    them in order satisfies all dependencies. depth == number of AND
    levels == count of non-empty and batches. spans holds the same steps
    split into layers of independent gates for run_spans.
    """

    circuit: Circuit
    schedule: list[tuple[np.ndarray, np.ndarray]]
    spans: list[Span]

    @property
    def depth(self) -> int:
        return sum(1 for _, ands in self.schedule if len(ands))

    @property
    def num_and(self) -> int:
        return self.circuit.num_and


def levelize(c: Circuit) -> LevelizedCircuit:
    """Minimal AND-level assignment by longest path over AND dependencies.

    Within a level, each XOR or NOT gate goes to the first layer after
    the local gates of that level it reads.
    """
    op, ga, gb, go = c.op.tolist(), c.ga.tolist(), c.gb.tolist(), c.go.tolist()
    wire_level = [0] * c.nwires
    wire_layer = [0] * c.nwires  # local layer within its level, 0 for sources
    gate_level = [0] * len(op)
    gate_layer = [0] * len(op)
    for i, kind in enumerate(op):
        a, b = ga[i], (ga[i] if kind == NOT else gb[i])
        la, lb = wire_level[a], wire_level[b]
        if kind == AND:
            lvl, layer = max(la, lb) + 1, 0
        else:
            lvl = max(la, lb)
            layer = 1 + max(wire_layer[a] if la == lvl else 0,
                            wire_layer[b] if lb == lvl else 0)
        gate_level[i] = wire_level[go[i]] = lvl
        gate_layer[i] = wire_layer[go[i]] = layer
    gate_level = np.array(gate_level, dtype=np.int32)
    gate_layer = np.array(gate_layer, dtype=np.int32)
    gin_a = c.ga.astype(np.intp)
    gin_b = np.where(c.op == NOT, CONST1, c.gb).astype(np.intp)
    gout = c.go.astype(np.intp)
    max_lvl = int(gate_level.max(initial=0))
    schedule, spans = [], []
    is_and = c.op == AND
    idx = np.arange(c.num_gates)
    for lvl in range(max_lvl + 1):
        at = gate_level == lvl
        locals_ = idx[at & ~is_and]
        ands = idx[(gate_level == lvl + 1) & is_and] if lvl < max_lvl else idx[:0]
        schedule.append((locals_, ands))
        layer_of = gate_layer[locals_]
        layers = []
        for k in range(1, int(layer_of.max(initial=0)) + 1):
            g = locals_[layer_of == k]
            layers.append((gin_a[g], gin_b[g], gout[g]))
        spans.append(Span(tuple(layers), ands, gin_a[ands], gin_b[ands], gout[ands]))
    return LevelizedCircuit(c, schedule, spans)


def run_spans(lc: LevelizedCircuit, one, in0, in1, and_level) -> np.ndarray:
    """One pass of lc over in0 and in1, one row per wire of inputs0 and of
    inputs1; returns the output rows. CONST1 holds one, the interpreter's
    public 1: R for the garbler, 0 for the evaluator, 1 at GMW role 0 and 0
    at role 1. Every local layer is one XOR over the wire axis, NOT one with
    CONST1. Each AND level calls and_level(span, a_vals, b_vals) for the
    output values.
    """
    c = lc.circuit
    vals = np.zeros((c.nwires, *in0.shape[1:]), in0.dtype)
    vals[CONST1] = one
    vals[list(c.inputs0)] = in0
    vals[list(c.inputs1)] = in1
    for span in lc.spans:
        for a, b, o in span.layers:
            vals[o] = vals[a] ^ vals[b]
        if len(span.ands):
            vals[span.and_out] = and_level(span, vals[span.and_a], vals[span.and_b])
    return vals[list(c.outputs)]


class Builder:
    """Constructs circuits with constant folding and wire aliasing."""

    def __init__(self, name: str = ""):
        self.name = name
        self._next = 2
        self._ops: list[int] = []
        self._ga: list[int] = []
        self._gb: list[int] = []
        self._go: list[int] = []
        self.inputs0: list[int] = []
        self.inputs1: list[int] = []
        self.outputs: list[int] = []
        # AND-depth per wire, kept up to date so and_tree can pair the
        # shallowest nodes first
        self._level = {CONST0: 0, CONST1: 0}

    def _wire(self) -> int:
        w = self._next
        self._next += 1
        self._level[w] = 0
        return w

    def inputs(self, party: int, width: int) -> list[int]:
        ws = [self._wire() for _ in range(width)]
        (self.inputs0 if party == 0 else self.inputs1).extend(ws)
        return ws

    def _emit(self, op: int, a: int, b: int) -> int:
        o = self._wire()
        self._ops.append(op)
        self._ga.append(a)
        self._gb.append(b)
        self._go.append(o)
        lvl = max(self._level[a], self._level[b])
        self._level[o] = lvl + 1 if op == AND else lvl
        return o

    def xor(self, a: int, b: int) -> int:
        if a == b:
            return CONST0
        if a == CONST0:
            return b
        if b == CONST0:
            return a
        if a == CONST1:
            return self.not_(b)
        if b == CONST1:
            return self.not_(a)
        return self._emit(XOR, a, b)

    def and_(self, a: int, b: int) -> int:
        if a == CONST0 or b == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1:
            return a
        if a == b:
            return a
        return self._emit(AND, a, b)

    def not_(self, a: int) -> int:
        if a == CONST0:
            return CONST1
        if a == CONST1:
            return CONST0
        return self._emit(NOT, a, a)

    def build(self) -> Circuit:
        """Finalise: drop dead gates, renumber wires densely, validate."""
        live = set(self.outputs)
        keep = []
        for i in range(len(self._ops) - 1, -1, -1):
            if self._go[i] in live:
                keep.append(i)
                live.add(self._ga[i])
                live.add(self._gb[i])
        keep.reverse()
        remap = {CONST0: 0, CONST1: 1}
        for w in itertools.chain(self.inputs0, self.inputs1):
            remap[w] = len(remap)
        for i in keep:
            remap[self._go[i]] = len(remap)
        c = Circuit(
            nwires=len(remap),
            inputs0=tuple(remap[w] for w in self.inputs0),
            inputs1=tuple(remap[w] for w in self.inputs1),
            outputs=tuple(remap[w] for w in self.outputs),
            op=np.array([self._ops[i] for i in keep], dtype=np.uint8),
            ga=np.array([remap[self._ga[i]] for i in keep], dtype=np.int32),
            gb=np.array([remap[self._gb[i]] for i in keep], dtype=np.int32),
            go=np.array([remap[self._go[i]] for i in keep], dtype=np.int32),
            name=self.name,
        )
        return c.validate()

    # word helpers (little-endian bit vectors)

    def xor_word(self, a, b):
        return [self.xor(x, y) for x, y in zip(a, b)]

    def not_word(self, a):
        return [self.not_(x) for x in a]

    def and_tree(self, nodes: list[int]) -> int:
        """Conjunction via a depth-minimising tree over mixed-depth nodes."""
        if not nodes:
            return CONST1
        # always combine the two shallowest nodes first
        heap = [(self._level[w], i, w) for i, w in enumerate(nodes)]
        heapq.heapify(heap)
        counter = len(nodes)
        while len(heap) > 1:
            _, _, w1 = heapq.heappop(heap)
            _, _, w2 = heapq.heappop(heap)
            w = self.and_(w1, w2)
            counter += 1
            heapq.heappush(heap, (self._level[w], counter, w))
        return heap[0][2]

    def full_carry(self, a: int, b: int, c: int) -> int:
        """Carry out of the bit sum a + b + c with one AND:
        c ^ ((a ^ c) & (b ^ c))."""
        return self.xor(c, self.and_(self.xor(a, c), self.xor(b, c)))

    def adder_word(self, a, b, cin: int = CONST0, variant: str = SIZE):
        """Sum bits of a + b + cin modulo 2^w.

        SIZE: a ripple of 1-AND full adders (Kolesnikov-Sadeghi-Schneider,
        CANS 2009), sum = a ^ b ^ c and carry by full_carry. That is w-1
        ANDs at AND depth w-1. DEPTH: a Sklansky parallel prefix over
        generate and propagate bits, ceil(log2 w) AND levels.
        """
        w = len(a)
        if variant == SIZE:
            out, c = [], cin
            for i in range(w):
                out.append(self.xor(self.xor(a[i], c), b[i]))
                if i < w - 1:
                    c = self.full_carry(a[i], b[i], c)
            return out
        p = [self.xor(a[i], b[i]) for i in range(w)]
        g = [self.and_(a[i], b[i]) for i in range(w)]
        # the carry-in is an extra (cin, 0) leaf of the prefix
        gg = [cin] + g[: w - 1]
        pp = [CONST0] + p[: w - 1]
        n = len(gg)
        dist = 1
        while dist < n:
            for i in range(n):
                if (i // dist) % 2 == 1:
                    j = (i // dist) * dist - 1
                    gg_i = self.xor(gg[i], self.and_(pp[i], gg[j]))
                    pp_i = self.and_(pp[i], pp[j])
                    gg[i], pp[i] = gg_i, pp_i
            dist *= 2
        carries = gg  # carries[i] = carry into bit i
        return [self.xor(p[i], carries[i]) for i in range(w)]

    def carry_out(self, a, b, cin: int, variant: str = SIZE) -> int:
        """Carry out of a + b + cin over the full width.

        SIZE: w chained full_carry steps, w ANDs at AND depth w. DEPTH: a
        _tree of (generate, propagate) block merges.
        """
        w = len(a)
        if variant == SIZE:
            c = cin
            for i in range(w):
                c = self.full_carry(a[i], b[i], c)
            return c
        p = [self.xor(a[i], b[i]) for i in range(w)]
        g = [self.and_(a[i], b[i]) for i in range(w)]
        nodes = ([(cin, CONST0)] if cin != CONST0 else []) + list(zip(g, p))

        def merge(lo, hi):  # (generate, propagate) of the block hi:lo
            return self.xor(hi[0], self.and_(hi[1], lo[0])), self.and_(hi[1], lo[1])

        return _tree(nodes, merge)[0]

    def unsigned_gt(self, a, b, variant: str = SIZE) -> int:
        # a > b  <=>  not carry_out(b + ~a + 1)
        return self.not_(self.carry_out(b, self.not_word(a), CONST1, variant))

    def signed_gt(self, a, b, variant: str = SIZE) -> int:
        # flip sign bits, compare unsigned
        a2 = list(a[:-1]) + [self.not_(a[-1])]
        b2 = list(b[:-1]) + [self.not_(b[-1])]
        return self.unsigned_gt(a2, b2, variant)

    def mux_word(self, sel: int, a, b):
        """sel ? a : b, per bit."""
        return [self.xor(y, self.and_(sel, self.xor(x, y))) for x, y in zip(a, b)]

    def eq_zero(self, a) -> int:
        return self.and_tree([self.not_(x) for x in a])

    def relu_word(self, a):
        """a if a > 0 (signed) else 0; one AND level deep."""
        keep = self.not_(a[-1])
        return [self.and_(a[i], keep) for i in range(len(a) - 1)] + [CONST0]

    def max_word(self, vals, variant: str = SIZE):
        """(maximum, index bits) of the signed words in vals, by one _tree of
        compare-and-select carrying both; the index is little-endian,
        ceil(log2 n) bits and at least 1. A node takes its right operand
        only if that is strictly greater, so the first maximum wins ties."""
        idx_w = max(1, (len(vals) - 1).bit_length())
        leaves = [(v, [CONST1 if (j >> k) & 1 else CONST0 for k in range(idx_w)])
                  for j, v in enumerate(vals)]

        def merge(left, right):
            (lv, li), (rv, ri) = left, right
            gt = self.signed_gt(rv, lv, variant)
            return self.mux_word(gt, rv, lv), self.mux_word(gt, ri, li)

        return _tree(leaves, merge)


def _tree(nodes, merge):
    """The one pairwise reduction: each level merges neighbours,
    merge(nodes[k], nodes[k + 1]) for even k, and an odd last node moves up
    unmerged, so n nodes take ceil(log2 n) levels."""
    while len(nodes) > 1:
        odd = nodes[-1:] if len(nodes) % 2 else []
        nodes = [merge(nodes[k], nodes[k + 1]) for k in range(0, len(nodes) - 1, 2)] + odd
    return nodes[0]


# ----- library builders -----


def build_add(w: int, variant: str = SIZE) -> Circuit:
    _check_width(w)
    b = Builder(f"add{w}_{variant}")
    x = b.inputs(0, w)
    y = b.inputs(1, w)
    b.outputs = b.adder_word(x, y, CONST0, variant)
    return b.build()


def build_sub(w: int, variant: str = SIZE) -> Circuit:
    _check_width(w)
    b = Builder(f"sub{w}_{variant}")
    x = b.inputs(0, w)
    y = b.inputs(1, w)
    b.outputs = b.adder_word(x, b.not_word(y), CONST1, variant)
    return b.build()


def build_cmp(w: int, variant: str = SIZE) -> Circuit:
    """Signed greater-than, 1-bit output."""
    _check_width(w)
    b = Builder(f"cmp{w}_{variant}")
    x = b.inputs(0, w)
    y = b.inputs(1, w)
    b.outputs = [b.signed_gt(x, y, variant)]
    return b.build()


def build_eq(w: int, variant: str = SIZE) -> Circuit:
    _check_width(w)
    b = Builder(f"eq{w}")
    x = b.inputs(0, w)
    y = b.inputs(1, w)
    b.outputs = [b.eq_zero(b.xor_word(x, y))]  # eq_zero already a tree
    return b.build()


def build_mux(w: int, variant: str = SIZE) -> Circuit:
    """Output = sel ? a : b; sel is the last wire of party 1's input."""
    _check_width(w)
    b = Builder(f"mux{w}")
    a = b.inputs(0, w)
    y = b.inputs(1, w + 1)
    c, sel = y[:w], y[w]
    b.outputs = b.mux_word(sel, a, c)
    return b.build()


def build_bitand(w: int, variant: str = SIZE) -> Circuit:
    _check_width(w)
    b = Builder(f"bitand{w}")
    x = b.inputs(0, w)
    y = b.inputs(1, w)
    b.outputs = [b.and_(x[i], y[i]) for i in range(w)]
    return b.build()


def build_bitxor(w: int, variant: str = SIZE) -> Circuit:
    _check_width(w)
    b = Builder(f"bitxor{w}")
    x = b.inputs(0, w)
    y = b.inputs(1, w)
    b.outputs = b.xor_word(x, y)
    return b.build()


def build_relu(w: int, variant: str = SIZE) -> Circuit:
    """x if x > 0 else 0; one AND level deep. Both variants are the same
    netlist, so they share one cache entry."""
    return _relu(int(w))


@functools.cache
def _relu(w: int) -> Circuit:
    _check_width(w)
    b = Builder(f"relu{w}")
    b.outputs = b.relu_word(b.inputs(0, w))
    return b.build()


def build_max_tree(n: int, w: int, variant: str = SIZE) -> Circuit:
    """Signed maximum of n w-bit values (pooling helper). Input: n*w wires
    in party 0's group, value 0 first."""
    return _max_tree(int(n), int(w), variant)


@functools.cache
def _max_tree(n: int, w: int, variant: str) -> Circuit:
    _check_width(w)
    if n < 1:
        raise CircuitError("max needs at least one value")
    b = Builder(f"max{n}x{w}_{variant}")
    flat = b.inputs(0, n * w)
    b.outputs, _ = b.max_word([flat[i * w : (i + 1) * w] for i in range(n)], variant)
    return b.build()


def stage_circuit(kind: str, w: int, shift: int = 0, nvals: int = 1) -> Circuit:
    """Garbled-stage circuit over the ring width w: per-value w-bit share
    adders, free shift rewiring, then the stage function. Inputs: role i
    supplies nvals*w share bits.

    The adders keep all w bits, since their carries need every low bit,
    but only sum bits shift..w-1 leave them: a (w - shift)-bit two's-
    complement value, whose w-bit arithmetic shift would only repeat its
    top bit. The body runs at that narrow width.

    kind: "identity" (the a2y adder; the narrow bits of each value),
    "relu" per value (the narrow bits, the top one the constant-0 sign),
    "sign" (1 iff the value is positive), or "max" (narrow bits) /
    "argmax" (index bits) over the nvals values. Stages are garbled, so
    the adders and compares are SIZE. One cache entry per netlist, however
    the arguments are spelled.
    """
    return _stage_circuit(kind, int(w), int(shift), int(nvals))


@functools.cache
def _stage_circuit(kind: str, w: int, shift: int, nvals: int) -> Circuit:
    _check_width(w)
    _check_width(w - shift)
    b = Builder(f"stage_{kind}{nvals}x{w}_shr{shift}")
    in0 = b.inputs(0, nvals * w)
    in1 = b.inputs(1, nvals * w)
    vals = [b.adder_word(in0[i * w : (i + 1) * w], in1[i * w : (i + 1) * w])[shift:]
            for i in range(nvals)]
    if kind == "identity":
        b.outputs = [x for v in vals for x in v]
    elif kind == "relu":
        b.outputs = [x for v in vals for x in b.relu_word(v)]
    elif kind in ("max", "argmax"):
        maximum, index = b.max_word(vals)
        b.outputs = maximum if kind == "max" else index
    elif kind == "sign":
        (v,) = vals
        b.outputs = [b.and_(b.not_(v[-1]), b.not_(b.eq_zero(v)))]
    else:
        raise CircuitError(f"unknown stage kind {kind!r}")
    return b.build()


_BUILDERS = {
    "add": build_add,
    "sub": build_sub,
    "cmp": build_cmp,
    "eq": build_eq,
    "mux": build_mux,
    "relu": build_relu,
    "bitand": build_bitand,
    "bitxor": build_bitxor,
}


def build_by_name(name: str, w: int, variant: str = SIZE) -> Circuit:
    if name not in _BUILDERS:
        raise CircuitError(f"no builder named {name!r}")
    return _BUILDERS[name](w, variant)


def _check_width(w: int):
    if not 1 <= w <= 64:
        raise CircuitError(f"width {w} out of range [1, 64]")


# ----- plaintext simulation -----


def simulate(c: Circuit, in0, in1) -> np.ndarray:
    """Gate-by-gate evaluation; instance-vectorised.

    in0/in1: uint8 bit arrays of shape (instances, len(inputsX)).
    Returns output bits, shape (instances, len(outputs)).
    """
    in0 = np.atleast_2d(np.asarray(in0, dtype=np.uint8))
    in1 = np.atleast_2d(np.asarray(in1, dtype=np.uint8))
    ninst = max(in0.shape[0], in1.shape[0], 1)
    if in0.shape[1] != len(c.inputs0) or in1.shape[1] != len(c.inputs1):
        raise CircuitError("input width mismatch")
    vals = np.zeros((c.nwires, ninst), dtype=np.uint8)
    vals[CONST1] = 1
    vals[list(c.inputs0)] = in0.T
    vals[list(c.inputs1)] = in1.T
    for i in range(c.num_gates):
        a, bb, o = int(c.ga[i]), int(c.gb[i]), int(c.go[i])
        if c.op[i] == XOR:
            vals[o] = vals[a] ^ vals[bb]
        elif c.op[i] == AND:
            vals[o] = vals[a] & vals[bb]
        else:
            vals[o] = vals[a] ^ 1
    return vals[list(c.outputs)].T


# ----- text export -----


def emit_circuit(c: Circuit) -> str:
    lines = [
        "W {} IN0 {} IN1 {} OUT {} CONST0 0 CONST1 1".format(
            c.nwires,
            " ".join(map(str, c.inputs0)),
            " ".join(map(str, c.inputs1)),
            " ".join(map(str, c.outputs)),
        ).replace("  ", " ")
    ]
    for i in range(c.num_gates):
        if c.op[i] == NOT:
            lines.append(f"NOT {c.ga[i]} {c.go[i]}")
        else:
            lines.append(f"{_OPNAMES[int(c.op[i])]} {c.ga[i]} {c.gb[i]} {c.go[i]}")
    return "\n".join(lines) + "\n"
