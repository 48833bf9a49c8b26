"""Boolean circuits: representation, builder library, levelization, I/O.

Circuits are netlists of two-input XOR/AND gates plus free NOT, listed in
topological order over wires. Wire 0 is constant 0 and wire 1 constant 1;
the builder folds constants so gates never read the constant wires (they
may still appear as outputs, e.g. the forced-zero sign bit of ReLU).
Registers turn the netlist sequential: a register's q wire acts as a
source each cycle, loaded from its d wire at the end of the previous one.

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
It, build_relu and build_max_tree (the GMW stages) are cached per
process with functools.cache, so each stage netlist is built, and
levelized through Circuit.levelized, once.

levelize() turns a netlist into a schedule of local spans and AND levels,
each span further split into layers of independent XOR and NOT gates;
Circuit.levelized computes it once per circuit object. run_spans() walks
that schedule with one vectorised XOR per layer and a callback per AND
level; GMW, garbling and evaluation all run on it, while simulate() keeps
a plain per-gate loop as the reference.
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
_OPCODES = {v: k for k, v in _OPNAMES.items()}

CONST0, CONST1 = 0, 1

SIZE, DEPTH = "size", "depth"


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class Register:
    init: int
    d: int
    q: int


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
    registers: tuple[Register, ...] = ()
    name: str = ""
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
        defined = np.zeros(self.nwires, dtype=bool)
        defined[[CONST0, CONST1]] = True
        for w in itertools.chain(self.inputs0, self.inputs1):
            if defined[w]:
                raise CircuitError(f"wire {w} driven twice (input)")
            defined[w] = True
        for r in self.registers:
            if r.init not in (0, 1):
                raise CircuitError("register init must be a bit")
            if defined[r.q]:
                raise CircuitError(f"wire {r.q} driven twice (register)")
            defined[r.q] = True
        for i in range(self.num_gates):
            a, b, o = int(self.ga[i]), int(self.gb[i]), int(self.go[i])
            if self.op[i] not in _OPNAMES:
                raise CircuitError(f"unknown gate opcode {self.op[i]}")
            ins = (a,) if self.op[i] == NOT else (a, b)
            for w in ins:
                if not defined[w]:
                    raise CircuitError(
                        f"gate {i} reads undefined wire {w}: cycle without "
                        f"register or forward reference"
                    )
                if w in (CONST0, CONST1):
                    raise CircuitError(f"gate {i} reads a constant wire")
            if defined[o]:
                raise CircuitError(f"wire {o} driven twice (gate {i})")
            defined[o] = True
        for r in self.registers:
            if not defined[r.d]:
                raise CircuitError(f"register d wire {r.d} never driven")
        for w in self.outputs:
            if not defined[w]:
                raise CircuitError(f"output wire {w} never driven")
        return self


class Span(NamedTuple):
    """One step of a levelized schedule, as wire-index arrays.

    layers: (a, b, out) per layer of mutually independent XOR and NOT
    gates, run in order. A NOT gate reads b = nwires, the extra row in
    which each interpreter keeps its NOT mask. ands: gate indices of the
    AND level that follows; and_a, and_b, and_out: their wires.
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
    gate_level: np.ndarray
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
    gin_b = np.where(c.op == NOT, c.nwires, c.gb).astype(np.intp)
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
    return LevelizedCircuit(c, gate_level, schedule, spans)


def run_spans(lc: LevelizedCircuit, vals: np.ndarray, and_level) -> None:
    """One cycle of lc over vals, a per-wire array with one extra row.

    Row nwires must hold the interpreter's NOT mask: all ones in the
    clear, R under garbling, 0 for the evaluator, role 0's share under
    GMW. Every local layer is one XOR over the wire axis. Each AND level
    calls and_level(span, a_vals, b_vals), which returns the output values.
    """
    for span in lc.spans:
        for a, b, o in span.layers:
            vals[o] = vals[a] ^ vals[b]
        if len(span.ands):
            vals[span.and_out] = and_level(span, vals[span.and_a], vals[span.and_b])


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
        self.registers: list[Register] = []
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

    def or_(self, a: int, b: int) -> int:
        return self.not_(self.and_(self.not_(a), self.not_(b)))

    def not_(self, a: int) -> int:
        if a == CONST0:
            return CONST1
        if a == CONST1:
            return CONST0
        return self._emit(NOT, a, a)

    def register(self, init: int) -> int:
        """Allocates the q wire now; drive_register supplies d later."""
        q = self._wire()
        self.registers.append(Register(init, -1, q))
        return q

    def drive_register(self, q: int, d: int):
        for i, r in enumerate(self.registers):
            if r.q == q:
                if r.d != -1:
                    raise CircuitError("register driven twice")
                self.registers[i] = Register(r.init, d, q)
                return
        raise CircuitError(f"no register with q wire {q}")

    def build(self) -> Circuit:
        """Finalise: drop dead gates, renumber wires densely, validate."""
        live = set(self.outputs)
        for r in self.registers:
            live.add(r.d)
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
        for r in self.registers:
            remap[r.q] = len(remap)
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
            registers=tuple(
                Register(r.init, remap[r.d], remap[r.q]) for r in self.registers
            ),
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
        ANDs at AND depth w-1. DEPTH: carry lookahead over generate and
        propagate bits, ceil(log2 w) AND levels for w <= 8 and a Sklansky
        prefix above that.
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
        if w <= 8:
            # flat carry-lookahead: c_{i+1} = XOR_j g_j * p_{j+1..i}, one
            # AND-tree per term, reaching the ceil(log2 w) depth floor
            carries = [cin]
            for i in range(w - 1):
                terms = []
                if cin != CONST0:
                    terms.append(self.and_tree([cin] + p[: i + 1]))
                for j in range(i + 1):
                    terms.append(self.and_tree([g[j]] + p[j + 1 : i + 1]))
                acc = CONST0
                for t in terms:
                    acc = self.xor(acc, t)
                carries.append(acc)
            return [self.xor(p[i], carries[i]) for i in range(w)]
        # Sklansky parallel prefix over (g, p), carry-in folded via an
        # extra (cin, 0) leaf
        gg = [cin] + g[: w - 1]
        pp = [CONST0] + p[: w - 1]
        n = len(gg)
        gg, pp = list(gg), list(pp)
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
        binary tree of (generate, propagate) merges.
        """
        w = len(a)
        if variant == SIZE:
            c = cin
            for i in range(w):
                c = self.full_carry(a[i], b[i], c)
            return c
        p = [self.xor(a[i], b[i]) for i in range(w)]
        g = [self.and_(a[i], b[i]) for i in range(w)]
        # depth: binary-tree merge of (G, P) block pairs
        nodes = [(g[i], p[i]) for i in range(w)]
        if cin != CONST0:
            nodes = [(cin, CONST0)] + nodes
        while len(nodes) > 1:
            merged = []
            for k in range(0, len(nodes) - 1, 2):
                (g_lo, p_lo), (g_hi, p_hi) = nodes[k], nodes[k + 1]
                merged.append(
                    (
                        self.xor(g_hi, self.and_(p_hi, g_lo)),
                        self.and_(p_hi, p_lo),
                    )
                )
            if len(nodes) % 2:
                merged.append(nodes[-1])
            nodes = merged
        return nodes[0][0]

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

    def shr_word(self, a, amount: int, fill: int):
        """a shifted right by a constant, vacated bits set to fill: pure
        rewiring, zero gates."""
        w = len(a)
        return [a[i + amount] if i + amount < w else fill for i in range(w)]

    def relu_word(self, a):
        """a if a > 0 (signed) else 0; one AND level deep."""
        keep = self.not_(a[-1])
        return [self.and_(a[i], keep) for i in range(len(a) - 1)] + [CONST0]

    def max_word(self, vals, variant: str = SIZE):
        """Signed maximum of the words in vals, by a tree of compare-and-mux."""
        while len(vals) > 1:
            nxt = []
            for k in range(0, len(vals) - 1, 2):
                gt = self.signed_gt(vals[k], vals[k + 1], variant)
                nxt.append(self.mux_word(gt, vals[k], vals[k + 1]))
            if len(vals) % 2:
                nxt.append(vals[-1])
            vals = nxt
        return vals[0]

    def argmax_index(self, vals, variant: str = SIZE):
        """Little-endian index bits of the signed maximum of the words in
        vals, ceil(log2 n) of them; the first maximum wins ties."""
        idx_w = max(1, (len(vals) - 1).bit_length())
        best = vals[0]
        best_idx = [CONST0] * idx_w
        for j in range(1, len(vals)):
            gt = self.signed_gt(vals[j], best, variant)
            best = self.mux_word(gt, vals[j], best)
            j_bits = [CONST1 if (j >> k) & 1 else CONST0 for k in range(idx_w)]
            best_idx = self.mux_word(gt, j_bits, best_idx)
        return best_idx


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


@functools.cache
def build_relu(w: int, variant: str = SIZE) -> Circuit:
    """x if x > 0 else 0; one AND level deep."""
    _check_width(w)
    b = Builder(f"relu{w}")
    b.outputs = b.relu_word(b.inputs(0, w))
    return b.build()


def build_shift(w: int, amount: int, arithmetic: bool = True) -> Circuit:
    """Right shift by a constant: pure rewiring, zero gates."""
    _check_width(w)
    b = Builder(f"shr{w}_{amount}{'a' if arithmetic else 'l'}")
    x = b.inputs(0, w)
    b.outputs = b.shr_word(x, amount, x[-1] if arithmetic else CONST0)
    return b.build()


def build_argmax(n: int, w: int, variant: str = SIZE) -> Circuit:
    """Index of the signed maximum of n w-bit values; first max wins ties.

    Input: n*w wires in party 0's group (value 0 first). Output:
    ceil(log2 n) index bits, little-endian.
    """
    _check_width(w)
    if n < 1:
        raise CircuitError("argmax needs at least one value")
    b = Builder(f"argmax{n}x{w}_{variant}")
    flat = b.inputs(0, n * w)
    b.outputs = b.argmax_index([flat[i * w : (i + 1) * w] for i in range(n)], variant)
    return b.build()


@functools.cache
def build_max_tree(n: int, w: int, variant: str = SIZE) -> Circuit:
    """Signed maximum of n w-bit values (pooling helper)."""
    _check_width(w)
    b = Builder(f"max{n}x{w}_{variant}")
    flat = b.inputs(0, n * w)
    b.outputs = b.max_word([flat[i * w : (i + 1) * w] for i in range(n)], variant)
    return b.build()


@functools.cache
def stage_circuit(kind: str, w: int, shift: int = 0, nvals: int = 1) -> Circuit:
    """Garbled-stage circuit: per-value share adders, free shift rewiring,
    then the stage function. Inputs: role i supplies nvals*w share bits.

    kind: "identity" (the a2y adder), "relu" per value, "sign" (1 iff the
    value is positive), or "max"/"argmax" over the nvals values. Stages
    are garbled, so the adders and compares are SIZE.
    """
    _check_width(w)
    b = Builder(f"stage_{kind}{nvals}x{w}_shr{shift}")
    in0 = b.inputs(0, nvals * w)
    in1 = b.inputs(1, nvals * w)
    vals = []
    for i in range(nvals):
        s = b.adder_word(in0[i * w : (i + 1) * w], in1[i * w : (i + 1) * w])
        vals.append(b.shr_word(s, shift, s[-1]))
    if kind == "identity":
        b.outputs = [x for v in vals for x in v]
    elif kind == "relu":
        b.outputs = [x for v in vals for x in b.relu_word(v)]
    elif kind == "max":
        b.outputs = b.max_word(vals)
    elif kind == "argmax":
        b.outputs = b.argmax_index(vals)
    elif kind == "sign":
        (v,) = vals
        b.outputs = [b.and_(b.not_(v[-1]), b.not_(b.eq_zero(v)))]
    else:
        raise CircuitError(f"unknown stage kind {kind!r}")
    return b.build()


def build_counter(w: int) -> Circuit:
    """w-bit up-counter; sequential demo circuit, one increment per cycle.

    Outputs the post-increment value, so cc cycles read back cc.
    """
    b = Builder(f"counter{w}")
    qs = [b.register(0) for _ in range(w)]
    carry = CONST1
    outs = []
    for i in range(w):
        d = b.xor(qs[i], carry)
        b.drive_register(qs[i], d)
        outs.append(d)
        if i < w - 1:
            carry = b.and_(qs[i], carry)
    b.outputs = outs
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


def simulate(c: Circuit, in0, in1, cycles: int = 1) -> np.ndarray:
    """Cycle-accurate evaluation; instance-vectorised.

    in0/in1: uint8 bit arrays of shape (instances, len(inputsX)).
    Returns final-cycle output bits, shape (instances, len(outputs)).
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
    for r in c.registers:
        vals[r.q] = r.init
    for cyc in range(cycles):
        if cyc:
            nxt = [vals[r.d].copy() for r in c.registers]
            for r, v in zip(c.registers, nxt):
                vals[r.q] = v
        for i in range(c.num_gates):
            a, bb, o = int(c.ga[i]), int(c.gb[i]), int(c.go[i])
            if c.op[i] == XOR:
                vals[o] = vals[a] ^ vals[bb]
            elif c.op[i] == AND:
                vals[o] = vals[a] & vals[bb]
            else:
                vals[o] = vals[a] ^ 1
    return vals[list(c.outputs)].T


def simulate_words(c: Circuit, x0: int | np.ndarray, x1, w: int, cycles: int = 1):
    """Word-level convenience wrapper around simulate()."""
    from . import ring

    p = ring.RingParams(w) if w >= 2 else None

    def to_bits(v, width):
        if width == 0:
            return np.zeros((np.atleast_1d(np.asarray(v)).shape[0], 0), np.uint8)
        arr = np.atleast_1d(np.asarray(v, dtype=np.uint64))
        shifts = np.arange(width, dtype=np.uint64)
        return ((arr[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)

    out = simulate(c, to_bits(x0, len(c.inputs0)), to_bits(x1, len(c.inputs1)), cycles)
    shifts = np.arange(out.shape[1], dtype=np.uint64)
    vals = (out.astype(np.uint64) << shifts).sum(axis=1, dtype=np.uint64)
    return vals


# ----- text format -----


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
    for r in c.registers:
        lines.append(f"REG {r.init} {r.d} {r.q}")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CircuitError("empty circuit text")
    header = lines[0].split()
    if header[0] != "W":
        raise CircuitError("header must start with W")
    sections: dict[str, list[int]] = {}
    current = None
    nwires = None
    for tok in header:
        if tok in ("W", "IN0", "IN1", "OUT", "CONST0", "CONST1"):
            current = tok
            sections[current] = []
        else:
            sections[current].append(int(tok))
    nwires = sections["W"][0]
    ops, gas, gbs, gos = [], [], [], []
    regs = []
    for ln in lines[1:]:
        parts = ln.split()
        kind = parts[0]
        if kind == "REG":
            init, d, q = map(int, parts[1:])
            regs.append(Register(init, d, q))
        elif kind == "NOT":
            a, o = map(int, parts[1:])
            ops.append(NOT), gas.append(a), gbs.append(a), gos.append(o)
        elif kind in ("XOR", "AND"):
            a, b, o = map(int, parts[1:])
            ops.append(_OPCODES[kind]), gas.append(a), gbs.append(b), gos.append(o)
        else:
            raise CircuitError(f"unknown gate {kind!r}")
    c = Circuit(
        nwires=nwires,
        inputs0=tuple(sections.get("IN0", [])),
        inputs1=tuple(sections.get("IN1", [])),
        outputs=tuple(sections.get("OUT", [])),
        op=np.array(ops, dtype=np.uint8),
        ga=np.array(gas, dtype=np.int32),
        gb=np.array(gbs, dtype=np.int32),
        go=np.array(gos, dtype=np.int32),
        registers=tuple(regs),
    )
    return c.validate()
