"""Garbled circuits: half-gates AND, free XOR, fixed-key hashing.

Labels are 128-bit strings; the two labels of every wire differ by a
global offset R whose low bit is 1, so label LSBs double as the
point-and-permute bits. The garbling hash is the standard fixed-key
construction H(X, t) = E(2X ^ t) ^ 2X ^ t with E a fixed-key AES-128
permutation, 2X a one-bit rotation, and a tweak t unique per
(gate, cycle, instance, half-gate slot) within a session: GcSession
passes a tweak base that grows by tweak_span() after every run, so a
label carried into a later run is never hashed under a tweak used before.

Per AND gate two ciphertexts travel (generator and evaluator halves);
XOR and NOT are free. Sequential circuits garble each cycle afresh; a
2-ciphertext translation table per register carries the evaluator's
active label from one cycle's d wire to the next cycle's q wire.

Everything is SIMD over an instance axis. Label state is one array of
shape (nwires + 1, ninst, 2) holding each label as a little-endian u64
pair. garble and evaluate walk the circuit's cached layered schedule
(circuits.run_spans): a layer of independent XOR and NOT gates is one XOR
over fancy-indexed rows, NOT reading a row that holds R (garbler) or 0
(evaluator). Each AND level hashes all its half-gate inputs in one AES
call; rotation is linear, so the garbler gets 2(X ^ R) as 2X ^ 2R. The
tables of one cycle are written into one preallocated buffer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import transport
from .aesutil import ecb_encryptor
from .circuits import CONST0, CONST1, Circuit, run_spans
from .ot import OtReceiver, OtSender
from .transport import Channel

FIXED_KEY = b"hybrid2pc-fixkey"
K_BYTES = 16

_SLOT_GEN = 0
_SLOT_EVAL = 1
_SLOT_REG = 2

_U64 = np.dtype("<u8")
_ONE = np.uint64(1)


class GcError(RuntimeError):
    pass


def _rotl1(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One-bit left rotation of 128-bit labels held as (..., 2) u64 pairs."""
    lo, hi = x[..., 0], x[..., 1]
    out = np.empty_like(x) if out is None else out
    np.left_shift(lo, _ONE, out=out[..., 0])
    out[..., 0] |= hi >> np.uint64(63)
    np.left_shift(hi, _ONE, out=out[..., 1])
    out[..., 1] |= lo >> np.uint64(63)
    return out


# One fixed-key AES context per thread: keyed once, never shared, since
# both parties may garble and evaluate as threads of one process.
_fixed = threading.local()


def _fixed_key_encrypt(blk: np.ndarray) -> np.ndarray:
    enc = getattr(_fixed, "encrypt", None)
    if enc is None:
        enc = _fixed.encrypt = ecb_encryptor(FIXED_KEY)
    return enc(blk)


def _hash(blk: np.ndarray, ids: np.ndarray, slots) -> np.ndarray:
    """H(X, t) for blk = rotated labels of shape (k, ..., 2), in place.

    ids: u64 tweak counters broadcast over the leading axis; slots: one
    half-gate slot per entry of the leading axis.
    """
    blk[..., 0] ^= ids
    for k, slot in enumerate(slots):
        if slot:
            blk[k, ..., 1] ^= np.uint64(slot)
    out = _fixed_key_encrypt(blk)
    out ^= blk
    return out


def _ids(first: np.ndarray, ninst: int, base: int) -> np.ndarray:
    """Tweak counters first * ninst + instance + base, shape (len(first), ninst)."""
    return (first.astype(np.uint64)[:, None] * np.uint64(ninst)
            + np.arange(ninst, dtype=np.uint64) + np.uint64(base))


def _sel(x: np.ndarray) -> np.ndarray:
    """All-ones u64 where the label's permute bit is set, else 0; (..., 1)."""
    return np.uint64(0) - (x[..., :1] & _ONE)


def _lsb(x: np.ndarray) -> np.ndarray:
    return x[..., 0] & 1


def _mask16(bits: np.ndarray, v: np.ndarray) -> np.ndarray:
    """bits ? v : 0, broadcasting a byte-wise select over labels."""
    return v * bits[..., None]


def new_offset(rng: np.random.Generator) -> np.ndarray:
    r = rng.integers(0, 256, size=16, dtype=np.uint8)
    r[0] |= 1
    return r


def _fresh(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(0, 256, size=shape + (16,), dtype=np.uint8)


def tweak_span(c: Circuit, cycles: int, ninst: int) -> int:
    """Tweak counters one garbling of c uses, from its base upwards."""
    return cycles * max(c.num_gates, len(c.registers)) * ninst


@dataclass
class YaoShare:
    """Per-wire garbled-circuit sharing: zero labels (garbler) or active
    labels (evaluator), shape (instances, width, 16)."""

    labels: np.ndarray
    role: int

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def lsb_bits(self) -> np.ndarray:
        return _lsb(self.labels)


@dataclass
class Garbling:
    tables: list[bytearray]  # one chunk per cycle
    in_zero: dict[int, np.ndarray]  # input wire -> (ninst, 16) zero label
    reg_zero: dict[int, np.ndarray]  # cycle-0 q wire -> zero label
    out_zero: np.ndarray  # (nout, ninst, 16) final-cycle zero labels
    decode: np.ndarray  # (nout, ninst) decode bits
    num_and: int


def _table_words(c: Circuit, cyc: int, ninst: int) -> int:
    """u64 words of cycle cyc's tables: two ciphertexts per AND gate and,
    after cycle 0, two per register, for every instance."""
    nregs = len(c.registers) if cyc else 0
    return 4 * (c.num_and + nregs) * ninst


def garble(c: Circuit, cycles: int, rng: np.random.Generator, R: np.ndarray,
           ninst: int = 1, preset: dict[int, np.ndarray] | None = None,
           tweak: int = 0) -> Garbling:
    """Garble ninst instances of the circuit; deterministic given rng.

    tweak is the first tweak counter; the run uses tweak_span() of them.
    """
    lc = c.levelized
    preset = preset or {}
    R64 = R.view(_U64)
    rR = _rotl1(R64)
    zero = np.zeros((c.nwires + 1, ninst, 2), dtype=_U64)
    zero8 = zero.view(np.uint8)
    zero[c.nwires] = R64  # NOT a == a ^ R
    inputs = [*c.inputs0, *c.inputs1]
    drawn = [w for w in inputs if w not in preset]
    if drawn:
        zero8[drawn] = _fresh(rng, (len(drawn), ninst))
    for w in inputs:
        if w in preset:
            zero8[w] = preset[w]
    in_zero = {w: zero8[w].copy() for w in inputs}
    reg_q = [r.q for r in c.registers]
    reg_d = [r.d for r in c.registers]
    nregs = len(reg_q)
    if nregs:
        # q labels are re-randomised every cycle; keep the cycle-0 pair
        zero8[reg_q] = _fresh(rng, (nregs, ninst))
    reg_zero = {q: zero8[q].copy() for q in reg_q}
    ngates = c.num_gates
    tables = []
    for cyc in range(cycles):
        buf = bytearray(8 * _table_words(c, cyc, ninst))
        table = np.frombuffer(buf, dtype=_U64)
        pos = 0
        if cyc and nregs:
            # register translation: fresh q labels keyed by old d labels
            old = zero[reg_d]  # (nregs, ninst, 2)
            fresh_q = _fresh(rng, (nregs, ninst)).view(_U64)
            blk = np.empty((2,) + old.shape, dtype=_U64)
            _rotl1(old, blk[0])
            np.bitwise_xor(blk[0], rR, out=blk[1])
            h0, h1 = _hash(blk, _ids(np.arange(nregs), ninst,
                                     tweak + (cyc - 1) * nregs * ninst),
                           (_SLOT_REG, _SLOT_REG))
            row_a = h0 ^ fresh_q  # goes to slot lsb(O0)
            row_b = h1 ^ fresh_q ^ R64  # goes to slot lsb(O1) = 1 - lsb(O0)
            swap = (row_a ^ row_b) & _sel(old)
            pos = 4 * nregs * ninst
            rows = table[:pos].reshape(nregs, ninst, 2, 2)
            np.bitwise_xor(row_a, swap, out=rows[:, :, 0])
            np.bitwise_xor(row_b, swap, out=rows[:, :, 1])
            zero[reg_q] = fresh_q
        base = tweak + cyc * ngates * ninst

        def garble_and(span, A0, B0):
            nonlocal pos
            g = len(span.ands)
            blk = np.empty((4, g, ninst, 2), dtype=_U64)
            _rotl1(A0, blk[0])
            np.bitwise_xor(blk[0], rR, out=blk[1])
            _rotl1(B0, blk[2])
            np.bitwise_xor(blk[2], rR, out=blk[3])
            ha0, ha1, hb0, hb1 = _hash(blk, _ids(span.ands, ninst, base),
                                       (_SLOT_GEN, _SLOT_GEN, _SLOT_EVAL, _SLOT_EVAL))
            pa, pb = _sel(A0), _sel(B0)
            pair = table[pos : pos + 4 * g * ninst].reshape(g, ninst, 2, 2)
            pos += 4 * g * ninst
            tg, te = pair[:, :, 0], pair[:, :, 1]
            np.bitwise_xor(ha0, ha1, out=tg)
            tg ^= R64 & pb
            hb1 ^= hb0  # te ^ A0
            np.bitwise_xor(hb1, A0, out=te)
            hb1 &= pb
            ha0 ^= hb0
            ha0 ^= hb1
            ha0 ^= tg & pa
            return ha0

        run_spans(lc, zero, garble_and)
        tables.append(buf)
    out_zero = zero8[list(c.outputs)]
    decode = _lsb(out_zero)
    for k, w in enumerate(c.outputs):
        if w in (CONST0, CONST1):
            decode[k] = w  # carries the public value itself
    return Garbling(tables, in_zero, reg_zero, out_zero, decode,
                    c.num_and * cycles)


def evaluate(c: Circuit, cycles: int, tables: list, active_in: dict[int, np.ndarray],
             reg_active: dict[int, np.ndarray], ninst: int = 1,
             tweak: int = 0) -> np.ndarray:
    """Walk the garbling with active labels; returns (nout, ninst, 16).

    tweak must equal the garbler's.
    """
    lc = c.levelized
    act = np.zeros((c.nwires + 1, ninst, 2), dtype=_U64)  # NOT row stays 0
    act8 = act.view(np.uint8)
    for w in (*c.inputs0, *c.inputs1):
        act8[w] = active_in[w]
    reg_q = [r.q for r in c.registers]
    reg_d = [r.d for r in c.registers]
    nregs = len(reg_q)
    for q in reg_q:
        act8[q] = reg_active[q]
    ngates = c.num_gates
    for cyc in range(cycles):
        if len(tables[cyc]) != 8 * _table_words(c, cyc, ninst):
            raise GcError("table chunk length mismatch")
        table = np.frombuffer(tables[cyc], dtype=_U64)
        pos = 0
        if cyc and nregs:
            old = act[reg_d]
            pos = 4 * nregs * ninst
            rows = table[:pos].reshape(nregs, ninst, 2, 2)
            blk = _rotl1(old)[None]
            (h,) = _hash(blk, _ids(np.arange(nregs), ninst,
                                   tweak + (cyc - 1) * nregs * ninst), (_SLOT_REG,))
            sel = _sel(old)
            act[reg_q] = h ^ rows[:, :, 0] ^ ((rows[:, :, 0] ^ rows[:, :, 1]) & sel)
        base = tweak + cyc * ngates * ninst

        def evaluate_and(span, Aa, Ba):
            nonlocal pos
            g = len(span.ands)
            blk = np.empty((2, g, ninst, 2), dtype=_U64)
            _rotl1(Aa, blk[0])
            _rotl1(Ba, blk[1])
            ha, hb = _hash(blk, _ids(span.ands, ninst, base), (_SLOT_GEN, _SLOT_EVAL))
            pair = table[pos : pos + 4 * g * ninst].reshape(g, ninst, 2, 2)
            pos += 4 * g * ninst
            te = pair[:, :, 1] ^ Aa
            te &= _sel(Ba)
            ha ^= hb
            ha ^= te
            ha ^= pair[:, :, 0] & _sel(Aa)
            return ha

        run_spans(lc, act, evaluate_and)
    return act8[list(c.outputs)]


class GcSession:
    """One party's garbling context over a channel; role 0 garbles.

    A single free-XOR offset R spans the session, so labels produced by
    b2y or retained from an earlier run() feed later circuits directly.
    The tweak base likewise spans the session: both roles advance it by
    tweak_span() after every run, so no (label, tweak) pair repeats.
    """

    def __init__(self, role: int, channel: Channel,
                 ot: OtSender | OtReceiver | None = None,
                 rng: np.random.Generator | None = None):
        self.role = role
        self.channel = channel
        self.ot = ot
        self.rng = rng if rng is not None else np.random.default_rng()
        self.R = new_offset(self.rng) if role == 0 else None
        self.tweak = 0

    # ----- input sharings -----

    def b2y(self, bool_bits: np.ndarray) -> YaoShare:
        """Boolean shares -> garbled sharing, one OT per bit.

        Garbler passes its share bits; evaluator its own. Messages are
        (Y0 ^ share0*R, Y0 ^ (1-share0)*R); the evaluator selects with
        its share and ends up holding Y0 ^ x*R.
        """
        bits = np.atleast_2d(np.asarray(bool_bits, dtype=np.uint8))
        ninst, w = bits.shape
        if self.role == 0:
            y0 = _fresh(self.rng, (ninst, w))
            flat = y0.reshape(-1, 16)
            offs = _mask16(bits.reshape(-1), self.R)
            self.ot.send(flat ^ offs, flat ^ offs ^ self.R, 128)
            return YaoShare(y0, 0)
        got = self.ot.recv(bits.reshape(-1), 128)
        return YaoShare(got.reshape(ninst, w, 16), 1)

    def y2b(self, ys: YaoShare) -> np.ndarray:
        """Garbled -> Boolean shares; free (label LSBs), zero bytes."""
        return ys.lsb_bits().copy()

    # ----- circuit execution -----

    def run(self, c: Circuit, bind0, bind1, cycles: int = 1, ninst: int = 1,
            decode: str = "evaluator"):
        """Garble/evaluate one circuit.

        bind0/bind1 describe how each input group gets its labels:
          ("bits", arr)  owner-known bits; garbler passes role-0 bits and
                         receives role-1 choices via OT, so the garbler
                         passes arr=None for bind1 and the evaluator
                         arr=None for bind0
          ("yao", ys)    labels retained from b2y or an earlier run
          None           empty group
        decode: "evaluator", "both", or "none" (keep labels for y2b).
        Returns decoded bits (nout, ninst) or a YaoShare when "none".
        """
        run = self._run_garbler if self.role == 0 else self._run_evaluator
        out = run(c, bind0, bind1, cycles, ninst, decode)
        self.tweak += tweak_span(c, cycles, ninst)
        return out

    def run_shares(self, c: Circuit, bits: np.ndarray, ninst: int, decode: str):
        """run() with each role feeding its own share bits into its own
        input group: role 0's as the garbler's, role 1's by OT."""
        mine, theirs = ("bits", bits), ("bits", None)
        binds = (mine, theirs) if self.role == 0 else (theirs, mine)
        return self.run(c, *binds, ninst=ninst, decode=decode)

    def _run_garbler(self, c, bind0, bind1, cycles, ninst, decode):
        preset = {}
        kind1, val1 = bind1 if bind1 else (None, None)
        if kind1 == "yao":
            for k, w in enumerate(c.inputs1):
                preset[w] = val1.labels[:, k]
        kind0, val0 = bind0 if bind0 else (None, None)
        if kind0 == "yao":
            for k, w in enumerate(c.inputs0):
                preset[w] = val0.labels[:, k]
        g = garble(c, cycles, self.rng, self.R, ninst, preset, self.tweak)
        for chunk in g.tables:
            self.channel.send(transport.GC_TABLES, len(g.tables).to_bytes(4, "little") + chunk)
        # active labels for garbler-known bits and register initials
        known = []
        if kind0 == "bits" and c.inputs0:
            bits = np.atleast_2d(np.asarray(val0, np.uint8))
            z = np.stack([g.in_zero[w] for w in c.inputs0])
            known.append((z ^ _mask16(bits.T, self.R)).reshape(-1, 16))
        for r in c.registers:
            z = g.reg_zero[r.q]
            known.append(z ^ self.R if r.init else z)
        if known:
            self.channel.send(transport.GC_INLABELS, np.concatenate(known).tobytes())
        if kind1 == "bits" and c.inputs1:
            # wire-major flattening, mirrored by the evaluator's choices
            m0 = np.stack([g.in_zero[w] for w in c.inputs1], axis=0).reshape(-1, 16)
            self.ot.send(m0, m0 ^ self.R, 128)
        if decode == "none":
            return YaoShare(np.transpose(g.out_zero, (1, 0, 2)), 0)
        payload = np.packbits(g.decode, bitorder="little").tobytes()
        self.channel.send(transport.GC_DECODE, payload)
        if decode == "both":
            raw = self.channel.recv_expect(transport.GC_DECODE)
            bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")
            return bits[: g.decode.size].reshape(g.decode.shape)
        return None

    def _run_evaluator(self, c, bind0, bind1, cycles, ninst, decode):
        tables = []
        total = None
        while total is None or len(tables) < total:
            raw = self.channel.recv_expect(transport.GC_TABLES)
            total = int.from_bytes(raw[:4], "little")
            tables.append(memoryview(raw)[4:])
        active = {}
        kind0, val0 = bind0 if bind0 else (None, None)
        kind1, val1 = bind1 if bind1 else (None, None)
        if kind0 == "yao":
            for k, w in enumerate(c.inputs0):
                active[w] = val0.labels[:, k]
        if kind1 == "yao":
            for k, w in enumerate(c.inputs1):
                active[w] = val1.labels[:, k]
        reg_active = {}
        expect_known = (len(c.inputs0) if kind0 == "bits" else 0) + len(c.registers)
        if expect_known:
            raw = self.channel.recv_expect(transport.GC_INLABELS)
            blocks = np.frombuffer(raw, np.uint8).reshape(expect_known, ninst, 16)
            j = 0
            if kind0 == "bits":
                for w in c.inputs0:
                    active[w] = blocks[j]
                    j += 1
            for r in c.registers:
                reg_active[r.q] = blocks[j]
                j += 1
        if kind1 == "bits" and c.inputs1:
            bits = np.atleast_2d(np.asarray(val1, np.uint8))
            got = self.ot.recv(
                np.ascontiguousarray(bits.T).reshape(-1), 128
            ).reshape(len(c.inputs1), ninst, 16)
            for k, w in enumerate(c.inputs1):
                active[w] = got[k]
        out_active = evaluate(c, cycles, tables, active, reg_active, ninst, self.tweak)
        if decode == "none":
            return YaoShare(np.transpose(out_active, (1, 0, 2)), 1)
        raw = self.channel.recv_expect(transport.GC_DECODE)
        dec = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")
        nout = len(c.outputs)
        dec = dec[: nout * ninst].reshape(nout, ninst)
        bits = (_lsb(out_active) ^ dec).astype(np.uint8)
        for k, w in enumerate(c.outputs):
            if w in (CONST0, CONST1):
                bits[k] = dec[k]
        if decode == "both":
            self.channel.send(
                transport.GC_DECODE, np.packbits(bits, bitorder="little").tobytes()
            )
        return bits
