"""Garbled circuits: half-gates AND, free XOR, fixed-key hashing.

Labels are 128-bit strings; the two labels of every wire differ by a
global offset R whose low bit is 1, so label LSBs double as the
point-and-permute bits. The garbling hash is the standard fixed-key
construction H(X, t) = E(2X ^ t) ^ 2X ^ t with E a fixed-key AES-128
permutation, 2X a one-bit rotation, and a tweak t unique per
(gate, cycle, instance, half-gate slot).

Per AND gate two ciphertexts travel (generator and evaluator halves);
XOR and NOT are free. Sequential circuits garble each cycle afresh; a
2-ciphertext translation table per register carries the evaluator's
active label from one cycle's d wire to the next cycle's q wire.

Everything is SIMD over an instance axis: label state has shape
(nwires, ninst, 16) and each AND level costs one batched AES call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import transport
from .aesutil import ecb_encryptor
from .circuits import CONST0, CONST1, XOR, Circuit, levelize
from .ot import OtReceiver, OtSender
from .transport import Channel

FIXED_KEY = b"hybrid2pc-fixkey"
K_BYTES = 16

_SLOT_GEN = 0
_SLOT_EVAL = 1
_SLOT_REG = 2


class GcError(RuntimeError):
    pass


def _rotl1(x: np.ndarray) -> np.ndarray:
    """One-bit left rotation of 128-bit little-endian blocks."""
    v = np.ascontiguousarray(x).view("<u8").reshape(-1, 2)
    lo, hi = v[:, 0], v[:, 1]
    out = np.empty_like(v)
    out[:, 0] = (lo << np.uint64(1)) | (hi >> np.uint64(63))
    out[:, 1] = (hi << np.uint64(1)) | (lo >> np.uint64(63))
    return out.view(np.uint8).reshape(x.shape)


# One fixed-key AES context per thread: keyed once, never shared, since
# both parties may garble and evaluate as threads of one process.
_fixed = threading.local()


def _fixed_key_encrypt(blk: np.ndarray) -> bytes:
    enc = getattr(_fixed, "encrypt", None)
    if enc is None:
        enc = _fixed.encrypt = ecb_encryptor(FIXED_KEY)
    return enc(blk)


def _hash_labels(x: np.ndarray, ids: np.ndarray, slot: int) -> np.ndarray:
    """H(X, t) over a flat (m, 16) label array; ids are u64 tweak counters."""
    m = x.reshape(-1, 16).shape[0]
    tw = np.zeros((m, 2), dtype="<u8")
    tw[:, 0] = ids.reshape(-1)
    tw[:, 1] = slot
    blk = _rotl1(x.reshape(-1, 16)) ^ tw.view(np.uint8).reshape(-1, 16)
    enc = _fixed_key_encrypt(blk)
    out = np.frombuffer(enc, dtype=np.uint8).reshape(-1, 16) ^ blk
    return out.reshape(x.shape)


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
    tables: list[bytes]  # one chunk per cycle
    in_zero: dict[int, np.ndarray]  # input wire -> (ninst, 16) zero label
    reg_zero: dict[int, np.ndarray]  # cycle-0 q wire -> zero label
    out_zero: np.ndarray  # (nout, ninst, 16) final-cycle zero labels
    decode: np.ndarray  # (nout, ninst) decode bits
    num_and: int


def garble(c: Circuit, cycles: int, rng: np.random.Generator, R: np.ndarray,
           ninst: int = 1, preset: dict[int, np.ndarray] | None = None) -> Garbling:
    """Garble ninst instances of the circuit; deterministic given rng."""
    lc = levelize(c)
    preset = preset or {}
    zero = np.zeros((c.nwires, ninst, 16), dtype=np.uint8)
    in_zero = {}
    for w in (*c.inputs0, *c.inputs1):
        zero[w] = preset[w] if w in preset else _fresh(rng, (ninst,))
        in_zero[w] = zero[w].copy()
    reg_zero = {}
    for r in c.registers:
        zero[r.q] = _fresh(rng, (ninst,))
        # q labels are re-randomised every cycle; keep the cycle-0 pair
        reg_zero[r.q] = zero[r.q].copy()
    ngates, nregs = c.num_gates, len(c.registers)
    tables = []
    for cyc in range(cycles):
        chunk = []
        if cyc:
            # register translation: fresh q labels keyed by old d labels
            old = np.stack([zero[r.d] for r in c.registers])  # (nregs, ninst, 16)
            fresh_q = _fresh(rng, (nregs, ninst))
            ids = (
                np.arange(nregs, dtype=np.uint64)[:, None] * np.uint64(ninst)
                + np.arange(ninst, dtype=np.uint64)[None, :]
                + np.uint64((cyc - 1) * nregs * ninst)
            )
            h0 = _hash_labels(old, ids, _SLOT_REG)
            h1 = _hash_labels(old ^ R, ids, _SLOT_REG)
            p = _lsb(old)
            row_a = h0 ^ fresh_q  # goes to slot lsb(O0)
            row_b = h1 ^ fresh_q ^ R  # goes to slot lsb(O1) = 1 - lsb(O0)
            rows = np.empty((nregs, ninst, 2, 16), dtype=np.uint8)
            sel = p[..., None, None].astype(bool)
            rows[..., 0, :] = np.where(sel[..., 0, :], row_b, row_a)
            rows[..., 1, :] = np.where(sel[..., 0, :], row_a, row_b)
            chunk.append(rows.tobytes())
            for i, r in enumerate(c.registers):
                zero[r.q] = fresh_q[i]
        for locals_, ands in lc.schedule:
            for i in locals_:
                a, b, o = int(c.ga[i]), int(c.gb[i]), int(c.go[i])
                zero[o] = zero[a] ^ zero[b] if c.op[i] == XOR else zero[a] ^ R
            if not len(ands):
                continue
            A0 = zero[c.ga[ands]]  # (g, ninst, 16)
            B0 = zero[c.gb[ands]]
            ids = (
                np.asarray(ands, dtype=np.uint64)[:, None] * np.uint64(ninst)
                + np.arange(ninst, dtype=np.uint64)[None, :]
                + np.uint64(cyc * ngates * ninst)
            )
            ha0 = _hash_labels(A0, ids, _SLOT_GEN)
            ha1 = _hash_labels(A0 ^ R, ids, _SLOT_GEN)
            hb0 = _hash_labels(B0, ids, _SLOT_EVAL)
            hb1 = _hash_labels(B0 ^ R, ids, _SLOT_EVAL)
            pa, pb = _lsb(A0), _lsb(B0)
            tg = ha0 ^ ha1 ^ _mask16(pb, R)
            te = hb0 ^ hb1 ^ A0
            w0 = ha0 ^ _mask16(pa, tg) ^ hb0 ^ _mask16(pb, te ^ A0)
            zero[c.go[ands]] = w0
            pair = np.stack([tg, te], axis=2)  # (g, ninst, 2, 16)
            chunk.append(pair.tobytes())
        tables.append(b"".join(chunk))
    out_zero = np.stack([zero[w] for w in c.outputs]) if c.outputs else np.zeros(
        (0, ninst, 16), np.uint8
    )
    decode = _lsb(out_zero).copy()
    for k, w in enumerate(c.outputs):
        if w in (CONST0, CONST1):
            decode[k] = w  # carries the public value itself
    return Garbling(tables, in_zero, reg_zero, out_zero, decode,
                    c.num_and * cycles)


def evaluate(c: Circuit, cycles: int, tables: list[bytes],
             active_in: dict[int, np.ndarray],
             reg_active: dict[int, np.ndarray], ninst: int = 1) -> np.ndarray:
    """Walk the garbling with active labels; returns (nout, ninst, 16)."""
    lc = levelize(c)
    act = np.zeros((c.nwires, ninst, 16), dtype=np.uint8)
    for w in (*c.inputs0, *c.inputs1):
        act[w] = active_in[w]
    for r in c.registers:
        act[r.q] = reg_active[r.q]
    ngates, nregs = c.num_gates, len(c.registers)
    for cyc in range(cycles):
        buf = tables[cyc]
        pos = 0
        if cyc:
            old = np.stack([act[r.d] for r in c.registers])
            size = nregs * ninst * 2 * 16
            rows = np.frombuffer(buf[pos : pos + size], np.uint8).reshape(
                nregs, ninst, 2, 16
            )
            pos += size
            ids = (
                np.arange(nregs, dtype=np.uint64)[:, None] * np.uint64(ninst)
                + np.arange(ninst, dtype=np.uint64)[None, :]
                + np.uint64((cyc - 1) * nregs * ninst)
            )
            h = _hash_labels(old, ids, _SLOT_REG)
            sel = _lsb(old)[..., None].astype(bool)
            picked = np.where(sel, rows[:, :, 1, :], rows[:, :, 0, :])
            fresh = h ^ picked
            for i, r in enumerate(c.registers):
                act[r.q] = fresh[i]
        for locals_, ands in lc.schedule:
            for i in locals_:
                a, b, o = int(c.ga[i]), int(c.gb[i]), int(c.go[i])
                act[o] = act[a] ^ act[b] if c.op[i] == XOR else act[a]
            if not len(ands):
                continue
            g = len(ands)
            size = g * ninst * 2 * 16
            pair = np.frombuffer(buf[pos : pos + size], np.uint8).reshape(
                g, ninst, 2, 16
            )
            pos += size
            tg, te = pair[:, :, 0], pair[:, :, 1]
            Aa = act[c.ga[ands]]
            Ba = act[c.gb[ands]]
            ids = (
                np.asarray(ands, dtype=np.uint64)[:, None] * np.uint64(ninst)
                + np.arange(ninst, dtype=np.uint64)[None, :]
                + np.uint64(cyc * ngates * ninst)
            )
            ha = _hash_labels(Aa, ids, _SLOT_GEN)
            hb = _hash_labels(Ba, ids, _SLOT_EVAL)
            sa, sb = _lsb(Aa), _lsb(Ba)
            act[c.go[ands]] = ha ^ _mask16(sa, tg) ^ hb ^ _mask16(sb, te ^ Aa)
        if pos != len(buf):
            raise GcError("table chunk length mismatch")
    if not c.outputs:
        return np.zeros((0, ninst, 16), np.uint8)
    return np.stack([act[w] for w in c.outputs])


class GcSession:
    """One party's garbling context over a channel; role 0 garbles.

    A single free-XOR offset R spans the session, so labels produced by
    b2y or retained from an earlier run() feed later circuits directly.
    """

    def __init__(self, role: int, channel: Channel,
                 ot: OtSender | OtReceiver | None = None,
                 rng: np.random.Generator | None = None):
        self.role = role
        self.channel = channel
        self.ot = ot
        self.rng = rng if rng is not None else np.random.default_rng()
        self.R = new_offset(self.rng) if role == 0 else None
        self.rounds = 0

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
            self.rounds += 1
            return YaoShare(y0, 0)
        got = self.ot.recv(bits.reshape(-1), 128)
        self.rounds += 1
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
        if self.role == 0:
            return self._run_garbler(c, bind0, bind1, cycles, ninst, decode)
        return self._run_evaluator(c, bind0, bind1, cycles, ninst, decode)

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
        g = garble(c, cycles, self.rng, self.R, ninst, preset)
        for chunk in g.tables:
            self.channel.send(transport.GC_TABLES, len(g.tables).to_bytes(4, "little") + chunk)
        # active labels for garbler-known bits and register initials
        known = []
        if kind0 == "bits" and c.inputs0:
            bits = np.atleast_2d(np.asarray(val0, np.uint8))
            for k, w in enumerate(c.inputs0):
                known.append(g.in_zero[w] ^ _mask16(bits[:, k], self.R))
        for r in c.registers:
            z = g.reg_zero[r.q]
            known.append(z ^ self.R if r.init else z)
        if known:
            self.channel.send(transport.GC_INLABELS, np.concatenate(known).tobytes())
        if kind1 == "bits" and c.inputs1:
            # wire-major flattening, mirrored by the evaluator's choices
            m0 = np.stack([g.in_zero[w] for w in c.inputs1], axis=0).reshape(-1, 16)
            self.ot.send(m0, m0 ^ self.R, 128)
        self.rounds += 1
        if decode == "none":
            return YaoShare(np.transpose(g.out_zero, (1, 0, 2)), 0)
        payload = np.packbits(g.decode, bitorder="little").tobytes()
        self.channel.send(transport.GC_DECODE, payload)
        if decode == "both":
            raw = self.channel.recv_expect(transport.GC_DECODE)
            bits = np.unpackbits(np.frombuffer(raw, np.uint8), bitorder="little")
            self.rounds += 1
            return bits[: g.decode.size].reshape(g.decode.shape)
        return None

    def _run_evaluator(self, c, bind0, bind1, cycles, ninst, decode):
        tables = []
        total = None
        while total is None or len(tables) < total:
            raw = self.channel.recv_expect(transport.GC_TABLES)
            total = int.from_bytes(raw[:4], "little")
            tables.append(raw[4:])
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
        self.rounds += 1
        out_active = evaluate(c, cycles, tables, active, reg_active, ninst)
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
            self.rounds += 1
        return bits
