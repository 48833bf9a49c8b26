"""Garbled circuits: half-gates AND, free XOR, fixed-key hashing.

Labels are 128-bit strings; the two labels of every wire differ by a
global offset R whose low bit is 1, so label LSBs double as the
point-and-permute bits. The garbling hash is the standard fixed-key
construction H(X, t) = E(2X ^ t) ^ 2X ^ t with E a fixed-key AES-128
permutation, 2X a one-bit rotation, and a tweak t unique per
(gate, instance, half-gate slot) within a session: GcSession
passes a tweak base that grows by tweak_span() after every run, so a
label carried into a later run is never hashed under a tweak used before.

Per AND gate two ciphertexts travel (generator and evaluator halves);
XOR and NOT are free.

Everything is SIMD over an instance axis, each label a little-endian u64
pair. garble and evaluate are AND-level callbacks of circuits.run_spans,
which owns the wire array. Under free XOR a public 1 is R for the garbler
and 0 for the evaluator, so NOT is an XOR with it and a constant output
decodes as any wire does. Each AND level hashes all its half-gate inputs
in one AES call; rotation is linear, so the garbler gets 2(X ^ R) as
2X ^ 2R.

A run has one data shape from garbler to evaluator: the labels of each
input group are one (width, ninst, 16) array, and its tables are written,
level by level, into one preallocated buffer that GcSession sends as one
GC_TABLES frame. garble draws nothing, and neither does GcSession. The
conversions into and out of the garbled domain live in convert.

The evaluator's input labels are dealt, not transferred (correlated,
"label"). The dealer draws the session's offset R = delta and, per label,
a key k0 for role 0 and a bit r with K = k0 ^ r*R for role 1. Before the
garbler's first frame of a run, the evaluator sends e = c ^ r for its
bits c, one bit each, and the garbler takes k0 ^ e*R as the wire's zero
label, so K is the active label of c and nothing travels back. A
dealer-chosen R is safe under the paper's non-colluding dealer:
  - the dealer is offline and never sees an online frame, so it never
    sees a label of either party, nor e;
  - role 1 holds only K and r, which say nothing about R: K is uniform
    given r, since k0 is uniform and hidden from it;
  - each k0 and r masks one wire of one run and is drawn once from a
    single-use supply, so e reveals nothing about c and no two wires
    share a key.

The garbler's input labels are neither dealt nor transferred: it takes
x*R as the zero label of each input wire it holds bit x of, so the
evaluator's active label there is 0 for either bit and fills those rows
with zeros. Half-gates privacy rests on R being secret and on each
(label, tweak) pair being hashed once (Zahur-Rosulek-Evans; Guo-Katz-
Wang-Yu), not on random active labels:
  - the evaluator's view of a garbler input wire does not depend on x:
    its label is 0 and its select bit lsb(0) = 0;
  - every table entry it reads is masked by H(X ^ R, t), with a tweak t
    used once per session, and only role 0 holds R;
  - on a span of garbler inputs and XORs every active label is 0, so no
    two active labels XOR to R, as when free XOR garbles a public
    constant.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import transport
from .aesutil import ecb_encryptor
from .circuits import Circuit, run_spans
from .correlated import PartyMaterial, Supply
from .transport import Channel

FIXED_KEY = b"hybrid2pc-fixkey"

_SLOT_GEN = 0
_SLOT_EVAL = 1

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


def tweak_span(c: Circuit, ninst: int) -> int:
    """Tweak counters one garbling of c uses, from its base upwards."""
    return c.num_gates * ninst


@dataclass
class YaoShare:
    """Garbled sharing: zero labels (garbler) or active labels
    (evaluator), shape (instances, width, 16)."""

    labels: np.ndarray
    role: int

    def lsb_bits(self) -> np.ndarray:
        return _lsb(self.labels)


@dataclass
class Garbling:
    tables: bytearray  # every AND level's tables, in level order
    out_zero: np.ndarray  # (nout, ninst, 16) output zero labels
    decode: np.ndarray  # (nout, ninst) decode bits


def _table_bytes(c: Circuit, ninst: int) -> int:
    """Bytes of a run's tables: two ciphertexts per AND gate per instance."""
    return 32 * c.num_and * ninst


def garble(c: Circuit, R: np.ndarray, in_zero: np.ndarray, ninst: int = 1,
           tweak: int = 0) -> Garbling:
    """Garble ninst instances of the circuit from its input zero labels
    in_zero, (len(inputs0) + len(inputs1), ninst, 16) with inputs0 first;
    a pure function of its arguments. tweak is the first tweak counter;
    the run uses tweak_span() of them.
    """
    R64 = R.view(_U64)
    rR = _rotl1(R64)
    tables = bytearray(_table_bytes(c, ninst))
    table = np.frombuffer(tables, dtype=_U64)
    pos = 0

    def garble_and(span, A0, B0):
        nonlocal pos
        g = len(span.ands)
        blk = np.empty((4, g, ninst, 2), dtype=_U64)
        _rotl1(A0, blk[0])
        np.bitwise_xor(blk[0], rR, out=blk[1])
        _rotl1(B0, blk[2])
        np.bitwise_xor(blk[2], rR, out=blk[3])
        ha0, ha1, hb0, hb1 = _hash(blk, _ids(span.ands, ninst, tweak),
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

    out_zero = run_spans(c.levelized, R64, in_zero.view(_U64), garble_and).view(np.uint8)
    return Garbling(tables, out_zero, _lsb(out_zero))


def evaluate(c: Circuit, tables, active_in: np.ndarray, ninst: int = 1,
             tweak: int = 0) -> np.ndarray:
    """Walk the garbling with active labels; returns (nout, ninst, 16).

    active_in is shaped as garble's in_zero; tweak must equal the garbler's.
    """
    if len(tables) != _table_bytes(c, ninst):
        raise GcError("table buffer length mismatch")
    table = np.frombuffer(tables, dtype=_U64)
    pos = 0

    def evaluate_and(span, Aa, Ba):
        nonlocal pos
        g = len(span.ands)
        blk = np.empty((2, g, ninst, 2), dtype=_U64)
        _rotl1(Aa, blk[0])
        _rotl1(Ba, blk[1])
        ha, hb = _hash(blk, _ids(span.ands, ninst, tweak), (_SLOT_GEN, _SLOT_EVAL))
        pair = table[pos : pos + 4 * g * ninst].reshape(g, ninst, 2, 2)
        pos += 4 * g * ninst
        te = pair[:, :, 1] ^ Aa
        te &= _sel(Ba)
        ha ^= hb
        ha ^= te
        ha ^= pair[:, :, 0] & _sel(Aa)
        return ha

    return run_spans(c.levelized, 0, active_in.view(_U64), evaluate_and).view(np.uint8)


class GcSession:
    """One party's garbling context over a channel; role 0 garbles.

    A single free-XOR offset R, the dealt delta, spans the session, so
    labels produced by convert.b2y or retained from an earlier run() feed
    later circuits directly. The tweak base likewise spans the session:
    both roles advance it by tweak_span() after every run, so no (label,
    tweak) pair repeats.
    """

    def __init__(self, role: int, channel: Channel, material: PartyMaterial):
        self.role = role
        self.channel = channel
        if role == 0:
            self.R = material.delta
            self.labels = Supply("labels", material.label_k0)
        else:
            self.R = None
            self.labels = Supply("labels", material.label_r, material.label_k)
        self.tweak = 0

    def input_labels(self, bits: np.ndarray) -> np.ndarray:
        """(n, 16) labels of n bits the evaluator feeds, from n dealt labels.

        The evaluator passes the bits and sends e = bits ^ r as one
        OT_CHOICES frame; it gets its keys K, the active labels. The
        garbler passes its own XOR share of each bit (zeros where the
        evaluator alone holds it), receives e, and gets the zero labels
        k0 ^ (e ^ bits)*R.
        """
        bits = np.asarray(bits, np.uint8).reshape(-1)
        n = len(bits)
        if self.role == 1:
            r, keys = self.labels.take(n)
            self.channel.send(transport.OT_CHOICES, np.packbits(r ^ bits, bitorder="little"))
            return keys
        (k0,) = self.labels.take(n)
        raw = self.channel.recv_expect(transport.OT_CHOICES, (n + 7) // 8)
        e = np.unpackbits(np.frombuffer(raw, np.uint8), count=n, bitorder="little")
        return k0 ^ _mask16(e ^ bits, self.R)

    def run(self, c: Circuit, bind0, bind1, cycles: int = 1, ninst: int = 1,
            decode: str = "evaluator"):
        """Garble/evaluate one circuit.

        bind0/bind1 describe how each input group gets its labels:
          ("bits", arr)  owner-known bits, shape (ninst, width); the
                         garbler's own take zero labels x*R, the
                         evaluator's go on dealt labels (input_labels),
                         so the garbler passes arr=None for bind1 and
                         the evaluator arr=None for bind0
          ("yao", ys)    labels retained from b2y or an earlier run
          None           empty group; a group with wires raises GcError
        decode: "evaluator" (the evaluator alone learns the output bits)
        or "none" (both keep labels, for y2b).
        cycles must be 1: every circuit is combinational.
        Returns decoded bits (nout, ninst) on the evaluator, None on the
        garbler, or a YaoShare when "none".
        """
        if cycles != 1:
            raise GcError(f"a circuit runs for one cycle, not {cycles}")
        if decode not in ("evaluator", "none"):
            raise GcError(f"decode policy {decode!r} is not 'evaluator' or 'none'")
        for k, (bind, group) in enumerate(zip((bind0, bind1), (c.inputs0, c.inputs1))):
            if bind is None and group:
                raise GcError(f"input group {k} has {len(group)} wires but no binding")
        kinds, vals = zip(*(bind or (None, None) for bind in (bind0, bind1)))
        # the run's input labels, inputs0 first; each half fills the "bits"
        # groups but the evaluator's view of the garbler's, which stays 0
        n0 = len(c.inputs0)
        labels = np.zeros((n0 + len(c.inputs1), ninst, 16), np.uint8)
        for kind, val, rows in zip(kinds, vals, (slice(0, n0), slice(n0, None))):
            if kind == "yao":
                labels[rows] = np.swapaxes(val.labels, 0, 1)
        run = self._run_garbler if self.role == 0 else self._run_evaluator
        out = run(c, kinds, vals, labels, ninst, decode)
        self.tweak += tweak_span(c, ninst)
        return out

    def run_shares(self, c: Circuit, bits: np.ndarray, ninst: int, decode: str):
        """run() with each role feeding its own share bits into its own
        input group: role 0's as the garbler's, role 1's on dealt labels."""
        mine, theirs = ("bits", bits), ("bits", None)
        binds = (mine, theirs) if self.role == 0 else (theirs, mine)
        return self.run(c, *binds, ninst=ninst, decode=decode)

    def _run_garbler(self, c, kinds, vals, zero, ninst, decode):
        n0, n1 = len(c.inputs0), len(c.inputs1)
        if kinds[0] == "bits" and n0:
            zero[:n0] = _mask16(np.atleast_2d(np.asarray(vals[0], np.uint8)).T, self.R)
        if kinds[1] == "bits" and n1:
            # wire-major, mirrored by the evaluator's bits
            zero[n0:] = self.input_labels(np.zeros(n1 * ninst, np.uint8)).reshape(n1, ninst, 16)
        g = garble(c, self.R, zero, ninst, self.tweak)
        self.channel.send(transport.GC_TABLES, g.tables)
        if decode == "none":
            return YaoShare(np.swapaxes(g.out_zero, 0, 1), 0)
        self.channel.send(transport.GC_DECODE, np.packbits(g.decode, bitorder="little"))
        return None

    def _run_evaluator(self, c, kinds, vals, active, ninst, decode):
        n0, n1 = len(c.inputs0), len(c.inputs1)
        if kinds[1] == "bits" and n1:
            bits = np.atleast_2d(np.asarray(vals[1], np.uint8))
            active[n0:] = self.input_labels(bits.T).reshape(n1, ninst, 16)
        tables = self.channel.recv_expect(transport.GC_TABLES, _table_bytes(c, ninst))
        out_active = evaluate(c, tables, active, ninst, self.tweak)
        if decode == "none":
            return YaoShare(np.swapaxes(out_active, 0, 1), 1)
        nout = len(c.outputs)
        raw = self.channel.recv_expect(transport.GC_DECODE, (nout * ninst + 7) // 8)
        dec = np.unpackbits(np.frombuffer(raw, np.uint8), count=nout * ninst,
                            bitorder="little").reshape(nout, ninst)
        return (_lsb(out_active) ^ dec).astype(np.uint8)
