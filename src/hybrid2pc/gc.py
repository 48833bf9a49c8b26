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

A run has one data shape: each input group's labels are its own
(width, ninst, 16) array, a YaoShare in and out of GcSession.run, which
takes labels only, and its tables are one buffer, written level by level.
They cross as GC_TABLES frames of whole AND levels, on a schedule both
roles compute from the levelized circuit and ninst (frame_schedule): the
garbler sends each frame as soon as its levels are garbled, and the
evaluator receives one when it reaches the frame's first level, so the
two roles work at once (pipelined garbling, Huang-Evans-Katz-Malka). The
frames joined in order are the buffer. run_shares turns share bits into
labels; garble draws nothing, and neither does GcSession. The conversions
into and out of the garbled domain live in convert.

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

import itertools
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
    (evaluator), shape (width, instances, 16), as runs take and return them."""

    labels: np.ndarray
    role: int

    def lsb_bits(self) -> np.ndarray:
        """The label LSBs as (instances, width) XOR-shared bits."""
        return _lsb(self.labels).T


@dataclass
class Garbling:
    tables: bytearray  # every AND level's tables, in level order
    out_zero: np.ndarray  # (nout, ninst, 16) output zero labels
    decode: np.ndarray  # (nout, ninst) decode bits


def _table_bytes(c: Circuit, ninst: int) -> int:
    """Bytes of a run's tables: two ciphertexts per AND gate per instance."""
    return 32 * c.num_and * ninst


# A run's tables cross in frames of whole AND levels: a frame closes at the
# first level boundary where it holds at least this many bytes.
FRAME_BYTES = 1 << 20


def frame_schedule(c: Circuit, ninst: int) -> list[int]:
    """Byte sizes of a run's GC_TABLES frames in order, from public data.

    Each frame is whole AND levels and closes at the first level boundary
    where it holds at least FRAME_BYTES; the last holds the rest. A run
    whose tables fit in one frame sends one, a 0-AND run one empty frame.
    """
    sizes, held = [], 0
    for span in c.levelized.spans:
        held += 32 * len(span.ands) * ninst
        if held >= FRAME_BYTES:
            sizes.append(held)
            held = 0
    if held or not sizes:
        sizes.append(held)
    return sizes


def garble(c: Circuit, R: np.ndarray, zero0: np.ndarray, zero1: np.ndarray,
           ninst: int = 1, tweak: int = 0, on_frame=None) -> Garbling:
    """Garble ninst instances of the circuit from the zero labels of each
    input group, (len(inputs0), ninst, 16) and (len(inputs1), ninst, 16);
    a pure function of its arguments. tweak is the first tweak counter;
    the run uses tweak_span() of them. on_frame, when given, receives each
    frame of frame_schedule() as soon as its levels are garbled, a view
    into the tables.
    """
    R64 = R.view(_U64)
    rR = _rotl1(R64)
    tables = bytearray(_table_bytes(c, ninst))
    table = np.frombuffer(tables, dtype=_U64)
    ends = list(itertools.accumulate(frame_schedule(c, ninst)))
    pos = done = 0  # u64 words garbled; bytes handed on

    def hand_on():
        nonlocal done
        while ends and ends[0] <= 8 * pos:
            end = ends.pop(0)
            if on_frame is not None:
                on_frame(memoryview(tables)[done:end])
            done = end

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
        hand_on()
        return ha0

    out_zero = run_spans(c.levelized, R64, zero0.view(_U64), zero1.view(_U64),
                         garble_and).view(np.uint8)
    hand_on()  # a 0-AND run's one empty frame
    return Garbling(tables, out_zero, _lsb(out_zero))


def evaluate(c: Circuit, frames, active0: np.ndarray, active1: np.ndarray,
             ninst: int = 1, tweak: int = 0) -> np.ndarray:
    """Walk the garbling with active labels; returns (nout, ninst, 16).

    frames: an iterable of buffers, the run's tables in level order, each
    whole AND levels (frame_schedule()'s frames, or one buffer of all); the
    next is pulled when a level starts at the end of the current one, and
    not for a level of 0 bytes (ninst = 0). A level that crosses a
    buffer's end, or tables that fall short of or run over the circuit's,
    raise GcError. active0/active1 are shaped as zero0/zero1; tweak must
    equal the garbler's.
    """
    frames = iter(frames)
    rest = memoryview(b"")  # the current buffer's unread bytes

    def level_table(nbytes):
        nonlocal rest
        if nbytes and not len(rest):
            frame = next(frames, None)
            if frame is None:
                raise GcError("tables fall short of the circuit's AND levels")
            rest = memoryview(frame).cast("B")
        if nbytes > len(rest):
            raise GcError("an AND level crosses the end of a table frame")
        table, rest = rest[:nbytes], rest[nbytes:]
        return np.frombuffer(table, dtype=_U64)

    def evaluate_and(span, Aa, Ba):
        g = len(span.ands)
        blk = np.empty((2, g, ninst, 2), dtype=_U64)
        _rotl1(Aa, blk[0])
        _rotl1(Ba, blk[1])
        ha, hb = _hash(blk, _ids(span.ands, ninst, tweak), (_SLOT_GEN, _SLOT_EVAL))
        pair = level_table(32 * g * ninst).reshape(g, ninst, 2, 2)
        te = pair[:, :, 1] ^ Aa
        te &= _sel(Ba)
        ha ^= hb
        ha ^= te
        ha ^= pair[:, :, 0] & _sel(Aa)
        return ha

    out = run_spans(c.levelized, 0, active0.view(_U64), active1.view(_U64),
                    evaluate_and).view(np.uint8)
    if len(rest) or any(memoryview(f).nbytes for f in frames):
        raise GcError("tables run over the circuit's AND levels")
    return out


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
        """bits.shape + (16,) labels of bits the evaluator feeds, one dealt each.

        The evaluator passes the bits and sends e = bits ^ r as one
        OT_CHOICES frame (none for no bits); it gets its keys K, the active
        labels. The garbler passes its own XOR share of each bit (zeros where
        the evaluator alone holds it), receives e, and gets k0 ^ (e ^ bits)*R.
        """
        bits = np.asarray(bits, np.uint8)
        n, shape = bits.size, bits.shape + (16,)
        if not n:
            return np.zeros(shape, np.uint8)
        if self.role == 1:
            r, keys = self.labels.take(n)
            self.channel.send(transport.OT_CHOICES,
                              np.packbits(r ^ bits.ravel(), bitorder="little"))
            return keys.reshape(shape)
        (k0,) = self.labels.take(n)
        raw = self.channel.recv_expect(transport.OT_CHOICES, (n + 7) // 8)
        e = np.unpackbits(np.frombuffer(raw, np.uint8), count=n, bitorder="little")
        return k0.reshape(shape) ^ _mask16(e.reshape(bits.shape) ^ bits, self.R)

    def run(self, c: Circuit, bind0, bind1, cycles: int = 1, ninst: int = 1,
            decode: str = "evaluator"):
        """Garble/evaluate one circuit on its input groups' labels.

        bind0/bind1: YaoShares of (len(inputs0), ninst, 16) and
        (len(inputs1), ninst, 16) labels, zero labels at the garbler and
        active ones at the evaluator (b2y, run_shares, an earlier run), or
        None for a group with no wires; any other binding raises GcError
        before a frame. decode: "evaluator" (it alone learns the output
        bits) or "none" (both keep labels, for y2b). cycles must be 1.
        The tables cross in frame_schedule()'s frames, each sent as soon
        as its levels are garbled.
        Returns bits (nout, ninst) on the evaluator, None on the garbler,
        or a YaoShare of (nout, ninst, 16) labels when "none".
        """
        if cycles != 1:
            raise GcError(f"a circuit runs for one cycle, not {cycles}")
        if decode not in ("evaluator", "none"):
            raise GcError(f"decode policy {decode!r} is not 'evaluator' or 'none'")
        groups = []
        for k, (bind, wires) in enumerate(zip((bind0, bind1), (c.inputs0, c.inputs1))):
            labels = (np.zeros((0, ninst, 16), np.uint8) if bind is None
                      else getattr(bind, "labels", None))
            if np.shape(labels) != (len(wires), ninst, 16):
                raise GcError(f"input group {k} takes labels of shape {(len(wires), ninst, 16)}, "
                              f"not {None if bind is None else np.shape(labels)}")
            groups.append(labels)
        if self.role == 0:
            g = garble(c, self.R, *groups, ninst, self.tweak,
                       lambda frame: self.channel.send(transport.GC_TABLES, frame))
            if decode == "none":
                out = YaoShare(g.out_zero, 0)
            else:
                self.channel.send(transport.GC_DECODE, np.packbits(g.decode, bitorder="little"))
                out = None
        else:
            frames = (self.channel.recv_expect(transport.GC_TABLES, n)
                      for n in frame_schedule(c, ninst))
            active = evaluate(c, frames, *groups, ninst, self.tweak)
            if decode == "none":
                out = YaoShare(active, 1)
            else:
                nout = len(c.outputs)
                raw = self.channel.recv_expect(transport.GC_DECODE, (nout * ninst + 7) // 8)
                dec = np.unpackbits(np.frombuffer(raw, np.uint8), count=nout * ninst,
                                    bitorder="little").reshape(nout, ninst)
                out = (_lsb(active) ^ dec).astype(np.uint8)
        self.tweak += tweak_span(c, ninst)
        return out

    def run_shares(self, c: Circuit, bits: np.ndarray, ninst: int, decode: str):
        """run() on each role's own (ninst, width) share bits as its input
        group: the garbler's take zero labels x*R, the evaluator's dealt
        labels. Bits of another shape raise GcError before any is drawn."""
        n0, n1 = len(c.inputs0), len(c.inputs1)
        want = (ninst, (n0, n1)[self.role])
        if np.shape(bits) != want:
            raise GcError(f"role {self.role} feeds bits of shape {want}, not {np.shape(bits)}")
        bits = np.asarray(bits, np.uint8).T
        if self.role == 0:
            in0, in1 = _mask16(bits, self.R), self.input_labels(np.zeros((n1, ninst), np.uint8))
        else:
            in0, in1 = np.zeros((n0, ninst, 16), np.uint8), self.input_labels(bits)
        return self.run(c, YaoShare(in0, self.role), YaoShare(in1, self.role), ninst=ninst,
                        decode=decode)
