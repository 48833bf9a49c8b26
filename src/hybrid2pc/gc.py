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
in one AES call; rotation is linear, so the garbler gets 2(X ^ R) ^ t as
2X ^ t ^ 2R. Each pass of a level runs over contiguous u64 words, never
along a pair, where numpy's inner loop would be two elements long: a call
builds (ninst, 2) tiles of R, 2R, the low-word 1 that reads a permute bit
and the high-word slot of an evaluator half once, permute masks are full
width, and table halves cross a frame as 16-byte elements (_V16). A level
computes in its hash block's rows once they are hashed; the evaluator
copies the halves out of a frame and never writes into one.

A run has one data shape: each input group's labels are its own
(width, ninst, 16) array, a YaoShare in and out of GcSession.run, which
takes labels only. Its tables cross as GC_TABLES frames of whole AND
levels, on a schedule both roles compute from the levelized circuit and
ninst (frame_schedule): the garbler writes each frame into its own buffer
and sends it as soon as its levels are garbled, and the evaluator
receives one when it reaches the frame's first level, so the two roles
work at once (pipelined garbling, Huang-Evans-Katz-Malka) and each holds
one frame at a time, next to the label rows of the live wires
(circuits.run_spans). run_shares turns share bits into labels; garble
draws nothing, and neither does GcSession. The conversions into and out
of the garbled domain live in convert.

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

_U64 = np.dtype("<u8")
_V16 = np.dtype("V16")  # a label or table half as one element
_ONE, _63 = np.uint64(1), np.uint64(63)


class GcError(RuntimeError):
    pass


# One fixed-key AES context per thread: keyed once, never shared, since
# both parties may garble and evaluate as threads of one process.
_fixed = threading.local()


def _fixed_key_encrypt(blk: np.ndarray) -> np.ndarray:
    enc = getattr(_fixed, "encrypt", None)
    if enc is None:
        enc = _fixed.encrypt = ecb_encryptor(FIXED_KEY)
    return enc(blk)


def _tile(pair, ninst: int) -> np.ndarray:
    """A u64 pair repeated as a contiguous (ninst, 2) tile."""
    return np.tile(np.asarray(pair, _U64), (ninst, 1))


class _Words:
    """A call's per-run tiles: lo1 reads a permute bit, hi1 is the
    evaluator half's tweak slot 1 in the high word (the generator's is 0),
    and inst + ands * ninst are a level's tweak counters."""

    def __init__(self, ninst: int, tweak: int):
        self.lo1, self.hi1 = _tile((1, 0), ninst), _tile((0, 1), ninst)
        self.inst = np.arange(ninst, dtype=_U64) + np.uint64(tweak)

    def hash_inputs(self, span, A, B, out: np.ndarray, carry: np.ndarray) -> None:
        """Into out (2, g, ninst, 2): 2A ^ t and 2B ^ t', hash inputs of the
        generator and evaluator halves on labels A and B. 2X shifts whole
        words, then ORs each word's top bit, taken into carry (scratch of
        out's shape), into the other; t enters as a zeroed pair array."""
        for x, o, c in zip((A, B), out, carry):
            np.left_shift(x, _ONE, out=o)
            np.right_shift(x, _63, out=c)
        out[..., 0] |= carry[..., 1]
        out[..., 1] |= carry[..., 0]
        tw = np.zeros(A.shape, _U64)
        np.add((span.ands.astype(_U64) * np.uint64(len(self.inst)))[:, None], self.inst,
               out=tw[..., 0])
        out ^= tw
        out[1] ^= self.hi1

    def masks(self, xs, out: np.ndarray) -> None:
        """Into out's rows: all-ones labels where each of xs has its permute
        bit set, else 0."""
        for x, o in zip(xs, out):
            np.bitwise_and(x, self.lo1, out=o)
        out[..., 1] = out[..., 0]
        np.negative(out, out=out)


def _hash(blk: np.ndarray) -> np.ndarray:
    """H(X, t) = E(2X ^ t) ^ 2X ^ t for blk's rows of hash inputs 2X ^ t."""
    out = _fixed_key_encrypt(blk)
    out ^= blk
    return out


def _lsb(x: np.ndarray) -> np.ndarray:
    return x[..., 0] & 1


def _mask16(bits: np.ndarray, v: np.ndarray) -> np.ndarray:
    """bits ? v : 0 over labels, for 0/1 bits: all-ones words ANDed with a
    tile of v, in an array that owns its bytes, which an XOR may reuse."""
    out = np.empty(bits.shape + (16,), np.uint8)
    words = out.view(_U64)
    words[..., 0] = words[..., 1] = bits
    np.negative(words, out=words)
    words &= _tile(v.view(_U64), bits.shape[-1])
    return out


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
    out_zero: np.ndarray  # (nout, ninst, 16) output zero labels
    decode: np.ndarray  # (nout, ninst) decode bits


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
           ninst: int = 1, tweak: int = 0, *, on_frame) -> Garbling:
    """Garble ninst instances of the circuit from the zero labels of each
    input group, (len(inputs0), ninst, 16) and (len(inputs1), ninst, 16);
    a pure function of its arguments. tweak is the first tweak counter;
    the run uses tweak_span() of them. on_frame receives each frame of
    frame_schedule() as soon as its levels are garbled, in its own buffer,
    which garble then drops: a run holds one frame of tables at a time.
    """
    R64 = R.view(_U64)
    Rt, rRt = _tile(R64, ninst), _tile(R64 << _ONE | (R64 >> _63)[::-1], ninst)
    words = _Words(ninst, tweak)
    sizes = frame_schedule(c, ninst)
    frame = np.empty(sizes[0] // 8, _U64)  # the frame being garbled
    pos = 0  # u64 words of it garbled

    def hand_on():
        nonlocal frame, pos
        if sizes and 8 * pos == sizes[0]:
            on_frame(frame)
            sizes.pop(0)
            frame, pos = np.empty(sizes[0] // 8 if sizes else 0, _U64), 0

    def garble_and(span, A0, B0):
        nonlocal pos
        g = len(span.ands)
        blk = np.empty((4, g, ninst, 2), dtype=_U64)
        words.hash_inputs(span, A0, B0, blk[:2], blk[2:])
        np.bitwise_xor(blk[:2], rRt, out=blk[2:])  # 2(X ^ R) ^ t = 2X ^ t ^ 2R
        ha0, hb0, ha1, hb1 = _hash(blk)
        pa, pb, tg, te = blk  # hashed: its rows take the masks and table halves
        words.masks((A0, B0), blk[:2])
        np.bitwise_and(pb, Rt, out=tg)
        tg ^= ha0
        tg ^= ha1
        hb1 ^= hb0  # te ^ A0
        np.bitwise_xor(hb1, A0, out=te)
        pair = frame[pos : pos + 4 * g * ninst].view(_V16).reshape(g, ninst, 2)
        pos += 4 * g * ninst
        pair[..., 0] = tg.view(_V16)[..., 0]
        pair[..., 1] = te.view(_V16)[..., 0]
        hb1 &= pb
        ha0 ^= hb0
        ha0 ^= hb1
        pa &= tg
        ha0 ^= pa
        hand_on()
        return ha0

    out_zero = run_spans(c.levelized, R64, zero0.view(_U64), zero1.view(_U64),
                         garble_and).view(np.uint8)
    hand_on()  # a 0-AND run's one empty frame
    return Garbling(out_zero, _lsb(out_zero))


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
    words = _Words(ninst, tweak)

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
        return np.frombuffer(table, dtype=_V16)

    def evaluate_and(span, Aa, Ba):
        g = len(span.ands)
        blk = np.empty((2, g, ninst, 2), dtype=_U64)
        words.hash_inputs(span, Aa, Ba, blk, np.empty_like(blk))
        ha, hb = _hash(blk)
        pair = level_table(32 * g * ninst).reshape(g, ninst, 2)
        half, mask = blk  # hashed: its rows take a half, copied out of the frame, and a mask
        half.view(_V16)[..., 0] = pair[..., 0]
        words.masks((Aa,), blk[1:])
        half &= mask
        ha ^= half
        half.view(_V16)[..., 0] = pair[..., 1]
        half ^= Aa
        words.masks((Ba,), blk[1:])
        half &= mask
        ha ^= half
        ha ^= hb
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
                       on_frame=lambda frame: self.channel.send(transport.GC_TABLES, frame))
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
