"""Share-type conversions between additive, Boolean, and garbled sharings.

Every conversion lives here; gc only garbles and evaluates. Routes follow
the cheapest-composition rule: the garbled<->Boolean hop is free (label
LSBs), so a2b goes through the garbled domain (a2y then y2b) and y2a
through the Boolean one (y2b then b2a). a2y runs the garbled "identity"
stage of circuits.stage_circuit as one GcSession.run: a share adder, with
the pending fixed-point shift as free rewiring, whose output keeps only
the l - shift bits the shifted value needs. The two OT-based conversions
are:

  b2y  one 128-bit OT per bit, messages (Y0 ^ s0*R, Y0 ^ (1-s0)*R)
  b2a  one l-bit OT per converted bit j, messages
       ((s0_j ^ b) * c_j - r_j) mod 2^l, with weight c_j = 2^j, except
       that the top bit of a signed w-bit value weighs -2^(w-1) mod 2^l

b2a's weights sign-extend a narrow value for free, so a value that fits w
bits costs w OTs, not l; a ReLU output, whose sign bit is 0, converts
only the w - 1 bits below it (ABY, NDSS 2015, prices b2a at one OT per
converted bit).

Validation of all routes is purely by reconstruction oracles.
"""

from __future__ import annotations

import numpy as np

from . import circuits, ring
from .ass import ArithShare
from .gc import GcSession, YaoShare
from .gmw import BoolShare
from .ot import OtReceiver, OtSender
from .ring import RingParams


def a2y(gc: GcSession, x: ArithShare, p: RingParams, shift: int = 0) -> YaoShare:
    """Garbled sharing of x0 + x1 mod 2^l: the "identity" stage circuit.

    Both parties feed their additive shares; shift > 0 additionally
    discharges that many fixed-point scale bits for free on the way out,
    and the result is the l - shift low bits of the shifted value, a
    two's-complement number that b2a sign-extends.
    """
    c = circuits.stage_circuit("identity", p.l, shift)
    return gc.run_shares(c, ring.bits_of(x.value, p), len(x), "none")


def y2b(gc: GcSession, ys: YaoShare) -> BoolShare:
    """Free: both sides keep their label LSBs (LSB(R) = 1)."""
    return BoolShare(ys.lsb_bits(), gc.role)


def b2y(gc: GcSession, bs: BoolShare) -> YaoShare:
    """Boolean -> garbled via one 128-bit OT per bit; the garbler draws
    zero labels Y0, the evaluator ends up holding Y0 ^ (s0 ^ s1)*R."""
    bits = bs.bits
    if gc.role == 0:
        y0 = gc.rng.integers(0, 256, size=bits.shape + (16,), dtype=np.uint8)
        m0 = y0.reshape(-1, 16) ^ bits.reshape(-1, 1) * gc.R
        gc.ot.send(m0, m0 ^ gc.R, 128)
        return YaoShare(y0, 0)
    got = gc.ot.recv(bits.reshape(-1), 128)
    return YaoShare(got.reshape(bits.shape + (16,)), 1)


def b2a(role: int, p: RingParams, ot: OtSender | OtReceiver, bs: BoolShare,
        rng: np.random.Generator | None = None, signed: bool = False) -> ArithShare:
    """Boolean -> additive via one l-bit OT per bit column.

    Column j weighs 2^j. When signed, the w columns are a w-bit two's-
    complement value and the top one weighs -2^(w-1) mod 2^l, which
    sign-extends it to l bits; at w = l both readings agree.
    """
    bits = bs.bits
    ninst, w = bits.shape
    mask = np.uint64(p.mask)
    weights = (np.uint64(1) << np.arange(w, dtype=np.uint64)) & mask
    if signed and w:
        weights[-1] = mask - weights[-1] + np.uint64(1)
    if role == 0:
        rng = rng if rng is not None else np.random.default_rng()
        r = rng.integers(0, p.modulus, size=(ninst, w), dtype=np.uint64)
        contrib0 = (bits * weights) & mask  # share0_j * c_j  (b = 0 case)
        contrib1 = ((bits ^ 1) * weights) & mask
        m0 = (contrib0 - r) & mask
        m1 = (contrib1 - r) & mask
        ot.send_ring(m0.reshape(-1), m1.reshape(-1), p)
        return ArithShare(r.sum(axis=1, dtype=np.uint64) & mask, 0)
    got = ot.recv_ring(bits.reshape(-1), p).reshape(ninst, w)
    return ArithShare(got.sum(axis=1, dtype=np.uint64) & mask, 1)


def a2b(gc: GcSession, x: ArithShare, p: RingParams, shift: int = 0) -> BoolShare:
    return y2b(gc, a2y(gc, x, p, shift))


def y2a(gc: GcSession, p: RingParams, ot, ys: YaoShare,
        rng: np.random.Generator | None = None) -> ArithShare:
    """Reads ys as a two's-complement value of its width, so that a2y's
    narrow output comes back as the whole shifted value."""
    return b2a(gc.role, p, ot, y2b(gc, ys), rng, signed=True)
