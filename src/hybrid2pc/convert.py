"""Share-type conversions between additive, Boolean, and garbled sharings.

Every conversion lives here; gc only garbles and evaluates. Routes follow
the cheapest-composition rule: the garbled<->Boolean hop is free (label
LSBs), so a2b goes through the garbled domain (a2y then y2b) and y2a
through the Boolean one (y2b then b2a). a2y runs the garbled "identity"
stage of circuits.stage_circuit as one GcSession.run: a share adder, with
the pending fixed-point shift as free rewiring, whose output keeps only
the l - shift bits the shifted value needs. The two conversions on dealt
correlations are:

  b2y  one dealt label per bit (GcSession.input_labels): role 1 sends
       e = s1 ^ r, and role 0 takes Y0 = k0 ^ (e ^ s0)*R, so that role
       1's K = k0 ^ r*R is Y0 ^ (s0 ^ s1)*R
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
from .drbg import Drbg
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
    """Boolean -> garbled on one dealt label per bit: the garbler ends up
    with zero labels Y0, the evaluator with Y0 ^ (s0 ^ s1)*R."""
    labels = gc.input_labels(bs.bits)
    return YaoShare(labels.reshape(bs.bits.shape + (16,)), gc.role)


def b2a(role: int, p: RingParams, ot: OtSender | OtReceiver, bs: BoolShare,
        drbg: Drbg, signed: bool = False) -> ArithShare:
    """Boolean -> additive via one l-bit OT per bit column, all columns in
    one OtSender.send / OtReceiver.recv batch of ring elements. Role 0
    draws its masks r, one ring element per bit, from drbg, the session's
    generator (PartySession.drbg).

    Column j weighs 2^j. When signed, the w columns are a w-bit two's-
    complement value and the top one weighs -2^(w-1) mod 2^l, which
    sign-extends it to l bits; at w = l both readings agree.
    """
    bits = bs.bits
    ninst, w = bits.shape
    weights = np.ones(w, p.dtype) << np.arange(w, dtype=p.dtype)
    if signed and w:
        np.negative(weights[-1:], out=weights[-1:])
    if role == 0:
        r = drbg.ring_elems(ninst * w, p.dtype).reshape(ninst, w)
        m0 = bits * weights - r  # share0_j * c_j - r_j  (b = 0 case)
        m1 = (bits ^ 1) * weights - r
        ot.send(m0.reshape(-1), m1.reshape(-1))
        return ArithShare(r.sum(axis=1, dtype=p.dtype), 0)
    got = ot.recv(bits.reshape(-1), p.l).reshape(ninst, w)
    return ArithShare(got.sum(axis=1, dtype=p.dtype), 1)


def a2b(gc: GcSession, x: ArithShare, p: RingParams, shift: int = 0) -> BoolShare:
    return y2b(gc, a2y(gc, x, p, shift))


def y2a(gc: GcSession, p: RingParams, ot, ys: YaoShare, drbg: Drbg) -> ArithShare:
    """Reads ys as a two's-complement value of its width, so that a2y's
    narrow output comes back as the whole shifted value."""
    return b2a(gc.role, p, ot, y2b(gc, ys), drbg, signed=True)
