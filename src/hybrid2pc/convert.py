"""Share-type conversions between additive, Boolean, and garbled sharings.

Every conversion lives here; gc only garbles and evaluates. Routes follow
the cheapest-composition rule: the garbled<->Boolean hop is free (label
LSBs), so additive to Boolean is a2y then y2b, through the garbled
domain, and garbled to additive is y2b then a signed b2a, through the
Boolean one, which brings a2y's narrow output back as the whole shifted
value; callers compose them, and no function wraps either route. a2y
runs the garbled "identity" stage of circuits.stage_circuit as one
GcSession.run: a share adder, with the pending fixed-point shift as free
rewiring, whose output keeps only the l - shift bits the shifted value
needs. The two conversions on dealt correlations are:

  b2y  one dealt label per bit (GcSession.input_labels): role 1 sends
       e = s1 ^ r, and role 0 takes Y0 = k0 ^ (e ^ s0)*R, so that role
       1's K = k0 ^ r*R is Y0 ^ (s0 ^ s1)*R
  b2a  one dealt daBit per converted bit (correlated: a random bit b
       held as XOR shares b_i and as additive shares a_i): each role
       sends e_i = c_i ^ b_i, and with e = c ^ b public, role i takes
       [c]_i = i*e + a_i - 2e*a_i, so that [c]_0 + [c]_1 = e + b - 2eb = c

b2a's weights sign-extend a narrow value for free, so a value that fits
w bits costs w daBits and w bits each way, not l; a ReLU output, whose
sign bit is 0, converts only the w - 1 bits below it.

b2a is secure under the paper's non-colluding dealer: b = b0 ^ b1 is
uniform and each party knows only its own b_i, so e = c ^ b reveals
nothing about c; a1 = b - a0 is uniform in role 1's view, because a0
comes from seed0; and each daBit is spent once, through its Supply.

Validation of all routes is purely by reconstruction oracles.
"""

from __future__ import annotations

import numpy as np

from . import circuits, ring, transport
from .ass import ArithShare
from .correlated import Supply
from .gc import GcSession, YaoShare
from .gmw import BoolShare
from .ring import RingParams
from .transport import Channel


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
    return YaoShare(gc.input_labels(bs.bits.T), gc.role)  # (width, ninst, 16), a run's shape


def b2a(channel: Channel, p: RingParams, dabits: Supply, bs: BoolShare,
        signed: bool = False) -> ArithShare:
    """Boolean -> additive on one daBit from dabits per bit: one exchange
    of the masked bits e_i, packed LSB-first, on OT_CHOICES (none for a
    zero-width batch); the party's role is bs.role.

    Column j weighs 2^j. When signed, the w columns are a w-bit two's-
    complement value and the top one weighs -2^(w-1) mod 2^l, which
    sign-extends it to l bits; at w = l both readings agree.
    """
    bits = bs.bits
    ninst, w = bits.shape
    if not bits.size:
        return ArithShare(np.zeros(ninst, p.dtype), bs.role)
    b, a = dabits.take(bits.size)
    mine = bits.reshape(-1) ^ b
    theirs = channel.exchange(transport.OT_CHOICES, np.packbits(mine, bitorder="little"))
    e = mine ^ np.unpackbits(np.frombuffer(theirs, np.uint8), count=bits.size,
                             bitorder="little")
    c = bs.role * e + np.where(e.astype(bool), np.negative(a), a)  # i*e + a_i - 2e*a_i
    weights = np.ones(w, p.dtype) << np.arange(w, dtype=p.dtype)
    if signed:
        np.negative(weights[-1:], out=weights[-1:])
    return ArithShare((c.reshape(ninst, w) * weights).sum(axis=1, dtype=p.dtype), bs.role)
