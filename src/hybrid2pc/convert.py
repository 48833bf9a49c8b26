"""Share-type conversions between additive, Boolean, and garbled sharings.

Routes follow the cheapest-composition rule: the garbled<->Boolean hop is
free (label LSBs), so a2b goes through the garbled domain (a2y then y2b)
and y2a through the Boolean one (y2b then b2a). a2y runs the garbled
"identity" stage of circuits.stage_circuit: a share adder, with the
pending fixed-point shift as free rewiring. The two OT-based conversions
are:

  b2y  one 128-bit OT per bit, messages (Y0 ^ s0*R, Y0 ^ (1-s0)*R)
  b2a  one l-bit OT per bit j, messages ((s0_j ^ b) * 2^j - r_j) mod 2^l

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
    discharges that many fixed-point scale bits for free on the way out.
    """
    c = circuits.stage_circuit("identity", p.l, shift)
    return gc.run_shares(c, ring.bits_of(x.value, p), len(x), "none")


def y2b(gc: GcSession, ys: YaoShare) -> BoolShare:
    """Free: both sides keep their label LSBs (LSB(R) = 1)."""
    return BoolShare(gc.y2b(ys), gc.role)


def b2y(gc: GcSession, bs: BoolShare) -> YaoShare:
    return gc.b2y(bs.bits)


def b2a(role: int, p: RingParams, ot: OtSender | OtReceiver, bs: BoolShare,
        rng: np.random.Generator | None = None) -> ArithShare:
    """Boolean -> additive via one l-bit OT per bit."""
    bits = bs.bits
    ninst, w = bits.shape
    mask = np.uint64(p.mask)
    weights = (np.uint64(1) << np.arange(w, dtype=np.uint64)) & mask
    if role == 0:
        rng = rng if rng is not None else np.random.default_rng()
        r = rng.integers(0, p.modulus, size=(ninst, w), dtype=np.uint64)
        contrib0 = (bits * weights) & mask  # share0_j * 2^j  (b = 0 case)
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
    return b2a(gc.role, p, ot, y2b(gc, ys), rng)
