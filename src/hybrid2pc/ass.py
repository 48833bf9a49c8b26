"""Additive secret sharing over Z_2^l and its multiplication protocols.

Linear algebra on shares is local. Two interactive primitives exist:

  mul_mt   shared x shared, one triple per product, both parties exchange
           masked operands (2l bits each way per product, one round)
  vdp      one linear layer: a block of equal-length dot products of a
           cleartext vector against a shared one, consuming one dealt
           block (products, length) and one correction scalar per product

vdp over blocks of length 1 is the offline-shifted three-party
(Du-Atallah) multiplication of a cleartext-at-role-0 x by a shared y, at
l bits each way per product.
All primitives are batched: any number of independent instances ride one
round. Triples and dot-product blocks are drawn from single-use supplies
(correlated.Supply) before anything is sent.

A party's input enters as its own share (share_input): the owner holds
x and the peer 0, with no frame and no draw. share, which splits a value
under masks from a caller's generator, serves tests and bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transport
from .correlated import PartyMaterial, Supply
from .drbg import Drbg
from .ring import RingParams, canon
from .transport import Channel


class AssError(RuntimeError):
    pass


@dataclass
class ArithShare:
    """One party's additive share vector."""

    value: np.ndarray  # ring elements, in the ring's dtype
    role: int

    def __post_init__(self):
        self.value = np.atleast_1d(self.value)

    def __len__(self):
        return len(self.value)


def share(x, p: RingParams, drbg: Drbg) -> tuple[ArithShare, ArithShare]:
    """Split x into (role 0, role 1) shares, masks from drbg; each alone is uniform."""
    x = canon(np.atleast_1d(x), p)
    r = drbg.ring_elems(x.size, p.dtype).reshape(x.shape)
    return ArithShare(r, 0), ArithShare(x - r, 1)


def linear(terms, p: RingParams, const=0) -> ArithShare:
    """sum_j eta_j * x_j (+ const, role 0 only); zero communication.

    terms: iterable of (eta, ArithShare) with a common role.
    """
    terms = list(terms)
    roles = {s.role for _, s in terms}
    if len(roles) != 1:
        raise AssError("linear combination mixes roles")
    role = roles.pop()
    acc = np.zeros(terms[0][1].value.shape, p.dtype)
    for eta, s in terms:
        acc += canon(int(eta) & p.mask, p) * canon(s.value, p)
    if role == 0 and const:
        acc += canon(int(const) & p.mask, p)
    return ArithShare(acc, role)


class AssEngine:
    """Per-session engine; owns this role's triple/VDP supplies."""

    def __init__(self, role: int, p: RingParams, channel: Channel,
                 material: PartyMaterial):
        self.role = role
        self.p = p
        self.channel = channel
        self.amt = Supply("amt", material.amt_a, material.amt_b, material.amt_c)
        # one row per dealt block: its (products, length) masks and scalars
        self.vdp_masks = Supply("vdp", material.vdp_mask, material.vdp_scalar)

    def mul_mt(self, x: ArithShare, y: ArithShare) -> ArithShare:
        """Triple-based multiplication, elementwise over the batch."""
        n = len(x)
        a, b, c = self.amt.take(n)
        e_share = canon(x.value, self.p) - a
        f_share = canon(y.value, self.p) - b
        other = self.p.from_wire(self.channel.exchange(
            transport.ASS_EF, self.p.to_wire(np.concatenate([e_share, f_share]))))
        e = e_share + other[:n]
        f = f_share + other[n:]
        z = f * a + e * b + c
        if self.role == 1:
            z += e * f
        return ArithShare(z, self.role)

    def vdp(self, x_clear, y: ArithShare, length: int) -> ArithShare:
        """Dot products of cleartext x (role 0) against shared y.

        x and y hold the products of the next dealt block back to back,
        each of the given length; the output has one share per product.
        The block must match: len(y) == products * length.
        """
        p = self.p
        (a_vec,), (scalar,) = self.vdp_masks.take(1)
        n, k = a_vec.shape
        if k != length or len(y) != n * k:
            raise AssError(f"{len(y)} elements in products of length {length} do "
                           f"not match the dealt block of {n} x {k}")
        a_vec, y_val = a_vec.reshape(-1), canon(y.value, p)
        if self.role == 0:
            x = canon(np.atleast_1d(x_clear), p)
            if len(x) != n * k:
                raise AssError("cleartext vector length does not match the block")
            v = p.from_wire(self.channel.exchange(transport.DA_MASKED, p.to_wire(x + a_vec)))
            # z0 = sum x*<y>0 - sum a0*(y1+a1) + a2, per product
            term = x * y_val - a_vec * v
        else:
            u = p.from_wire(self.channel.exchange(transport.DA_MASKED, p.to_wire(y_val + a_vec)))
            # z1 = sum <y>1*(x+a0) + a3, per product
            term = y_val * u
        return ArithShare(term.reshape(n, k).sum(axis=1, dtype=p.dtype) + scalar, self.role)

    def share_input(self, x, count: int, owner: int) -> ArithShare:
        """The owner's count elements x as (x, 0) shares: the owner keeps
        x as its share and the peer holds zeros. No frame crosses and
        nothing is drawn, as in the dealer-aided dot product, where each
        party brings its private vector as it is: every protocol that
        reads a share masks it with dealt randomness first (vdp's masks,
        the garbled adder's labels, daBits, Boolean triples), and no
        program sends a raw share."""
        if self.role != owner:
            return ArithShare(np.zeros(count, self.p.dtype), self.role)
        if len(x) != count:
            raise AssError(f"{len(x)} input elements where {count} were planned")
        return ArithShare(canon(x, self.p), self.role)
