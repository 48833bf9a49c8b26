"""Additive secret sharing over Z_2^l and its multiplication protocols.

Linear algebra on shares is local. Three interactive primitives exist:

  mul_mt   shared x shared, one triple per product, both parties exchange
           masked operands (2l bits each way per product, one round)
  mul_da   cleartext-at-role-0 x shared, the offline-shifted three-party
           multiplication (l bits each way per product, one round)
  vdp      one linear layer: a block of equal-length dot products of a
           cleartext vector against a shared one, consuming one dealt
           block (products, length) and one correction scalar per product

mul_da is vdp over a block of length 1 and shares its randomness.
All primitives are batched: any number of independent instances ride one
round. Triples and dot-product blocks are drawn from single-use supplies
(correlated.Supply) before anything is sent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transport
from .correlated import PartyMaterial, Supply
from .ring import RingParams
from .transport import Channel


class AssError(RuntimeError):
    pass


@dataclass
class ArithShare:
    """One party's additive share vector."""

    value: np.ndarray  # uint64, canonical residues
    role: int

    def __post_init__(self):
        self.value = np.atleast_1d(np.asarray(self.value, dtype=np.uint64))

    def __len__(self):
        return len(self.value)


def share(x, p: RingParams, rng: np.random.Generator) -> tuple[ArithShare, ArithShare]:
    """Split x into (role 0, role 1) shares; each alone is uniform."""
    x = np.atleast_1d(np.asarray(x, dtype=np.uint64)) & np.uint64(p.mask)
    r = rng.integers(0, p.modulus, size=x.shape, dtype=np.uint64)
    return ArithShare(r, 0), ArithShare((x - r) & np.uint64(p.mask), 1)


def reconstruct(s0: ArithShare, s1: ArithShare, p: RingParams) -> np.ndarray:
    if s0.role == s1.role:
        raise AssError("reconstruct needs one share from each role")
    return (s0.value + s1.value) & np.uint64(p.mask)


def linear(terms, p: RingParams, const=0) -> ArithShare:
    """sum_j eta_j * x_j (+ const, role 0 only); zero communication.

    terms: iterable of (eta, ArithShare) with a common role.
    """
    terms = list(terms)
    roles = {s.role for _, s in terms}
    if len(roles) != 1:
        raise AssError("linear combination mixes roles")
    role = roles.pop()
    mask = np.uint64(p.mask)
    acc = np.zeros_like(terms[0][1].value)
    for eta, s in terms:
        acc = (acc + (np.uint64(int(eta) & p.mask) * s.value)) & mask
    if role == 0 and const:
        acc = (acc + np.uint64(int(const) & p.mask)) & mask
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

    # wire helpers

    def _elems_to_bytes(self, v: np.ndarray) -> bytes:
        return np.ascontiguousarray(v.astype(self.p.wire_dtype)).tobytes()

    def _bytes_to_elems(self, raw) -> np.ndarray:
        return np.frombuffer(raw, dtype=self.p.wire_dtype).astype(np.uint64)

    # protocols

    def mul_mt(self, x: ArithShare, y: ArithShare) -> ArithShare:
        """Triple-based multiplication, elementwise over the batch."""
        mask = np.uint64(self.p.mask)
        n = len(x)
        a, b, c = self.amt.take(n)
        e_share = (x.value - a) & mask
        f_share = (y.value - b) & mask
        theirs = self.channel.exchange(
            transport.ASS_EF, self._elems_to_bytes(np.concatenate([e_share, f_share]))
        )
        other = self._bytes_to_elems(theirs)
        e = (e_share + other[:n]) & mask
        f = (f_share + other[n:]) & mask
        z = (f * a + e * b + c) & mask
        if self.role == 1:
            z = (z + e * f) & mask
        return ArithShare(z, self.role)

    def mul_da(self, x_clear, y: ArithShare) -> ArithShare:
        """Du-Atallah multiplication: role 0 holds x in the clear."""
        return self.vdp(x_clear, y, 1)

    def vdp(self, x_clear, y: ArithShare, length: int) -> ArithShare:
        """Dot products of cleartext x (role 0) against shared y.

        x and y hold the products of the next dealt block back to back,
        each of the given length; the output has one share per product.
        The block must match: len(y) == products * length.
        """
        mask = np.uint64(self.p.mask)
        (a_vec,), (scalar,) = self.vdp_masks.take(1)
        n, k = a_vec.shape
        if k != length or len(y) != n * k:
            raise AssError(f"{len(y)} elements in products of length {length} do "
                           f"not match the dealt block of {n} x {k}")
        a_vec = a_vec.reshape(-1)
        if self.role == 0:
            x = np.atleast_1d(np.asarray(x_clear, dtype=np.uint64)) & mask
            if len(x) != n * k:
                raise AssError("cleartext vector length does not match the block")
            u = (x + a_vec) & mask
            v = self._bytes_to_elems(
                self.channel.exchange(transport.DA_MASKED, self._elems_to_bytes(u)))
            # z0 = sum x*<y>0 - sum a0*(y1+a1) + a2, per product
            term = x * y.value - a_vec * v
        else:
            v = (y.value + a_vec) & mask
            u = self._bytes_to_elems(
                self.channel.exchange(transport.DA_MASKED, self._elems_to_bytes(v)))
            # z1 = sum <y>1*(x+a0) + a3, per product
            term = y.value * u
        # uint64 arithmetic wraps mod 2^64, a multiple of 2^l: mask once
        return ArithShare((term.reshape(n, k).sum(axis=1) + scalar) & mask, self.role)

    def share_input(self, x, count: int, owner: int,
                    rng: np.random.Generator) -> ArithShare:
        """Owner splits its count elements x and ships the peer's share;
        one message, which the peer receives as count elements."""
        if self.role == owner:
            if len(x) != count:
                raise AssError(f"{len(x)} input elements where {count} were planned")
            mine, theirs = share(x, self.p, rng)
            if owner == 1:
                mine, theirs = theirs, mine
            self.channel.send(transport.APP_SHARE, self._elems_to_bytes(theirs.value))
            return ArithShare(mine.value, self.role)
        raw = self.channel.recv_expect(transport.APP_SHARE, count * self.p.nbytes)
        return ArithShare(self._bytes_to_elems(raw), self.role)
