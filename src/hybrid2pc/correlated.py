"""Correlated randomness: triples, daBits, labels and dot-product shares.

The dealer and the two parties all run the same seed expansion, so every
layout here is normative: role 0 expands seed0 into its full view, role 1
expands seed1 into everything except the correction values, and the dealer
expands both seeds to compute the corrections that complete role 1's view:

    A-MT   c1 = (a0+a1)*(b0+b1) - c0   (mod 2^l)
    B-MT   c1 = (a0^a1)&(b0^b1) ^ c0
    daBit  a1 = (b0^b1) - a0   (mod 2^l), b_i drawn by role i, a0 by role 0
    label  K = k0 ^ r*delta, r drawn by role 1, delta (lsb 1) by role 0
    VDP    a3 = sum_j a0_j*a1_j - a2   (mod 2^l), one (a2, a3) per product

A label is a Delta-correlated OT (Beaver's precomputed OT with the
correlated OT of Asharov et al., CCS 2013) whose offset delta is the
session's free-XOR offset: role 0 holds delta and k0, role 1 holds r and
K, and gc turns each into one garbled input wire of the evaluator.

Each resource type reads from its own personalised DRBG substream, so
adding items of one kind never shifts the values of another. Within a
stream, elements are drawn in the documented order below; a ring element
consumes l/8 stream bytes and a label key 16, and bits are LSB-first
within bytes.

Every ring element is held in the ring's dtype (ring.RingParams.dtype), so
the sums and products below wrap mod 2^l by themselves.

Stream layouts:
    AMT  role 0: a[0..n) b[0..n) c[0..n)     role 1: a[0..n) b[0..n)
    BMT  role 0: a-bits, b-bits, c-bits      role 1: a-bits, b-bits
    DAB  role 0: b-bits, a0[0..n)            role 1: b-bits
    LAB  role 0: delta, then k0 blocks       role 1: r bits
    VDP  role 0: per product: n_d elems, a2  role 1: per product: n_d elems

The manifest lists dot products as blocks (products, length), one per
linear layer, i.e. one per vdp call, in call order. A block's material is
one (products, length) mask matrix per role and one scalar per product;
blocking changes no stream byte, since the products are drawn in order.

A daBit (Rotaru-Wood, INDOCRYPT 2019) is a random bit b = b0 ^ b1 that
the parties also hold as additive shares a0 + a1 = b (mod 2^l), in the
ring's dtype; role 1's a1 is an (n,) view of the bundle's a1 section. A
label stays 128 bits, the width of a garbled wire's key.

Every stream is the CTR-DRBG of drbg.py, i.e. AES-CTR keystream rekeyed
every 64 KB; the typed draws read the bytes it writes. Role 0's
dealer bundle is seed0 alone; role 1's is laid out as

    seed1 | c1_amt (ring dtype) | c1_bmt (packed, LSB-first) | a1 (ring dtype)
          | K (16 bytes each) | a3 (ring dtype)

and is written once into one buffer by compute_corrections, the dealer's
pass. _layout sets each section's order, dtype and count; open_bundle, the
only parser of a bundle, reads the sections back into the role's
PartyMaterial as views, and bundle_size gives the length that the party
also names when it receives it.

Online, every dealt item is single-use: reusing a Beaver triple or a
daBit leaks the inputs it masked. Each engine therefore reads its
material only through a Supply, a cursor over one resource's parallel
arrays. take(n) hands out the next n rows and never the same row twice;
a draw past the end raises Exhausted before the party sends anything, so
an over-drawing party puts no frame on the wire.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .drbg import SEED_BYTES, Drbg, personalization
from .ring import RingParams

# Personalization tags, one substream per resource type.
TAG_AMT = 0x01
TAG_BMT = 0x02
TAG_DABIT = 0x03
TAG_VDP = 0x05
TAG_LABEL_SEND = 0x06
TAG_LABEL_RECV = 0x07


class Exhausted(RuntimeError):
    """A draw asked for more dealt items than the supply has left."""


class Supply:
    """Single-use rows of one dealt resource over its parallel arrays.

    Built without arrays (no material dealt), every draw fails.
    """

    def __init__(self, name: str, *arrays):
        self.name = name
        self.arrays = arrays
        self.used = 0

    def left(self) -> int:
        return len(self.arrays[0]) - self.used if self.arrays else 0

    def take(self, n: int) -> tuple:
        """The next n rows of every array; raises Exhausted, taking nothing."""
        if not self.arrays or n > self.left():
            raise Exhausted(f"need {n} {self.name}, {self.left()} left (single-use)")
        rows = slice(self.used, self.used + n)
        self.used += n
        return tuple(a[rows] for a in self.arrays)


def _stream(seed: bytes, tag: int) -> Drbg:
    return Drbg(seed, personalization(tag))


# ring l, alpha, beta | num_amt, num_bmt, num_dabits, num_labels; then one
# u32 pair (products, length) per dot-product block, the count implied by
# the size
_MANIFEST_HEAD = struct.Struct("<3B4I")
_U32_MAX = 0xFFFFFFFF


@dataclass(frozen=True)
class ResourceManifest:
    """What a session needs dealt; must match byte-for-byte across parties."""

    session_id: bytes
    ring: RingParams
    num_amt: int = 0
    num_bmt: int = 0
    num_dabits: int = 0  # daBits (b2a, one per converted bit)
    num_labels: int = 0  # Delta-correlated labels (the evaluator's garbled inputs)
    vdp_blocks: tuple[tuple[int, int], ...] = ()  # (products, length) per vdp call

    def __post_init__(self):
        if len(self.session_id) != 16:
            raise ValueError("session id must be 16 bytes")
        counts = (self.num_amt, self.num_bmt, self.num_dabits, self.num_labels)
        if not all(0 <= n <= _U32_MAX for n in counts):
            raise ValueError(f"resource counts {counts} are not all 0 to 2^32-1")
        blocks = np.asarray(self.vdp_blocks, dtype=np.int64).reshape(-1, 2)
        if blocks.size and (blocks.min() < 1 or blocks.max() > _U32_MAX):
            raise ValueError("dot-product blocks need 1 to 2^32-1 products and length")
        object.__setattr__(self, "vdp_blocks", tuple(map(tuple, blocks.tolist())))

    @property
    def vdp_lengths(self) -> tuple[int, ...]:
        """One length per dot product, expanded from vdp_blocks. The
        protocol works on blocks; this stays because perfbench/spans.py
        reads it for its correlated.vdp_* counters, which would otherwise
        read 0 without an error."""
        return tuple(k for n, k in self.vdp_blocks for _ in range(n))

    def encode(self) -> bytes:
        """Manifest payload; the session id travels in the frame header."""
        p = self.ring
        head = _MANIFEST_HEAD.pack(p.l, p.alpha, p.beta, self.num_amt, self.num_bmt,
                                   self.num_dabits, self.num_labels)
        return head + np.asarray(self.vdp_blocks, dtype="<u4").tobytes()

    @classmethod
    def decode(cls, session_id: bytes, payload: bytes) -> "ResourceManifest":
        if len(payload) < _MANIFEST_HEAD.size or (len(payload) - _MANIFEST_HEAD.size) % 8:
            raise ValueError("manifest payload is not a head plus u32 pairs")
        l, alpha, beta, *counts = _MANIFEST_HEAD.unpack_from(payload)
        blocks = np.frombuffer(payload, dtype="<u4", offset=_MANIFEST_HEAD.size)
        return cls(session_id, RingParams(l, alpha, beta), *counts, blocks.reshape(-1, 2))


@dataclass
class PartyMaterial:
    """Everything one role holds after the offline phase."""

    role: int
    ring: RingParams
    amt_a: np.ndarray
    amt_b: np.ndarray
    amt_c: np.ndarray | None  # c0 seed-derived (role 0) / c1 dealt (role 1)
    bmt_a: np.ndarray
    bmt_b: np.ndarray
    bmt_c: np.ndarray | None
    dabit_b: np.ndarray | None = None  # daBits: this role's XOR share bits b_i
    dabit_a: np.ndarray | None = None  # and its additive shares a_i, ring dtype
    delta: np.ndarray | None = None  # role 0: the free-XOR offset, 16 bytes, lsb 1
    label_k0: np.ndarray | None = None  # role 0: (n, 16) zero keys
    label_r: np.ndarray | None = None  # role 1: label bits r
    label_k: np.ndarray | None = None  # role 1: (n, 16) keys k0 ^ r*delta
    # per dealt block: (products, length) masks, and a2 (role 0) / a3 (role 1)
    vdp_mask: list[np.ndarray] = field(default_factory=list)
    vdp_scalar: list[np.ndarray] = field(default_factory=list)


def _layout(m: ResourceManifest) -> tuple[tuple[np.dtype, int], ...]:
    """Role 1's correction sections in bundle order, as (dtype, count):
    c1_amt, c1_bmt packed LSB-first, daBit a1, K, a3."""
    dt, u8 = m.ring.dtype, np.dtype(np.uint8)
    return ((dt, m.num_amt), (u8, (m.num_bmt + 7) // 8), (dt, m.num_dabits),
            (u8, m.num_labels * 16), (dt, sum(n for n, _ in m.vdp_blocks)))


def _sections(buf, m: ResourceManifest) -> list[np.ndarray]:
    """Views of the five correction sections of role 1's bundle buf."""
    offset, out = SEED_BYTES, []
    for dtype, count in _layout(m):
        out.append(np.frombuffer(buf, dtype=dtype, count=count, offset=offset))
        offset += out[-1].nbytes
    out[3] = out[3].reshape(m.num_labels, 16)
    return out


def bundle_size(role: int, m: ResourceManifest) -> int:
    """Bytes of role's dealer bundle for manifest m."""
    return SEED_BYTES + (sum(dt.itemsize * n for dt, n in _layout(m)) if role else 0)


def _draw_vdp(d: Drbg, m: ResourceManifest, with_scalar: bool):
    """Per block, the (products, length) masks and one scalar per product.

    One draw per role. Role 0's stream holds each product's length masks
    then its a2, so a block's slice is (products, length + 1); role 1's
    holds only the masks, and its scalars come from the bundle.
    """
    w = int(with_scalar)
    sizes = [n * (k + w) for n, k in m.vdp_blocks]
    raw = d.ring_elems(sum(sizes), m.ring.dtype)
    vecs, scalars = [], []
    for (n, k), part in zip(m.vdp_blocks, np.split(raw, np.cumsum(sizes)[:-1])):
        rows = part.reshape(n, k + w)
        vecs.append(np.ascontiguousarray(rows[:, :k]))
        if w:
            scalars.append(rows[:, k].copy())
    return vecs, scalars


def expand_role0(seed0: bytes, m: ResourceManifest) -> PartyMaterial:
    p = m.ring
    amt = _stream(seed0, TAG_AMT)
    a, b, c = (amt.ring_elems(m.num_amt, p.dtype) for _ in range(3))
    bmt = _stream(seed0, TAG_BMT)
    ba, bb, bc = (bmt.bits(m.num_bmt) for _ in range(3))
    dab = _stream(seed0, TAG_DABIT)
    db, da = dab.bits(m.num_dabits), dab.ring_elems(m.num_dabits, p.dtype)
    keys = _stream(seed0, TAG_LABEL_SEND).blocks(1 + m.num_labels)
    delta = keys[0].copy()
    delta[0] |= 1  # the point-and-permute bit of every label pair differs
    vec, a2 = _draw_vdp(_stream(seed0, TAG_VDP), m, with_scalar=True)
    return PartyMaterial(0, p, a, b, c, ba, bb, bc, dabit_b=db, dabit_a=da, delta=delta,
                         label_k0=keys[1:], vdp_mask=vec, vdp_scalar=a2)


def expand_role1(seed1: bytes, m: ResourceManifest) -> PartyMaterial:
    """Role 1's seed-derived half; amt_c, bmt_c, dabit_a, label_k and
    vdp_scalar stay unset until open_bundle reads them from the
    corrections. Role 1 never learns delta."""
    p = m.ring
    amt = _stream(seed1, TAG_AMT)
    a, b = (amt.ring_elems(m.num_amt, p.dtype) for _ in range(2))
    bmt = _stream(seed1, TAG_BMT)
    ba, bb = bmt.bits(m.num_bmt), bmt.bits(m.num_bmt)
    db = _stream(seed1, TAG_DABIT).bits(m.num_dabits)
    lr = _stream(seed1, TAG_LABEL_RECV).bits(m.num_labels)
    vec, _ = _draw_vdp(_stream(seed1, TAG_VDP), m, with_scalar=False)
    return PartyMaterial(1, p, a, b, None, ba, bb, None, dabit_b=db, label_r=lr, vdp_mask=vec)


def _correlate(k0: np.ndarray, delta: np.ndarray, r: np.ndarray) -> np.ndarray:
    """K = k0 ^ r*delta per label, as k0 ^ (delta & -r) over 64-bit words."""
    sel = np.negative(r.astype(np.uint64))
    return (k0.view("<u8") ^ (sel[:, None] & delta.view("<u8"))).view(np.uint8)


def compute_corrections(seed0: bytes, seed1: bytes, m: ResourceManifest) -> bytearray:
    """The dealer's pass: expand both seeds and write role 1's bundle,
    seed1 followed by its correction sections."""
    m0 = expand_role0(seed0, m)
    m1 = expand_role1(seed1, m)
    c1_amt = (m0.amt_a + m1.amt_a) * (m0.amt_b + m1.amt_b) - m0.amt_c
    c1_bmt = ((m0.bmt_a ^ m1.bmt_a) & (m0.bmt_b ^ m1.bmt_b)) ^ m0.bmt_c
    a1 = (m0.dabit_b ^ m1.dabit_b).astype(m.ring.dtype) - m0.dabit_a
    keys = _correlate(m0.label_k0, m0.delta, m1.label_r)
    a3 = np.concatenate([np.zeros(0, m.ring.dtype)] + [
        np.einsum("ij,ij->i", v0, v1) - a2
        for v0, v1, a2 in zip(m0.vdp_mask, m1.vdp_mask, m0.vdp_scalar)])
    # a3 is built whole and both expanded views (tens of MB for a CNN batch)
    # are dropped before the bundle is allocated: holding the views, or even
    # the per-block a3 pieces, through that allocation lands the bundle on
    # fresh pages and measurably slows the pass.
    del m0, m1
    out = bytearray(bundle_size(1, m))
    out[:SEED_BYTES] = seed1
    values = (c1_amt, np.packbits(c1_bmt, bitorder="little"), a1, keys, a3)
    for section, v in zip(_sections(out, m), values):
        section[...] = v
    return out


def open_bundle(role: int, payload, m: ResourceManifest) -> PartyMaterial:
    """One role's material from its dealer bundle; role 1's c1, daBit
    shares a1, label keys and a3 stay views into payload. A bundle that
    disagrees with the manifest raises ValueError before any seed is
    expanded."""
    if len(payload) != bundle_size(role, m):
        raise ValueError(f"bundle of {len(payload)} bytes where the manifest "
                         f"implies {bundle_size(role, m)}")
    seed = bytes(payload[:SEED_BYTES])
    if role == 0:
        return expand_role0(seed, m)
    amt, bmt, a1, keys, a3 = _sections(payload, m)
    mat = expand_role1(seed, m)
    mat.amt_c = amt
    mat.bmt_c = np.unpackbits(bmt, count=m.num_bmt, bitorder="little")
    mat.dabit_a = a1
    mat.label_k = keys
    ends = np.cumsum([n for n, _ in m.vdp_blocks], dtype=np.int64)
    mat.vdp_scalar = [a3[e - n : e] for (n, _), e in zip(m.vdp_blocks, ends)]
    return mat
