"""Correlated randomness: triples, OT masks, and dot-product shares.

The dealer and the two parties all run the same seed expansion, so every
layout here is normative: role 0 expands seed0 into its full view, role 1
expands seed1 into everything except the correction values, and the dealer
expands both seeds to compute the corrections that complete role 1's view:

    A-MT   c1 = (a0+a1)*(b0+b1) - c0   (mod 2^l)
    B-MT   c1 = (a0^a1)&(b0^b1) ^ c0
    OT     qr = q_r, r drawn by the receiver side
    VDP    a3 = sum_j a0_j*a1_j - a2   (mod 2^l), one (a2, a3) per product

Each resource type reads from its own personalised DRBG substream, so
adding items of one kind never shifts the values of another. Within a
stream, elements are drawn in the documented order below; every ring
element consumes 8 stream bytes, bits are LSB-first within bytes.

Stream layouts:
    AMT  role 0: a[0..n) b[0..n) c[0..n)     role 1: a[0..n) b[0..n)
    BMT  role 0: a-bits, b-bits, c-bits      role 1: a-bits, b-bits
    OT   sender: q0,q1 interleaved per item  receiver: r bits
    VDP  role 0: per product: n_d elems, a2  role 1: per product: n_d elems

The manifest lists dot products as blocks (products, length), one per
linear layer, i.e. one per vdp call, in call order. A block's material is
one (products, length) mask matrix per role and one scalar per product;
blocking changes no stream byte, since the products are drawn in order.

Every stream is the CTR-DRBG of drbg.py, i.e. AES-CTR keystream rekeyed
every 64 KB; the typed draws are views over the bytes it writes. Role 0's
dealer bundle is seed0 alone; role 1's is laid out as

    seed1 | c1_amt (l-bit LE) | c1_bmt (packed, LSB-first) | qr | a3 (l-bit LE)

and is written once into one buffer by the dealer. open_bundle, the only
parser of a bundle, expands it into the role's PartyMaterial; bundle_size
gives its length, which the party also names when it receives it.

Online, every dealt item is single-use: reusing a Beaver triple or a
precomputed-OT mask leaks the inputs it masked. Each engine therefore
reads its material only through a Supply, a cursor over one resource's
parallel arrays. take(n) hands out the next n rows and never the same row
twice; a draw past the end raises Exhausted before the party sends
anything, so an over-drawing party puts no frame on the wire.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .drbg import SEED_BYTES, Drbg, personalization
from .ring import RingParams

MASK_BYTES = 16  # k = 128-bit OT masks

# Personalization tags, one substream per resource type.
TAG_AMT = 0x01
TAG_BMT = 0x02
TAG_OT_SEND = 0x03
TAG_OT_RECV = 0x04
TAG_VDP = 0x05


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


def _stream(seed: bytes, tag: int, index: int = 0) -> Drbg:
    return Drbg(seed, personalization(tag, index))


# ring l, alpha, beta | num_amt, num_bmt, num_ot; then one u32 pair
# (products, length) per dot-product block, the count implied by the size
_MANIFEST_HEAD = struct.Struct("<3B3Q")


@dataclass(frozen=True)
class ResourceManifest:
    """What a session needs dealt; must match byte-for-byte across parties."""

    session_id: bytes
    ring: RingParams
    num_amt: int = 0
    num_bmt: int = 0
    num_ot: int = 0
    vdp_blocks: tuple[tuple[int, int], ...] = ()  # (products, length) per vdp call

    def __post_init__(self):
        if len(self.session_id) != 16:
            raise ValueError("session id must be 16 bytes")
        if min((self.num_amt, self.num_bmt, self.num_ot), default=0) < 0:
            raise ValueError("negative resource count")
        blocks = np.asarray(self.vdp_blocks, dtype=np.int64).reshape(-1, 2)
        if blocks.size and (blocks.min() < 1 or blocks.max() > 0xFFFFFFFF):
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
                                   self.num_ot)
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
    amt_c: np.ndarray  # c0 seed-derived (role 0) / c1 dealt (role 1)
    bmt_a: np.ndarray
    bmt_b: np.ndarray
    bmt_c: np.ndarray
    ot_q: np.ndarray | None = None  # sender: (n, 2, 16) mask pairs
    ot_r: np.ndarray | None = None  # receiver: choice-mask bits
    ot_qr: np.ndarray | None = None  # receiver: (n, 16) selected masks
    # per dealt block: (products, length) masks, and a2 (role 0) / a3 (role 1)
    vdp_mask: list[np.ndarray] = field(default_factory=list)
    vdp_scalar: list[np.ndarray] = field(default_factory=list)


def _sections(buf, offset: int, p: RingParams, n_amt: int, n_bmt: int, n_ot: int,
              n_vdp: int) -> list[np.ndarray]:
    """Views of the four correction sections of buf, starting at offset."""
    dt = p.wire_dtype
    out = []
    for dtype, count in ((dt, n_amt), (np.uint8, (n_bmt + 7) // 8),
                         (np.uint8, n_ot * MASK_BYTES), (dt, n_vdp)):
        out.append(np.frombuffer(buf, dtype=dtype, count=count, offset=offset))
        offset += out[-1].nbytes
    out[2] = out[2].reshape(n_ot, MASK_BYTES)
    return out


def _payload_size(p: RingParams, n_amt: int, n_bmt: int, n_ot: int, n_vdp: int) -> int:
    return (n_amt + n_vdp) * p.nbytes + (n_bmt + 7) // 8 + n_ot * MASK_BYTES


def _counts(m: ResourceManifest) -> tuple[int, int, int, int]:
    """Items per correction section: A-MTs, B-MTs, OTs and dot products."""
    return m.num_amt, m.num_bmt, m.num_ot, sum(n for n, _ in m.vdp_blocks)


def bundle_size(role: int, m: ResourceManifest) -> int:
    """Bytes of role's dealer bundle for manifest m."""
    return SEED_BYTES + (_payload_size(m.ring, *_counts(m)) if role else 0)


@dataclass
class Corrections:
    """Dealer output completing role 1's view; the only non-seed payload."""

    c1_amt: np.ndarray
    c1_bmt: np.ndarray  # unpacked 0/1 bits
    qr: np.ndarray  # (n, 16)
    a3: np.ndarray

    def encode(self, p: RingParams, prefix: bytes = b"") -> bytearray:
        """prefix followed by the correction payload, written into one buffer."""
        counts = (len(self.c1_amt), len(self.c1_bmt), len(self.qr), len(self.a3))
        out = bytearray(len(prefix) + _payload_size(p, *counts))
        out[: len(prefix)] = prefix
        amt, bmt, qr, a3 = _sections(out, len(prefix), p, *counts)
        amt[...] = self.c1_amt
        bmt[...] = np.packbits(self.c1_bmt, bitorder="little")
        qr[...] = self.qr
        a3[...] = self.a3
        return out

    @classmethod
    def decode(cls, payload, m: ResourceManifest, offset: int = 0) -> "Corrections":
        """Parse payload[offset:], whose length the caller has checked
        (open_bundle); qr is a view into payload, not a copy."""
        amt, bmt, qr, a3 = _sections(payload, offset, m.ring, *_counts(m))
        c1_bmt = np.unpackbits(bmt, count=m.num_bmt, bitorder="little")
        return cls(amt.astype(np.uint64), c1_bmt, qr, a3.astype(np.uint64))


def _draw_vdp(d: Drbg, m: ResourceManifest, mask: int, with_scalar: bool):
    """Per block, the (products, length) masks and one scalar per product.

    One draw per role. Role 0's stream holds each product's length masks
    then its a2, so a block's slice is (products, length + 1); role 1's
    holds only the masks. Role 1's scalars are zero until corrected.
    """
    w = int(with_scalar)
    sizes = [n * (k + w) for n, k in m.vdp_blocks]
    raw = d.ring_elems(sum(sizes), mask)
    vecs, scalars = [], []
    for (n, k), part in zip(m.vdp_blocks, np.split(raw, np.cumsum(sizes)[:-1])):
        rows = part.reshape(n, k + w)
        vecs.append(np.ascontiguousarray(rows[:, :k]))
        scalars.append(rows[:, k].copy() if w else np.zeros(n, dtype=np.uint64))
    return vecs, scalars


def expand_role0(seed0: bytes, m: ResourceManifest) -> PartyMaterial:
    p = m.ring
    amt = _stream(seed0, TAG_AMT)
    a = amt.ring_elems(m.num_amt, p.mask)
    b = amt.ring_elems(m.num_amt, p.mask)
    c = amt.ring_elems(m.num_amt, p.mask)
    bmt = _stream(seed0, TAG_BMT)
    ba, bb, bc = (bmt.bits(m.num_bmt) for _ in range(3))
    q = _stream(seed0, TAG_OT_SEND).blocks(2 * m.num_ot).reshape(m.num_ot, 2, 16)
    vec, a2 = _draw_vdp(_stream(seed0, TAG_VDP), m, p.mask, with_scalar=True)
    return PartyMaterial(0, p, a, b, c, ba, bb, bc, ot_q=q, vdp_mask=vec, vdp_scalar=a2)


def expand_role1(seed1: bytes, m: ResourceManifest) -> PartyMaterial:
    """Role 1's seed-derived half; corrections still missing."""
    p = m.ring
    amt = _stream(seed1, TAG_AMT)
    a = amt.ring_elems(m.num_amt, p.mask)
    b = amt.ring_elems(m.num_amt, p.mask)
    bmt = _stream(seed1, TAG_BMT)
    ba, bb = bmt.bits(m.num_bmt), bmt.bits(m.num_bmt)
    r = _stream(seed1, TAG_OT_RECV).bits(m.num_ot)
    vec, zero = _draw_vdp(_stream(seed1, TAG_VDP), m, p.mask, with_scalar=False)
    empty = np.zeros(m.num_amt, dtype=np.uint64)
    return PartyMaterial(1, p, a, b, empty, ba, bb, np.zeros(m.num_bmt, dtype=np.uint8),
                         ot_r=r, vdp_mask=vec, vdp_scalar=zero)


_SELECT_CHUNK = 1 << 14  # OT items per pass; keeps each pass cache-resident


def _select_masks(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """qr = q[r] per item, as the branch-free q0 ^ ((q0 ^ q1) & -r) over
    64-bit words; q is (n, 2, 16) uint8, r is 0/1 per item."""
    words = q.view("<u8")  # (n, 2, 2): item, q0/q1, word
    sel = r.astype(np.uint64)
    np.negative(sel, out=sel)  # all-ones where r = 1
    out = np.empty((len(q), 2), dtype="<u8")
    for lo in range(0, len(q), _SELECT_CHUNK):
        hi = lo + _SELECT_CHUNK
        for w in (0, 1):
            q0, t = words[lo:hi, 0, w], out[lo:hi, w]
            np.bitwise_xor(q0, words[lo:hi, 1, w], out=t)
            t &= sel[lo:hi]
            t ^= q0
    return out.view(np.uint8)


def compute_corrections(seed0: bytes, seed1: bytes, m: ResourceManifest) -> Corrections:
    """The dealer's pass: expand both seeds, emit role 1's explicit values."""
    p = m.ring
    mask = np.uint64(p.mask)
    m0 = expand_role0(seed0, m)
    m1 = expand_role1(seed1, m)
    c1_amt = ((m0.amt_a + m1.amt_a) * (m0.amt_b + m1.amt_b) - m0.amt_c) & mask
    c1_bmt = ((m0.bmt_a ^ m1.bmt_a) & (m0.bmt_b ^ m1.bmt_b)) ^ m0.bmt_c
    qr = _select_masks(m0.ot_q, m1.ot_r)
    a3 = [((v0 * v1).sum(axis=1) - a2) & mask  # sums wrap mod 2^64, a multiple of 2^l
          for v0, v1, a2 in zip(m0.vdp_mask, m1.vdp_mask, m0.vdp_scalar)]
    return Corrections(c1_amt, c1_bmt, qr, np.concatenate([np.zeros(0, np.uint64), *a3]))


def open_bundle(role: int, payload, m: ResourceManifest) -> PartyMaterial:
    """One role's material from its dealer bundle; role 1's corrections
    stay views into payload. A bundle that disagrees with the manifest
    raises ValueError before any seed is expanded."""
    if len(payload) != bundle_size(role, m):
        raise ValueError(f"bundle of {len(payload)} bytes where the manifest "
                         f"implies {bundle_size(role, m)}")
    seed = bytes(payload[:SEED_BYTES])
    if role == 0:
        return expand_role0(seed, m)
    corr = Corrections.decode(payload, m, offset=SEED_BYTES)
    mat = expand_role1(seed, m)
    mat.amt_c = corr.c1_amt
    mat.bmt_c = corr.c1_bmt
    mat.ot_qr = corr.qr
    ends = np.cumsum([len(v) for v in mat.vdp_mask], dtype=np.int64)
    mat.vdp_scalar = [corr.a3[e - len(v) : e] for v, e in zip(mat.vdp_mask, ends)]
    return mat
