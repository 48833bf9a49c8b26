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

Every stream is the CTR-DRBG of drbg.py, i.e. AES-CTR keystream rekeyed
every 64 KB; the typed draws are views over the bytes it writes. Role 1's
bundle is laid out as

    seed1 | c1_amt (l-bit LE) | c1_bmt (packed, LSB-first) | qr | a3 (l-bit LE)

and is written once into one buffer by the dealer and read back through
views of the received payload by the client.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .drbg import Drbg, personalization
from .ring import RingParams

MASK_BYTES = 16  # k = 128-bit OT masks

# Personalization tags, one substream per resource type.
TAG_AMT = 0x01
TAG_BMT = 0x02
TAG_OT_SEND = 0x03
TAG_OT_RECV = 0x04
TAG_VDP = 0x05


def _stream(seed: bytes, tag: int, index: int = 0) -> Drbg:
    return Drbg(seed, personalization(tag, index))


# ring l, alpha, beta | num_amt, num_bmt, num_ot | number of dot products
_MANIFEST_HEAD = struct.Struct("<3B3QI")


@dataclass(frozen=True)
class ResourceManifest:
    """What a session needs dealt; must match byte-for-byte across parties."""

    session_id: bytes
    ring: RingParams
    num_amt: int = 0
    num_bmt: int = 0
    num_ot: int = 0
    vdp_lengths: tuple[int, ...] = ()
    # vdp_lengths as the u32 little-endian array that goes on the wire
    vdp_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.session_id) != 16:
            raise ValueError("session id must be 16 bytes")
        if min((self.num_amt, self.num_bmt, self.num_ot), default=0) < 0:
            raise ValueError("negative resource count")
        lengths = np.asarray(self.vdp_lengths, dtype=np.int64)
        if lengths.size and lengths.min() < 1:
            raise ValueError("dot product lengths must be >= 1")
        if lengths.size and lengths.max() > 0xFFFFFFFF:
            raise ValueError("dot product lengths must fit in 32 bits")
        object.__setattr__(self, "vdp_array", lengths.astype("<u4"))

    def encode(self) -> bytes:
        """Manifest payload; the session id travels in the frame header."""
        p = self.ring
        head = _MANIFEST_HEAD.pack(p.l, p.alpha, p.beta, self.num_amt, self.num_bmt,
                                   self.num_ot, len(self.vdp_array))
        return head + self.vdp_array.tobytes()

    @classmethod
    def decode(cls, session_id: bytes, payload: bytes) -> "ResourceManifest":
        if len(payload) < _MANIFEST_HEAD.size:
            raise ValueError("manifest payload too short")
        l, alpha, beta, *counts, k = _MANIFEST_HEAD.unpack_from(payload)
        if len(payload) != _MANIFEST_HEAD.size + 4 * k:
            raise ValueError("manifest payload length mismatch")
        lengths = np.frombuffer(payload, dtype="<u4", count=k, offset=_MANIFEST_HEAD.size)
        return cls(session_id, RingParams(l, alpha, beta), *counts, tuple(lengths.tolist()))


def _elem_dtype(p: RingParams) -> np.dtype:
    return np.dtype(f"<u{p.nbytes}")


@dataclass
class VdpShare:
    """One party's view of the dot-product randomness, ragged over products."""

    lengths: tuple[int, ...]
    vec: np.ndarray  # concatenated per-product mask vectors
    scalar: np.ndarray  # a2 (role 0) or a3 (role 1), one per product
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        self.offsets = np.concatenate(([0], np.cumsum(self.lengths))).astype(np.int64)

    def vec_for(self, i: int) -> np.ndarray:
        return self.vec[self.offsets[i] : self.offsets[i + 1]]


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
    vdp: VdpShare | None = None


def _sections(buf, offset: int, p: RingParams, n_amt: int, n_bmt: int, n_ot: int,
              n_vdp: int) -> list[np.ndarray]:
    """Views of the four correction sections of buf, starting at offset."""
    dt = _elem_dtype(p)
    out = []
    for dtype, count in ((dt, n_amt), (np.uint8, (n_bmt + 7) // 8),
                         (np.uint8, n_ot * MASK_BYTES), (dt, n_vdp)):
        out.append(np.frombuffer(buf, dtype=dtype, count=count, offset=offset))
        offset += out[-1].nbytes
    out[2] = out[2].reshape(n_ot, MASK_BYTES)
    return out


def _payload_size(p: RingParams, n_amt: int, n_bmt: int, n_ot: int, n_vdp: int) -> int:
    return (n_amt + n_vdp) * p.nbytes + (n_bmt + 7) // 8 + n_ot * MASK_BYTES


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
        """Parse payload[offset:]; qr is a view into payload, not a copy."""
        p = m.ring
        counts = (m.num_amt, m.num_bmt, m.num_ot, len(m.vdp_lengths))
        if len(payload) - offset != _payload_size(p, *counts):
            raise ValueError("correction payload length mismatch")
        amt, bmt, qr, a3 = _sections(payload, offset, p, *counts)
        c1_bmt = np.unpackbits(bmt, count=m.num_bmt, bitorder="little")
        return cls(amt.astype(np.uint64), c1_bmt, qr, a3.astype(np.uint64))


def _draw_vdp(d: Drbg, m: ResourceManifest, mask: int, with_scalar: bool) -> VdpShare:
    lengths = m.vdp_array.astype(np.int64)
    total = int(lengths.sum())
    if not with_scalar:
        raw = d.ring_elems(total, mask)
        return VdpShare(m.vdp_lengths, raw, np.zeros(len(lengths), dtype=np.uint64))
    # per-product layout: n elems then the a2 scalar, so product i's scalar
    # sits after the first i+1 vectors and i earlier scalars
    raw = d.ring_elems(total + len(lengths), mask)
    at = np.cumsum(lengths) + np.arange(len(lengths))
    is_vec = np.ones(len(raw), dtype=bool)
    is_vec[at] = False
    return VdpShare(m.vdp_lengths, raw[is_vec], raw[at])


def expand_role0(seed0: bytes, m: ResourceManifest) -> PartyMaterial:
    p = m.ring
    amt = _stream(seed0, TAG_AMT)
    a = amt.ring_elems(m.num_amt, p.mask)
    b = amt.ring_elems(m.num_amt, p.mask)
    c = amt.ring_elems(m.num_amt, p.mask)
    bmt = _stream(seed0, TAG_BMT)
    ba, bb, bc = (bmt.bits(m.num_bmt) for _ in range(3))
    q = _stream(seed0, TAG_OT_SEND).blocks(2 * m.num_ot).reshape(m.num_ot, 2, 16)
    vdp = _draw_vdp(_stream(seed0, TAG_VDP), m, p.mask, with_scalar=True)
    return PartyMaterial(0, p, a, b, c, ba, bb, bc, ot_q=q, vdp=vdp)


def expand_role1(seed1: bytes, m: ResourceManifest) -> PartyMaterial:
    """Role 1's seed-derived half; corrections still missing."""
    p = m.ring
    amt = _stream(seed1, TAG_AMT)
    a = amt.ring_elems(m.num_amt, p.mask)
    b = amt.ring_elems(m.num_amt, p.mask)
    bmt = _stream(seed1, TAG_BMT)
    ba, bb = bmt.bits(m.num_bmt), bmt.bits(m.num_bmt)
    r = _stream(seed1, TAG_OT_RECV).bits(m.num_ot)
    vdp = _draw_vdp(_stream(seed1, TAG_VDP), m, p.mask, with_scalar=False)
    empty = np.zeros(m.num_amt, dtype=np.uint64)
    return PartyMaterial(
        1, p, a, b, empty, ba, bb, np.zeros(m.num_bmt, dtype=np.uint8), ot_r=r, vdp=vdp
    )


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
    if m.vdp_lengths:
        prod = (m0.vdp.vec * m1.vdp.vec) & mask
        sums = np.add.reduceat(prod, m0.vdp.offsets[:-1]) & mask
        a3 = (sums - m0.vdp.scalar) & mask
    else:
        a3 = np.zeros(0, dtype=np.uint64)
    return Corrections(c1_amt, c1_bmt, qr, a3)


def apply_corrections(mat: PartyMaterial, corr: Corrections) -> PartyMaterial:
    if mat.role != 1:
        raise ValueError("corrections complete role 1's view only")
    mat.amt_c = corr.c1_amt
    mat.bmt_c = corr.c1_bmt
    mat.ot_qr = corr.qr
    mat.vdp.scalar = corr.a3
    return mat


# Single-resource conveniences used by tests and the benchmark driver.


def _mini_manifest(p: RingParams, **kw) -> ResourceManifest:
    return ResourceManifest(bytes(16), p, **kw)


def gen_amt_batch(seed0: bytes, seed1: bytes, n: int, p: RingParams):
    """Returns ((a0,b0,c0), (a1,b1), c1) as uint64 arrays."""
    m = _mini_manifest(p, num_amt=n)
    m0, m1 = expand_role0(seed0, m), expand_role1(seed1, m)
    corr = compute_corrections(seed0, seed1, m)
    return (
        (m0.amt_a, m0.amt_b, m0.amt_c),
        (m1.amt_a, m1.amt_b),
        corr.c1_amt,
    )


def gen_bmt_batch(seed0: bytes, seed1: bytes, n: int):
    m = _mini_manifest(RingParams(8), num_bmt=n)
    m0, m1 = expand_role0(seed0, m), expand_role1(seed1, m)
    corr = compute_corrections(seed0, seed1, m)
    return ((m0.bmt_a, m0.bmt_b, m0.bmt_c), (m1.bmt_a, m1.bmt_b), corr.c1_bmt)


def gen_ot_masks(seed_s: bytes, seed_r: bytes, n: int):
    """Returns (sender (n,2,16) pairs, receiver r bits, qr (n,16))."""
    m = _mini_manifest(RingParams(8), num_ot=n)
    ms, mr = expand_role0(seed_s, m), expand_role1(seed_r, m)
    corr = compute_corrections(seed_s, seed_r, m)
    return ms.ot_q, mr.ot_r, corr.qr


def gen_vdps(seed0: bytes, seed1: bytes, lengths, p: RingParams):
    """Returns (role0 VdpShare with a2, role1 VdpShare, a3 corrections)."""
    m = _mini_manifest(p, vdp_lengths=tuple(lengths))
    m0, m1 = expand_role0(seed0, m), expand_role1(seed1, m)
    corr = compute_corrections(seed0, seed1, m)
    return m0.vdp, m1.vdp, corr.a3
