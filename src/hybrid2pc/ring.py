"""Ring Z_2^l arithmetic and the signed fixed-point codec.

Every engine computes on canonical l-bit residues (unsigned integers in
[0, 2^l)). Signedness is purely an interpretation: a residue v stands for
v - 2^l whenever its top bit is set. Fixed-point numbers put alpha bits of
integer part and beta bits of fraction behind a sign bit, and are computed
in the wider ring l = alpha + 2*beta + 1 so that one multiplication fits
without losing fraction bits; the post-multiply renormalisation is an
arithmetic right shift by beta.

All operations accept Python ints or numpy arrays and vectorise; arrays
are carried as uint64 regardless of l, with wrap-around handled by
masking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Widths with a whole-byte wire encoding; the protocol layer only deals in
# these. In-memory math works for any l up to 64 (tests use l=12).
WIRE_WIDTHS = (8, 16, 32, 64)

# Canonical (alpha, beta) splits satisfying l = alpha + 2*beta + 1.
_FIXED_SPLITS = {8: (1, 3), 16: (3, 6), 32: (7, 12), 64: (13, 25)}

_U64 = np.uint64
_I64 = np.int64


@dataclass(frozen=True)
class RingParams:
    """Bit-width and fixed-point layout of the computation ring."""

    l: int
    alpha: int = 0
    beta: int = 0

    def __post_init__(self):
        if not 2 <= self.l <= 64:
            raise ValueError(f"ring width {self.l} out of range [2, 64]")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if (self.alpha or self.beta) and self.l != self.alpha + 2 * self.beta + 1:
            raise ValueError(
                f"fixed-point layout requires l = alpha + 2*beta + 1, "
                f"got l={self.l}, alpha={self.alpha}, beta={self.beta}"
            )

    @classmethod
    def fixed(cls, l: int) -> "RingParams":
        """Default fixed-point layout for a wire width."""
        alpha, beta = _FIXED_SPLITS[l]
        return cls(l, alpha, beta)

    @property
    def mask(self) -> int:
        return (1 << self.l) - 1

    @property
    def modulus(self) -> int:
        return 1 << self.l

    @property
    def nbytes(self) -> int:
        """Wire bytes per element; only whole-byte widths may hit the wire."""
        if self.l not in WIRE_WIDTHS:
            raise ValueError(f"width {self.l} has no wire encoding")
        return self.l // 8

    @property
    def wire_dtype(self) -> np.dtype:
        """An element on the wire: little-endian, nbytes wide."""
        return np.dtype(f"<u{self.nbytes}")

    def to_wire(self, v) -> np.ndarray:
        """Residues in the wire encoding, as one contiguous array."""
        return np.ascontiguousarray(v, dtype=self.wire_dtype)

    def from_wire(self, raw) -> np.ndarray:
        """Wire-encoded elements back to uint64 residues."""
        return np.frombuffer(raw, dtype=self.wire_dtype).astype(_U64)


def canon(x, p: RingParams):
    """Reduce to the canonical residue in [0, 2^l) as uint64."""
    a = np.asarray(x)
    if a.dtype.kind == "i":
        a = a.astype(np.int64).view(_U64)
    else:
        a = a.astype(_U64)
    return a & _U64(p.mask)


def _binop(a, b, p, op):
    r = op(canon(a, p), canon(b, p)) & _U64(p.mask)
    return int(r) if r.ndim == 0 else r


def add(a, b, p: RingParams):
    return _binop(a, b, p, np.add)


def sub(a, b, p: RingParams):
    return _binop(a, b, p, np.subtract)


def mul(a, b, p: RingParams):
    return _binop(a, b, p, np.multiply)


def to_signed(v, p: RingParams):
    """Two's-complement interpretation: v - 2^l when the top bit is set."""
    a = canon(v, p)
    s = (a << _U64(64 - p.l)).view(_I64) >> _I64(64 - p.l)
    return int(s) if s.ndim == 0 else s


def from_signed(s, p: RingParams):
    r = canon(s, p)
    return int(r) if r.ndim == 0 else r


def encode(r, p: RingParams):
    """Real -> fixed-point residue, rounding half away from zero.

    Raises OverflowError when |r| >= 2^alpha (the integer part would not
    fit the declared layout).
    """
    a = np.asarray(r, dtype=np.float64)
    if np.any(np.abs(a) >= float(1 << p.alpha)):
        bad = np.abs(a).max()
        raise OverflowError(f"|{bad}| >= 2^{p.alpha} does not fit alpha={p.alpha}")
    scaled = np.sign(a) * np.floor(np.abs(a) * float(1 << p.beta) + 0.5)
    out = canon(scaled.astype(np.int64), p)
    return int(out) if out.ndim == 0 else out


def decode(v, p: RingParams) -> float | np.ndarray:
    """Fixed-point residue -> real, exact for representable values."""
    s = np.asarray(to_signed(v, p))
    out = s.astype(np.float64) / float(1 << p.beta)
    return float(out) if out.ndim == 0 else out


def truncate(v, p: RingParams, shift: int | None = None):
    """Arithmetic right shift by beta (or an explicit amount) in l bits.

    This is the renormalisation applied after a fixed-point multiply: the
    sign bit is replicated into the vacated positions, i.e. rounding is
    toward -infinity.
    """
    n = p.beta if shift is None else shift
    if n == 0:
        out = canon(v, p)
        return int(out) if out.ndim == 0 else out
    a = canon(v, p)
    s = (a << _U64(64 - p.l)).view(_I64) >> _I64(64 - p.l + n)
    out = s.view(_U64) & _U64(p.mask)
    return int(out) if out.ndim == 0 else out


def bits_of(v, p: RingParams) -> np.ndarray:
    """Little-endian bit decomposition, shape (..., l), dtype uint8."""
    a = np.asarray(canon(v, p))
    shifts = np.arange(p.l, dtype=np.uint64)
    return ((a[..., None] >> shifts) & _U64(1)).astype(np.uint8)


def from_bits(bits: np.ndarray, p: RingParams):
    """Inverse of bits_of; accepts shape (..., l)."""
    b = np.asarray(bits, dtype=np.uint64)
    shifts = np.arange(p.l, dtype=np.uint64)
    out = ((b << shifts).sum(axis=-1, dtype=np.uint64)) & _U64(p.mask)
    return int(out) if out.ndim == 0 else out
