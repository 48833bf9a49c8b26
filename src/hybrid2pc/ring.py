"""Ring Z_2^l arithmetic and the signed fixed-point codec.

Every engine computes on canonical l-bit residues (unsigned integers in
[0, 2^l)). Signedness is purely an interpretation: a residue v stands for
v - 2^l whenever its top bit is set. Fixed-point numbers put alpha bits of
integer part and beta bits of fraction behind a sign bit, and are computed
in the wider ring l = alpha + 2*beta + 1 so that one multiplication fits
without losing fraction bits; the post-multiply renormalisation is an
arithmetic right shift by beta.

All operations accept Python ints or numpy arrays and vectorise. A ring
element is held in RingParams.dtype, the unsigned little-endian integer of
l bits, in memory, in the dealer bundle and on the wire alike, so the
hardware wraps every sum and product mod 2^l and no step masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The ring widths: those of a machine word.
WIRE_WIDTHS = (8, 16, 32, 64)

# Canonical (alpha, beta) splits satisfying l = alpha + 2*beta + 1.
_FIXED_SPLITS = {8: (1, 3), 16: (3, 6), 32: (7, 12), 64: (13, 25)}


@dataclass(frozen=True)
class RingParams:
    """Bit-width and fixed-point layout of the computation ring."""

    l: int
    alpha: int = 0
    beta: int = 0

    def __post_init__(self):
        if self.l not in WIRE_WIDTHS:
            raise ValueError(f"ring width {self.l} is not one of {WIRE_WIDTHS}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if (self.alpha or self.beta) and self.l != self.alpha + 2 * self.beta + 1:
            raise ValueError(
                f"fixed-point layout requires l = alpha + 2*beta + 1, "
                f"got l={self.l}, alpha={self.alpha}, beta={self.beta}"
            )

    @classmethod
    def fixed(cls, l: int) -> "RingParams":
        """Default fixed-point layout for a ring width; any other width
        raises the ValueError of the width check."""
        alpha, beta = _FIXED_SPLITS.get(l, (0, 0))
        return cls(l, alpha, beta)

    @property
    def mask(self) -> int:
        return (1 << self.l) - 1

    @property
    def modulus(self) -> int:
        return 1 << self.l

    @property
    def nbytes(self) -> int:
        """Bytes per element."""
        return self.l // 8

    @property
    def dtype(self) -> np.dtype:
        """A ring element: unsigned, little-endian, nbytes wide."""
        return np.dtype(f"<u{self.nbytes}")

    def to_wire(self, v) -> np.ndarray:
        """Elements as one contiguous array, ready to send."""
        return np.ascontiguousarray(v, dtype=self.dtype)

    def from_wire(self, raw) -> np.ndarray:
        """A view of received bytes as elements."""
        return np.frombuffer(raw, dtype=self.dtype)


def canon(x, p: RingParams):
    """The residue in [0, 2^l) as p.dtype; no copy of an array already in it."""
    return np.asarray(x).astype(p.dtype, copy=False)


def _signed(a: np.ndarray, p: RingParams) -> np.ndarray:
    """The same bits viewed as two's-complement integers of l bits."""
    return a.view(f"<i{p.nbytes}")


def to_signed(v, p: RingParams):
    """Two's-complement interpretation: v - 2^l when the top bit is set."""
    s = _signed(canon(v, p), p)
    return int(s) if s.ndim == 0 else s


def from_signed(s, p: RingParams):
    r = canon(s, p)
    return int(r) if r.ndim == 0 else r


def encode(r, p: RingParams):
    """Real -> fixed-point residue, rounding half away from zero.

    Raises OverflowError unless every |r| < 2^alpha (the integer part
    would not fit the declared layout), so NaN and infinities raise too.
    """
    a = np.asarray(r, dtype=np.float64)
    if not np.all(np.abs(a) < float(1 << p.alpha)):
        raise OverflowError(f"|r| = {np.abs(a).max()} is not below 2^alpha = 2^{p.alpha}")
    scaled = np.sign(a) * np.floor(np.abs(a) * float(1 << p.beta) + 0.5)
    out = canon(scaled.astype(np.int64), p)
    return int(out) if out.ndim == 0 else out


def truncate(v, p: RingParams, shift: int | None = None):
    """Arithmetic right shift by beta (or an explicit amount) in l bits.

    This is the renormalisation applied after a fixed-point multiply: the
    sign bit is replicated into the vacated positions, i.e. rounding is
    toward -infinity.
    """
    n = p.beta if shift is None else shift
    out = (_signed(canon(v, p), p) >> n).view(p.dtype)
    return int(out) if out.ndim == 0 else out


def bits_of(v, p: RingParams) -> np.ndarray:
    """Little-endian bit decomposition, shape (..., l), dtype uint8."""
    shifts = np.arange(p.l, dtype=p.dtype)
    return ((canon(v, p)[..., None] >> shifts) & 1).astype(np.uint8)
