"""Deterministic random bit generation: AES-128 CTR-DRBG (SP 800-90A shape).

The dealer and both parties expand the same 256-bit seeds, so the stream
must be a pure function of (seed, personalization) independent of how
consumers chunk their reads. Internally the generator follows the
standard's no-derivation-function construction -- 256-bit seed material
XORed into the initial key/V state, a key/V update after every generate
request -- and the public fill_bytes() buffers over fixed-size internal
requests so read boundaries never shift the stream.

A generate request outputs AES_K(V+1), AES_K(V+2), ..., and the key/V
update that follows takes the next two blocks of the same sequence. With
the 128-bit big-endian counter wrapping mod 2^128, that sequence is the
AES-CTR keystream started at V+1 (see aesutil), so each request keys one
CTR context, writes its 64 KB of output straight into the caller's
buffer, and reads the new key and V from the two blocks after it.

A party keys none online: once its material is dealt, it draws nothing
of its own (see session).

Domain separation between resource types (triples, daBits, labels,
dot-product shares) is done through the personalization string: one tag byte plus a
little-endian u32 stream index, zero-padded to the 32-byte seed length.
"""

from __future__ import annotations

import numpy as np

from .aesutil import ctr_encryptor

SEED_BYTES = 32
_SEEDLEN = 32  # AES-128: keylen + blocklen
# One internal generate request; SP 800-90A caps requests at 2^19 bits.
_REQUEST_BYTES = 1 << 16
# Plaintext for the CTR keystream of one request and of one key/V update.
_ZERO_REQUEST = bytes(_REQUEST_BYTES)
_ZERO_SEEDLEN = bytes(_SEEDLEN)

MAX_STREAM_BITS = 1 << 63


class ReseedRequired(RuntimeError):
    """Raised when a stream would exceed its 2^63-bit budget."""


def personalization(tag: int, index: int = 0) -> bytes:
    return bytes([tag]) + index.to_bytes(4, "little")


class Drbg:
    """One deterministic stream; single-owner, not thread-safe."""

    def __init__(self, seed: bytes, pers: bytes = b"", max_bits: int = MAX_STREAM_BITS):
        if len(seed) != SEED_BYTES:
            raise ValueError(f"seed must be {SEED_BYTES} bytes, got {len(seed)}")
        if len(pers) > _SEEDLEN:
            raise ValueError("personalization longer than seed length")
        seed_material = bytes(a ^ b for a, b in zip(seed, pers.ljust(_SEEDLEN, b"\x00")))
        self._key = bytes(16)
        self._v = 0
        self._update(self._ctr(), seed_material)
        self._bits_out = 0
        self._max_bits = max_bits
        self._rest = memoryview(b"")  # unread tail of the last request

    def _ctr(self):
        """CTR context producing AES_K(V+1), AES_K(V+2), ..."""
        return ctr_encryptor(self._key, self._v + 1)

    def _update(self, enc, provided: bytes):
        """Key/V update from the next two keystream blocks of enc."""
        temp = enc.update(provided)
        self._key = temp[:16]
        self._v = int.from_bytes(temp[16:], "big")

    def _generate_into(self, out):
        """One generate request written into out (_REQUEST_BYTES long)."""
        enc = self._ctr()
        enc.update_into(_ZERO_REQUEST, out)
        self._update(enc, _ZERO_SEEDLEN)

    def fill_bytes(self, n: int) -> bytearray:
        """Next n bytes of the canonical stream, in a new buffer the caller owns."""
        if n < 0:
            raise ValueError("negative byte count")
        if self._bits_out + 8 * n > self._max_bits:
            raise ReseedRequired(
                f"stream budget of {self._max_bits} bits exhausted; reseed required"
            )
        self._bits_out += 8 * n
        out = bytearray(n)
        view = memoryview(out)
        pos = min(n, len(self._rest))
        view[:pos] = self._rest[:pos]
        self._rest = self._rest[pos:]
        while n - pos >= _REQUEST_BYTES:
            self._generate_into(view[pos : pos + _REQUEST_BYTES])
            pos += _REQUEST_BYTES
        if pos < n:
            req = memoryview(bytearray(_REQUEST_BYTES))
            self._generate_into(req)
            view[pos:] = req[: n - pos]
            self._rest = req[n - pos :]
        return out

    # Typed draws of the correlated-randomness layer.
    # A ring element of l bits consumes l/8 stream bytes, read as one
    # little-endian integer. Each returns a writable array; ring_elems and
    # blocks are views of the buffer fill_bytes allocated, with no copy.

    def ring_elems(self, n: int, dtype: np.dtype) -> np.ndarray:
        """n elements of the unsigned little-endian dtype."""
        return np.frombuffer(self.fill_bytes(n * dtype.itemsize), dtype=dtype)

    def bits(self, n: int) -> np.ndarray:
        """n bits LSB-first within bytes, as a uint8 0/1 array."""
        raw = np.frombuffer(self.fill_bytes((n + 7) // 8), dtype=np.uint8)
        return np.unpackbits(raw, count=n, bitorder="little")

    def blocks(self, n: int) -> np.ndarray:
        """n 16-byte blocks as an (n, 16) uint8 array."""
        return np.frombuffer(self.fill_bytes(16 * n), dtype=np.uint8).reshape(n, 16)
