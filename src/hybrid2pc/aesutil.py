"""Thin AES helpers shared by the DRBG and the garbling engine.

Two modes are used:

* CTR, inside CTR-DRBG. SP 800-90A defines the DRBG's output blocks as
  AES_K(V+1), AES_K(V+2), ... with V a 128-bit big-endian counter that
  wraps mod 2^128. That is exactly the keystream of AES-CTR started at
  counter block V+1, since CTR mode increments the whole 16-byte block as
  one big-endian integer. One CTR context therefore replaces building the
  counter blocks and encrypting them under ECB, and it can write straight
  into a caller's buffer.
* ECB over caller-built blocks, for the fixed-key permutation inside the
  garbling hash.

Both batch many blocks into one call so the OpenSSL backend amortises
across AES-NI.
"""

from __future__ import annotations

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

_M128 = (1 << 128) - 1


def ctr_encryptor(key: bytes, counter: int):
    """AES-CTR context whose keystream is AES_key(counter), AES_key(counter+1), ...

    The counter wraps mod 2^128. Encrypting zeros yields the keystream;
    update_into() writes it into a preallocated buffer.
    """
    iv = (counter & _M128).to_bytes(16, "big")
    return Cipher(algorithms.AES(key), modes.CTR(iv)).encryptor()


def ecb_encryptor(key: bytes):
    """Returns fn(blocks: ndarray) -> ndarray encrypting 16-byte blocks.

    The result has the input's shape and dtype. It is written by
    update_into into a fresh array, which is several times faster than
    update() for the garbling hash's batches of tens of thousands of blocks.
    """
    enc = Cipher(algorithms.AES(key), modes.ECB()).encryptor()

    def encrypt(blocks: np.ndarray) -> np.ndarray:
        src = np.ascontiguousarray(blocks)
        out = np.empty(src.nbytes + 16, dtype=np.uint8)  # update_into's slack
        enc.update_into(memoryview(src.reshape(-1)).cast("B"), out)
        return out[: src.nbytes].view(src.dtype).reshape(src.shape)

    return encrypt
