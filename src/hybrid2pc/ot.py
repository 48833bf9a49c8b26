"""Online phase of precomputed oblivious transfer (Beaver, CRYPTO 1995).

The dealer already gave the sender mask pairs (q0, q1) and the receiver a
random bit r with the selected mask qr. Online, per batch (one round, two
messages regardless of batch size):

    receiver -> sender: b' = r xor b        (1 bit per transfer)
    sender -> receiver: (s0, s1) where      (2l bits per transfer)
        b'=0: (q0^m0, q1^m1)    b'=1: (q0^m1, q1^m0)
    receiver outputs m_b = s_r xor q_r

A mask and a message are one l-bit ring element each, held in the ring's
dtype from the dealer's draw to the wire, where the pairs travel as the
(n, 2) array of their little-endian elements; b2a is the only caller.
Every mask is drawn once from a single-use supply (correlated.Supply)
before the party sends anything.
"""

from __future__ import annotations

import numpy as np

from . import transport
from .correlated import Supply
from .transport import Channel


class OtError(RuntimeError):
    pass


class OtSender:
    """Holds (q0, q1) mask pairs; role 0 in every protocol here."""

    def __init__(self, q: np.ndarray, channel: Channel):
        self.masks = Supply("ot", q)  # (n, 2) ring-element mask pairs
        self.channel = channel

    def send(self, m0, m1):
        """Serve one batch; m0 and m1 are (n,) arrays in the masks' dtype."""
        dtype = self.masks.arrays[0].dtype
        m0, m1 = np.asarray(m0), np.asarray(m1)
        if m0.dtype != dtype or m1.dtype != dtype or m0.ndim != 1 or m0.shape != m1.shape:
            raise OtError(f"messages must be two equal (n,) arrays of {dtype}, got "
                          f"{m0.dtype}{m0.shape} and {m1.dtype}{m1.shape}")
        n = len(m0)
        if n == 0:
            return
        (q,) = self.masks.take(n)
        raw = self.channel.recv_expect(transport.OT_CHOICES, (n + 7) // 8)
        flipped = np.unpackbits(np.frombuffer(raw, np.uint8), count=n, bitorder="little")
        # b'=1 swaps the messages: with d = (m0 ^ m1) & -b', s0 = q0^m0^d, s1 = q1^m1^d
        d = (m0 ^ m1) & np.negative(flipped.astype(dtype))
        pairs = q ^ d[:, None]
        pairs[:, 0] ^= m0
        pairs[:, 1] ^= m1
        self.channel.send(transport.OT_PAIRS, pairs)


class OtReceiver:
    """Holds (r, qr); role 1 in every protocol here."""

    def __init__(self, r: np.ndarray, qr: np.ndarray, channel: Channel):
        self.masks = Supply("ot", r, qr)  # choice bits and (n,) selected masks
        self.channel = channel

    def recv(self, choices, mbits: int) -> np.ndarray:
        """The chosen messages m_b, (n,) in the masks' dtype; mbits must
        be the masks' width."""
        dtype = self.masks.arrays[1].dtype
        if mbits != 8 * dtype.itemsize:
            raise OtError(f"{mbits}-bit messages on {8 * dtype.itemsize}-bit masks")
        b = np.asarray(choices, dtype=np.uint8)
        n = len(b)
        if n == 0:
            return np.zeros(0, dtype)
        r, qr = self.masks.take(n)
        self.channel.send(
            transport.OT_CHOICES, np.packbits(r ^ b, bitorder="little").tobytes()
        )
        raw = self.channel.recv_expect(transport.OT_PAIRS, 2 * n * dtype.itemsize)
        pairs = np.frombuffer(raw, dtype=dtype).reshape(n, 2)
        return pairs[np.arange(n), r] ^ qr
