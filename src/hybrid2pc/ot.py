"""Online phase of precomputed oblivious transfer.

The dealer already gave the sender mask pairs (q0, q1) and the receiver a
random bit r with the selected mask qr. Online, per batch (one round, two
messages regardless of batch size):

    receiver -> sender: b' = r xor b        (1 bit per transfer)
    sender -> receiver: (s0, s1) where      (2m bits per transfer)
        b'=0: (q0^m0, q1^m1)    b'=1: (q0^m1, q1^m0)
    receiver outputs m_b = s_r xor q_r

Masks are 128-bit and messages at most that wide; shorter messages use a
mask prefix. Every mask is drawn once from a single-use supply
(correlated.Supply) before the party sends anything.
"""

from __future__ import annotations

import numpy as np

from . import transport
from .correlated import Supply
from .transport import Channel

K_BITS = 128


class OtError(RuntimeError):
    pass


def _message_bytes(mbits: int) -> int:
    if mbits > K_BITS:
        raise OtError(f"messages of {mbits} bits exceed the {K_BITS}-bit masks")
    return (mbits + 7) // 8


def _as_message_array(m, n: int, nbytes: int) -> np.ndarray:
    a = np.asarray(m, dtype=np.uint8)
    if a.shape != (n, nbytes):
        raise OtError(f"expected message array of shape {(n, nbytes)}, got {a.shape}")
    return a


class OtSender:
    """Holds (q0, q1) mask pairs; role 0 in every protocol here."""

    def __init__(self, q: np.ndarray, channel: Channel):
        self.masks = Supply("ot", q)  # (n, 2, 16) mask pairs
        self.channel = channel

    def send(self, m0, m1, mbits: int):
        """Serve one batch; m0/m1 are (n, ceil(mbits/8)) uint8 arrays."""
        nbytes = _message_bytes(mbits)
        n = len(np.asarray(m0))
        if n == 0:
            return
        m0 = _as_message_array(m0, n, nbytes)
        m1 = _as_message_array(m1, n, nbytes)
        (q,) = self.masks.take(n)
        raw = self.channel.recv_expect(transport.OT_CHOICES, (n + 7) // 8)
        flipped = np.unpackbits(np.frombuffer(raw, np.uint8), count=n, bitorder="little")
        # b'=1 swaps the messages: with d = (m0 ^ m1) * b', s0 = q0^m0^d, s1 = q1^m1^d
        d = (m0 ^ m1) * flipped[:, None]
        pairs = q[..., :nbytes] ^ d[:, None]
        pairs[:, 0] ^= m0
        pairs[:, 1] ^= m1
        self.channel.send(transport.OT_PAIRS, pairs)

    def send_ring(self, m0, m1, ring):
        """Ring-element messages in the ring's wire encoding."""
        enc = lambda v: np.ascontiguousarray(v.astype(ring.wire_dtype)).view(np.uint8).reshape(
            len(v), ring.nbytes
        )
        self.send(enc(np.asarray(m0, np.uint64)), enc(np.asarray(m1, np.uint64)), ring.l)


class OtReceiver:
    """Holds (r, qr); role 1 in every protocol here."""

    def __init__(self, r: np.ndarray, qr: np.ndarray, channel: Channel):
        self.masks = Supply("ot", r, qr)  # choice bits and (n, 16) selected masks
        self.channel = channel

    def recv(self, choices, mbits: int) -> np.ndarray:
        nbytes = _message_bytes(mbits)
        b = np.asarray(choices, dtype=np.uint8)
        n = len(b)
        if n == 0:
            return np.zeros((0, nbytes), dtype=np.uint8)
        r, qr = self.masks.take(n)
        self.channel.send(
            transport.OT_CHOICES, np.packbits(r ^ b, bitorder="little").tobytes()
        )
        raw = self.channel.recv_expect(transport.OT_PAIRS, 2 * n * nbytes)
        pairs = np.frombuffer(raw, dtype=np.uint8).reshape(n, 2, nbytes)
        s_r = pairs[np.arange(n), r]
        return s_r ^ qr[:, :nbytes]

    def recv_ring(self, choices, ring) -> np.ndarray:
        raw = self.recv(choices, ring.l)
        elems = np.ascontiguousarray(raw).view(ring.wire_dtype).reshape(len(raw))
        return elems.astype(np.uint64)
