"""Framed point-to-point channels with per-phase byte accounting.

Wire format, little-endian: u32 payload length | u8 message type |
16-byte session id | payload. Some message types lead the payload with a
small fixed sync header (e.g. the GMW level index); the ledger books those
bytes as framing, not protocol payload, so that ledger values stay
directly comparable to the protocol's closed-form bit counts.

Frames are not copied on their way through: send hands the header and
the payload to one scatter-gather sendmsg, and a received payload is the
buffer it was read into (a bytearray in null-cipher mode). Headers are
bytes, since session ids serve as keys.

In null-cipher mode nothing else is added and payload accounting is
byte-exact. The PSK-AEAD mode seals each frame with AES-GCM under a
pre-shared key (header as associated data, per-direction nonce counters);
accounting still books plaintext sizes.
"""

from __future__ import annotations

import socket
import struct
import threading
from dataclasses import dataclass

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

MAX_PAYLOAD = 1 << 30
HEADER_LEN = 21

# Message types.
MANIFEST = 1
BUNDLE = 2
ERROR = 3
GMW_DE = 4
GMW_REVEAL = 5
GC_TABLES = 6
GC_INLABELS = 7
GC_DECODE = 8
OT_CHOICES = 9
OT_PAIRS = 10
ASS_EF = 11
DA_MASKED = 12
APP_SHARE = 13
APP_REVEAL = 14

OFFLINE = "offline"
ONLINE = "online"

# Leading sync-header bytes per message type, booked as framing.
_META_BYTES = {GMW_DE: 4, GC_TABLES: 4}


class TransportError(Exception):
    pass


class Disconnected(TransportError):
    pass


class FrameTooLarge(TransportError):
    pass


class ProtocolError(TransportError):
    pass


class RemoteError(TransportError):
    """The peer sent an ERROR frame; .code carries its error string."""

    def __init__(self, code: str):
        super().__init__(f"peer reported: {code}")
        self.code = code


@dataclass
class Frame:
    msg_type: int
    session: bytes
    payload: bytes | bytearray


class ByteLedger:
    """Monotone counters keyed by (phase, peer, direction, msg_type).

    payload counts protocol-semantic bytes; wire counts everything that
    crossed the socket including headers, sync metadata, and cipher
    overhead. Readable from other threads; written by the owning channel.
    """

    def __init__(self):
        self._rows: dict[tuple, list] = {}

    def record(self, phase, peer, direction, msg_type, payload_bytes, wire_bytes):
        row = self._rows.setdefault((phase, peer, direction, msg_type), [0, 0, 0])
        row[0] += payload_bytes
        row[1] += wire_bytes
        row[2] += 1

    def _sum(self, idx, phase, peer, direction, msg_type):
        total = 0
        for (ph, pe, d, t), row in self._rows.items():
            if phase is not None and ph != phase:
                continue
            if peer is not None and pe != peer:
                continue
            if direction is not None and d != direction:
                continue
            if msg_type is not None and t != msg_type:
                continue
            total += row[idx]
        return total

    def payload_bytes(self, phase=None, peer=None, direction=None, msg_type=None):
        return self._sum(0, phase, peer, direction, msg_type)

    def wire_bytes(self, phase=None, peer=None, direction=None, msg_type=None):
        return self._sum(1, phase, peer, direction, msg_type)

    def messages(self, phase=None, peer=None, direction=None, msg_type=None):
        return self._sum(2, phase, peer, direction, msg_type)

    def snapshot(self) -> dict:
        return {k: tuple(v) for k, v in self._rows.items()}


class NullCipher:
    overhead = 0

    def seal(self, header: bytes, payload):
        return payload

    def open(self, header: bytes, data):
        return data


class PskCipher:
    """AES-GCM under a pre-shared key; nonce = send counter | role tag."""

    overhead = 16

    def __init__(self, key: bytes, sending_tag: int):
        self._aead = AESGCM(key)
        self._send_tag = sending_tag
        self._send_ctr = 0
        self._recv_ctr = 0

    def _nonce(self, ctr: int, tag: int) -> bytes:
        return ctr.to_bytes(8, "little") + tag.to_bytes(4, "little")

    def seal(self, header: bytes, payload: bytes) -> bytes:
        n = self._nonce(self._send_ctr, self._send_tag)
        self._send_ctr += 1
        return self._aead.encrypt(n, payload, header)

    def open(self, header: bytes, data: bytes) -> bytes:
        n = self._nonce(self._recv_ctr, 1 - self._send_tag)
        self._recv_ctr += 1
        return self._aead.decrypt(n, data, header)


class Channel:
    """One protocol session's view of a socket; single-owner."""

    def __init__(self, sock, session: bytes | None, ledger: ByteLedger | None = None,
                 peer: str = "peer", cipher=None):
        # session=None adopts the id of the first incoming frame (server side)
        if session is not None and len(session) != 16:
            raise ValueError("session id must be 16 bytes")
        self.sock = sock
        self.session = session
        self.ledger = ledger if ledger is not None else ByteLedger()
        self.peer = peer
        self.cipher = cipher if cipher is not None else NullCipher()
        self.phase = OFFLINE

    def phase_mark(self, phase: str):
        self.phase = phase

    def send(self, msg_type: int, payload):
        """Frame and send payload, any bytes-like object; never copied
        under the null cipher."""
        if self.session is None:
            raise ProtocolError("session not yet established")
        size = memoryview(payload).nbytes
        if size > MAX_PAYLOAD:
            raise FrameTooLarge(f"{size} bytes exceeds frame limit")
        header = struct.pack("<IB", 0, msg_type) + self.session
        body = memoryview(self.cipher.seal(header, payload)).cast("B")
        header = struct.pack("<IB", len(body), msg_type) + self.session
        try:
            self._send_parts([memoryview(header), body])
        except OSError as e:
            raise Disconnected(str(e)) from None
        meta = _META_BYTES.get(msg_type, 0)
        self.ledger.record(self.phase, self.peer, "sent", msg_type,
                           size - meta, HEADER_LEN + len(body))

    def _send_parts(self, parts: list[memoryview]):
        """sendall over several buffers with scatter-gather sendmsg."""
        parts = [p for p in parts if len(p)]
        while parts:
            sent = self.sock.sendmsg(parts)
            while parts and sent >= len(parts[0]):
                sent -= len(parts.pop(0))
            if sent:
                parts[0] = parts[0][sent:]

    def _recv_exact(self, n: int) -> bytearray:
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            try:
                r = self.sock.recv_into(view[got:], n - got)
            except OSError as e:
                raise Disconnected(str(e)) from None
            if r == 0:
                raise Disconnected("peer closed the connection")
            got += r
        return buf

    def recv(self) -> Frame:
        header = bytes(self._recv_exact(HEADER_LEN))
        length, msg_type = struct.unpack("<IB", header[:5])
        session = header[5:]
        if length > MAX_PAYLOAD + self.cipher.overhead:
            raise FrameTooLarge(f"incoming frame of {length} bytes")
        body = self._recv_exact(length)
        aad = struct.pack("<IB", 0, msg_type) + session
        payload = self.cipher.open(aad, body)
        if self.session is None:
            self.session = session
        elif session != self.session:
            raise ProtocolError("frame for a different session")
        meta = _META_BYTES.get(msg_type, 0)
        self.ledger.record(self.phase, self.peer, "recv", msg_type,
                           len(payload) - meta, HEADER_LEN + len(body))
        return Frame(msg_type, session, payload)

    def exchange(self, msg_type: int, payload) -> bytes | bytearray:
        """Symmetric send+recv of the same frame type, deadlock-free.

        Both parties call this in the same protocol step; the send runs on
        a helper thread so neither side can stall on a full socket buffer.
        """
        exc = []

        def _send():
            try:
                self.send(msg_type, payload)
            except TransportError as e:  # pragma: no cover
                exc.append(e)

        t = threading.Thread(target=_send)
        t.start()
        try:
            reply = self.recv_expect(msg_type)
        finally:
            t.join()
        if exc:
            raise exc[0]
        return reply

    def recv_expect(self, msg_type: int) -> bytes | bytearray:
        frame = self.recv()
        if frame.msg_type == ERROR and msg_type != ERROR:
            raise RemoteError(frame.payload.decode("utf-8", "replace"))
        if frame.msg_type != msg_type:
            raise ProtocolError(
                f"expected message type {msg_type}, got {frame.msg_type}"
            )
        return frame.payload

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def channel_pair(session: bytes = bytes(16), cipher_key: bytes | None = None):
    """In-process connected channel pair (loopback tests and benches)."""
    s0, s1 = socket.socketpair()
    for s in (s0, s1):
        s.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 20)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
    c0 = PskCipher(cipher_key, 0) if cipher_key else None
    c1 = PskCipher(cipher_key, 1) if cipher_key else None
    return (
        Channel(s0, session, cipher=c0),
        Channel(s1, session, cipher=c1),
    )


def tcp_listen(host: str, port: int) -> socket.socket:
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen()
    return srv


def tcp_accept(srv: socket.socket) -> socket.socket:
    sock, _ = srv.accept()
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def tcp_connect(host: str, port: int, timeout: float = 10.0) -> socket.socket:
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock
