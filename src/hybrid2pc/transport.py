"""Framed point-to-point channels with per-phase byte accounting.

Wire format, little-endian: u32 payload length | u8 message type |
16-byte session id | payload. GMW_DE alone leads its payload with a small
fixed sync header (the GMW level index); the ledger books those bytes as
framing, not protocol payload, so that ledger values stay directly
comparable to the protocol's closed-form bit counts. A garbled run's
tables cross as GC_TABLES frames of whole AND levels with no header of
their own, each closing at the first level boundary past gc.FRAME_BYTES;
the garbler's frames are consecutive sends, so they make one flight.

Frames are not copied on their way through: send hands the header and
the payload to one scatter-gather sendmsg, and a received payload is the
buffer it was read into (a bytearray in null-cipher mode). Headers are
bytes, since session ids serve as keys.

Every receive names its frame's exact type and plaintext size
(recv_expect), from shapes both parties already hold; an exchange's reply
is the size it sent. recv compares the header with that size, plus the
cipher's overhead, before it allocates the body, and raises ProtocolError
on any mismatch, so an out-of-step peer can neither corrupt shares nor
make a party allocate memory on its word. An ERROR frame in place of the
due one surfaces as RemoteError, up to ERROR_CAP bytes. The dealer's
first, unsolicited read (a bare recv on a channel that has yet to learn
its session) is a manifest, whose size it cannot know: it takes at most
MANIFEST_CAP bytes, checked before the body is allocated. Other bare
reads take up to MAX_PAYLOAD.

A channel counts its party's flights, the program's one round count: a
flight is a run of frames the party sends with no receive in between.

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
ERROR_CAP = 256  # largest ERROR payload accepted where another frame is due
# largest first frame of a channel that has yet to learn its session: the
# dealer's manifest, a role byte, a 19-byte head and 8 bytes per
# dot-product block, so room for over 8 000 linear layers
MANIFEST_CAP = 1 << 16
HEADER_LEN = 21

# Message types.
MANIFEST = 1
BUNDLE = 2
ERROR = 3
GMW_DE = 4
GC_TABLES = 6
GC_INLABELS = 7  # no program sends it; kept for perfbench's report
GC_DECODE = 8
OT_CHOICES = 9  # masked bits: on dealt labels (role 1), b2a's openings (both)
OT_PAIRS = 10  # ot.py's alone
ASS_EF = 11
DA_MASKED = 12
APP_SHARE = 13  # no program sends it; kept for perfbench's report

OFFLINE = "offline"
ONLINE = "online"

# Leading sync-header bytes per message type, booked as framing.
_META_BYTES = {GMW_DE: 4}


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
        self._due = None  # (msg_type, nbytes) of the next recv, set by recv_expect
        self.flights = 0  # runs of sends with no receive in between
        self._in_flight = False  # the last act was a send
        self._exchanging = False  # an exchange books its flight, its helper's send not

    def phase_mark(self, phase: str):
        self.phase = phase

    def send(self, msg_type: int, payload):
        """Frame and send payload, any C-contiguous buffer (bytes, numpy
        arrays of any dtype); never copied under the null cipher."""
        if self.session is None:
            raise ProtocolError("session not yet established")
        payload = memoryview(payload).cast("B")
        size = len(payload)
        if size > MAX_PAYLOAD:
            raise FrameTooLarge(f"{size} bytes exceeds frame limit")
        header = struct.pack("<IB", 0, msg_type) + self.session
        body = memoryview(self.cipher.seal(header, payload)).cast("B")
        header = struct.pack("<IB", len(body), msg_type) + self.session
        try:
            self._send_parts([memoryview(header), body])
        except OSError as e:
            raise Disconnected(str(e)) from None
        if not self._exchanging:
            self.flights += not self._in_flight
            self._in_flight = True
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
        """Read one frame. Under recv_expect the header must announce the
        due type and size, or an ERROR frame of at most ERROR_CAP bytes;
        both are checked before the body is allocated."""
        due, self._due = self._due, None
        self._in_flight = False
        header = bytes(self._recv_exact(HEADER_LEN))
        length, msg_type = struct.unpack("<IB", header[:5])
        session = header[5:]
        over = self.cipher.overhead
        if due is None:
            cap = MANIFEST_CAP if self.session is None else MAX_PAYLOAD
            if length > cap + over:
                raise FrameTooLarge(f"incoming frame of {length} bytes exceeds {cap}")
        elif msg_type == ERROR:
            if length > ERROR_CAP + over:
                raise ProtocolError(f"ERROR frame of {length} bytes exceeds the cap")
        elif (msg_type, length) != (due[0], due[1] + over):
            raise ProtocolError(
                f"expected message type {due[0]} of {due[1]} bytes, got type "
                f"{msg_type} of {length - over} bytes")
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
        """Symmetric send+recv of the same frame type, deadlock-free; the
        reply must be the size of payload.

        Both parties call this in the same protocol step; the send runs on
        a helper thread so neither side can stall on a full socket buffer.
        It is one flight, or continues the current one; the calling thread
        books it, as the helper's send would race the receive that ends it.
        """
        exc = []

        def _send():
            try:
                self.send(msg_type, payload)
            except TransportError as e:  # pragma: no cover
                exc.append(e)

        self.flights += not self._in_flight
        self._exchanging = True
        t = threading.Thread(target=_send)
        t.start()
        try:
            reply = self.recv_expect(msg_type, memoryview(payload).nbytes)
        finally:
            t.join()
            self._exchanging = False
        if exc:
            raise exc[0]
        return reply

    def recv_expect(self, msg_type: int, nbytes: int) -> bytes | bytearray:
        """The payload of the next frame, which must be of msg_type and
        exactly nbytes long; the check runs in recv, which perfbench wraps
        with no arguments, so the due size waits on the channel."""
        self._due = (msg_type, nbytes)
        frame = self.recv()
        if frame.msg_type == ERROR:
            raise RemoteError(frame.payload.decode("utf-8", "replace"))
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
