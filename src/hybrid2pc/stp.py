"""The semi-honest dealer: offline-only correlated-randomness service.

Each session: both parties submit byte-identical manifests (prefixed with
their role byte), the dealer draws two fresh 256-bit seeds, expands them,
computes the correction payload, and answers role 0 with its seed and
role 1 with its seed plus the corrections. The session is then forgotten;
only the spent session id is retained to refuse replays. The dealer is
never contacted during the online phase.

The bundle format belongs to correlated: compute_corrections writes role
1's, and a party opens its own with correlated.open_bundle.
"""

from __future__ import annotations

import secrets
import threading

from . import transport
from .correlated import ResourceManifest, bundle_size, compute_corrections
from .drbg import SEED_BYTES
from .transport import Channel, ByteLedger

MANIFEST_MISMATCH = "MANIFEST_MISMATCH"
SESSION_REPLAY = "SESSION_REPLAY"
SESSION_TIMEOUT = "SESSION_TIMEOUT"
DUPLICATE_ROLE = "DUPLICATE_ROLE"
MANIFEST_TOO_LARGE = "MANIFEST_TOO_LARGE"


class _Session:
    def __init__(self):
        self.lock = threading.Lock()
        self.ready = threading.Event()
        self.submissions: dict[int, ResourceManifest] = {}
        self.outcome: str | None = None  # error code, or None on success
        self.bundles: dict[int, bytes] = {}


class StpServer:
    """Accepts manifest submissions and deals bundles; multi-session."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 30.0, cipher_key: bytes | None = None):
        self._srv = transport.tcp_listen(host, port)
        self.address = self._srv.getsockname()
        self.timeout = timeout
        self._cipher_key = cipher_key
        self._sessions: dict[bytes, _Session] = {}
        self._spent: set[bytes] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()

    def start(self) -> "StpServer":
        threading.Thread(target=self._accept_loop, daemon=True).start()
        return self

    def stop(self):
        self._stop.set()
        self._srv.close()

    def _accept_loop(self):
        while not self._stop.is_set():
            try:
                sock = transport.tcp_accept(self._srv)
            except OSError:
                return
            threading.Thread(target=self._handle, args=(sock,), daemon=True).start()

    def _handle(self, sock):
        cipher = transport.PskCipher(self._cipher_key, 1) if self._cipher_key else None
        chan = Channel(sock, None, cipher=cipher)
        sock.settimeout(self.timeout)  # a client that sends nothing is dropped
        try:
            frame = chan.recv()
        except transport.TransportError:
            sock.close()
            return
        sock.settimeout(None)
        try:
            self._process(frame, chan)
        finally:
            chan.close()

    def _process(self, frame, chan: Channel):
        if frame.msg_type != transport.MANIFEST:
            chan.send(transport.ERROR, b"EXPECTED_MANIFEST")
            return
        sid = frame.session
        if not frame.payload:
            chan.send(transport.ERROR, b"MALFORMED_MANIFEST")
            return
        role = frame.payload[0]
        if role not in (0, 1):
            chan.send(transport.ERROR, b"MALFORMED_MANIFEST")
            return
        try:
            manifest = ResourceManifest.decode(sid, frame.payload[1:])
        except ValueError:
            chan.send(transport.ERROR, b"MALFORMED_MANIFEST")
            return
        if bundle_size(1, manifest) > transport.MAX_PAYLOAD:  # no frame could carry it
            chan.send(transport.ERROR, MANIFEST_TOO_LARGE.encode())
            return
        with self._lock:
            if sid in self._spent:
                chan.send(transport.ERROR, SESSION_REPLAY.encode())
                return
            sess = self._sessions.setdefault(sid, _Session())
        with sess.lock:
            if role in sess.submissions:
                chan.send(transport.ERROR, DUPLICATE_ROLE.encode())
                return
            sess.submissions[role] = manifest
            both = len(sess.submissions) == 2
        if both:
            self._deal(sid, sess)
            sess.ready.set()
        elif not sess.ready.wait(self.timeout):
            with sess.lock:
                if not sess.ready.is_set():
                    sess.outcome = SESSION_TIMEOUT
                    sess.ready.set()
        # every handler thread delivers to its own party
        with sess.lock:
            try:
                if sess.outcome is None:
                    chan.send(transport.BUNDLE, sess.bundles[role])
                else:
                    chan.send(transport.ERROR, sess.outcome.encode())
            except transport.TransportError:
                pass  # party gone; the session is spent either way
        with self._lock:
            self._sessions.pop(sid, None)
            self._spent.add(sid)

    def _deal(self, sid: bytes, sess: _Session):
        with sess.lock:
            m0, m1 = sess.submissions[0], sess.submissions[1]
            if m0.encode() != m1.encode():
                sess.outcome = MANIFEST_MISMATCH
                return
            seed0, seed1 = secrets.token_bytes(SEED_BYTES), secrets.token_bytes(SEED_BYTES)
            sess.bundles[0] = seed0
            sess.bundles[1] = compute_corrections(seed0, seed1, m0)
            # no per-session secrets survive delivery: seeds/corrections
            # live only in the bundles handed out below


def request_bundle(stp_addr, manifest: ResourceManifest, role: int,
                   ledger: ByteLedger | None = None,
                   cipher_key: bytes | None = None) -> bytes:
    """Submit the manifest, wait for this role's bundle; offline phase.
    Returns the bundle as received; correlated.open_bundle opens it."""
    sock = transport.tcp_connect(*stp_addr)
    cipher = transport.PskCipher(cipher_key, 0) if cipher_key else None
    chan = Channel(sock, manifest.session_id, ledger=ledger, peer="stp",
                   cipher=cipher)
    chan.phase_mark(transport.OFFLINE)
    try:
        chan.send(transport.MANIFEST, bytes([role]) + manifest.encode())
        payload = chan.recv_expect(transport.BUNDLE, bundle_size(role, manifest))
    finally:
        chan.close()
    return payload
