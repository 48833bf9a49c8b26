"""The semi-honest dealer: offline-only correlated-randomness service.

Each session: both parties submit byte-identical manifests (prefixed with
their role byte), the dealer draws two fresh 256-bit seeds, expands them,
computes the correction payload, and answers role 0 with its seed and
role 1 with its seed plus the corrections. The session is then forgotten;
only the spent session id is retained to refuse replays. The dealer is
never contacted during the online phase.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass

from . import transport
from .correlated import (
    Corrections,
    PartyMaterial,
    ResourceManifest,
    apply_corrections,
    compute_corrections,
    expand_role0,
    expand_role1,
)
from .drbg import SEED_BYTES
from .transport import Channel, ByteLedger

MANIFEST_MISMATCH = "MANIFEST_MISMATCH"
SESSION_REPLAY = "SESSION_REPLAY"
SESSION_TIMEOUT = "SESSION_TIMEOUT"
DUPLICATE_ROLE = "DUPLICATE_ROLE"


@dataclass
class CorrelatedBundle:
    """One party's offline takeaway; everything the online phase consumes."""

    role: int
    seed: bytes
    corrections: Corrections | None

    def encode(self, ring) -> bytes | bytearray:
        """Role 0: the seed. Role 1: seed and corrections in one buffer."""
        if self.role == 0:
            return self.seed
        return self.corrections.encode(ring, prefix=self.seed)

    @classmethod
    def decode(cls, role: int, payload: bytes, manifest: ResourceManifest):
        """Parse a bundle; role 1's corrections are views into payload."""
        if len(payload) < SEED_BYTES:
            raise ValueError("bundle too short")
        seed = bytes(payload[:SEED_BYTES])
        if role == 0:
            if len(payload) != SEED_BYTES:
                raise ValueError("unexpected trailing bytes in role-0 bundle")
            return cls(0, seed, None)
        return cls(1, seed, Corrections.decode(payload, manifest, offset=SEED_BYTES))

    def materialize(self, manifest: ResourceManifest) -> PartyMaterial:
        """Seed expansion on the party side; the dealer did the same."""
        if self.role == 0:
            return expand_role0(self.seed, manifest)
        return apply_corrections(expand_role1(self.seed, manifest), self.corrections)


class _Session:
    def __init__(self):
        self.lock = threading.Lock()
        self.ready = threading.Event()
        self.submissions: dict[int, tuple[ResourceManifest, Channel]] = {}
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
        self._threads: list[threading.Thread] = []

    def start(self) -> "StpServer":
        t = threading.Thread(target=self._accept_loop, daemon=True)
        t.start()
        self._threads.append(t)
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
            t = threading.Thread(target=self._handle, args=(sock,), daemon=True)
            t.start()
            self._threads = [x for x in self._threads if x.is_alive()]
            self._threads.append(t)

    def _handle(self, sock):
        cipher = transport.PskCipher(self._cipher_key, 1) if self._cipher_key else None
        chan = Channel(sock, None, cipher=cipher)
        try:
            frame = chan.recv()
        except transport.TransportError:
            sock.close()
            return
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
        with self._lock:
            if sid in self._spent:
                chan.send(transport.ERROR, SESSION_REPLAY.encode())
                return
            sess = self._sessions.setdefault(sid, _Session())
        with sess.lock:
            if role in sess.submissions:
                chan.send(transport.ERROR, DUPLICATE_ROLE.encode())
                return
            sess.submissions[role] = (manifest, chan)
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
            my_chan = sess.submissions[role][1]
            try:
                if sess.outcome is None:
                    my_chan.send(transport.BUNDLE, sess.bundles[role])
                else:
                    my_chan.send(transport.ERROR, sess.outcome.encode())
            except transport.TransportError:
                pass  # party gone; the session is spent either way
        with self._lock:
            self._sessions.pop(sid, None)
            self._spent.add(sid)

    def _deal(self, sid: bytes, sess: _Session):
        with sess.lock:
            m0, m1 = sess.submissions[0][0], sess.submissions[1][0]
            if m0.encode() != m1.encode():
                sess.outcome = MANIFEST_MISMATCH
                return
            seed0, seed1 = secrets.token_bytes(SEED_BYTES), secrets.token_bytes(SEED_BYTES)
            corr = compute_corrections(seed0, seed1, m0)
            sess.bundles[0] = CorrelatedBundle(0, seed0, None).encode(m0.ring)
            sess.bundles[1] = CorrelatedBundle(1, seed1, corr).encode(m0.ring)
            # no per-session secrets survive delivery: seeds/corrections
            # live only in the encoded bundles handed out below


def request_bundle(stp_addr, manifest: ResourceManifest, role: int,
                   ledger: ByteLedger | None = None,
                   cipher_key: bytes | None = None) -> CorrelatedBundle:
    """Submit the manifest, wait for this role's bundle; offline phase."""
    sock = transport.tcp_connect(*stp_addr)
    cipher = transport.PskCipher(cipher_key, 0) if cipher_key else None
    chan = Channel(sock, manifest.session_id, ledger=ledger, peer="stp",
                   cipher=cipher)
    chan.phase_mark(transport.OFFLINE)
    try:
        chan.send(transport.MANIFEST, bytes([role]) + manifest.encode())
        payload = chan.recv_expect(transport.BUNDLE)
    finally:
        chan.close()
    return CorrelatedBundle.decode(role, payload, manifest)
