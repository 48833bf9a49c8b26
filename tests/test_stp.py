import secrets
import struct
import threading
import time

import numpy as np
import pytest

from hybrid2pc import ml, stp, transport
from hybrid2pc.correlated import ResourceManifest, bundle_size, open_bundle
from hybrid2pc.drbg import SEED_BYTES
from hybrid2pc.ring import RingParams
from hybrid2pc.transport import ByteLedger, RemoteError

L32 = RingParams(32)


@pytest.fixture(autouse=True)
def no_thread_dies():
    """Fail any test in which a thread, such as a dealer handler, dies of an
    uncaught exception: the parties would see only a disconnect or a timeout."""
    died = []
    hook = threading.excepthook
    threading.excepthook = died.append
    try:
        yield
    finally:
        threading.excepthook = hook
    assert not died, [f"{getattr(a.thread, 'name', None)}: {a.exc_value!r}" for a in died]


@pytest.fixture(scope="module")
def server():
    srv = stp.StpServer(timeout=1.5).start()
    yield srv
    srv.stop()


def fetch_both(server, manifests):
    """Run both offline requests concurrently; returns (bundles, ledgers)."""
    out = [None, None]
    errs = [None, None]
    ledgers = [ByteLedger(), ByteLedger()]

    def go(role):
        try:
            out[role] = stp.request_bundle(
                server.address, manifests[role], role, ledger=ledgers[role]
            )
        except Exception as e:
            errs[role] = e

    ts = [threading.Thread(target=go, args=(r,)) for r in (0, 1)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    return out, errs, ledgers


def manifest(**kw):
    sid = kw.pop("session_id", secrets.token_bytes(16))
    return ResourceManifest(sid, kw.pop("ring", L32), **kw)


def test_bundles_satisfy_relations(server):
    sid = secrets.token_bytes(16)
    m = manifest(session_id=sid, num_amt=500, num_bmt=300, num_dabits=200,
                 vdp_blocks=((2, 4), (1, 9)))
    (b0, b1), errs, _ = fetch_both(server, {0: m, 1: m})
    assert errs == [None, None]
    assert b0[:32] != b1[:32]
    m0, m1 = open_bundle(0, b0, m), open_bundle(1, b1, m)
    mask = np.uint64(L32.mask)
    lhs = ((m0.amt_a + m1.amt_a) & mask) * ((m0.amt_b + m1.amt_b) & mask) & mask
    assert np.array_equal(lhs, (m0.amt_c + m1.amt_c) & mask)
    assert np.array_equal(
        (m0.bmt_a ^ m1.bmt_a) & (m0.bmt_b ^ m1.bmt_b), m0.bmt_c ^ m1.bmt_c
    )
    dabits = (m0.dabit_b ^ m1.dabit_b).astype(L32.dtype)
    assert np.array_equal(m0.dabit_a + m1.dabit_a, dabits)
    assert [v.shape for v in m1.vdp_mask] == [(2, 4), (1, 9)]
    for v0, v1, a2, a3 in zip(m0.vdp_mask, m1.vdp_mask, m0.vdp_scalar, m1.vdp_scalar):
        dot = ((v0 * v1) & mask).sum(axis=1) & mask
        assert np.array_equal((a2 + a3) & mask, dot)


# Role 1's bundle for the three benchmarked manifests, planned at the
# benchmark's shapes (conv 5x5, stride 2, pad (1, 2), 5 maps; FC 980x100;
# FC 100x10; SVM d = 100; l = 32, alpha = 7, beta = 12): the seed, then l
# bits per A-MT, daBit and dot product, one bit per B-MT and 128 per label.
BENCHMARKED_BUNDLES = {"mnist-lan-b20": 12_941_732, "mnist-wan-b1": 644_552, "svm-psk-b1": 548}


def _benchmarked_manifest(name):
    p, sid = RingParams(32, 7, 12), secrets.token_bytes(16)
    if name == "svm-psk-b1":
        return ml.plan_svm_manifest(100, 1, p, sid)
    net = ml.mnist_like_net(np.random.default_rng(0))
    batch, profile = {"mnist-lan-b20": (20, ml.LAN), "mnist-wan-b1": (1, ml.WAN)}[name]
    return ml.plan_nn_manifest(net, p, batch, profile, sid)


@pytest.mark.parametrize("name", BENCHMARKED_BUNDLES)
def test_benchmarked_bundle_sizes(server, name):
    m = _benchmarked_manifest(name)
    products = sum(n for n, _ in m.vdp_blocks)
    closed = (32 + 4 * (m.num_amt + m.num_dabits + products) + (m.num_bmt + 7) // 8
              + 16 * m.num_labels)
    assert closed == bundle_size(1, m) == BENCHMARKED_BUNDLES[name]
    (_, b1), errs, ledgers = fetch_both(server, {0: m, 1: m})
    assert errs == [None, None] and len(b1) == closed
    assert ledgers[1].payload_bytes(direction="recv", peer="stp") == closed


def test_manifest_mismatch_rejected(server):
    sid = secrets.token_bytes(16)
    ma = manifest(session_id=sid, num_amt=10)
    mb = manifest(session_id=sid, num_amt=11)
    (b0, b1), errs, _ = fetch_both(server, {0: ma, 1: mb})
    assert b0 is None and b1 is None
    for e in errs:
        assert isinstance(e, RemoteError)
        assert e.code == stp.MANIFEST_MISMATCH


def test_undeliverable_manifest_refused_at_once(server):
    # one (2^32 - 1)-product block of (2^32 - 1)-long dot products implies
    # a 17 GB bundle for role 1: past MAX_PAYLOAD, so both parties are
    # refused before anything is expanded
    m = manifest(vdp_blocks=((2**32 - 1, 2**32 - 1),))
    assert bundle_size(1, m) > transport.MAX_PAYLOAD
    t0 = time.monotonic()
    bundles, errs, _ = fetch_both(server, {0: m, 1: m})
    assert time.monotonic() - t0 < 1.0
    assert bundles == [None, None]
    assert [getattr(e, "code", e) for e in errs] == [stp.MANIFEST_TOO_LARGE] * 2


def test_session_replay_rejected(server):
    sid = secrets.token_bytes(16)
    m = manifest(session_id=sid, num_amt=1)
    _, errs, _ = fetch_both(server, {0: m, 1: m})
    assert errs == [None, None]
    with pytest.raises(RemoteError) as ei:
        stp.request_bundle(server.address, m, 0)
    assert ei.value.code == stp.SESSION_REPLAY


def test_empty_manifest_bundle_is_seed_only(server):
    m = manifest()
    (b0, b1), errs, ledgers = fetch_both(server, {0: m, 1: m})
    assert errs == [None, None]
    assert len(b0) == 32
    assert ledgers[0].payload_bytes(direction="recv") == 32
    assert ledgers[1].payload_bytes(direction="recv") == 32


def test_offline_byte_counts_match_closed_form(server):
    # 10^5 A-MTs at l=32: role 0 gets the seed, role 1 seed + 4 bytes/triple
    n = 10**5
    m = manifest(num_amt=n)
    (b0, b1), errs, ledgers = fetch_both(server, {0: m, 1: m})
    assert errs == [None, None]
    assert ledgers[0].payload_bytes(direction="recv", peer="stp") == 32
    assert ledgers[1].payload_bytes(direction="recv", peer="stp") == 32 + 4 * n
    wire = ledgers[1].wire_bytes(direction="recv", peer="stp")
    assert wire == 32 + 4 * n + transport.HEADER_LEN
    # all offline, nothing online
    assert ledgers[1].payload_bytes(phase=transport.ONLINE) == 0


def test_duplicate_role_rejected(server):
    sid = secrets.token_bytes(16)
    m = manifest(session_id=sid, num_amt=1)
    errs = {}

    def go(tag):
        try:
            stp.request_bundle(server.address, m, 0)
            errs[tag] = None
        except Exception as e:
            errs[tag] = e

    ts = [threading.Thread(target=go, args=(i,)) for i in range(2)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    codes = sorted(
        e.code if isinstance(e, RemoteError) else None for e in errs.values()
    )
    # one submission is eventually timed out, the other refused outright
    assert stp.DUPLICATE_ROLE in codes or stp.SESSION_TIMEOUT in codes


def test_psk_encrypted_dealer_channel():
    key = bytes(range(32))
    srv = stp.StpServer(timeout=5.0, cipher_key=key).start()
    try:
        m = manifest(num_amt=50)
        out = [None, None]

        def go(role):
            out[role] = stp.request_bundle(srv.address, m, role, cipher_key=key)

        ts = [threading.Thread(target=go, args=(r,)) for r in (0, 1)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        m0, m1 = open_bundle(0, out[0], m), open_bundle(1, out[1], m)
        mask = np.uint64(L32.mask)
        lhs = ((m0.amt_a + m1.amt_a) & mask) * ((m0.amt_b + m1.amt_b) & mask)
        assert np.array_equal(lhs & mask, (m0.amt_c + m1.amt_c) & mask)
    finally:
        srv.stop()


def test_online_traffic_refused(server):
    from hybrid2pc.transport import Channel

    sock = transport.tcp_connect(*server.address)
    chan = Channel(sock, secrets.token_bytes(16))
    chan.send(transport.GMW_DE, b"\x00\x00\x00\x00")
    with pytest.raises(RemoteError):
        chan.recv_expect(transport.BUNDLE, SEED_BYTES)
    chan.close()


_BLOCKS = manifest(session_id=bytes(16), num_amt=1, vdp_blocks=((2, 3),)).encode()
_HEAD = 3 + 4 * 4  # l, alpha, beta and four u32 counts
MALFORMED = {
    "short-head": _BLOCKS[:_HEAD - 1],
    "partial-pair": _BLOCKS[:-1],
    "extra-half-pair": _BLOCKS + bytes(4),
    "zero-products": _BLOCKS[:_HEAD] + struct.pack("<2I", 0, 3),
    "zero-length": _BLOCKS[:_HEAD] + struct.pack("<2I", 2, 0),
    "no-wire-width": struct.pack("<3B4I", 12, 0, 0, 1, 0, 0, 0),  # l = 12, one A-MT
}


@pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED)
def test_malformed_block_manifest_rejected(server, payload):
    # a payload that is not the head plus whole (products, length) pairs,
    # that names an empty block or a ring with no wire encoding, is
    # refused before any session starts
    chan = transport.Channel(transport.tcp_connect(*server.address),
                             secrets.token_bytes(16))
    try:
        chan.send(transport.MANIFEST, bytes([0]) + payload)
        with pytest.raises(RemoteError) as ei:
            chan.recv_expect(transport.BUNDLE, SEED_BYTES)
        assert ei.value.code == "MALFORMED_MANIFEST"
    finally:
        chan.close()


def test_silent_client_dropped_after_timeout():
    # a client that connects and sends nothing must not hold a handler
    # and its socket open: the dealer closes it once its timeout passes
    srv = stp.StpServer(timeout=0.5).start()
    sock = transport.tcp_connect(*srv.address)
    try:
        sock.settimeout(5)
        assert sock.recv(1) == b""
    finally:
        sock.close()
        srv.stop()


def test_handler_threads_pruned():
    # every session spawns two handler threads; finished ones must not pile
    # up: the process's live threads stay near where they started
    srv = stp.StpServer(timeout=5.0).start()
    before = threading.active_count()
    try:
        for _ in range(50):
            m = manifest(num_amt=2)
            _, errs, _ = fetch_both(srv, {0: m, 1: m})
            assert errs == [None, None]
        assert threading.active_count() <= before + 10
    finally:
        srv.stop()
