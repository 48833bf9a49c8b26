import secrets
import threading

import numpy as np
import pytest

from hybrid2pc import stp, transport
from hybrid2pc.correlated import ResourceManifest
from hybrid2pc.ring import RingParams
from hybrid2pc.transport import ByteLedger, RemoteError

L32 = RingParams(32)


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
    m = manifest(session_id=sid, num_amt=500, num_bmt=300, num_ot=200,
                 vdp_lengths=(4, 4, 9))
    (b0, b1), errs, _ = fetch_both(server, {0: m, 1: m})
    assert errs == [None, None]
    assert b0.seed != b1.seed
    m0, m1 = b0.materialize(m), b1.materialize(m)
    mask = np.uint64(L32.mask)
    lhs = ((m0.amt_a + m1.amt_a) & mask) * ((m0.amt_b + m1.amt_b) & mask) & mask
    assert np.array_equal(lhs, (m0.amt_c + m1.amt_c) & mask)
    assert np.array_equal(
        (m0.bmt_a ^ m1.bmt_a) & (m0.bmt_b ^ m1.bmt_b), m0.bmt_c ^ m1.bmt_c
    )
    chosen = np.where(m1.ot_r[:, None].astype(bool), m0.ot_q[:, 1], m0.ot_q[:, 0])
    assert np.array_equal(chosen, m1.ot_qr)
    for i in range(3):
        dot = int(((m0.vdp.vec_for(i) * m1.vdp.vec_for(i)) & mask).sum() & mask)
        assert (int(m0.vdp.scalar[i]) + int(m1.vdp.scalar[i])) % L32.modulus == dot


def test_manifest_mismatch_rejected(server):
    sid = secrets.token_bytes(16)
    ma = manifest(session_id=sid, num_amt=10)
    mb = manifest(session_id=sid, num_amt=11)
    (b0, b1), errs, _ = fetch_both(server, {0: ma, 1: mb})
    assert b0 is None and b1 is None
    for e in errs:
        assert isinstance(e, RemoteError)
        assert e.code == stp.MANIFEST_MISMATCH


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
    assert b0.corrections is None
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
        m0, m1 = out[0].materialize(m), out[1].materialize(m)
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
        chan.recv_expect(transport.BUNDLE)
    chan.close()


def test_handler_threads_pruned():
    # every session spawns two handler threads; finished ones must not pile up
    srv = stp.StpServer(timeout=5.0).start()
    try:
        for _ in range(50):
            m = manifest(num_amt=2)
            _, errs, _ = fetch_both(srv, {0: m, 1: m})
            assert errs == [None, None]
        assert len(srv._threads) <= 10
    finally:
        srv.stop()
