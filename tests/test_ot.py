import numpy as np
import pytest
from conftest import ot_masks, run_parties

from hybrid2pc.correlated import Exhausted
from hybrid2pc.ot import OtError, OtReceiver, OtSender
from hybrid2pc.ring import RingParams


def make_pair(n, channels, l=32):
    c0, c1 = channels
    q, r, qr = ot_masks(n, l)
    return OtSender(q, c0), OtReceiver(r, qr, c1)


def test_identity_case_by_hand():
    # r=0, b=0: b'=0, (s0,s1)=(q0^m0, q1^m1), output s0^q0 = m0
    q0, q1, m0, m1 = 0xAA, 0xBB, 0x01, 0x02
    r, b = 0, 0
    bp = r ^ b
    s = (q0 ^ m0, q1 ^ m1) if bp == 0 else (q0 ^ m1, q1 ^ m0)
    qr = (q0, q1)[r]
    assert s[r] ^ qr == m0


def test_protocol_trace_example():
    # q0=0xAA, q1=0xBB, r=1, b=1: b'=0; s1 = 0xBB^0x02 = 0xB9; out = m1
    q0, q1, m0, m1, r, b = 0xAA, 0xBB, 0x01, 0x02, 1, 1
    bp = r ^ b
    assert bp == 0
    s = (q0 ^ m0, q1 ^ m1)
    assert s[1] == 0xB9
    assert s[r] ^ q1 == m1


def test_all_rb_combinations(channels):
    for r_bit in (0, 1):
        for b_bit in (0, 1):
            c0, c1 = channels
            q = np.frombuffer(bytes(range(32)), np.uint8).reshape(1, 2, 16).copy()
            r = np.array([r_bit], np.uint8)
            qr = q[0, r_bit][None].copy()
            snd, rcv = OtSender(q, c0), OtReceiver(r, qr, c1)
            m0 = np.arange(16, dtype=np.uint8)[None]
            m1 = m0 + 100

            def sender():
                snd.send(m0, m1, 128)

            def receiver():
                return rcv.recv([b_bit], 128)

            _, got = run_parties(sender, receiver)
            expect = m1 if b_bit else m0
            assert np.array_equal(got, expect), (r_bit, b_bit)


def test_random_batch_correctness(channels):
    # messages as wide as the dealt masks, one ring element each
    n = 10**5
    rng = np.random.default_rng(3)
    for l in (8, 16, 32, 64):
        snd, rcv = make_pair(n, channels, l)
        m0 = rng.integers(0, 256, size=(n, l // 8), dtype=np.uint8)
        m1 = rng.integers(0, 256, size=(n, l // 8), dtype=np.uint8)
        b = rng.integers(0, 2, size=n, dtype=np.uint8)
        _, got = run_parties(lambda: snd.send(m0, m1, l), lambda: rcv.recv(b, l))
        expect = np.where(b[:, None].astype(bool), m1, m0)
        assert np.array_equal(got, expect), l


def test_online_bytes_and_single_round(channels):
    n = 1000
    c0, c1 = channels
    snd, rcv = make_pair(n, channels)
    m0 = np.zeros((n, 4), np.uint8)
    m1 = np.ones((n, 4), np.uint8)
    b = np.ones(n, np.uint8)
    run_parties(lambda: snd.send(m0, m1, 32), lambda: rcv.recv(b, 32))
    # 1 bit per OT receiver->sender, 2m bits sender->receiver, 2 messages
    assert c1.ledger.payload_bytes(direction="sent") == n // 8
    assert c0.ledger.payload_bytes(direction="sent") == n * 2 * 4
    assert c0.ledger.messages() == 2 and c1.ledger.messages() == 2


def test_narrow_messages(channels):
    # 8-bit messages on 32-bit masks use each mask's first byte
    n = 256
    rng = np.random.default_rng(4)
    snd, rcv = make_pair(n, channels)
    m0 = rng.integers(0, 256, size=(n, 1), dtype=np.uint8)
    m1 = rng.integers(0, 256, size=(n, 1), dtype=np.uint8)
    b = rng.integers(0, 2, size=n, dtype=np.uint8)
    _, got = run_parties(lambda: snd.send(m0, m1, 8), lambda: rcv.recv(b, 8))
    assert np.array_equal(got, np.where(b[:, None].astype(bool), m1, m0))


def test_wide_messages_rejected(channels):
    # messages wider than the dealt l-bit masks are refused before any draw or send
    c0, c1 = channels
    n = 50
    for l in (8, 16, 32, 64):
        snd, rcv = make_pair(n, channels, l)
        m = np.zeros((n, l // 8 + 1), dtype=np.uint8)
        with pytest.raises(OtError):
            snd.send(m, m, l + 1)
        with pytest.raises(OtError):
            rcv.recv(np.zeros(n, np.uint8), l + 1)
        assert snd.masks.left() == rcv.masks.left() == n
    assert c0.ledger.messages() == 0 and c1.ledger.messages() == 0


def test_ring_message_helpers(channels):
    n = 100
    rng = np.random.default_rng(6)
    for l in (8, 16, 32, 64):
        p = RingParams(l)
        snd, rcv = make_pair(n, channels, l)
        m0 = rng.integers(0, p.modulus, size=n, dtype=np.uint64)
        m1 = rng.integers(0, p.modulus, size=n, dtype=np.uint64)
        b = rng.integers(0, 2, size=n, dtype=np.uint8)
        _, got = run_parties(
            lambda: snd.send_ring(m0, m1, p), lambda: rcv.recv_ring(b, p)
        )
        assert np.array_equal(got, np.where(b.astype(bool), m1, m0)), l


def test_mask_exhaustion(channels):
    c0, c1 = channels
    snd, rcv = make_pair(10, channels)
    with pytest.raises(Exhausted):
        snd.masks.take(11)
    assert snd.masks.left() == 10  # a failed draw takes nothing
    rcv.masks.take(5)
    with pytest.raises(Exhausted):
        rcv.recv(np.zeros(6, np.uint8), 32)
    assert rcv.masks.left() == 5
    assert c1.ledger.messages() == 0


def test_width_mismatch_rejected(channels):
    snd, _ = make_pair(4, channels)
    with pytest.raises(OtError):
        snd.send(np.zeros((4, 4), np.uint8), np.zeros((4, 2), np.uint8), 32)


def test_zero_width_batch_sends_nothing(channels):
    c0, c1 = channels
    snd, rcv = make_pair(4, channels)
    snd.send(np.zeros((0, 4), np.uint8), np.zeros((0, 4), np.uint8), 32)
    out = rcv.recv(np.zeros(0, np.uint8), 32)
    assert out.shape == (0, 4)
    assert c0.ledger.messages() == 0 and c1.ledger.messages() == 0
