import ast
import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from conftest import ot_masks, run_parties

import hybrid2pc
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
    # one 64-bit ring element per mask and message
    for r_bit in (0, 1):
        for b_bit in (0, 1):
            c0, c1 = channels
            q = np.frombuffer(bytes(range(16)), "<u8").reshape(1, 2).copy()
            r = np.array([r_bit], np.uint8)
            qr = q[0, r_bit][None].copy()
            snd, rcv = OtSender(q, c0), OtReceiver(r, qr, c1)
            m0 = np.array([0x0123456789ABCDEF], "<u8")
            m1 = m0 + np.uint64(100)

            def sender():
                snd.send(m0, m1)

            def receiver():
                return rcv.recv([b_bit], 64)

            _, got = run_parties(sender, receiver)
            expect = m1 if b_bit else m0
            assert np.array_equal(got, expect), (r_bit, b_bit)


def test_random_batch_correctness(channels):
    # messages and outputs are ring elements, as wide as the dealt masks
    n = 10**5
    rng = np.random.default_rng(3)
    for l in (8, 16, 32, 64):
        p = RingParams(l)
        snd, rcv = make_pair(n, channels, l)
        m0 = rng.integers(0, p.modulus, size=n, dtype=p.dtype)
        m1 = rng.integers(0, p.modulus, size=n, dtype=p.dtype)
        b = rng.integers(0, 2, size=n, dtype=np.uint8)
        _, got = run_parties(lambda: snd.send(m0, m1), lambda: rcv.recv(b, l))
        assert got.dtype == p.dtype and got.shape == (n,)
        assert np.array_equal(got, np.where(b.astype(bool), m1, m0)), l


def test_ring_message_helpers(channels):
    # b2a's use: messages made by ring arithmetic that wraps mod 2^l, laid
    # out as an (ninst, w) matrix, sent flat and read back into its shape
    ninst, w = 25, 4
    rng = np.random.default_rng(6)
    for l in (8, 16, 32, 64):
        p = RingParams(l)
        snd, rcv = make_pair(ninst * w, channels, l)
        r = rng.integers(0, p.modulus, size=(ninst, w), dtype=p.dtype)
        m0 = (np.zeros((ninst, w), p.dtype) - r).reshape(-1)
        m1 = (np.ones((ninst, w), p.dtype) << np.arange(w, dtype=p.dtype)) - r
        m1 = m1.reshape(-1)
        b = rng.integers(0, 2, size=(ninst, w), dtype=np.uint8)
        _, got = run_parties(
            lambda: snd.send(m0, m1), lambda: rcv.recv(b.reshape(-1), p.l)
        )
        got = got.reshape(ninst, w)
        assert got.dtype == p.dtype
        assert np.array_equal(got, np.where(b.reshape(-1).astype(bool), m1, m0).reshape(ninst, w)), l
        # the shares recombine to the chosen bits weighted by 2^j, mod 2^l
        want = (b.astype(p.dtype) << np.arange(w, dtype=p.dtype)).sum(axis=1, dtype=p.dtype)
        assert np.array_equal((got + r).sum(axis=1, dtype=p.dtype), want), l


def test_online_bytes_and_single_round(channels):
    n = 1000
    c0, c1 = channels
    snd, rcv = make_pair(n, channels)
    m0 = np.zeros(n, "<u4")
    m1 = np.ones(n, "<u4")
    b = np.ones(n, np.uint8)
    run_parties(lambda: snd.send(m0, m1), lambda: rcv.recv(b, 32))
    # 1 bit per OT receiver->sender, 2l bits sender->receiver, 2 messages
    assert c1.ledger.payload_bytes(direction="sent") == n // 8
    assert c0.ledger.payload_bytes(direction="sent") == n * 2 * 4
    assert c0.ledger.messages() == 2 and c1.ledger.messages() == 2


def test_wide_messages_rejected(channels):
    # messages of another width than the dealt l-bit masks are refused
    # before any draw or send: the sender's by dtype, the receiver's by mbits
    c0, c1 = channels
    n = 50
    for l in (8, 16, 32, 64):
        snd, rcv = make_pair(n, channels, l)
        for other in {8, 16, 32, 64} - {l}:
            m = np.zeros(n, f"<u{other // 8}")
            with pytest.raises(OtError):
                snd.send(m, m)
        for mbits in (l + 1, l - 1, 2 * l):
            with pytest.raises(OtError):
                rcv.recv(np.zeros(n, np.uint8), mbits)
        assert snd.masks.left() == rcv.masks.left() == n
    assert c0.ledger.messages() == 0 and c1.ledger.messages() == 0


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
    # unequal lengths, a non-vector or signed ints: nothing drawn or sent
    c0, _ = channels
    snd, _ = make_pair(4, channels)
    u4 = np.zeros(4, "<u4")
    bad = [(u4, u4[:2]), (u4.reshape(2, 2), u4.reshape(2, 2)), (u4.astype(np.int32), u4),
           ([0, 0, 0, 0], u4)]
    for m0, m1 in bad:
        with pytest.raises(OtError):
            snd.send(m0, m1)
    assert snd.masks.left() == 4 and c0.ledger.messages() == 0


def test_zero_width_batch_sends_nothing(channels):
    c0, c1 = channels
    snd, rcv = make_pair(4, channels)
    snd.send(np.zeros(0, "<u4"), np.zeros(0, "<u4"))
    out = rcv.recv(np.zeros(0, np.uint8), 32)
    assert out.shape == (0,) and out.dtype == np.dtype("<u4")
    assert c0.ledger.messages() == 0 and c1.ledger.messages() == 0


# No program calls the OT engine: b2a spends dealt daBits. The module stays
# only while perfbench wraps it, so no other module may come to depend on it.
_ENGINE = {"OtSender", "OtReceiver"}


def _ot_references(module) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if (node.module or "").split(".")[-1] == "ot" or "ot" in names or names & _ENGINE:
                found.append(f"line {node.lineno}: from {node.module or '.'} import ...")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if a.name.split(".")[-1] == "ot"]
        elif isinstance(node, ast.Name) and node.id in _ENGINE:
            found.append(f"line {node.lineno}: {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in _ENGINE:
            found.append(f"line {node.lineno}: .{node.attr}")
    return found


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(hybrid2pc.__path__)
                                  if m.name != "ot"])
def test_no_module_but_ot_uses_the_ot_engine(name):
    assert _ot_references(importlib.import_module(f"hybrid2pc.{name}")) == []
