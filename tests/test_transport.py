import ast
import importlib
import inspect
import pkgutil
import threading

import numpy as np
import pytest
from conftest import closing, run_parties

import hybrid2pc
from hybrid2pc import transport
from hybrid2pc.transport import (
    Channel,
    FrameTooLarge,
    HEADER_LEN,
    ProtocolError,
    channel_pair,
)


def test_empty_payload_roundtrip_and_framing_bytes(channels):
    c0, c1 = channels
    c0.send(transport.APP_SHARE, b"")
    frame = c1.recv()
    assert frame.payload == b""
    assert c0.ledger.payload_bytes(direction="sent") == 0
    assert c0.ledger.wire_bytes(direction="sent") == HEADER_LEN
    assert c1.ledger.wire_bytes(direction="recv") == HEADER_LEN


def test_many_frames_in_order(channels):
    c0, c1 = channels
    n = 10**5
    err = []

    def sender():
        try:
            for i in range(n):
                c0.send(transport.APP_SHARE, i.to_bytes(4, "little"))
        except Exception as e:  # pragma: no cover
            err.append(e)

    t = threading.Thread(target=sender)
    t.start()
    for i in range(n):
        assert c1.recv().payload == i.to_bytes(4, "little")
    t.join()
    assert not err
    assert c1.ledger.messages(direction="recv") == n


def test_phase_attribution(channels):
    c0, c1 = channels
    c0.send(transport.BUNDLE, b"x" * 10)
    c1.recv()
    c0.phase_mark(transport.ONLINE)
    c0.phase_mark(transport.ONLINE)  # idempotent
    c0.send(transport.ASS_EF, b"y" * 7)
    c1.phase_mark(transport.ONLINE)
    c1.recv()
    assert c0.ledger.payload_bytes(phase=transport.OFFLINE, direction="sent") == 10
    assert c0.ledger.payload_bytes(phase=transport.ONLINE, direction="sent") == 7
    # query over an unknown peer is zero
    assert c0.ledger.payload_bytes(peer="nobody") == 0


def test_sync_metadata_counted_as_framing(channels):
    c0, c1 = channels
    c0.send(transport.GMW_DE, b"\x01\x00\x00\x00" + b"\xaa" * 25)
    f = c1.recv()
    assert f.payload[4:] == b"\xaa" * 25
    assert c0.ledger.payload_bytes(msg_type=transport.GMW_DE) == 25
    assert c1.ledger.payload_bytes(msg_type=transport.GMW_DE) == 25


def test_frame_too_large(channels):
    c0, _ = channels
    with pytest.raises(FrameTooLarge):
        c0.send(transport.APP_SHARE, bytearray(transport.MAX_PAYLOAD + 1))


def test_type_mismatch(channels):
    c0, c1 = channels
    c0.send(transport.APP_SHARE, b"hello")
    with pytest.raises(ProtocolError):
        c1.recv_expect(transport.GMW_DE, 5)


def test_aead_mode_roundtrip():
    key = bytes(32)
    with closing(*channel_pair(cipher_key=key)) as (c0, c1):
        c0.send(transport.APP_SHARE, b"sealed payload")
        assert c1.recv().payload == b"sealed payload"
        c1.send(transport.APP_SHARE, b"reply")
        assert c0.recv().payload == b"reply"
    # ledger still books plaintext payload sizes
    assert c0.ledger.payload_bytes(direction="sent") == 14
    assert c0.ledger.wire_bytes(direction="sent") == HEADER_LEN + 14 + 16


def test_session_isolation():
    import socket

    with closing(*socket.socketpair()) as (s0, s1):
        a = Channel(s0, b"A" * 16)
        b = Channel(s1, b"B" * 16)
        a.send(transport.APP_SHARE, b"x")
        with pytest.raises(ProtocolError):
            b.recv()


def test_ledger_monotone_snapshot(channels):
    c0, c1 = channels
    for _ in range(3):
        c0.send(transport.APP_SHARE, b"abc")
        c1.recv()
    book = c0.ledger
    counts = (book.payload_bytes(), book.wire_bytes(), book.messages())
    assert counts == (9, 3 * (HEADER_LEN + 3), 3)
    # the three frames are one row: sent, APP_SHARE
    row = dict(direction="sent", msg_type=transport.APP_SHARE)
    assert (book.payload_bytes(**row), book.wire_bytes(**row), book.messages(**row)) == counts


@pytest.mark.parametrize("cipher_key", [None, bytes(32)])
def test_buffer_payloads_roundtrip_with_same_ledger(cipher_key):
    # bytes, bytearray, memoryview and numpy payloads cross as the same frame
    data = bytes(range(256)) * 300
    books = []
    for payload in (data, bytearray(data), memoryview(bytearray(data))[5:-7],
                    np.frombuffer(data, "<u4"), np.frombuffer(data, "<u8")):
        expect = bytes(payload)
        c0, c1 = channel_pair(cipher_key=cipher_key)
        c0.send(transport.GMW_DE, payload)
        c0.send(transport.APP_SHARE, payload)
        assert c1.recv().payload == expect
        assert c1.recv_expect(transport.APP_SHARE, len(expect)) == expect
        books.append((c0.ledger.payload_bytes(direction="sent"),
                      c0.ledger.wire_bytes(direction="sent"),
                      c1.ledger.payload_bytes(direction="recv"),
                      c1.ledger.wire_bytes(direction="recv")))
        overhead = 16 if cipher_key else 0
        n = len(expect)
        assert books[-1] == (2 * n - 4, 2 * (HEADER_LEN + n + overhead),
                             2 * n - 4, 2 * (HEADER_LEN + n + overhead))
        c0.close()
        c1.close()
    assert books[0] == books[1] == books[3] == books[4]


def test_flights_are_runs_of_sends(channels):
    # a flight is a run of sends with no receive in between; an exchange is
    # one flight, or continues the flight its party's last send opened
    c0, c1 = channels
    assert (c0.flights, c1.flights) == (0, 0)
    c0.send(transport.APP_SHARE, b"a")
    c0.send(transport.APP_SHARE, b"b")
    c1.recv()
    c1.recv()

    def second(ch):
        ch.send(transport.APP_SHARE, b"c")
        return ch.exchange(transport.GMW_DE, b"dd")

    def first(ch):
        ch.recv()
        return ch.exchange(transport.GMW_DE, b"ee")

    assert run_parties(lambda: first(c0), lambda: second(c1)) == [b"dd", b"ee"]
    assert (c0.flights, c1.flights) == (2, 1)


def test_back_to_back_exchanges_are_one_flight_each(channels):
    # the helper thread's send must not book: a peer's reply can land
    # before it, so a count taken in send/recv order would drift
    rng = np.random.default_rng(5)
    sizes = [0, 1, 1 << 20, *rng.integers(0, (1 << 20) + 1, 197).tolist()]
    c0, c1 = channels

    def party(ch, tag):
        for n in sizes:
            assert ch.exchange(transport.DA_MASKED, bytes([tag]) * n) == bytes([1 - tag]) * n

    run_parties(lambda: party(c0, 0), lambda: party(c1, 1))
    assert (c0.flights, c1.flights) == (200, 200)


# No program sends GC_INLABELS or APP_SHARE: the garbler's inputs take zero
# labels x*R and a party's input is its own share. transport keeps both
# constants for perfbench's report alone, so no other module may name them.
_RETIRED = {"GC_INLABELS", "APP_SHARE"}


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(hybrid2pc.__path__)
                                  if m.name != "transport"])
def test_no_module_names_a_retired_frame_type(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(f"hybrid2pc.{name}")))
    found = [f"line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in _RETIRED
             or isinstance(node, ast.Name) and node.id in _RETIRED
             or isinstance(node, ast.alias) and node.name in _RETIRED]
    assert found == []
