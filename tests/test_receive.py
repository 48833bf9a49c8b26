"""Every receive names its frame's exact size: a fake peer answers each
receive site with a frame one byte too long or too short, under the null
cipher and under PSK, and the receiving party raises ProtocolError before
it reads the body. The fake peer sends its frames before the party runs,
so the party's own frames wait in the socket buffer unread."""

import struct
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import deal, ot_masks

from hybrid2pc import circuits, convert, gc, ml, stp, transport
from hybrid2pc.ass import ArithShare, AssEngine
from hybrid2pc.correlated import ResourceManifest, Supply, bundle_size
from hybrid2pc.gmw import BoolShare, GmwEngine
from hybrid2pc.ot import OtReceiver, OtSender
from hybrid2pc.ring import RingParams
from hybrid2pc.transport import (BUNDLE, Channel, PskCipher, ProtocolError,
                                 channel_pair)

L32 = RingParams(32)
AND8 = circuits.build_bitand(8)  # 8 + 8 inputs, 8 outputs, one AND level
NINST = 3
TABLES = gc._table_bytes(AND8, NINST)
DECODE = (len(AND8.outputs) * NINST + 7) // 8


def _material(role, **kw):
    return deal(ResourceManifest(bytes(16), L32, **kw))[role]


def _zeros(shape):
    return np.zeros(shape, np.uint8)


def _yao(role):
    """An input group bound to labels held from an earlier run: no OT."""
    return gc.YaoShare(_zeros((8, NINST, 16)), role)


def _gc_garble_on_labels(chan):
    """The garbler receives the evaluator's masked bits e before garbling."""
    sess = gc.GcSession(0, chan, _material(0, num_labels=8 * NINST))
    sess.run_shares(AND8, _zeros((NINST, 8)), NINST, "evaluator")


def _b2a(role):
    """A b2a of 20 bits opens them in one exchange of 3-byte frames."""
    def call(chan):
        mat = _material(role, num_dabits=20)
        convert.b2a(chan, L32, Supply("dabits", mat.dabit_b, mat.dabit_a),
                    BoolShare(_zeros((4, 5)), role))
    return call


T, DEC = (transport.GC_TABLES, TABLES), (transport.GC_DECODE, DECODE)

# site: (the party's call on its channel, every frame the fake peer sends
# it as (type, due size), and the index of the frame whose size is spoiled)
SITES = {
    "OT_CHOICES": (lambda ch: OtSender(ot_masks(20, 8)[0], ch).send(_zeros(20), _zeros(20)),
                   [(transport.OT_CHOICES, 3)], 0),
    "OT_PAIRS": (lambda ch: OtReceiver(*ot_masks(4, 8)[1:], ch).recv(_zeros(4), 8),
                 [(transport.OT_PAIRS, 2 * 4)], 0),
    "OT_CHOICES-b2a-role0": (_b2a(0), [(transport.OT_CHOICES, 3)], 0),
    "OT_CHOICES-b2a-role1": (_b2a(1), [(transport.OT_CHOICES, 3)], 0),
    "OT_CHOICES-labels": (_gc_garble_on_labels, [(transport.OT_CHOICES, (8 * NINST + 7) // 8)],
                          0),
    "GC_TABLES": (lambda ch: gc.GcSession(1, ch, _material(1)).run(
        AND8, _yao(1), _yao(1), ninst=NINST), [T, DEC], 0),
    # the garbler's bits take zero labels x*R: at the evaluator, whose own
    # bits go on dealt labels, the decode bits follow the tables, with no
    # label frame between them
    "GC_DECODE-garbler-bits": (lambda ch: gc.GcSession(1, ch, _material(
        1, num_labels=8 * NINST)).run_shares(AND8, _zeros((NINST, 8)), NINST, "evaluator"),
        [T, DEC], 1),
    "GC_DECODE-evaluator": (lambda ch: gc.GcSession(1, ch, _material(1)).run(
        AND8, _yao(1), _yao(1), ninst=NINST), [T, DEC], 1),
    "ASS_EF": (lambda ch: AssEngine(0, L32, ch, _material(0, num_amt=2)).mul_mt(
        ArithShare(np.zeros(2), 0), ArithShare(np.zeros(2), 0)),
        [(transport.ASS_EF, 2 * 2 * 4)], 0),
    "DA_MASKED-role0": (lambda ch: AssEngine(0, L32, ch, _material(0, vdp_blocks=((2, 3),))
                                             ).vdp(np.zeros(6), ArithShare(np.zeros(6), 0), 3),
                        [(transport.DA_MASKED, 6 * 4)], 0),
    "DA_MASKED-role1": (lambda ch: AssEngine(1, L32, ch, _material(1, vdp_blocks=((2, 3),))
                                             ).vdp(None, ArithShare(np.zeros(6), 1), 3),
                        [(transport.DA_MASKED, 6 * 4)], 0),
    # a 4-byte level index (round 0, all zero) and 2 x 8 packed bits
    "GMW_DE": (lambda ch: GmwEngine(0, ch, _material(0, num_bmt=8)).evaluate(
        AND8.levelized, BoolShare(_zeros((1, 8)), 0), BoolShare(_zeros((1, 8)), 0)),
        [(transport.GMW_DE, 4 + 2)], 0),
}
CIPHERS = {"null": None, "psk": bytes(range(32))}


def _run_site(site, delta, key):
    """The fake peer's frames up to the spoiled one, which is delta bytes
    off its due size (all of them when delta is 0); then the party's call."""
    call, frames, at = SITES[site]
    mine, fake = channel_pair(cipher_key=key)
    mine.sock.settimeout(10)  # a party that waits for more frames fails, not hangs
    try:
        for i, (t, n) in enumerate(frames if delta == 0 else frames[: at + 1]):
            fake.send(t, bytes(n + (delta if i == at else 0)))
        call(mine)
    finally:
        mine.close()
        fake.close()


@pytest.mark.parametrize("key", CIPHERS.values(), ids=CIPHERS)
@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("site", SITES)
def test_frame_of_wrong_size_rejected(site, delta, key):
    with pytest.raises(ProtocolError):
        _run_site(site, delta, key)


@pytest.mark.parametrize("site", SITES)
def test_frame_of_due_size_accepted(site):
    # the sizes above are the due ones: the same frames, exact, pass
    _run_site(site, 0, None)


def _fake_dealer(key, reply_size):
    """A dealer on localhost that answers one manifest with a BUNDLE of
    reply_size zero bytes; returns its address and thread."""
    srv = transport.tcp_listen("127.0.0.1", 0)

    def serve():
        sock = transport.tcp_accept(srv)
        chan = Channel(sock, None, cipher=PskCipher(key, 1) if key else None)
        try:
            chan.recv()
            chan.send(BUNDLE, bytes(reply_size))
        finally:
            chan.close()
            srv.close()

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    return srv.getsockname(), t


@pytest.mark.parametrize("key", CIPHERS.values(), ids=CIPHERS)
@pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
@pytest.mark.parametrize("role", [0, 1])
def test_bundle_of_wrong_size_rejected(role, delta, key):
    m = ResourceManifest(bytes(range(16)), L32, num_amt=3, num_bmt=9, num_dabits=2,
                         vdp_blocks=((2, 3),))
    addr, t = _fake_dealer(key, bundle_size(role, m) + delta)
    with pytest.raises(ProtocolError):
        stp.request_bundle(addr, m, role, cipher_key=key)
    t.join(10)
    assert not t.is_alive()


def _raw_header(chan, length, msg_type):
    chan.sock.sendall(struct.pack("<IB", length, msg_type) + chan.session)


def test_huge_header_rejected_before_allocating():
    mine, fake = channel_pair()
    _raw_header(fake, 512 << 20, transport.APP_SHARE)
    tracemalloc.start()
    try:
        with pytest.raises(ProtocolError):
            mine.recv_expect(transport.APP_SHARE, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        mine.close()
        fake.close()
    assert peak < 1 << 20


def _dealer_side(key=None):
    """A channel pair whose second end reads like the dealer's: it has yet
    to learn its session, so its first frame is an unsolicited manifest."""
    party, dealer = channel_pair(cipher_key=key)
    return party, Channel(dealer.sock, None, cipher=PskCipher(key, 1) if key else None)


def test_huge_manifest_header_rejected_before_allocating():
    party, dealer = _dealer_side()
    _raw_header(party, 512 << 20, transport.MANIFEST)
    dealer.sock.settimeout(10)  # a dealer that waits for the body fails, not hangs
    tracemalloc.start()
    try:
        with pytest.raises(transport.FrameTooLarge):
            dealer.recv()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        party.close()
        dealer.close()
    assert peak < 1 << 20


@pytest.mark.parametrize("key", CIPHERS.values(), ids=CIPHERS)
def test_bundled_net_manifests_fit_the_manifest_cap(key):
    mnist = ml.mnist_like_net(np.random.default_rng(0))
    manifests = [ml.plan_nn_manifest(mnist, RingParams(32, 7, 12), batch, profile, bytes(16))
                 for batch, profile in ((20, ml.LAN), (1, ml.WAN))]
    manifests.append(ml.plan_nn_manifest(ml.cifar10_like_net(), RingParams(64, 13, 25), 1,
                                         ml.LAN, bytes(16)))
    for m in manifests:
        party, dealer = _dealer_side(key)
        try:
            party.send(transport.MANIFEST, bytes([1]) + m.encode())
            frame = dealer.recv()
        finally:
            party.close()
            dealer.close()
        assert ResourceManifest.decode(frame.session, frame.payload[1:]) == m
    # a manifest of the largest size the cap admits passes too
    party, dealer = _dealer_side()
    try:
        party.send(transport.MANIFEST, bytes(transport.MANIFEST_CAP))
        assert len(dealer.recv().payload) == transport.MANIFEST_CAP
    finally:
        party.close()
        dealer.close()


def test_error_frame_capped():
    # an ERROR frame in place of the due one surfaces up to ERROR_CAP bytes
    mine, fake = channel_pair()
    try:
        fake.send(transport.ERROR, b"E" * transport.ERROR_CAP)
        with pytest.raises(transport.RemoteError):
            mine.recv_expect(BUNDLE, 32)
        _raw_header(fake, transport.ERROR_CAP + 1, transport.ERROR)
        with pytest.raises(ProtocolError):
            mine.recv_expect(BUNDLE, 32)
    finally:
        mine.close()
        fake.close()
