"""The entry points that perfbench's always-on client Probe wraps, and
the dealer-side ones its traced Recorder wraps, keep their names and
parameter lists. Both call through to them and read their arguments
positionally (perfbench/spans.py), so a rename or a reordered parameter
fails here instead of as failed benchmark queries or counters that read
0."""

import collections
import inspect

import numpy as np
import pytest
from conftest import deal, run_parties

from hybrid2pc import (ass, circuits, convert, correlated, gc, gmw, ml, ot, session, stp,
                       transport)
from hybrid2pc.ring import RingParams

CONTRACT = [
    (ass.AssEngine, "vdp", "self, x_clear, y, length"),
    # the traced Recorder's ot.s rests on both sides' one entry point
    (ot.OtSender, "send", "self, m0, m1"),
    (ot.OtReceiver, "recv", "self, choices, mbits"),
    (gmw.GmwEngine, "evaluate", "self, lc, in0, in1, cycles=1"),
    (gc.GcSession, "run", "self, c, bind0, bind1, cycles=1, ninst=1, decode='evaluator'"),
    # a classmethod: the bound signature starts at role
    (session.PartySession, "offline",
     "role, manifest, stp_addr, channel, rng=None, stp_cipher_key=None"),
    (session.PartySession, "assert_exhausted", "self"),
    (transport.Channel, "send", "self, msg_type, payload"),
    (transport.Channel, "recv", "self"),
    (transport.Channel, "exchange", "self, msg_type, payload"),
    # the dealer side: stp.corrections.s and the correlated.* dealt counters
    (stp, "request_bundle", "stp_addr, manifest, role, ledger=None, cipher_key=None"),
    (stp, "compute_corrections", "seed0, seed1, m"),
    (correlated, "expand_role0", "seed0, m"),
    (correlated, "expand_role1", "seed1, m"),
]


def _params(f) -> str:
    return ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}"
        for p in inspect.signature(f).parameters.values()
    )


@pytest.mark.parametrize("owner, name, params", CONTRACT,
                         ids=[f"{o.__name__}.{n}" for o, n, _ in CONTRACT])
def test_probe_entry_points_keep_their_signatures(owner, name, params):
    assert _params(getattr(owner, name)) == params


# Data that perfbench reads, beyond calls: spans._dealt reads a manifest's
# vdp_lengths and num_bmt, and num_ot with a default of 0: no manifest has
# it, since no OT is dealt, so the traced correlated.ot_dealt reads 0
# (counting num_dabits there goes with the next benchmark change);
# Probe.gmw_eval iterates a levelized circuit's schedule as (locals, ands)
# pairs; Probe.gc_run reads a circuit's num_and and len(registers), which
# is 0 since every circuit is combinational, for its GC_TABLES byte check;
# the b2a counter reads BoolShare.bits. A rename would zero those metrics silently.


def test_manifest_exposes_dealt_counts():
    m = correlated.ResourceManifest(bytes(16), RingParams(32), num_bmt=2, num_dabits=3,
                                    vdp_blocks=((2, 3), (1, 4)))
    assert (m.vdp_lengths, m.num_bmt) == ((3, 3, 4), 2)


def test_levelized_schedule_yields_locals_and_ands():
    lc = circuits.build_relu(8).levelized
    pairs = [(len(locals_), len(ands)) for locals_, ands in lc.schedule]
    assert sum(ands for _, ands in pairs) == lc.num_and
    assert sum(1 for _, ands in pairs if ands) == lc.depth


def test_circuit_exposes_and_count_and_registers():
    c = circuits.build_add(4, circuits.SIZE)
    assert (c.num_and, len(c.registers)) == (3, 0)


def test_bool_share_exposes_bits():
    assert gmw.BoolShare(np.zeros((2, 3), np.uint8), 0).bits.size == 6


# Probe prices each OtReceiver.recv call as one batch of two messages of
# mbits per transfer for its OT_PAIRS byte check. b2a spends daBits and
# makes no recv call, so the Probe expects 0 B of OT_PAIRS, and the
# ledgers must book 0 B; OT pairs that crossed anyway would fail every
# benchmark query.


def test_b2a_receives_through_one_recv_at_ring_width(monkeypatch):
    calls = []
    orig = ot.OtReceiver.recv

    def recv(self, choices, mbits):
        calls.append((len(choices), mbits))
        return orig(self, choices, mbits)

    monkeypatch.setattr(ot.OtReceiver, "recv", recv)
    p, n, w = RingParams(32, 7, 12), 5, 19
    m = correlated.ResourceManifest(bytes(16), p, num_dabits=n * w)
    chans = transport.channel_pair()
    s0, s1 = (session.PartySession(r, m, mat, ch)
              for r, (mat, ch) in enumerate(zip(deal(m), chans)))
    bits = np.zeros((n, w), np.uint8)
    try:
        run_parties(lambda: convert.b2a(s0.channel, p, s0.dabits, gmw.BoolShare(bits, 0)),
                    lambda: convert.b2a(s1.channel, p, s1.dabits, gmw.BoolShare(bits, 1)))
    finally:
        for ch in chans:
            ch.close()
    assert calls == []
    assert [ch.ledger.payload_bytes(msg_type=transport.OT_PAIRS) for ch in chans] == [0, 0]


# Probe counts online_flights from a no-argument wrapper on Channel.recv.
# A receive that read a frame without calling recv would undercount
# flights silently; here it fails as a count that disagrees with the
# frames the ledgers booked.


def _session(key, manifest, call0, call1):
    """One in-process session with a local dealer, key (or None) on the
    dealer and peer links; returns the two parties' ledgers."""
    srv = stp.StpServer(cipher_key=key).start()
    c0, c1 = transport.channel_pair(manifest.session_id, cipher_key=key)

    def offline(role, chan):
        return lambda: session.PartySession.offline(role, manifest, srv.address, chan,
                                                    stp_cipher_key=key)

    try:
        s0, s1 = run_parties(offline(0, c0), offline(1, c1))
        run_parties(lambda: call0(s0), lambda: call1(s1))
    finally:
        srv.stop()
        c0.close()
        c1.close()
    return c0.ledger, c1.ledger


def test_every_received_frame_passes_through_recv(monkeypatch):
    counts = collections.Counter()
    orig = transport.Channel.recv

    def recv(self):
        counts[self.ledger] += 1  # keyed by object: ids of freed ledgers recur
        return orig(self)

    monkeypatch.setattr(transport.Channel, "recv", recv)
    rng = np.random.default_rng(3)
    p, d = RingParams(32, 7, 12), 10
    svm = ml.SvmModel(rng.uniform(-1, 1, d), 0.25)
    query = rng.uniform(-1, 1, (1, d))
    ledgers = _session(bytes(range(32)), ml.plan_svm_manifest(d, 1, p, bytes([1] * 16)),
                       lambda s: ml.svm_classify(s, svm, None, d, 1),
                       lambda s: ml.svm_classify(s, None, query, d, 1))
    net = ml.mnist_like_net(rng)
    image = rng.uniform(0, 1, (1, 1, 28, 28))
    ledgers += _session(None, ml.plan_nn_manifest(net, p, 1, ml.WAN, bytes([2] * 16)),
                        lambda s: ml.nn_infer(s, net, None, 1, ml.WAN),
                        lambda s: ml.nn_infer(s, net.public(), image, 1, ml.WAN))
    for ledger in ledgers:
        booked = ledger.messages(direction="recv")
        assert booked > 2  # the dealer's bundle and online frames
        assert counts[ledger] == booked
