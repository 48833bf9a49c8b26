"""The entry points that perfbench's always-on client Probe wraps keep
their names and parameter lists. The Probe calls through to them
positionally (perfbench/spans.py), so a rename or a reordered parameter
fails here instead of as failed benchmark queries."""

import inspect

import numpy as np
import pytest

from hybrid2pc import ass, circuits, correlated, gc, gmw, ot, session, transport
from hybrid2pc.ring import RingParams

CONTRACT = [
    (ass.AssEngine, "vdp", "self, x_clear, y, length"),
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
# vdp_lengths, num_ot and num_bmt; Probe.gmw_eval iterates a levelized
# circuit's schedule as (locals, ands) pairs; the b2a counter reads
# BoolShare.bits. A rename would zero those metrics silently.


def test_manifest_exposes_dealt_counts():
    m = correlated.ResourceManifest(bytes(16), RingParams(32), num_bmt=2, num_ot=3,
                                    vdp_blocks=((2, 3), (1, 4)))
    assert (m.vdp_lengths, m.num_ot, m.num_bmt) == ((3, 3, 4), 3, 2)


def test_levelized_schedule_yields_locals_and_ands():
    lc = circuits.build_relu(8).levelized
    pairs = [(len(locals_), len(ands)) for locals_, ands in lc.schedule]
    assert sum(ands for _, ands in pairs) == lc.num_and
    assert sum(1 for _, ands in pairs if ands) == lc.depth


def test_bool_share_exposes_bits():
    assert gmw.BoolShare(np.zeros((2, 3), np.uint8), 0).bits.size == 6
