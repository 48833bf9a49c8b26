"""The entry points that perfbench's always-on client Probe wraps keep
their names and parameter lists. The Probe calls through to them
positionally (perfbench/spans.py), so a rename or a reordered parameter
fails here instead of as failed benchmark queries."""

import inspect

import pytest

from hybrid2pc import ass, gc, gmw, ot, session, transport

CONTRACT = [
    (ass.AssEngine, "vdp", "self, x_clear, y, lengths"),
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
