"""Every secret a party draws itself -- input-sharing masks, the garbler's
fresh zero labels and b2a's masks r -- comes from its session's CTR-DRBG
(PartySession.drbg), never from numpy's generators: numpy's PCG64 is not
cryptographic, and its state can be recovered from its outputs. A caller's
seeded rng only keys the DRBG, so seeded sessions stay reproducible."""

import ast
import collections
import inspect

import numpy as np
import pytest
from conftest import deal, run_parties

from hybrid2pc import (ass, circuits, convert, correlated, drbg, gc, gmw, ot, ring, session,
                       stp, transport)
from hybrid2pc.ring import RingParams

P, N = RingParams(16), 6
X = (np.arange(N, dtype=np.uint64) * 10_007 + 3) & np.uint64(P.mask)


def _sessions(rngs=(None, None)):
    """Two parties dealt for one share_input, one identity-stage garbled
    run and one b2a of its output bits; rngs seed their generators."""
    c = circuits.stage_circuit("identity", P.l, 0)
    m = correlated.ResourceManifest(bytes(16), P, num_labels=len(c.inputs1) * N,
                                    num_ot=len(c.outputs) * N)
    chans = transport.channel_pair()
    return [session.PartySession(r, m, mat, ch, rng=rng)
            for r, (mat, ch, rng) in enumerate(zip(deal(m), chans, rngs))]


def _program(se):
    """Role 1 shares X; then a2y (a garbled run with decode "none"), y2b
    and b2a take it to Boolean and back to additive shares."""
    x = se.ass.share_input(X if se.role == 1 else None, N, owner=1, drbg=se.drbg)
    bs = convert.y2b(se.gc, convert.a2y(se.gc, x, P))
    return bs, convert.b2a(se.role, P, se.ot, bs, se.drbg)


def _run(sessions):
    try:
        return run_parties(*(lambda se=se: _program(se) for se in sessions))
    finally:
        for se in sessions:
            se.channel.close()


def test_no_party_secret_from_numpy(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a party secret was drawn from numpy.random")

    # default_rng, Generator, the bit generators and the legacy functions
    for name in dir(np.random):
        if not name.startswith("_") and callable(getattr(np.random, name)):
            monkeypatch.setattr(np.random, name, forbidden)
    (b0, a0), (b1, a1) = _run(_sessions())
    assert np.array_equal(gmw.reconstruct_bits(b0, b1), ring.bits_of(X, P))
    assert np.array_equal(ass.reconstruct(a0, a1, P), X)


def _online_frames(rngs, monkeypatch):
    """Every frame each role sends in one run of the program, in order."""
    frames = collections.defaultdict(list)
    orig = transport.Channel.send

    def send(self, msg_type, payload):
        frames[self].append((msg_type, bytes(memoryview(payload).cast("B"))))
        return orig(self, msg_type, payload)

    sessions = _sessions(rngs)
    with monkeypatch.context() as mp:
        mp.setattr(transport.Channel, "send", send)
        _run(sessions)
    return [frames[se.channel] for se in sessions]


def test_equal_seeds_send_equal_frames(monkeypatch):
    def seeded():
        return np.random.default_rng(7), np.random.default_rng(8)

    first = _online_frames(seeded(), monkeypatch)
    assert first == _online_frames(seeded(), monkeypatch)
    assert all(first)


def test_unseeded_sessions_draw_fresh_labels(monkeypatch):
    def inlabels(role0_frames):
        (labels,) = [b for t, b in role0_frames if t == transport.GC_INLABELS]
        return labels

    a, b = (inlabels(_online_frames((None, None), monkeypatch)[0]) for _ in range(2))
    assert len(a) == len(b) == 16 * P.l * N
    assert a != b


# The protocol modules draw nothing from numpy's or Python's
# non-cryptographic generators; demo and reference data in ml, cli and
# bench may.
PROTOCOL_MODULES = (ass, gc, gmw, convert, ot, session, correlated, stp, transport, drbg)


def _random_references(module) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(f"line {node.lineno}: {node.value.id}.random")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if a.name in ("random", "numpy.random")]
        elif isinstance(node, ast.ImportFrom) and (
                node.module in ("random", "numpy.random")
                or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            found.append(f"line {node.lineno}: from {node.module} import ...")
    return found


@pytest.mark.parametrize("module", PROTOCOL_MODULES, ids=lambda m: m.__name__.split(".")[-1])
def test_protocol_module_uses_no_numpy_random(module):
    assert _random_references(module) == []
