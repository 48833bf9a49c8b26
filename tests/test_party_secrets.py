"""A party draws nothing online: once its material is dealt, the online
phase is a function of that material and of the inputs alone. The
garbler's inputs take zero labels x*R and the client's query is its own
share, so no party keys a generator of its own, and none draws from
numpy's generators, whose PCG64 is not cryptographic. Sessions opened
from the same bundles send the same frames."""

import ast
import collections
import hashlib
import inspect
import secrets

import numpy as np
import pytest
from conftest import deal, reconstruct, run_parties, stp_sessions

from hybrid2pc import (ass, circuits, convert, correlated, drbg, gc, gmw, ml, ot, ring,
                       session, stp, transport)
from hybrid2pc.ring import RingParams

P, N = RingParams(16), 6
X = (np.arange(N, dtype=np.uint64) * 10_007 + 3) & np.uint64(P.mask)


def _sessions():
    """Two parties dealt for one share_input, one identity-stage garbled
    run and one b2a of its output bits, from the same bundles every time."""
    c = circuits.stage_circuit("identity", P.l, 0)
    m = correlated.ResourceManifest(bytes(16), P, num_labels=len(c.inputs1) * N,
                                    num_dabits=len(c.outputs) * N)
    chans = transport.channel_pair()
    return [session.PartySession(r, m, mat, ch)
            for r, (mat, ch) in enumerate(zip(deal(m), chans))]


def _program(se):
    """Role 1 shares X; then a2y (a garbled run with decode "none"), y2b
    and b2a take it to Boolean and back to additive shares."""
    x = se.ass.share_input(X if se.role == 1 else None, N, owner=1)
    bs = convert.y2b(se.gc, convert.a2y(se.gc, x, P))
    return bs, convert.b2a(se.channel, P, se.dabits, bs)


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
    assert np.array_equal(b0.bits ^ b1.bits, ring.bits_of(X, P))
    assert np.array_equal(reconstruct(a0, a1, P), X)


def _online_frames(monkeypatch):
    """Every frame each role sends in one run of the program, in order."""
    frames = collections.defaultdict(list)
    orig = transport.Channel.send

    def send(self, msg_type, payload):
        frames[self].append((msg_type, bytes(memoryview(payload).cast("B"))))
        return orig(self, msg_type, payload)

    sessions = _sessions()
    with monkeypatch.context() as mp:
        mp.setattr(transport.Channel, "send", send)
        _run(sessions)
    return [frames[se.channel] for se in sessions]


def test_equal_seeds_send_equal_frames(monkeypatch):
    # sessions opened from the same bundles send byte-identical frames
    first = _online_frames(monkeypatch)
    assert first == _online_frames(monkeypatch)
    assert all(first)


P32 = RingParams(32, 7, 12)
PSK = bytes(range(32))


def _no_draws(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a party drew randomness online")

    for name in ("__init__", "fill_bytes"):
        monkeypatch.setattr(drbg.Drbg, name, forbidden)
    monkeypatch.setattr(secrets, "token_bytes", forbidden)


@pytest.mark.parametrize("program", ["mnist-lan-b2", "mnist-wan-b1", "svm-psk-b1"])
def test_party_draws_nothing_online(monkeypatch, program):
    rng = np.random.default_rng(11)
    sid = hashlib.sha256(program.encode()).digest()[:16]
    if program == "svm-psk-b1":
        d = 100
        model = ml.SvmModel(rng.uniform(-1, 1, d), 0.3)
        query = rng.uniform(-1, 1, (1, d))
        with stp_sessions(ml.plan_svm_manifest(d, 1, P32, sid), PSK) as (s0, s1):
            _no_draws(monkeypatch)
            _, got = run_parties(lambda: ml.svm_classify(s0, model, None, d, 1),
                                 lambda: ml.svm_classify(s1, None, query, d, 1),
                                 (s0.channel, s1.channel))
        expect = ml.svm_oracle(model, query, P32)
    else:
        profile, batch = (ml.LAN, 2) if program == "mnist-lan-b2" else (ml.WAN, 1)
        net = ml.mnist_like_net(rng)
        images = rng.uniform(0, 1, (batch, 1, 28, 28))
        with stp_sessions(ml.plan_nn_manifest(net, P32, batch, profile, sid)) as (s0, s1):
            _no_draws(monkeypatch)
            _, got = run_parties(lambda: ml.nn_infer(s0, net, None, batch, profile),
                                 lambda: ml.nn_infer(s1, net.public(), images, batch, profile),
                                 (s0.channel, s1.channel))
        expect = ml.nn_oracle(net, images, P32)
    for se in (s0, s1):
        se.assert_exhausted()
    assert np.array_equal(got, expect)


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
