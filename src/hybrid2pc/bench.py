"""Atomic-operation benchmark: offline/online bytes, flights, wall time.

Runs each operation batched (n parallel instances of the given width)
between two in-process parties over a loopback socket pair, with a real
dealer serving the offline phase, and reports measured byte counts next
to their closed-form predictions: role 1's dealer bundle offline, both
directions' payload online. Each op is data (_op): its manifest, the call
each role makes on its session, and its two predictions; bench_op
measures every op the same way. y2b runs on labels the bench draws
itself, in a session dealt nothing but the seed. Byte counts are
payload-exact in null-cipher mode; flights are each role's online
flights as its channel counts them (transport.Channel.flights); timings
are informational only.
"""

from __future__ import annotations

import functools
import secrets
import threading
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import ass, circuits as cc, convert, gmw, stp, transport
from .correlated import ResourceManifest
from .drbg import SEED_BYTES, Drbg
from .gc import YaoShare
from .ring import RingParams
from .session import PartySession

OPS = ("ADD", "MULT", "XOR", "AND", "CMP", "EQ", "MUX",
       "y2b", "b2y", "b2a", "a2y")
GRACE_S = 5.0  # how long a failed two-party run waits for the other party

# the library circuit each GMW op evaluates, at the ring width and DEPTH
_GMW = {"XOR": "bitxor", "AND": "bitand", "CMP": "cmp", "EQ": "eq", "MUX": "mux"}


@dataclass
class BenchRow:
    op: str
    offline_bytes: int
    online_sent0: int  # role 0 -> role 1 payload bytes
    online_sent1: int
    flights: tuple[int, int]  # online flights of role 0, role 1
    seconds: float
    predicted_online: int  # closed form, total both directions
    predicted_offline: int  # closed form, role 1's dealer bundle

    @property
    def online_total(self) -> int:
        return self.online_sent0 + self.online_sent1


class _Op(NamedTuple):
    manifest: ResourceManifest
    call: Callable  # call(session, *that role's share of each input)
    inputs: tuple  # (role 0's share, role 1's share) per input
    online: int  # predicted payload bytes, both directions
    dealt: int  # predicted bytes of role 1's bundle after its seed


def run_both(f0, f1, channels=(), timeout=None):
    """Run two party closures on daemon threads; return their results.

    A party that raises closes channels, so that a peer blocked in recv
    ends in Disconnected; its error is re-raised once the peer is done or
    GRACE_S has passed. A wait longer than timeout raises TimeoutError.
    """
    res, errs, done = [None, None], [], threading.Semaphore(0)

    def wrap(i, f):
        try:
            res[i] = f()
        except BaseException as e:  # noqa: BLE001 - re-raised below
            errs.append(e)
            for c in channels:
                c.close()
        done.release()

    for i, f in enumerate((f0, f1)):
        threading.Thread(target=wrap, args=(i, f), daemon=True).start()
    running = 2
    while running and done.acquire(timeout=GRACE_S if errs else timeout):
        running -= 1
    if errs:
        raise errs[0]
    if running:
        raise TimeoutError("a party thread did not finish")
    return res


def _measure(op: _Op, stp_addr):
    """Deal op.manifest, run op.call at both roles; (role 1's bundle
    bytes, online bytes sent by role 0 and by role 1, flights, seconds)."""
    chans = transport.channel_pair(session=op.manifest.session_id)
    try:
        sessions = run_both(*(functools.partial(PartySession.offline, i, op.manifest, stp_addr, c)
                              for i, c in enumerate(chans)), chans)
        offline = chans[1].ledger.payload_bytes(phase=transport.OFFLINE, direction="recv")
        t0 = time.perf_counter()
        run_both(*(functools.partial(op.call, se, *(x[se.role] for x in op.inputs))
                   for se in sessions), chans)
        dt = time.perf_counter() - t0
    finally:
        for c in chans:
            c.close()
    sent0, sent1 = (c.ledger.payload_bytes(phase=transport.ONLINE, direction="sent", peer="peer")
                    for c in chans)
    return offline, sent0, sent1, tuple(c.flights for c in chans), dt


def _vec(p, n, rng):
    x = rng.integers(0, p.modulus, n, dtype=np.uint64)
    return ass.share(x, p, Drbg(rng.bytes(SEED_BYTES)))


def _bits(w, n, rng):
    bits = rng.integers(0, 2, (n, w), np.uint8)
    return gmw.share_bits(bits, Drbg(rng.bytes(SEED_BYTES)))


def _op(op: str, n: int, p: RingParams, sid: bytes, rng) -> _Op:
    """op at n instances of the ring width, with inputs drawn from rng."""
    w, e = p.l, p.nbytes
    m = functools.partial(ResourceManifest, sid, p)
    packed = (n * w + 7) // 8  # one bit per instance and bit of the width
    if op == "ADD":
        return _Op(m(), lambda se, x, y: ass.linear([(1, x), (1, y)], p),
                   (_vec(p, n, rng), _vec(p, n, rng)), 0, 0)
    if op == "MULT":
        # both masked operands each way; role 1's c share of each triple
        return _Op(m(num_amt=n), lambda se, x, y: se.ass.mul_mt(x, y),
                   (_vec(p, n, rng), _vec(p, n, rng)), 2 * 2 * e * n, e * n)
    if op in _GMW:
        # one packed (d, e) frame each way per AND level; one bit per triple
        lc = cc.build_by_name(_GMW[op], w, cc.DEPTH).levelized
        return _Op(m(num_bmt=lc.num_and * n), lambda se, x, y: se.gmw.evaluate(lc, x, y),
                   (_bits(len(lc.circuit.inputs0), n, rng), _bits(len(lc.circuit.inputs1), n, rng)),
                   sum(2 * ((2 * len(s.ands) * n + 7) // 8) for s in lc.spans),
                   (lc.num_and * n + 7) // 8)
    if op == "y2b":
        # free: each role keeps its own label LSBs
        labels = tuple(YaoShare(rng.integers(0, 256, (w, n, 16), np.uint8), i) for i in (0, 1))
        return _Op(m(), lambda se, ys: convert.y2b(se.gc, ys), (labels,), 0, 0)
    if op == "b2y":
        # one masked bit per dealt label, from role 1 only
        return _Op(m(num_labels=n * w), lambda se, b: convert.b2y(se.gc, b),
                   (_bits(w, n, rng),), packed, 16 * n * w)
    if op == "b2a":
        # one dealt daBit (role 1's a1, one ring element) per bit, opened each way
        return _Op(m(num_dabits=n * w), lambda se, b: convert.b2a(se.channel, p, se.dabits, b),
                   (_bits(w, n, rng),), 2 * packed, e * n * w)
    if op == "a2y":
        # garbled tables, and the evaluator's masked bits on dealt labels;
        # the garbler's inputs take zero labels x*R, so none cross
        tables = 32 * cc.stage_circuit("identity", w).num_and * n
        return _Op(m(num_labels=n * w), lambda se, x: convert.a2y(se.gc, x, p),
                   (_vec(p, n, rng),), tables + packed, 16 * n * w)
    raise ValueError(f"unknown op {op!r}")


def bench_op(op: str, n: int, p: RingParams, stp_addr, sid=None) -> BenchRow:
    spec = _op(op, n, p, sid if sid is not None else secrets.token_bytes(16),
               np.random.default_rng(1234))
    return BenchRow(op, *_measure(spec, stp_addr), predicted_online=spec.online,
                    predicted_offline=SEED_BYTES + spec.dealt)


def run_bench(ops=OPS, n: int = 1000, width: int = 32, stp_addr=None):
    """Benchmark each op; spins up a local dealer when none is given so
    offline bytes are measured over a real socket."""
    p = RingParams(width)
    local = None
    if stp_addr is None:
        local = stp.StpServer().start()
        stp_addr = local.address
    try:
        return [bench_op(op, n, p, stp_addr) for op in ops]
    finally:
        if local is not None:
            local.stop()


def format_table(rows: list[BenchRow]) -> str:
    """Each prediction sits beside the bytes it predicts."""
    head = (f"{'op':6} {'offline(B)':>11} {'predicted':>10} {'online->1(B)':>13} "
            f"{'online->0(B)':>13} {'total(B)':>10} {'predicted':>10} "
            f"{'flights':>7} {'time(ms)':>9}")
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r.op:6} {r.offline_bytes:>11} {r.predicted_offline:>10} {r.online_sent0:>13} "
            f"{r.online_sent1:>13} {r.online_total:>10} {r.predicted_online:>10} "
            f"{'/'.join(map(str, r.flights)):>7} {r.seconds * 1000:>9.2f}"
        )
    return "\n".join(lines)
