"""Atomic-operation benchmark: offline/online bytes, flights, wall time.

Runs each operation batched (n parallel instances of the given width)
between two in-process parties over a loopback socket pair, with a real
dealer serving the offline phase, and reports measured byte counts next
to their closed-form predictions: role 1's dealer bundle offline, both
directions' payload online. Byte counts are payload-exact in
null-cipher mode; flights are each role's online flights as its channel
counts them (transport.Channel.flights); timings are informational only.
"""

from __future__ import annotations

import secrets
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import ass, circuits as cc, convert, gmw, stp, transport
from .correlated import ResourceManifest
from .drbg import SEED_BYTES, Drbg
from .ring import RingParams
from .session import PartySession

OPS = ("ADD", "MULT", "XOR", "AND", "CMP", "EQ", "MUX",
       "y2b", "b2y", "b2a", "a2y")
GRACE_S = 5.0  # how long a failed two-party run waits for the other party


@dataclass
class BenchRow:
    op: str
    offline_bytes: int
    online_sent0: int  # role 0 -> role 1 payload bytes
    online_sent1: int
    flights: tuple[int, int]  # online flights of role 0, role 1
    seconds: float
    predicted_online: int | None = None  # closed form, total both directions
    predicted_offline: int | None = None  # closed form, role 1's dealer bundle

    @property
    def online_total(self) -> int:
        return self.online_sent0 + self.online_sent1


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


def _sessions(manifest: ResourceManifest, stp_addr):
    c0, c1 = transport.channel_pair(session=manifest.session_id)
    made = run_both(lambda: PartySession.offline(0, manifest, stp_addr, c0),
                    lambda: PartySession.offline(1, manifest, stp_addr, c1), (c0, c1))
    return tuple(made)


def _measure(manifest, f0, f1, stp_addr):
    se0, se1 = _sessions(manifest, stp_addr)
    offline = se1.channel.ledger.payload_bytes(phase=transport.OFFLINE, direction="recv")
    chans = (se0.channel, se1.channel)
    t0 = time.perf_counter()
    run_both(lambda: f0(se0), lambda: f1(se1), chans)
    dt = time.perf_counter() - t0
    sent0, sent1 = (c.ledger.payload_bytes(phase=transport.ONLINE, direction="sent", peer="peer")
                    for c in chans)
    flights = tuple(c.flights for c in chans)
    for c in chans:
        c.close()
    return offline, sent0, sent1, flights, dt


def _share_vec(p, n, rng):
    x = rng.integers(0, p.modulus, n, dtype=np.uint64)
    return ass.share(x, p, Drbg(rng.bytes(SEED_BYTES)))


def _share_bits(w, n, rng):
    bits = rng.integers(0, 2, (n, w), np.uint8)
    return gmw.share_bits(bits, Drbg(rng.bytes(SEED_BYTES)))


def bench_op(op: str, n: int, p: RingParams, stp_addr, sid=None) -> BenchRow:
    rng = np.random.default_rng(1234)
    sid = sid if sid is not None else secrets.token_bytes(16)
    w = p.l

    if op == "ADD":
        m = ResourceManifest(sid, p)
        x0, x1 = _share_vec(p, n, rng)
        y0, y1 = _share_vec(p, n, rng)
        row = _measure(
            m,
            lambda se: ass.linear([(1, x0), (1, y0)], p),
            lambda se: ass.linear([(1, x1), (1, y1)], p),
            stp_addr,
        )
        return BenchRow(op, *row, predicted_online=0, predicted_offline=SEED_BYTES)
    if op == "MULT":
        m = ResourceManifest(sid, p, num_amt=n)
        x0, x1 = _share_vec(p, n, rng)
        y0, y1 = _share_vec(p, n, rng)
        row = _measure(
            m,
            lambda se: se.ass.mul_mt(x0, y0),
            lambda se: se.ass.mul_mt(x1, y1),
            stp_addr,
        )
        return BenchRow(op, *row, predicted_online=2 * (2 * p.nbytes) * n,
                        predicted_offline=SEED_BYTES + p.nbytes * n)
    if op in ("XOR", "AND", "CMP", "EQ", "MUX"):
        circ = {
            "XOR": lambda: cc.build_bitxor(w),
            "AND": lambda: cc.build_bitand(w),
            "CMP": lambda: cc.build_cmp(w, cc.DEPTH),
            "EQ": lambda: cc.build_eq(w),
            "MUX": lambda: cc.build_mux(w),
        }[op]()
        lc = circ.levelized
        m = ResourceManifest(sid, p, num_bmt=circ.num_and * n)
        x0, x1 = _share_bits(len(circ.inputs0), n, rng)
        y0, y1 = _share_bits(len(circ.inputs1), n, rng)
        row = _measure(
            m,
            lambda se: se.gmw.evaluate(lc, x0, y0),
            lambda se: se.gmw.evaluate(lc, x1, y1),
            stp_addr,
        )
        return BenchRow(op, *row,
                        predicted_online=2 * ((2 * circ.num_and * n + 7) // 8),
                        predicted_offline=SEED_BYTES + (circ.num_and * n + 7) // 8)
    if op == "y2b":
        # free conversion on retained labels; measured on top of a b2y
        m = ResourceManifest(sid, p, num_labels=n * w)
        b0, b1 = _share_bits(w, n, rng)

        def go(bs):
            def run(se):
                ys = convert.b2y(se.gc, bs)
                before = se.channel.ledger.payload_bytes(phase=transport.ONLINE)
                convert.y2b(se.gc, ys)
                return se.channel.ledger.payload_bytes(phase=transport.ONLINE) - before

            return run

        se0, se1 = _sessions(m, stp_addr)
        extra = run_both(lambda: go(b0)(se0), lambda: go(b1)(se1),
                         (se0.channel, se1.channel))
        se0.channel.close()
        se1.channel.close()
        assert extra == [0, 0]
        return BenchRow(op, 0, 0, 0, (0, 0), 0.0, predicted_online=0, predicted_offline=0)
    if op == "b2y":
        m = ResourceManifest(sid, p, num_labels=n * w)
        b0, b1 = _share_bits(w, n, rng)
        row = _measure(
            m,
            lambda se: convert.b2y(se.gc, b0),
            lambda se: convert.b2y(se.gc, b1),
            stp_addr,
        )
        # one masked bit per dealt label, from role 1 only
        return BenchRow(op, *row, predicted_online=(n * w + 7) // 8,
                        predicted_offline=SEED_BYTES + 16 * n * w)
    if op == "b2a":
        m = ResourceManifest(sid, p, num_dabits=n * w)
        b0, b1 = _share_bits(w, n, rng)
        row = _measure(
            m,
            lambda se: convert.b2a(se.channel, p, se.dabits, b0),
            lambda se: convert.b2a(se.channel, p, se.dabits, b1),
            stp_addr,
        )
        # one dealt daBit (role 1's a1, one ring element) per bit, opened each way
        return BenchRow(op, *row, predicted_online=2 * ((n * w + 7) // 8),
                        predicted_offline=SEED_BYTES + p.nbytes * n * w)
    if op == "a2y":
        m = ResourceManifest(sid, p, num_labels=n * w)
        x0, x1 = _share_vec(p, n, rng)
        adder = cc.stage_circuit("identity", w)
        row = _measure(
            m,
            lambda se: convert.a2y(se.gc, x0, p),
            lambda se: convert.a2y(se.gc, x1, p),
            stp_addr,
        )
        # garbled tables, and the evaluator's masked bits on dealt labels;
        # the garbler's inputs take zero labels x*R, so none cross
        predicted = 32 * adder.num_and * n + (w * n + 7) // 8
        return BenchRow(op, *row, predicted_online=predicted,
                        predicted_offline=SEED_BYTES + 16 * n * w)
    raise ValueError(f"unknown op {op!r}")


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
        pred_off, pred = ("-" if v is None else str(v)
                          for v in (r.predicted_offline, r.predicted_online))
        lines.append(
            f"{r.op:6} {r.offline_bytes:>11} {pred_off:>10} {r.online_sent0:>13} "
            f"{r.online_sent1:>13} {r.online_total:>10} {pred:>10} "
            f"{'/'.join(map(str, r.flights)):>7} {r.seconds * 1000:>9.2f}"
        )
    return "\n".join(lines)
