"""Atomic-operation benchmark: offline/online bytes, rounds, wall time.

Runs each operation batched (n parallel instances of the given width)
between two in-process parties over a loopback socket pair, with a real
dealer serving the offline phase, and reports measured byte counts next
to their closed-form predictions. Byte counts are payload-exact in
null-cipher mode; timings are informational only.
"""

from __future__ import annotations

import secrets
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import ass, circuits as cc, convert, gmw, stp, transport
from .correlated import ResourceManifest
from .ring import RingParams
from .session import PartySession

OPS = ("ADD", "MULT", "XOR", "AND", "CMP", "EQ", "MUX",
       "y2b", "b2y", "b2a", "a2y")


@dataclass
class BenchRow:
    op: str
    offline_bytes: int
    online_sent0: int  # role 0 -> role 1 payload bytes
    online_sent1: int
    rounds: int
    seconds: float
    predicted_online: int | None = None  # closed form, total both directions

    @property
    def online_total(self) -> int:
        return self.online_sent0 + self.online_sent1


def _run_both(f0, f1):
    res = [None, None]
    errs = []

    def wrap(i, f):
        try:
            res[i] = f()
        except BaseException as e:  # noqa: BLE001
            errs.append(e)

    ts = [threading.Thread(target=wrap, args=(i, f)) for i, f in ((0, f0), (1, f1))]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    if errs:
        raise errs[0]
    return res


def _sessions(manifest: ResourceManifest, stp_addr=None, seed=7):
    c0, c1 = transport.channel_pair(session=manifest.session_id)
    if stp_addr is None:
        from .correlated import (apply_corrections, compute_corrections,
                                 expand_role0, expand_role1)

        s0 = secrets.token_bytes(32)
        s1 = secrets.token_bytes(32)
        m0 = expand_role0(s0, manifest)
        m1 = apply_corrections(expand_role1(s1, manifest),
                               compute_corrections(s0, s1, manifest))
        for ch in (c0, c1):
            ch.phase_mark(transport.ONLINE)
        return (
            PartySession(0, manifest, m0, c0, np.random.default_rng(seed)),
            PartySession(1, manifest, m1, c1, np.random.default_rng(seed + 1)),
        )
    made = _run_both(
        lambda: PartySession.offline(0, manifest, stp_addr, c0,
                                     np.random.default_rng(seed)),
        lambda: PartySession.offline(1, manifest, stp_addr, c1,
                                     np.random.default_rng(seed + 1)),
    )
    return tuple(made)


def _measure(manifest, f0, f1, stp_addr=None):
    se0, se1 = _sessions(manifest, stp_addr)
    offline = se1.channel.ledger.payload_bytes(phase=transport.OFFLINE,
                                               direction="recv")
    t0 = time.perf_counter()
    _run_both(lambda: f0(se0), lambda: f1(se1))
    dt = time.perf_counter() - t0
    sent0 = se0.channel.ledger.payload_bytes(phase=transport.ONLINE,
                                             direction="sent", peer="peer")
    sent1 = se1.channel.ledger.payload_bytes(phase=transport.ONLINE,
                                             direction="sent", peer="peer")
    rounds = max(
        se0.channel.ledger.messages(phase=transport.ONLINE, direction="sent",
                                    peer="peer"),
        se1.channel.ledger.messages(phase=transport.ONLINE, direction="sent",
                                    peer="peer"),
    )
    se0.channel.close()
    se1.channel.close()
    return offline, sent0, sent1, rounds, dt


def _share_vec(p, n, rng):
    x = rng.integers(0, p.modulus, n, dtype=np.uint64)
    return ass.share(x, p, rng)


def _share_bits(w, n, rng):
    bits = rng.integers(0, 2, (n, w), np.uint8)
    return gmw.share_bits(bits, rng)


def bench_op(op: str, n: int, p: RingParams, stp_addr=None, sid=None) -> BenchRow:
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
        return BenchRow(op, *row, predicted_online=0)
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
        return BenchRow(op, *row, predicted_online=2 * (2 * p.nbytes) * n)
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
                        predicted_online=2 * ((2 * circ.num_and * n + 7) // 8))
    if op == "y2b":
        # free conversion on retained labels; measured on top of a b2y
        m = ResourceManifest(sid, p, num_ot=n * w)
        b0, b1 = _share_bits(w, n, rng)

        def go(bs):
            def run(se):
                ys = convert.b2y(se.gc, bs)
                before = se.channel.ledger.payload_bytes(phase=transport.ONLINE)
                convert.y2b(se.gc, ys)
                return se.channel.ledger.payload_bytes(phase=transport.ONLINE) - before

            return run

        se0, se1 = _sessions(m, stp_addr)
        extra = _run_both(lambda: go(b0)(se0), lambda: go(b1)(se1))
        se0.channel.close()
        se1.channel.close()
        assert extra == [0, 0]
        return BenchRow(op, 0, 0, 0, 0, 0.0, predicted_online=0)
    if op == "b2y":
        m = ResourceManifest(sid, p, num_ot=n * w)
        b0, b1 = _share_bits(w, n, rng)
        row = _measure(
            m,
            lambda se: convert.b2y(se.gc, b0),
            lambda se: convert.b2y(se.gc, b1),
            stp_addr,
        )
        return BenchRow(op, *row,
                        predicted_online=n * w * 2 * 16 + (n * w + 7) // 8)
    if op == "b2a":
        m = ResourceManifest(sid, p, num_ot=n * w)
        b0, b1 = _share_bits(w, n, rng)
        row = _measure(
            m,
            lambda se: convert.b2a(0, p, se.ot, b0, se.rng),
            lambda se: convert.b2a(1, p, se.ot, b1),
            stp_addr,
        )
        return BenchRow(op, *row,
                        predicted_online=n * w * 2 * p.nbytes + (n * w + 7) // 8)
    if op == "a2y":
        m = ResourceManifest(sid, p, num_ot=n * w)
        x0, x1 = _share_vec(p, n, rng)
        adder = cc.stage_circuit("identity", w)
        row = _measure(
            m,
            lambda se: convert.a2y(se.gc, x0, p),
            lambda se: convert.a2y(se.gc, x1, p),
            stp_addr,
        )
        predicted = (
            32 * adder.num_and * n  # garbled tables
            + 16 * w * n  # garbler input labels
            + 2 * 16 * w * n  # OT pairs
            + (w * n + 7) // 8  # OT choices
        )
        return BenchRow(op, *row, predicted_online=predicted)
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
    head = (f"{'op':6} {'offline(B)':>11} {'online->1(B)':>13} "
            f"{'online->0(B)':>13} {'total(B)':>10} {'predicted':>10} "
            f"{'rounds':>6} {'time(ms)':>9}")
    lines = [head, "-" * len(head)]
    for r in rows:
        pred = "-" if r.predicted_online is None else str(r.predicted_online)
        lines.append(
            f"{r.op:6} {r.offline_bytes:>11} {r.online_sent0:>13} "
            f"{r.online_sent1:>13} {r.online_total:>10} {pred:>10} "
            f"{r.rounds:>6} {r.seconds * 1000:>9.2f}"
        )
    return "\n".join(lines)
