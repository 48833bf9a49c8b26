"""In-memory spans and counts around the program's public functions.

The benchmark never edits the program: it replaces module and class
attributes with wrappers from this file. Where the program imports a name
with ``from ... import``, the wrapper goes on the importing module (for
example ``stp.compute_corrections`` and ``gc.levelize``), since that is
the name the caller looks up.

Two kinds of hooks exist:

* ``Probe`` (client only, always installed): records the circuits and
  shapes that ran in one session and the order of sends and receives on
  the online channel. The benchmark derives its byte checks and
  ``online_flights`` from these.
* ``Recorder`` (all three processes, traced runs only): spans (name, start,
  end, parent, thread, session id) and counts, kept in memory and dumped
  to a file when the process ends. ``report.layer_metrics`` turns the
  dumps of the three processes into per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

from hybrid2pc import (ass, circuits, convert, correlated, drbg, gc, gmw, ml,
                       ot, ring, session, stp, transport)

_now = time.perf_counter_ns


def _patch(owner, attr, make):
    """Replace owner.attr by make(original); returns False when the program
    no longer has that name (the metric it feeds then reads 0)."""
    orig = getattr(owner, attr, None)
    if orig is None:
        return False
    setattr(owner, attr, functools.wraps(orig)(make(orig)))
    return True


# ----- per-session observations on the client -----


class Probe:
    """Client-side record of one session: what ran and how it flowed."""

    def __init__(self):
        self.reset()
        self._in_exchange = False
        self._install()

    def reset(self):
        self.obs = {"gc": [], "ot": [], "vdp": [], "gmw": []}
        self.flights = 0
        self._last = "recv"

    def counts(self) -> dict:
        """Per-layer counts of the session, for traced runs."""
        obs = self.obs
        return {
            "gc.run.calls": len(obs["gc"]),
            "gc.and_gates": sum(na * ni * cy for na, ni, cy, _ in obs["gc"]),
            "ot.transfers": sum(n for n, _ in obs["ot"]),
            "ass.vdp.calls": len(obs["vdp"]),
            "ass.vdp.elems": sum(obs["vdp"]),
            "gmw.and_levels": sum(cy * sum(1 for g in lv if g) for lv, _, cy in obs["gmw"]),
            "gmw.and_gates": sum(cy * sum(lv) * ni for lv, ni, cy in obs["gmw"]),
        }

    def _event(self, chan, kind):
        if chan.phase != transport.ONLINE or self._in_exchange:
            return
        if kind == "send" and self._last != "send":
            self.flights += 1
        self._last = kind

    def _install(self):
        probe = self

        def gc_run(orig):
            def run(self, c, bind0, bind1, cycles=1, ninst=1, decode="evaluator"):
                probe.obs["gc"].append((c.num_and, ninst, cycles, len(c.registers)))
                return orig(self, c, bind0, bind1, cycles, ninst, decode)
            return run

        def ot_recv(orig):
            def recv(self, choices, mbits):
                probe.obs["ot"].append((len(choices), (mbits + 7) // 8))
                return orig(self, choices, mbits)
            return recv

        def vdp(orig):
            def wrapped(self, x_clear, y, lengths):
                probe.obs["vdp"].append(len(y))
                return orig(self, x_clear, y, lengths)
            return wrapped

        def gmw_eval(orig):
            def evaluate(self, lc, in0, in1, cycles=1):
                levels = [len(ands) for _, ands in lc.schedule]
                ninst = max(in0.bits.shape[0], in1.bits.shape[0])
                probe.obs["gmw"].append((levels, ninst, cycles))
                return orig(self, lc, in0, in1, cycles)
            return evaluate

        def send(orig):
            def wrapped(self, msg_type, payload):
                probe._event(self, "send")
                return orig(self, msg_type, payload)
            return wrapped

        def recv(orig):
            def wrapped(self):
                out = orig(self)
                probe._event(self, "recv")
                return out
            return wrapped

        def exchange(orig):
            def wrapped(self, msg_type, payload):
                # one exchange is one flight: a send overlapped with a receive
                probe._event(self, "send")
                probe._in_exchange = True
                try:
                    return orig(self, msg_type, payload)
                finally:
                    probe._in_exchange = False
                    probe._event(self, "recv")
            return wrapped

        _patch(gc.GcSession, "run", gc_run)
        _patch(ot.OtReceiver, "recv", ot_recv)
        _patch(ass.AssEngine, "vdp", vdp)
        _patch(gmw.GmwEngine, "evaluate", gmw_eval)
        _patch(transport.Channel, "send", send)
        _patch(transport.Channel, "recv", recv)
        _patch(transport.Channel, "exchange", exchange)


# ----- spans and counts -----


def traced_sid(sid) -> bool:
    """Session ids whose first byte is 1 belong to traced sessions."""
    return isinstance(sid, (bytes, bytearray)) and len(sid) == 16 and sid[0] == 1


class _Open:
    __slots__ = ("id", "name", "start", "args", "sid_of", "parent")

    def __init__(self, id_, name, start, args, sid_of, parent):
        self.id, self.name, self.start = id_, name, start
        self.args, self.sid_of, self.parent = args, sid_of, parent


class Recorder:
    """Spans and counts of one process, kept in memory.

    `active` gates the party processes per session (off: wrappers call
    straight through). A span's session id comes from its own arguments
    where they carry one (a channel, a manifest), else from its parent,
    else from `default_sid`; only spans of traced sessions are kept.
    """

    def __init__(self, process: str, active: bool = False):
        self.process = process
        self.active = active
        self.default_sid = None
        self.spans = []  # (id, name, start_ns, end_ns, parent_id, tid, sid_hex)
        self.events = []  # ledger records: (t_ns, sid_hex, peer, dir, type, payload, wire)
        self.counts = defaultdict(int)  # (sid_hex, name) -> value
        self.missing = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)

    def _stack(self):
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _resolve(self, node):
        while node is not None:
            if node.sid_of is not None:
                sid = node.sid_of(node.args)
                if sid is not None:
                    return sid
            node = node.parent
        return self.default_sid

    def current_sid(self):
        st = self._stack()
        return self._resolve(st[-1]) if st else self.default_sid

    def count(self, name, value=1, sid=None):
        sid = self.current_sid() if sid is None else sid
        if traced_sid(sid):
            with self._lock:
                self.counts[(sid.hex(), name)] += value

    # wrappers

    def span(self, owner, attr, name, sid_of=None, count=None):
        """Time every call of owner.attr as span `name`; `count(args, sid)`
        returns {count_name: value} to add for the call."""
        rec = self

        def make(orig):
            def wrapped(*args, **kwargs):
                if not rec.active:
                    return orig(*args, **kwargs)
                st = rec._stack()
                node = _Open(next(rec._ids), name, _now(), args, sid_of,
                             st[-1] if st else None)
                st.append(node)
                try:
                    return orig(*args, **kwargs)
                finally:
                    end = _now()
                    st.pop()
                    sid = rec._resolve(node)
                    if traced_sid(sid):
                        parent = node.parent.id if node.parent else 0
                        rec.spans.append((node.id, name, node.start, end, parent,
                                          threading.get_ident(), sid.hex()))
                        if count is not None:
                            for k, v in count(args, sid).items():
                                rec.count(k, v, sid)
            return wrapped

        if not _patch(owner, attr, make):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")

    def ecb_counter(self, owner, setups, blocks):
        """Count AES key setups through owner.ecb_encryptor and, when
        `blocks` is named, the blocks encrypted under them."""
        rec = self

        def make(orig):
            def ecb_encryptor(key):
                enc = orig(key)
                if not rec.active:
                    return enc
                rec.count(setups)
                if blocks is None:
                    return enc

                def encrypt(buf):
                    rec.count(blocks, (buf.nbytes if hasattr(buf, "nbytes") else len(buf)) // 16)
                    return enc(buf)
                return encrypt
            return ecb_encryptor

        if not _patch(owner, "ecb_encryptor", make):
            self.missing.append(f"{owner.__name__}.ecb_encryptor")

    def ledger_events(self):
        """Every ByteLedger.record call as a timestamped byte event."""
        rec = self

        def make(orig):
            def record(self, phase, peer, direction, msg_type, payload_bytes, wire_bytes):
                if rec.active:
                    sid = rec.current_sid()
                    if traced_sid(sid):
                        rec.events.append((_now(), sid.hex(), peer, direction, msg_type,
                                           payload_bytes, wire_bytes))
                return orig(self, phase, peer, direction, msg_type, payload_bytes,
                            wire_bytes)
            return record

        if not _patch(transport.ByteLedger, "record", make):
            self.missing.append("ByteLedger.record")

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"process": self.process, "spans": self.spans,
                       "events": self.events, "missing": self.missing,
                       "counts": [[s, k, v] for (s, k), v in self.counts.items()]}, f)


def _chan_sid(args):
    return args[0].session


def _manifest_sid(index):
    return lambda args: getattr(args[index], "session_id", None) if len(args) > index else None


def _levelize_count():
    seen = defaultdict(set)  # session -> ids of the circuits levelized in it

    def count(args, sid):
        new = id(args[0]) not in seen[sid]
        seen[sid].add(id(args[0]))
        return {"circuits.levelize.calls": 1, "circuits.levelize.distinct": int(new)}
    return count


def _dealt(args, sid):
    m = args[2]
    lengths = getattr(m, "vdp_lengths", ())
    return {"correlated.vdp_products": len(lengths),
            "correlated.vdp_elems": int(sum(lengths)),
            "correlated.ot_dealt": int(getattr(m, "num_ot", 0)),
            "correlated.bmt_dealt": int(getattr(m, "num_bmt", 0))}


def install(process: str, active: bool = False) -> Recorder:
    """Wrap the program's layers in this process; returns the recorder.

    Counts that the client's Probe already observes (GC runs, OT
    transfers, dot products, GMW gates) are not repeated here.
    """
    rec = Recorder(process, active)
    S = rec.span
    if process != "dealer":
        S(ml, "nn_infer", "ml.infer")
        S(ml, "svm_classify", "ml.infer")
        S(ml, "plan_nn_manifest", "ml.plan")
        S(ml, "plan_svm_manifest", "ml.plan")
        # layer boundaries inside nn_infer, next to AssEngine.vdp
        S(ml, "_boolean_stage", "ml.stage")
        S(ml, "_reveal_stage", "ml.reveal")
        S(ml, "stage_circuit", "circuits.build")
        S(ml, "gmw_stage", "circuits.build")
        S(convert, "adder_circuit", "circuits.build")
    # session and stp (PartySession.offline is a classmethod: args start at role)
    S(session.PartySession, "offline", "session.offline", sid_of=_manifest_sid(1))
    S(stp, "request_bundle", "stp.request_bundle", sid_of=_manifest_sid(1))
    S(stp, "compute_corrections", "stp.corrections", sid_of=_manifest_sid(2),
      count=_dealt)
    # correlated and drbg
    for mod in (stp, correlated):
        S(mod, "expand_role0", "correlated.expand", sid_of=_manifest_sid(1))
        S(mod, "expand_role1", "correlated.expand", sid_of=_manifest_sid(1))
    S(drbg.Drbg, "fill_bytes", "drbg.fill",
      count=lambda a, sid: {"drbg.bytes": int(a[1])})
    rec.ecb_counter(drbg, "drbg.key_setups", None)
    rec.ecb_counter(gc, "gc.hash_calls", "gc.hash_blocks")
    # transport
    S(transport.Channel, "send", "transport.send", sid_of=_chan_sid,
      count=lambda a, sid: {"transport.messages": 1})
    S(transport.Channel, "recv", "transport.recv", sid_of=_chan_sid)
    S(transport.Channel, "exchange", "transport.exchange", sid_of=_chan_sid,
      count=lambda a, sid: {"transport.exchange.calls": 1})
    rec.ledger_events()
    # ot and convert
    S(ot.OtSender, "send", "ot")
    S(ot.OtSender, "send_ring", "ot")
    S(ot.OtReceiver, "recv", "ot")
    S(ot.OtReceiver, "recv_ring", "ot")
    S(convert, "b2a", "convert.b2a", count=(
        lambda a, sid: {"convert.b2a.bits": int(a[3].bits.size)}
    ) if process == "client" else None)
    # ass, circuits, gmw, gc, ring
    S(ass.AssEngine, "vdp", "ass.vdp")
    S(ass.AssEngine, "share_input", "ass.share_input")
    lv = _levelize_count()
    S(circuits, "levelize", "circuits.levelize", count=lv)
    S(gc, "levelize", "circuits.levelize", count=lv)
    S(gmw.GmwEngine, "evaluate", "gmw.evaluate")
    S(gc, "garble", "gc.garble")
    S(gc, "evaluate", "gc.evaluate")
    S(gc.GcSession, "run", "gc.run")
    S(ring, "bits_of", "ring.bits_of")
    S(ring, "encode", "ring.encode")
    return rec
