"""Metrics from the three processes' reports and trace dumps."""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

from hybrid2pc import transport
from workloads import NN_LAYERS

# Per-layer time metrics taken as span self time (duration minus the part
# its child spans cover), summed over the three processes.
SELF_TIME = {
    "stp.corrections.s": "stp.corrections",
    "correlated.expand.s": "correlated.expand",
    "drbg.s": "drbg.fill",
    "transport.send.s": "transport.send",
    "transport.recv_wait.s": "transport.recv",
    "ot.s": "ot",
    "convert.b2a.s": "convert.b2a",
    "ass.vdp.s": "ass.vdp",
    "ass.share_input.s": "ass.share_input",
    "circuits.levelize.s": "circuits.levelize",
    "circuits.build.s": "circuits.build",
    "gmw.evaluate.s": "gmw.evaluate",
    "gc.garble.s": "gc.garble",
    "gc.evaluate.s": "gc.evaluate",
    "ring.bits_of.s": "ring.bits_of",
    "ring.encode.s": "ring.encode",
}
# Client-observed inclusive times: what online_s and offline_s are made of.
CLIENT_TIME = {
    "ml.infer.s": "ml.infer",
    "ml.plan.s": "ml.plan",
    "session.offline.s": "session.offline",
    "stp.request_bundle.s": "stp.request_bundle",
}
COUNTS = (
    "correlated.vdp_products", "correlated.vdp_elems", "correlated.ot_dealt",
    "correlated.bmt_dealt", "drbg.bytes", "drbg.key_setups", "transport.messages",
    "transport.exchange.calls", "convert.b2a.bits", "circuits.levelize.calls",
    "circuits.levelize.distinct", "gc.hash_calls", "gc.hash_blocks",
)
PROBE_COUNTS = (
    "gc.run.calls", "gc.and_gates", "ot.transfers", "ass.vdp.calls", "ass.vdp.elems",
    "gmw.and_levels", "gmw.and_gates",
)
PAYLOAD_TYPES = ("GC_TABLES", "GC_INLABELS", "GC_DECODE", "OT_PAIRS", "OT_CHOICES",
                 "DA_MASKED", "GMW_DE", "APP_SHARE")
# sent payload by message type -> per-layer metric
BYTE_METRICS = {getattr(transport, t): f"transport.payload.{t}.bytes" for t in PAYLOAD_TYPES}
BYTE_METRICS[transport.MANIFEST] = "stp.manifest.bytes"
BYTE_METRICS[transport.BUNDLE] = "stp.bundle.bytes"
TRACE_META = {
    "trace.online_untraced.s": "s",
    "trace.online_traced.s": "s",
    "trace.overhead.s": "s",
    "trace.client_attributed.share": "ratio",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for k in CLIENT_TIME:
        units[k] = "s"
    for layer in NN_LAYERS:
        units[f"ml.layer.{layer}.s"] = "s"
        units[f"ml.layer.{layer}.bytes"] = "B"
    units["stp.manifest.bytes"] = "B"
    units["stp.bundle.bytes"] = "B"
    for k in SELF_TIME:
        units[k] = "s"
    for k in COUNTS + PROBE_COUNTS:
        units[k] = "B" if k.endswith(".bytes") else "count"
    units["transport.wire_overhead.bytes"] = "B"
    for t in PAYLOAD_TYPES:
        units[f"transport.payload.{t}.bytes"] = "B"
    units.update(TRACE_META)
    return units


def median(xs):
    return statistics.median(xs) if xs else 0.0


def _self_times(spans):
    """{span id: self ns}; children run on their parent's thread and nest."""
    covered = defaultdict(int)
    for _id, _name, start, end, parent, _tid, _sid in spans:
        if parent:
            covered[parent] += end - start
    return {s[0]: (s[3] - s[2]) - covered[s[0]] for s in spans}


def layer_metrics(client_sessions, dumps) -> dict:
    """Per-layer metrics per traced session, merged over the processes."""
    traced = [s for s in client_sessions if s["traced"] and s["error"] is None]
    untraced = [s for s in client_sessions if not s["traced"] and s["error"] is None]
    sids = {s["sid"] for s in traced}
    n = max(len(traced), 1)
    out = defaultdict(float)
    for k in per_layer_units():
        out[k] = 0.0
    infer_ns = attributed_ns = 0
    for dump in dumps:
        spans = [s for s in dump["spans"] if s[6] in sids]
        selfs = _self_times(spans)
        for s in spans:
            for metric, name in SELF_TIME.items():
                if s[1] == name:
                    out[metric] += selfs[s[0]] / 1e9
        for sid, name, value in dump["counts"]:
            if sid in sids:
                out[name] += value
        events = [e for e in dump["events"] if e[1] in sids]
        for t, _sid, _peer, direction, mtype, payload, wire in events:
            if direction != "sent":
                continue
            out["transport.wire_overhead.bytes"] += wire - payload
            if mtype in BYTE_METRICS:
                out[BYTE_METRICS[mtype]] += payload
        if dump["process"] != "client":
            continue
        for s in spans:
            for metric, name in CLIENT_TIME.items():
                if s[1] == name:
                    out[metric] += (s[3] - s[2]) / 1e9
            if s[1] == "ml.infer":
                infer_ns += s[3] - s[2]
                attributed_ns += (s[3] - s[2]) - selfs[s[0]]
                for k, v in _layers(s, spans, events).items():
                    out[k] += v
    for s in traced:
        for k, v in s.get("probe_counts", {}).items():
            out[k] += v
    for k in list(out):
        out[k] /= n
    on_u = median([s["online_s"] for s in untraced])
    on_t = median([s["online_s"] for s in traced])
    out["trace.online_untraced.s"] = on_u
    out["trace.online_traced.s"] = on_t
    out["trace.overhead.s"] = on_t - on_u
    out["trace.client_attributed.share"] = attributed_ns / infer_ns if infer_ns else 0.0
    return dict(out)


def _layers(infer, spans, events) -> dict:
    """Split one client ml.infer span into the CNN's layers, in schedule
    order: each layer runs from the end of the previous one (or of the
    input sharing) to the end of its last call (AssEngine.vdp for conv
    and FC, ml._boolean_stage for ReLU, ml._reveal_stage for argmax).
    Bytes are the peer-link payload the client sent or received inside."""
    kids = sorted((s for s in spans if s[4] == infer[0]), key=lambda s: s[3])
    closers = [s for s in kids if s[1] in ("ass.vdp", "ml.stage", "ml.reveal")]
    if len(closers) != len(NN_LAYERS):
        return {}
    start = infer[2]
    for s in kids:
        if s[1] == "ass.share_input":
            start = s[3]
    out = {}
    peer = [e for e in events if e[1] == infer[6] and e[2] != "stp"]
    for layer, closer in zip(NN_LAYERS, closers):
        end = closer[3]
        out[f"ml.layer.{layer}.s"] = (end - start) / 1e9
        out[f"ml.layer.{layer}.bytes"] = sum(e[5] for e in peer if start < e[0] <= end)
        start = end
    return out


def load_dump(path):
    with open(path) as f:
        return json.load(f)
