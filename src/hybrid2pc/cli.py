"""Command-line entry points: dealer service, party runner, bench, circuits.

    h2pc stp    --listen HOST:PORT [--timeout S]
    h2pc party  --role {0,1} --program {svm,nn}
                --stp HOST:PORT (--listen HOST:PORT | --peer HOST:PORT)
                [--config FILE] [--profile lan|wan] [--report json]
    h2pc bench  [--n 1000] [--width 32] [--report json]
    h2pc circuit --name add --width 32 [--variant size|depth] [-o FILE]

Parties connect to each other directly (role 0 listens, role 1 dials),
fetch their offline bundles from the dealer, then run the program online.
The demo svm/nn programs build deterministic models from the config seed
so the two processes agree on the inputs' shapes. Reports carry per-phase
payload bytes per direction, message counts, and wall-clock times.
"""

from __future__ import annotations

import argparse
import json
import secrets
import sys
import time

import numpy as np

from . import bench as bench_mod
from . import circuits as cc
from . import ml, transport
from .ring import RingParams
from .session import PartySession
from .stp import StpServer

EXIT_OK = 0
EXIT_OFFLINE_FAIL = 10
EXIT_MISMATCH = 11
EXIT_PROTOCOL_FAIL = 12
EXIT_CONNECT_FAIL = 13


class OfflineFailure(Exception):
    pass


def _offline(role, manifest, stp_arg, channel) -> PartySession:
    if not stp_arg:
        raise SystemExit("party programs need --stp")
    try:
        return PartySession.offline(role, manifest, _addr(stp_arg), channel)
    except transport.RemoteError:
        raise
    except (OSError, transport.TransportError) as e:
        raise OfflineFailure(str(e)) from e


def _addr(text: str):
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as f:
        return json.load(f)


def _ring_from(cfg: dict) -> RingParams:
    r = cfg.get("ring", {})
    if not r:
        return RingParams.fixed(32)
    return RingParams(r.get("l", 32), r.get("alpha", 7), r.get("beta", 12))


def _report(data: dict, mode: str | None):
    if mode == "json":
        print(json.dumps(data, indent=2, default=str))
    else:
        for k, v in data.items():
            print(f"{k}: {v}")


def _ledger_snapshot(channel) -> dict:
    led = channel.ledger
    out = {}
    for phase in (transport.OFFLINE, transport.ONLINE):
        for direction in ("sent", "recv"):
            out[f"{phase}_{direction}_payload_bytes"] = led.payload_bytes(
                phase=phase, direction=direction
            )
            out[f"{phase}_{direction}_messages"] = led.messages(
                phase=phase, direction=direction
            )
    return out


def cmd_stp(args) -> int:
    host, port = _addr(args.listen)
    srv = StpServer(host, port, timeout=args.timeout)
    print(f"dealer listening on {srv.address[0]}:{srv.address[1]}")
    try:
        srv.start()
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        srv.stop()
        return EXIT_OK


def _connect_peer(args) -> transport.Channel:
    if args.role == 0:
        if not args.listen:
            raise SystemExit("role 0 needs --listen")
        srv = transport.tcp_listen(*_addr(args.listen))
        sock = transport.tcp_accept(srv)
        srv.close()
        session = secrets.token_bytes(16)
        sock.sendall(session)
    else:
        if not args.peer:
            raise SystemExit("role 1 needs --peer")
        sock = transport.tcp_connect(*_addr(args.peer))
        session = b""
        while len(session) < 16:
            chunk = sock.recv(16 - len(session))
            if not chunk:
                raise transport.Disconnected("peer closed during handshake")
            session += chunk
    return transport.Channel(sock, session)


def _run_svm(args, cfg: dict, channel) -> dict:
    p = _ring_from(cfg)
    svm_cfg = cfg.get("svm", {})
    d = int(svm_cfg.get("d", 10))
    batch = int(svm_cfg.get("batch", 1))
    seed = int(cfg.get("seed", 42))
    rng = np.random.default_rng(seed)
    model = ml.SvmModel(rng.uniform(-1, 1, size=d), float(rng.uniform(-1, 1)))
    queries = rng.uniform(-1, 1, size=(batch, d))
    manifest = ml.plan_svm_manifest(d, batch, p, channel.session)
    se = _offline(args.role, manifest, args.stp, channel)
    t0 = time.perf_counter()
    if args.role == 0:
        labels = ml.svm_classify(se, model, None, d, batch)
    else:
        labels = ml.svm_classify(se, None, queries, d, batch)
    out = {"online_seconds": round(time.perf_counter() - t0, 4)}
    if labels is not None:
        out["labels"] = labels.tolist()
        print("labels:", labels.tolist())
    se.assert_exhausted()
    return out


def _run_nn(args, cfg: dict, channel) -> dict:
    p = _ring_from(cfg)
    nn_cfg = cfg.get("nn", {})
    batch = int(nn_cfg.get("batch", 1))
    seed = int(cfg.get("seed", 42))
    rng = np.random.default_rng(seed)
    weights = nn_cfg.get("weights")
    if weights:
        net, p = ml.load_net(weights)
    else:
        net = ml.mnist_like_net(rng, p)
    images = rng.uniform(0, 1, size=(batch, *net.input_shape))
    manifest = ml.plan_nn_manifest(net, p, batch, args.profile, channel.session)
    se = _offline(args.role, manifest, args.stp, channel)
    t0 = time.perf_counter()
    if args.role == 0:
        classes = ml.nn_infer(se, net, None, batch, args.profile)
    else:
        classes = ml.nn_infer(se, net.public(), images, batch, args.profile)
    out = {"online_seconds": round(time.perf_counter() - t0, 4)}
    if classes is not None:
        out["classes"] = classes.tolist()
        print("classes:", classes.tolist())
    se.assert_exhausted()
    return out


def cmd_party(args) -> int:
    cfg = _load_config(args.config)
    try:
        channel = _connect_peer(args)
    except (OSError, transport.TransportError) as e:
        print(f"peer connection failed: {e}", file=sys.stderr)
        return EXIT_CONNECT_FAIL
    t0 = time.perf_counter()
    try:
        run = _run_svm if args.program == "svm" else _run_nn
        result = run(args, cfg, channel)
    except transport.RemoteError as e:
        print(f"offline phase failed: {e}", file=sys.stderr)
        return EXIT_MISMATCH if "MISMATCH" in e.code else EXIT_OFFLINE_FAIL
    except OfflineFailure as e:
        print(f"offline phase failed: {e}", file=sys.stderr)
        return EXIT_OFFLINE_FAIL
    except (OSError, transport.TransportError) as e:
        print(f"protocol failure: {e}", file=sys.stderr)
        return EXIT_PROTOCOL_FAIL
    report = {
        "program": args.program,
        "role": args.role,
        "profile": args.profile,
        "wall_clock_seconds": round(time.perf_counter() - t0, 4),
        **result,
        **_ledger_snapshot(channel),
    }
    _report(report, args.report)
    channel.close()
    return EXIT_OK


def cmd_bench(args) -> int:
    rows = bench_mod.run_bench(n=args.n, width=args.width)
    if args.report == "json":
        print(json.dumps([r.__dict__ for r in rows], indent=2))
    else:
        print(bench_mod.format_table(rows))
    return EXIT_OK


def cmd_circuit(args) -> int:
    circ = cc.build_by_name(args.name, args.width, args.variant)
    text = cc.emit_circuit(circ)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        lc = cc.levelize(circ)
        print(f"{circ.name}: {circ.num_gates} gates, {circ.num_and} AND, "
              f"depth {lc.depth} -> {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="h2pc",
                                 description="hybrid two-party computation")
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("stp", help="run the offline dealer")
    s.add_argument("--listen", default="127.0.0.1:7700")
    s.add_argument("--timeout", type=float, default=60.0)
    s.set_defaults(fn=cmd_stp)

    s = sub.add_parser("party", help="run one party of a program")
    s.add_argument("--role", type=int, required=True, choices=(0, 1))
    s.add_argument("--program", required=True, choices=("svm", "nn"))
    s.add_argument("--stp", help="dealer address host:port")
    s.add_argument("--listen", help="role 0: listen here for the peer")
    s.add_argument("--peer", help="role 1: connect to role 0 here")
    s.add_argument("--config", help="JSON config file")
    s.add_argument("--profile", choices=(ml.LAN, ml.WAN), default=ml.LAN)
    s.add_argument("--report", choices=("json",))
    s.set_defaults(fn=cmd_party)

    s = sub.add_parser("bench", help="loopback benchmark of atomic ops")
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--width", type=int, default=32, choices=(8, 16, 32, 64),
                   help="ring width; 8 is a test-only width")
    s.add_argument("--report", choices=("json",))
    s.set_defaults(fn=cmd_bench)

    s = sub.add_parser("circuit", help="emit a library circuit as text")
    s.add_argument("--name", required=True)
    s.add_argument("--width", type=int, default=32)
    s.add_argument("--variant", choices=(cc.SIZE, cc.DEPTH), default=cc.SIZE)
    s.add_argument("-o", "--output")
    s.set_defaults(fn=cmd_circuit)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
