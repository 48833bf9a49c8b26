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
payload bytes per direction, message counts, the party's online flights
and wall-clock times.
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


def _addr(text: str):
    """(host, port) of HOST:PORT, host 127.0.0.1 if empty; ValueError (to
    argparse, a usage error) unless the port is an integer in 0..65535."""
    host, _, port = text.rpartition(":")
    if not (port.isdigit() and int(port) <= 65535):
        raise ValueError(f"bad port in {text!r}")
    return (host or "127.0.0.1", int(port))


def _count(text: str) -> int:
    """A non-negative integer; ValueError (to argparse, a usage error) otherwise."""
    if int(text) < 0:
        raise ValueError(f"negative count {text!r}")
    return int(text)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, ValueError) as e:
        raise SystemExit(f"bad config {path}: {e}") from None
    if not isinstance(cfg, dict):
        raise SystemExit(f"bad config {path}: not a JSON object")
    return cfg


def _section(cfg: dict, name: str) -> dict:
    s = cfg.get(name, {})
    if not isinstance(s, dict):
        raise SystemExit(f"bad config: {name} is {s!r}, not an object")
    return s


def _int(section: dict, name: str, default: int, least: int = 0) -> int:
    """section[name], a JSON integer of at least least."""
    n = section.get(name, default)
    if type(n) is not int:
        raise SystemExit(f"bad config: {name} is {n!r}, not an integer")
    if n < least:
        raise SystemExit(f"bad config: {name} is {n}, not at least {least}")
    return n


def _ring_from(cfg: dict) -> RingParams:
    """The config's ring; alpha and beta default to the width's own split."""
    r = _section(cfg, "ring")
    try:
        f = RingParams.fixed(_int(r, "l", 32))
        return RingParams(f.l, _int(r, "alpha", f.alpha), _int(r, "beta", f.beta))
    except ValueError as e:
        raise SystemExit(f"bad ring in config: {e}") from None


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
    srv = StpServer(*args.listen, timeout=args.timeout)
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
        srv = transport.tcp_listen(*args.listen)
        sock = transport.tcp_accept(srv)
        srv.close()
        session = secrets.token_bytes(16)
        sock.sendall(session)
    else:
        if not args.peer:
            raise SystemExit("role 1 needs --peer")
        sock = transport.tcp_connect(*args.peer)
        session = b""
        while len(session) < 16:
            chunk = sock.recv(16 - len(session))
            if not chunk:
                raise transport.Disconnected("peer closed during handshake")
            session += chunk
    return transport.Channel(sock, session)


def _run_program(args, channel, manifest, key: str, call) -> dict:
    """Offline, then the timed online call(session); the result, revealed
    at role 1, is printed and reported under key."""
    try:
        se = PartySession.offline(args.role, manifest, args.stp, channel)
    except transport.RemoteError:
        raise
    except (OSError, transport.TransportError) as e:
        raise OfflineFailure(str(e)) from e
    t0 = time.perf_counter()
    result = call(se)
    out = {"online_seconds": round(time.perf_counter() - t0, 4)}
    if result is not None:
        out[key] = result.tolist()
        print(f"{key}:", result.tolist())
    se.assert_exhausted()
    return out


def _svm(args, cfg: dict):
    """The config's SVM demo: its manifest of a session id, report key and call."""
    p = _ring_from(cfg)
    svm_cfg = _section(cfg, "svm")
    d, batch = _int(svm_cfg, "d", 10, 1), _int(svm_cfg, "batch", 1, 1)
    rng = np.random.default_rng(_int(cfg, "seed", 42))
    model = ml.SvmModel(rng.uniform(-1, 1, size=d), float(rng.uniform(-1, 1)))
    queries = rng.uniform(-1, 1, size=(batch, d))
    model, queries = (model, None) if args.role == 0 else (None, queries)
    return (lambda sid: ml.plan_svm_manifest(d, batch, p, sid), "labels",
            lambda se: ml.svm_classify(se, model, queries, d, batch))


def _nn(args, cfg: dict):
    """The config's CNN demo, in _svm's form."""
    p = _ring_from(cfg)
    nn_cfg = _section(cfg, "nn")
    batch = _int(nn_cfg, "batch", 1, 1)
    rng = np.random.default_rng(_int(cfg, "seed", 42))
    weights = nn_cfg.get("weights")
    if not isinstance(weights, (str, type(None))):
        raise SystemExit(f"bad config: weights is {weights!r}, not a file name")
    if weights:
        try:
            net, p = ml.load_net(weights)
        except (OSError, ml.MlError, OverflowError) as e:
            raise SystemExit(f"bad weight file {weights}: {e}") from None
    else:
        net = ml.mnist_like_net(rng)
    # only role 1 holds images; role 0 holds the weights
    net, images = ((net, None) if args.role == 0 else
                   (net.public(), rng.uniform(0, 1, size=(batch, *net.input_shape))))
    return (lambda sid: ml.plan_nn_manifest(net, p, batch, args.profile, sid), "classes",
            lambda se: ml.nn_infer(se, net, images, batch, args.profile))


def cmd_party(args) -> int:
    cfg = _load_config(args.config)
    # the config and weight file are checked before the peer is waited for
    plan, key, call = (_svm if args.program == "svm" else _nn)(args, cfg)
    try:
        channel = _connect_peer(args)
    except (OSError, transport.TransportError) as e:
        print(f"peer connection failed: {e}", file=sys.stderr)
        return EXIT_CONNECT_FAIL
    t0 = time.perf_counter()
    try:
        result = _run_program(args, channel, plan(channel.session), key, call)
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
        "online_flights": channel.flights,  # the peer channel carries no offline frame
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
    try:
        circ = cc.build_by_name(args.name, args.width, args.variant)
    except cc.CircuitError as e:
        args.parser.error(str(e))
    text = cc.emit_circuit(circ)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
        print(f"{circ.name}: {circ.num_gates} gates, {circ.num_and} AND, "
              f"depth {circ.levelized.depth} -> {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="h2pc",
                                 description="hybrid two-party computation")
    sub = ap.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("stp", help="run the offline dealer")
    s.add_argument("--listen", type=_addr, default="127.0.0.1:7700")
    s.add_argument("--timeout", type=float, default=60.0)
    s.set_defaults(fn=cmd_stp)

    s = sub.add_parser("party", help="run one party of a program")
    s.add_argument("--role", type=int, required=True, choices=(0, 1))
    s.add_argument("--program", required=True, choices=("svm", "nn"))
    s.add_argument("--stp", type=_addr, required=True, help="dealer address host:port")
    s.add_argument("--listen", type=_addr, help="role 0: listen here for the peer")
    s.add_argument("--peer", type=_addr, help="role 1: connect to role 0 here")
    s.add_argument("--config", help="JSON config file")
    s.add_argument("--profile", choices=(ml.LAN, ml.WAN), default=ml.LAN)
    s.add_argument("--report", choices=("json",))
    s.set_defaults(fn=cmd_party)

    s = sub.add_parser("bench", help="loopback benchmark of atomic ops")
    s.add_argument("--n", type=_count, default=1000)
    s.add_argument("--width", type=int, default=32, choices=(8, 16, 32, 64),
                   help="ring width; 8 is a test-only width")
    s.add_argument("--report", choices=("json",))
    s.set_defaults(fn=cmd_bench)

    s = sub.add_parser("circuit", help="emit a library circuit as text")
    s.add_argument("--name", required=True, choices=sorted(cc._LIBRARY))
    s.add_argument("--width", type=int, default=32)
    s.add_argument("--variant", choices=(cc.SIZE, cc.DEPTH), default=cc.SIZE)
    s.add_argument("-o", "--output")
    s.set_defaults(fn=cmd_circuit, parser=s)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
