"""One benchmark process: the dealer, the server (role 0) or the client
(role 1). `run.py` starts all three and talks to each over its standard
input and output, one JSON object or command per line.

    python3 perfbench/proc.py {dealer|server|client} WORKLOAD SEED TRACE TMPDIR

Commands on standard input:
    dealer PORT          (server) where the dealer listens
    addrs DPORT SPORT    (client) dealer and server ports
    mark                 (dealer, server) start counting CPU time
    go SECONDS           (client) run the timed closed loop
    stop                 end the process after a final report
"""

from __future__ import annotations

import json
import os
import resource
import socket
import sys
import threading
import time
import traceback

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hybrid2pc import ml, session, stp, transport  # noqa: E402
from hybrid2pc.ring import RingParams  # noqa: E402

import workloads as W  # noqa: E402

HOST = "127.0.0.1"


def emit(**msg):
    sys.stdout.write(json.dumps(msg) + "\n")
    sys.stdout.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ring_params() -> RingParams:
    return RingParams(W.L, W.ALPHA, W.BETA)


def netspec(weights: W.NnWeights) -> ml.NetSpec:
    return ml.NetSpec(W.IMAGE_SHAPE, [
        ml.Conv(W.CONV_MAPS, W.CONV_K, W.CONV_STRIDE, W.CONV_PAD, weights.conv),
        ml.Act(),
        ml.FC(*W.FC1, weights.fc1),
        ml.Act(),
        ml.FC(*W.FC2, weights.fc2),
        ml.ArgMax(),
    ])


def plan(wl: W.Workload, p: RingParams, net, sid: bytes):
    if wl.program == "svm":
        return ml.plan_svm_manifest(wl.d, wl.batch, p, sid)
    return ml.plan_nn_manifest(net, p, wl.batch, wl.profile, sid)


def peer_channel(wl, key, sock, sid, role):
    cipher = transport.PskCipher(key, role) if wl.psk else None
    return transport.Channel(sock, sid, cipher=cipher)


def recv_exact(sock, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise transport.Disconnected("peer closed during handshake")
        buf += chunk
    return buf


class Party:
    def __init__(self, name, wl, seed, trace, tmp):
        self.name, self.wl, self.seed, self.trace, self.tmp = name, wl, seed, trace, tmp
        self.p = ring_params()
        self.key = W.psk_key(wl, seed)
        self.cpu_mark = None
        self.rec = None

    def start_trace(self, active):
        if self.trace:
            import spans

            self.rec = spans.install(self.name, active)

    def finish(self, cpu_s=None, **extra):
        trace_file = None
        if self.rec is not None:
            trace_file = os.path.join(self.tmp, f"{self.name}-{os.getpid()}.json")
            self.rec.dump(trace_file)
        if cpu_s is None:
            cpu_s = time.process_time() - self.cpu_mark if self.cpu_mark is not None else 0.0
        emit(event="report", cpu_s=cpu_s, peak_rss_mb=peak_rss_mb(),
             trace_file=trace_file, **extra)


# ----- dealer -----


def run_dealer(party: Party):
    party.start_trace(active=True)  # dealer spans are kept per traced session id
    srv = stp.StpServer(HOST, 0, timeout=60.0, cipher_key=party.key).start()
    emit(event="ready", port=srv.address[1])
    for line in sys.stdin:
        cmd = line.split()
        if cmd[:1] == ["mark"]:
            party.cpu_mark = time.process_time()
            emit(event="marked")
        elif cmd[:1] == ["stop"]:
            break
    srv.stop()
    party.finish()


# ----- server (role 0) -----


def run_server(party: Party):
    wl = party.wl
    model = W.make_model(wl, party.seed)
    if wl.program == "svm":
        model = ml.SvmModel(model.w, model.b)
        net = None
    else:
        net = netspec(model)
    party.start_trace(active=False)
    lsock = transport.tcp_listen(HOST, 0)
    port = lsock.getsockname()[1]
    dealer = {}
    stopping = threading.Event()

    def commands():
        for line in sys.stdin:
            cmd = line.split()
            if cmd[:1] == ["dealer"]:
                dealer["addr"] = (HOST, int(cmd[1]))
                dealer_known.set()
            elif cmd[:1] == ["mark"]:
                party.cpu_mark = time.process_time()
                emit(event="marked")
            elif cmd[:1] == ["stop"]:
                break
        stopping.set()
        dealer_known.set()
        socket.create_connection((HOST, port)).close()  # wake accept()

    dealer_known = threading.Event()
    threading.Thread(target=commands, daemon=True).start()
    emit(event="ready", port=port)
    dealer_known.wait()
    sessions = []
    index = 0
    while not stopping.is_set():
        sock = transport.tcp_accept(lsock)
        if stopping.is_set():
            sock.close()
            break
        index += 1
        sessions.append(serve_session(party, net, model, sock, dealer["addr"], index))
    lsock.close()
    party.finish(sessions=sessions)


def serve_session(party, net, model, sock, dealer_addr, index):
    wl, p = party.wl, party.p
    out = {"sid": None, "ok": False, "offline_bytes": 0, "error": None}
    try:
        sid = recv_exact(sock, 16)
        out["sid"] = sid.hex()
        if party.rec is not None:
            party.rec.active = sid[0] == 1
            party.rec.default_sid = sid
        chan = peer_channel(wl, party.key, sock, sid, 0)
        manifest = plan(wl, p, net, sid)
        se = session.PartySession.offline(0, manifest, dealer_addr, chan,
                                          rng=W.party_rng(party.seed, 0, index),
                                          stp_cipher_key=party.key)
        if wl.program == "svm":
            ml.svm_classify(se, model, None, wl.d, wl.batch)
        else:
            ml.nn_infer(se, net, None, wl.batch, wl.profile)
        se.assert_exhausted()
        out["offline_bytes"] = chan.ledger.payload_bytes(phase=transport.OFFLINE)
        out["ok"] = True
    except Exception as e:  # noqa: BLE001 - a failed session is counted, the loop goes on
        out["error"] = f"{type(e).__name__}: {e}"
        traceback.print_exc()
    finally:
        if party.rec is not None:
            party.rec.active = False
        sock.close()
    return out


# ----- client (role 1) -----


class Client:
    def __init__(self, party: Party, dealer_port, server_port):
        import spans

        self.party = party
        self.wl = party.wl
        self.dealer = (HOST, dealer_port)
        self.server = (HOST, server_port)
        self.weights = W.make_model(self.wl, party.seed)
        self.net = None if self.wl.program == "svm" else netspec(self.weights).public()
        self.probe = spans.Probe()
        party.start_trace(active=False)
        self.proc_cpu = 0.0  # client CPU inside sessions, checks excluded

    def session(self, index: int, traced: bool) -> dict:
        wl, party, rec = self.wl, self.party, self.party.rec
        sid = bytes([int(traced)]) + index.to_bytes(8, "little") + os.urandom(7)
        queries = W.make_queries(wl, party.seed, index)
        out = {"sid": sid.hex(), "queries": wl.batch, "failed": wl.batch,
               "traced": traced, "error": None}
        self.probe.reset()
        if rec is not None:
            rec.active, rec.default_sid = traced, sid
        chan = None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            sock = transport.tcp_connect(*self.server)
            sock.sendall(sid)
            chan = peer_channel(wl, party.key, sock, sid, 1)
            t1 = time.perf_counter()
            manifest = plan(wl, party.p, self.net, sid)
            t2 = time.perf_counter()
            se = session.PartySession.offline(1, manifest, self.dealer, chan,
                                              rng=W.party_rng(party.seed, 1, index),
                                              stp_cipher_key=party.key)
            t3 = time.perf_counter()
            if wl.program == "svm":
                result = ml.svm_classify(se, None, queries, wl.d, wl.batch)
            else:
                result = ml.nn_infer(se, self.net, queries, wl.batch, wl.profile)
            t4 = time.perf_counter()
            se.assert_exhausted()
            t5 = time.perf_counter()
        except Exception as e:  # noqa: BLE001 - counted as failed queries
            out["error"] = f"{type(e).__name__}: {e}"
            traceback.print_exc()
            return out
        finally:
            self.proc_cpu += time.process_time() - cpu0
            if rec is not None:
                rec.active = False
            if chan is not None:
                chan.close()
        out.update(plan_s=t2 - t1, offline_s=t3 - t2, online_s=t4 - t3, wall_s=t5 - t0)
        out.update(self.check(chan.ledger, queries, result))
        if traced:
            out["probe_counts"] = self.probe.counts()
        return out

    def check(self, led, queries, result) -> dict:
        wl = self.wl
        on, off = transport.ONLINE, transport.OFFLINE
        out = {
            "c2s": led.payload_bytes(phase=on, direction="sent"),
            "s2c": led.payload_bytes(phase=on, direction="recv"),
            "offline_bytes": led.payload_bytes(phase=off),
            "flights": self.probe.flights,
        }
        # byte properties of the method, from what actually ran
        want = W.expected_online_bytes(self.probe.obs)
        got = {
            "GC_TABLES": led.payload_bytes(phase=on, msg_type=transport.GC_TABLES),
            "OT_PAIRS": led.payload_bytes(phase=on, msg_type=transport.OT_PAIRS),
            "DA_MASKED": led.payload_bytes(phase=on, direction="sent",
                                           msg_type=transport.DA_MASKED),
            "DA_MASKED_in": led.payload_bytes(phase=on, direction="recv",
                                              msg_type=transport.DA_MASKED),
            "GMW_DE": led.payload_bytes(phase=on, direction="sent",
                                        msg_type=transport.GMW_DE),
            "GMW_DE_in": led.payload_bytes(phase=on, direction="recv",
                                           msg_type=transport.GMW_DE),
        }
        want["DA_MASKED_in"], want["GMW_DE_in"] = want["DA_MASKED"], want["GMW_DE"]
        bad_bytes = sorted(k for k in want if want[k] != got[k])
        # outputs against the integer reference and the float margin property
        if wl.program == "svm":
            ref = W.fx_svm(self.weights, queries)
            decided, agrees = W.margin_agrees_svm(*W.float_svm(self.weights, queries), result)
        else:
            ref = W.fx_nn(self.weights, queries)
            decided, agrees = W.margin_agrees(*W.float_nn(self.weights, queries), result)
        right = (np.asarray(result).astype(np.int64) == ref) & agrees
        out.update(failed=wl.batch if bad_bytes else 0, bad_bytes=bad_bytes,
                   wrong=int((~right).sum()), margin_decided=int(decided.sum()))
        return out


def run_client(party: Party):
    line = sys.stdin.readline().split()
    if line[:1] != ["addrs"]:
        raise SystemExit("client expects 'addrs DPORT SPORT' first")
    client = Client(party, int(line[1]), int(line[2]))
    warm = client.session(0, traced=False)
    emit(event="warm", session=warm)
    line = sys.stdin.readline().split()
    if line[:1] != ["go"]:
        return  # "stop" after a failed set-up
    seconds = float(line[1])
    client.proc_cpu = 0.0
    sessions = []
    start = time.perf_counter()
    index = 1
    while time.perf_counter() - start < seconds:
        # traced runs alternate untraced and traced sessions, so the two
        # halves see the same machine and the difference is the overhead
        sessions.append(client.session(index, party.trace and index % 2 == 0))
        index += 1
    party.finish(cpu_s=client.proc_cpu, sessions=sessions,
                 loop_s=time.perf_counter() - start)
    sys.stdin.readline()  # "stop"


def main(argv):
    role, wname, seed, trace, tmp = argv
    party = Party(role, W.WORKLOADS[wname], int(seed), trace == "1", tmp)
    {"dealer": run_dealer, "server": run_server, "client": run_client}[role](party)


if __name__ == "__main__":
    main(sys.argv[1:])
