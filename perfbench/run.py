"""End-to-end benchmark of private inference with a dealer, a server and a
client in three processes over loopback TCP.

    python3 perfbench/run.py --workload mnist-wan-b1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 3  # process sets per run; each is set up, then runs 1/SETUPS of the loop
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


class Proc:
    """One child process driven line by line over its standard streams."""

    def __init__(self, role, args):
        self.role = role
        self.p = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "proc.py"), role, *args],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def send(self, line):
        self.p.stdin.write(line + "\n")
        self.p.stdin.flush()

    def expect(self, event):
        line = self.p.stdout.readline()
        if not line:
            raise BenchError(f"{self.role} exited (code {self.p.wait()}) before '{event}'")
        msg = json.loads(line)
        if msg.get("event") != event:
            raise BenchError(f"{self.role}: expected '{event}', got {msg}")
        return msg

    def close(self):
        if self.p.poll() is None:
            try:
                self.p.stdin.close()
                self.p.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                self.p.kill()
                self.p.wait()


class Trio:
    """Dealer, server and client; set up through one warm-up session."""

    def __init__(self, args, tmp):
        common = [args.workload, str(args.seed), str(args.trace), tmp]
        t0 = time.perf_counter()
        self.procs = [Proc(r, common) for r in ("dealer", "server", "client")]
        self.dealer, self.server, self.client = self.procs
        try:
            dport = self.dealer.expect("ready")["port"]
            sport = self.server.expect("ready")["port"]
            self.server.send(f"dealer {dport}")
            self.client.send(f"addrs {dport} {sport}")
            warm = self.client.expect("warm")["session"]
            self.setup_s = time.perf_counter() - t0
            if warm["error"] or warm["failed"] or warm["wrong"]:
                raise BenchError(f"warm-up session failed: {warm}")
        except BaseException:
            self.close()
            raise

    def run(self, seconds):
        for p in (self.dealer, self.server):
            p.send("mark")
            p.expect("marked")
        self.client.send(f"go {seconds}")
        client = self.client.expect("report")
        self.client.send("stop")
        reports = {"client": client}
        for p in (self.dealer, self.server):
            p.send("stop")
            reports[p.role] = p.expect("report")
        self.close()
        return reports

    def close(self):
        for p in self.procs:
            if p.p.poll() is None and not p.p.stdin.closed:
                try:
                    p.send("stop")
                except OSError:
                    pass
        for p in self.procs:
            p.close()


def merge(runs):
    """Pool the reports of several process sets, role by role."""
    out = {}
    for role in ("client", "server", "dealer"):
        rs = [r[role] for r in runs]
        out[role] = {
            "sessions": [s for r in rs for s in r.get("sessions", [])],
            "cpu_s": sum(r["cpu_s"] for r in rs),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rs),
            "trace_files": [r["trace_file"] for r in rs if r.get("trace_file")],
        }
    return out


def end_to_end(wl, reports, setups):
    import report as R

    client, server = reports["client"]["sessions"], reports["server"]["sessions"]
    ok = [s for s in client if s["error"] is None]
    if not ok:
        raise BenchError("no session completed")
    server_off = {s["sid"]: s["offline_bytes"] for s in server}
    b = wl.batch
    cpu = sum(reports[r]["cpu_s"] for r in ("client", "server", "dealer"))
    m = {
        "setup_s": (R.median(setups), "s"),
        "online_s_p50": (R.median([s["online_s"] for s in ok]), "s"),
        "offline_s_p50": (R.median([s["offline_s"] for s in ok]), "s"),
        # one session in flight: the rate is the batch over the median
        # session, so a few sessions stalled by the host do not set it
        "queries_per_s": (b / R.median([s["wall_s"] for s in ok]), "1/s"),
        "online_bytes_c2s_per_query": (R.median([s["c2s"] for s in ok]) / b, "B"),
        "online_bytes_s2c_per_query": (R.median([s["s2c"] for s in ok]) / b, "B"),
        "offline_bytes_per_query": (R.median([s["offline_bytes"] + server_off.get(s["sid"], 0)
                                              for s in ok]) / b, "B"),
        "online_flights": (R.median([s["flights"] for s in ok]), "count"),
        "cpu_s_per_query": (cpu / max(sum(s["queries"] for s in client), 1), "s"),
        "peak_rss_mb": (max(reports[r]["peak_rss_mb"] for r in reports), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(reports):
    import report as R

    dumps = [R.load_dump(f) for r in reports.values() for f in r["trace_files"]]
    units = R.per_layer_units()
    values = R.layer_metrics(reports["client"]["sessions"], dumps)
    missing = sorted({m for d in dumps for m in d["missing"]})
    if missing:
        print(f"trace: not found in the program, read as 0: {missing}", file=sys.stderr)
    return {k: {"value": values.get(k, 0.0), "unit": u} for k, u in units.items()}


def summarise(reports):
    """(attempted, failed, correct, human-readable notes) over the timed loop."""
    client = reports["client"]["sessions"]
    server_bad = {s["sid"] for s in reports["server"]["sessions"] if not s["ok"]}
    attempted = sum(s["queries"] for s in client)
    failed = sum(s["queries"] if s["sid"] in server_bad else s["failed"] for s in client)
    wrong = sum(s.get("wrong", 0) for s in client if s["failed"] == 0
                and s["sid"] not in server_bad)
    notes = {
        "sessions": len(client),
        "margin_decided": sum(s.get("margin_decided", 0) for s in client),
        "errors": sorted({s["error"] for s in client if s["error"]}),
        "bad_bytes": sorted({k for s in client for k in s.get("bad_bytes", [])}),
    }
    ok = sorted(s["online_s"] for s in client if s["error"] is None)
    if len(ok) >= 100:  # a p90 with at least ten samples beyond it
        notes["online_s_p90"] = ok[int(0.9 * len(ok))]
    return attempted, failed, wrong == 0, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hybrid2pc", "__init__.py")):
        print("run.py: no src/hybrid2pc beside perfbench/; run it from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]  # report.py reads hybrid2pc.transport
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    def timeout(*_):
        raise BenchError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, timeout)
    signal.alarm(DEADLINE_S)
    tmp = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    trios = []
    try:
        setups, runs = [], []
        for _ in range(SETUPS):
            trios.append(Trio(args, tmp))
            setups.append(trios[-1].setup_s)
            runs.append(trios[-1].run(args.seconds / SETUPS))
        reports = merge(runs)
        attempted, failed, correct, notes = summarise(reports)
        metrics = per_layer(reports) if args.trace else end_to_end(wl, reports, setups)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for t in trios:
            t.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass
    print(json.dumps({"workload": wl.name, **notes}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
