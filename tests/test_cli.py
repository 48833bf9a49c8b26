import json
import re
import resource
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import (BENCHMARKED_FLIGHTS, INPUT_WIDTH_AT, oversize_weights, run_parties,
                      wide_input_weights)

from hybrid2pc import bench, circuits as cc, cli, convert, ml, stp, transport
from hybrid2pc.ring import RingParams


@pytest.mark.parametrize("n", [0, 1, 3, 100])
def test_bench_rows_match_predictions(n):
    # zero slack for every op, also where an AND level's packed (d, e)
    # bits do not fill a whole byte (CMP and EQ at n = 1, CMP at n = 3),
    # and at n = 0, where every garbled level and frame is empty
    rows = bench.run_bench(n=n, width=32)
    assert [r.op for r in rows] == list(bench.OPS)
    for r in rows:
        assert r.online_total == r.predicted_online, r.op
        assert r.offline_bytes == r.predicted_offline, r.op
    y2b = rows[bench.OPS.index("y2b")]  # measured, on labels the bench drew
    assert (y2b.offline_bytes, y2b.online_total, y2b.flights) == (32, 0, (0, 0))


def test_bench_offline_matches_closed_form():
    # role 1's dealer bundle per op: its seed, then l bits per A-MT and per
    # daBit, one bit per B-MT and 128 bits per label; y2b's session is
    # dealt the seed alone
    rows = bench.run_bench(n=100, width=32)
    assert [r.op for r in rows] == list(bench.OPS)
    for r in rows:
        assert r.offline_bytes == r.predicted_offline, r.op
    by_op = {r.op: r for r in rows}
    assert by_op["b2a"].predicted_offline == 32 + 4 * 100 * 32


@pytest.mark.parametrize("n", [1, 1000])
def test_bench_flights_per_op(n):
    # each role's online flights, the same for 1 and 1000 parallel ops;
    # GMW ops take one flight per AND level; b2y is role 1's masked bits
    # alone, and a2y's garbler receives them before its one flight
    ops = ("ADD", "MULT", "AND", "CMP", "EQ", "b2y", "b2a", "a2y")
    cmp, eq = (cc.levelize(c).depth for c in (cc.build_by_name("cmp", 32, cc.DEPTH), cc.build_by_name("eq", 32)))
    rows = bench.run_bench(ops=ops, n=n, width=32)
    assert {r.op: r.flights for r in rows} == {
        "ADD": (0, 0), "MULT": (1, 1), "AND": (1, 1), "CMP": (cmp, cmp), "EQ": (eq, eq),
        "b2y": (0, 1), "b2a": (1, 1), "a2y": (1, 1)}


def test_bench_op_fails_fast_when_a_party_raises(monkeypatch):
    # role 0's b2a raises while role 1 waits for its masked bits: the run
    # must close both channels and re-raise, not wait on role 1 forever
    real_b2a, real_pair, made = convert.b2a, transport.channel_pair, []

    def b2a(channel, p, dabits, bs, signed=False):
        if bs.role == 0:
            raise RuntimeError("role 0 fails")
        return real_b2a(channel, p, dabits, bs, signed)

    def channel_pair(*args, **kwargs):
        made.extend(real_pair(*args, **kwargs))
        return made[-2:]

    monkeypatch.setattr(convert, "b2a", b2a)
    monkeypatch.setattr(transport, "channel_pair", channel_pair)
    srv = stp.StpServer().start()
    errs = []

    def run():
        try:
            bench.bench_op("b2a", 8, RingParams(32), srv.address)
        except BaseException as e:  # noqa: BLE001 - checked below
            errs.append(e)

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(30)
    try:
        assert not t.is_alive(), "bench_op still running 30 s after a party raised"
        assert [str(e) for e in errs] == ["role 0 fails"]
    finally:
        for c in made:  # ends a stuck party, so a failure cannot hang the suite
            c.close()
        srv.stop()


def test_run_parties_returns_soon_after_a_party_raises():
    # f1 blocks on an open channel that nothing will close: the runner
    # re-raises f0's error after a short grace instead of waiting on f1
    c0, c1 = transport.channel_pair()

    def f0():
        raise RuntimeError("role 0 fails at once")

    start = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="at once"):
            run_parties(f0, c1.recv)
        assert time.monotonic() - start < 30
    finally:
        c0.close()
        c1.close()


def test_bench_table_formatting():
    rows = bench.run_bench(ops=("ADD", "y2b", "MULT"), n=16, width=32)
    text = bench.format_table(rows)
    assert "ADD" in text and "y2b" in text and "predicted" in text
    assert text.splitlines()[0].split()[-2] == "flights"
    assert text.splitlines()[-1].split()[-2] == "1/1"  # MULT: role 0 / role 1


def test_circuit_command(tmp_path, capsys):
    out = tmp_path / "add8.txt"
    rc = cli.main(["circuit", "--name", "add", "--width", "8",
                   "--variant", "depth", "-o", str(out)])
    assert rc == 0
    assert out.read_text() == cc.emit_circuit(cc.build_by_name("add", 8, "depth"))
    assert "depth 3 ->" in capsys.readouterr().out
    # --name offers exactly the library, and every name, width and variant
    # writes its netlist
    sub = next(a for a in cli.build_parser()._actions if a.dest == "cmd")
    name = next(a for a in sub.choices["circuit"]._actions if a.dest == "name")
    assert sorted(name.choices) == sorted(cc._LIBRARY)
    out = tmp_path / "c.txt"
    for n in sorted(cc._LIBRARY):
        for w in (8, 32):
            for v in (cc.SIZE, cc.DEPTH):
                args = ["--name", n, "--width", str(w), "--variant", v, "-o", str(out)]
                assert cli.main(["circuit", *args]) == 0
                circ = cc.build_by_name(n, w, v)
                assert out.read_text() == cc.emit_circuit(circ), (n, w, v)
                assert capsys.readouterr().out.startswith(f"{circ.name}: "), (n, w, v)


@pytest.mark.parametrize("args, message", [
    (["--name", "nope"], "invalid choice: 'nope'"),
    (["--name", "add", "--width", "99"], "width 99 out of range"),
], ids=["name", "width"])
def test_circuit_command_rejects_bad_arguments(args, message, capsys):
    # a usage error, exit 2, not a traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(["circuit", *args])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def _spawn(args):
    return subprocess.Popen(
        [sys.executable, "-m", "hybrid2pc.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def test_svm_demo_end_to_end(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "ring": {"l": 32, "alpha": 7, "beta": 12},
        "seed": 11,
        "svm": {"d": 10, "batch": 2},
    }))
    stp = _spawn(["stp", "--listen", "127.0.0.1:7841"])
    time.sleep(0.8)
    try:
        p0 = _spawn(["party", "--role", "0", "--program", "svm",
                     "--stp", "127.0.0.1:7841", "--listen", "127.0.0.1:7842",
                     "--config", str(cfg), "--report", "json"])
        time.sleep(0.5)
        p1 = _spawn(["party", "--role", "1", "--program", "svm",
                     "--stp", "127.0.0.1:7841", "--peer", "127.0.0.1:7842",
                     "--config", str(cfg), "--report", "json"])
        out1, _ = p1.communicate(timeout=60)
        out0, _ = p0.communicate(timeout=60)
        assert p0.returncode == 0 and p1.returncode == 0, (out0, out1)
        assert "labels:" in out1
        # both labels are +/-1
        line = [ln for ln in out1.splitlines() if ln.startswith("labels:")][0]
        labels = json.loads(line.split(":", 1)[1])
        assert all(v in (-1, 1) for v in labels)
        # the SVM's online flights, as for one query at d = 100
        flights = [json.loads(out[out.index("{"):])["online_flights"] for out in (out0, out1)]
        assert tuple(flights) == BENCHMARKED_FLIGHTS["svm-psk-b1"]
    finally:
        stp.kill()
        stp.communicate()


@pytest.mark.parametrize("l", [16, 64])
def test_config_ring_width_alone_takes_its_fixed_split(l):
    assert cli._ring_from({"ring": {"l": l}}) == RingParams.fixed(l)


def test_config_ring_of_no_word_width_exits():
    with pytest.raises(SystemExit) as exc:
        cli._ring_from({"ring": {"l": 12}})
    assert "(8, 16, 32, 64)" in str(exc.value.code)


def test_unreachable_stp_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"svm": {"d": 4, "batch": 1}}))
    p0 = _spawn(["party", "--role", "0", "--program", "svm",
                 "--stp", "127.0.0.1:1", "--listen", "127.0.0.1:7843",
                 "--config", str(cfg)])
    time.sleep(0.4)
    p1 = _spawn(["party", "--role", "1", "--program", "svm",
                 "--stp", "127.0.0.1:1", "--peer", "127.0.0.1:7843",
                 "--config", str(cfg)])
    p1.communicate(timeout=60)
    p0.communicate(timeout=60)
    assert p1.returncode == cli.EXIT_OFFLINE_FAIL
    assert p0.returncode == cli.EXIT_OFFLINE_FAIL


@pytest.mark.parametrize("argv", [
    ["stp", "--null-cipher"],
    ["party", "--role", "0", "--program", "svm", "--null-cipher"],
    ["party", "--role", "0", "--program", "circuit"],
    ["party", "--role", "0", "--program", "bench"],
    ["party", "--role", "0", "--program", "svm", "--n", "10"],
    ["party", "--role", "0", "--program", "svm", "--width", "32"],
])
def test_removed_options_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


# "party" without --stp, an address whose port is not an integer in
# 0..65535, or a negative bench count is a usage error before anything runs
@pytest.mark.parametrize("argv", [
    ["party", "--role", "0", "--program", "svm", "--listen", "127.0.0.1:0"],
    ["party", "--role", "0", "--program", "svm", "--stp", "127.0.0.1:abc",
     "--listen", "127.0.0.1:0"],
    ["party", "--role", "0", "--program", "svm", "--stp", "127.0.0.1:1",
     "--listen", "127.0.0.1:abc"],
    ["party", "--role", "1", "--program", "nn", "--stp", "127.0.0.1:1",
     "--peer", "127.0.0.1:65536"],
    ["party", "--role", "1", "--program", "nn", "--stp", "127.0.0.1:-1",
     "--peer", "127.0.0.1:1"],
    ["party", "--role", "0", "--program", "svm", "--stp", "127.0.0.1",
     "--listen", "127.0.0.1:0"],
    ["stp", "--listen", "127.0.0.1:abc"],
    ["stp", "--listen", "127.0.0.1:70000"],
    ["bench", "--n", "-1"],
], ids=["party-no-stp", "party-stp-port", "party-listen-port", "party-peer-port-high",
        "party-stp-port-negative", "party-stp-no-port", "stp-listen-port",
        "stp-listen-port-high", "bench-n-negative"])
def test_bad_party_and_stp_arguments_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def test_addresses_parse_to_host_and_port():
    args = cli.build_parser().parse_args(
        ["party", "--role", "1", "--program", "svm", "--stp", ":65535", "--peer", "::1:0"])
    assert (args.stp, args.peer) == (("127.0.0.1", 65535), ("::1", 0))
    assert cli.build_parser().parse_args(["stp"]).listen == ("127.0.0.1", 7700)


def test_party_without_stp_exits_before_waiting_for_the_peer():
    proc = subprocess.run(
        [sys.executable, "-m", "hybrid2pc.cli", "party", "--role", "0", "--program", "svm",
         "--listen", "127.0.0.1:0"], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert "--stp" in proc.stderr and "Traceback" not in proc.stderr


def test_readme_module_table_names_every_module():
    package = Path(cli.__file__).parent
    modules = {f.stem for f in package.glob("*.py")} - {"__init__", "__main__"}
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (`.+?`) \|", readme, re.M)
    listed = {name for row in rows for name in re.findall(r"`(\w+)`", row)}
    assert modules <= listed, sorted(modules - listed)


def _nan_weights(path):
    net = ml.NetSpec((1, 1, 1), [ml.FC(1, 1, np.array([[np.nan]])), ml.ArgMax()])
    ml.save_net(str(path), net, RingParams(32, 7, 12))


def _no_argmax_weights(path):
    ml.save_net(str(path), ml.NetSpec((1, 1, 4), [ml.Act()]), RingParams(32, 7, 12))


# config: a dict written as JSON, raw file text, or None for no file
@pytest.mark.parametrize("program, config", [
    ("svm", {"svm": {"d": 0}}), ("svm", {"svm": {"batch": 0}}), ("nn", {"nn": {"batch": -1}}),
    ("nn", {"nn": {"weights": "missing.bin"}}), ("nn", {"nn": {"weights": "nan.bin"}}),
    ("svm", "{not json"), ("nn", "[1, 2]"), ("svm", None),
    ("svm", {"svm": {"d": "ten"}}), ("nn", {"seed": "x"}), ("nn", {"nn": {"batch": 2.5}}),
    ("svm", {"svm": 3}), ("svm", {"ring": []}), ("nn", {"seed": -1}),
    ("svm", {"ring": {"l": 32, "alpha": "7", "beta": 12}}), ("nn", {"nn": {"weights": 3}}),
    ("nn", {"nn": {"weights": "wide.bin"}}), ("nn", {"nn": {"weights": "huge.bin"}}),
    ("nn", {"nn": {"weights": "no-argmax.bin"}}),
], ids=["svm-d", "svm-batch", "nn-batch", "nn-weights-missing", "nn-weights-nan",
        "not-json", "not-an-object", "no-such-file", "svm-d-string", "seed-string",
        "nn-batch-float", "svm-not-an-object", "ring-not-an-object", "seed-negative",
        "ring-alpha-string", "nn-weights-int", "nn-weights-wide", "nn-input-wide",
        "nn-weights-no-argmax"])
def test_bad_config_exits_before_waiting_for_the_peer(tmp_path, program, config):
    # role 0 alone, with no peer to come: a config or section that is not
    # an object, a size, seed or ring field that is not an integer, a
    # negative seed, a size below 1, or a weight file that is not a name,
    # does not load, plans more than a frame carries or has no final ArgMax
    # ends it at once, with one line on stderr
    cfg = tmp_path / "cfg.json"
    if isinstance(config, str):
        cfg.write_text(config)
    elif config is not None:
        if isinstance(config.get("nn", {}).get("weights"), str):
            config = {"nn": {"weights": str(tmp_path / config["nn"]["weights"])}}
            _nan_weights(tmp_path / "nan.bin")
            oversize_weights(tmp_path / "wide.bin", INPUT_WIDTH_AT)
            wide_input_weights(tmp_path / "huge.bin")
            _no_argmax_weights(tmp_path / "no-argmax.bin")
        cfg.write_text(json.dumps(config))
    # under an 8 GiB address space, a party that drew huge.bin's 32 GiB of
    # images would fail at once instead of exhausting the host
    proc = subprocess.run(
        [sys.executable, "-m", "hybrid2pc.cli", "party", "--role", "0", "--program", program,
         "--stp", "127.0.0.1:1", "--listen", "127.0.0.1:0", "--config", str(cfg)],
        capture_output=True, text=True, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (8 << 30, 8 << 30)))
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
