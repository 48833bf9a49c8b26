import json
import subprocess
import sys
import time

import pytest

from hybrid2pc import bench, cli


def test_bench_rows_match_predictions():
    ops = ("ADD", "MULT", "AND", "MUX", "b2y", "b2a", "a2y")
    rows = bench.run_bench(ops=ops, n=100, width=32)
    by_op = {r.op: r for r in rows}
    assert by_op["ADD"].online_total == 0
    for op in ops[1:]:
        assert by_op[op].online_total == by_op[op].predicted_online, op


def test_bench_table_formatting():
    rows = bench.run_bench(ops=("ADD", "y2b"), n=16, width=32)
    text = bench.format_table(rows)
    assert "ADD" in text and "y2b" in text and "predicted" in text


def test_circuit_command(tmp_path, capsys):
    out = tmp_path / "add8.txt"
    rc = cli.main(["circuit", "--name", "add", "--width", "8",
                   "--variant", "depth", "-o", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.startswith("W ")
    from hybrid2pc import circuits as cc

    c = cc.parse_circuit(text)
    assert cc.levelize(c).depth == 3


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
    finally:
        stp.kill()


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
