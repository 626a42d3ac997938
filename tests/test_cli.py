"""Command line interface: text output, JSON schema, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from qkahler import cli
from qkahler.cli import main, parse_mode, parse_q_samples, ConfigError
from qkahler.hodge import certify_posdef, gram
from qkahler.scalars import H_EQ_ONE, H_EQ_Q


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_mode_variants():
    assert parse_mode("hq") is H_EQ_Q
    assert parse_mode("h1") is H_EQ_ONE
    m = parse_mode("numeric:9/10:7/8")
    assert "9/10" in m.label() and "7/8" in m.label()
    m2 = parse_mode("numeric:9/10")
    assert "9/10" in m2.label()
    for bad in ("bogus", "numeric:", "numeric:0", "numeric:-1", "numeric:x"):
        with pytest.raises(ConfigError):
            parse_mode(bad)


def test_parse_q_samples():
    vals = parse_q_samples("9/10,1,11/10")
    assert [str(v) for v in vals] == ["9/10", "1", "11/10"]
    for bad in ("", "0", "-1/2", "abc"):
        with pytest.raises(ConfigError):
            parse_q_samples(bad)


def test_basis_command_text(capsys):
    code, out, err = _run(capsys, ["basis", "-n", "2", "-k", "2"])
    assert code == 0 and not err
    assert "dimension 6" in out
    assert "e+[1]^e-[1]" in out
    code, out, _ = _run(capsys, ["basis", "-n", "2", "--bidegree", "1,1"])
    assert code == 0
    assert "dimension 4" in out
    code, out, _ = _run(capsys, ["basis", "-n", "3", "-k", "3"])
    assert "dimension 20" in out


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_rejects_a_rank_outside_1_to_6(capsys, command):
    for n in ("0", "7", "9", "99"):
        code, out, err = _run(capsys, [command, "-n", n, "--json"])
        assert code == 2 and "rank" in err and out == ""


def test_basis_command_rejects_bad_input(capsys):
    code, _, err = _run(capsys, ["basis", "-n", "2", "-k", "7"])
    assert code == 2 and "degree" in err
    code, _, err = _run(capsys, ["basis", "-n", "2", "--bidegree", "5,0"])
    assert code == 2
    code, _, err = _run(capsys, ["basis", "--mode", "bogus"])
    assert code == 2 and "mode" in err


def test_hodge_command_rank1_table(capsys):
    code, out, _ = _run(capsys, ["hodge", "-n", "1"])
    assert code == 0
    assert "*(1) = i*e+[1]^e-[1]" in out
    assert "*(e+[1]) = -i*e+[1]" in out
    assert "*(e-[1]) = i*e-[1]" in out


def test_primitive_command(capsys):
    code, out, _ = _run(capsys, ["primitive", "-n", "2"])
    assert code == 0
    assert "P^(1,1): dimension 3" in out
    assert "e+[1]^e-[2]" in out


def test_gram_command_json_schema(capsys):
    code, out, _ = _run(capsys, ["gram", "-n", "1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qkahler/1"
    assert doc["command"] == "gram"
    assert doc["failures"] == []
    blocks = doc["results"]["blocks"]
    assert all(c["verdict"] == "positive-definite"
               for b in blocks for c in b["certificates"])
    bidegrees = {tuple(b["bidegree"]) for b in blocks}
    assert bidegrees == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_verify_command_text_and_exit_zero(capsys):
    code, out, _ = _run(capsys, ["verify", "-n", "1", "--suite", "hodge"])
    assert code == 0
    assert "[PASS]" in out and "0 failures" in out
    code, _, err = _run(capsys, ["verify", "--suite", "wrong"])
    assert code == 2 and "suite" in err


def test_verify_command_json_is_deterministic(capsys):
    argv = ["verify", "-n", "1", "--suite", "metric", "--json"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["config"]["n"] == 1
    statuses = {e["status"] for e in doc["results"]["results"]}
    assert statuses <= {"pass", "note"}


def test_laplacian_command(capsys):
    code, out, _ = _run(capsys, ["laplacian-cp1"])
    assert code == 0
    assert "z_12" in out and "z_21" in out
    assert "eigenvalue q[2]_q = q^2 + 1" in out
    assert "[FAIL]" not in out


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["verify", "-n", "1", "--suite",
                                 "cp1-laplacian", "--json",
                                 "--out", str(target)])
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["schema"] == "qkahler/1"


def test_unwritable_out_path_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, out, err = _run(capsys, ["basis", "-n", "1", "--out", str(target)])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_internal_error_exits_three_without_traceback(monkeypatch, capsys):
    def broken(args, mode):
        raise ArithmeticError("string basis of (1,0) has wrong size: 1 != 2")

    monkeypatch.setitem(cli.COMMANDS, "basis", broken)
    code, out, err = _run(capsys, ["basis", "-n", "1"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ArithmeticError" in err and "wrong size" in err
    assert "Traceback" not in err


def test_gram_certificates_follow_the_mode(capsys):
    code, out, _ = _run(capsys, ["gram", "-n", "3", "--mode", "h1", "--json"])
    assert code == 0
    doc = json.loads(out)
    q_samples = parse_q_samples(",".join(doc["config"]["q_samples"]))
    differ = 0
    for block in doc["results"]["blocks"]:
        a, b = block["bidegree"]
        want = [certify_posdef(gram(3, a, b, H_EQ_ONE), q0).to_json()
                for q0 in q_samples]
        assert block["certificates"] == want
        hq = [certify_posdef(gram(3, a, b, H_EQ_Q), q0).to_json()
              for q0 in q_samples]
        differ += want != hq
    assert differ == 8


def test_numeric_mode_runs(capsys):
    code, out, _ = _run(capsys, ["verify", "-n", "1", "--suite", "hodge",
                                 "--mode", "numeric:9/10:7/8"])
    assert code == 0 and "0 failures" in out


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qkahler.cli", "basis", "-n", "1", "-k", "1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "dimension 2" in proc.stdout


def test_closed_stdout_is_an_io_error():
    # 200 kB of JSON overfills the pipe, so the write fails once the
    # reader has gone, whatever the timing.
    proc = subprocess.Popen(
        [sys.executable, "-m", "qkahler.cli", "basis", "-n", "6", "-k", "6",
         "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.read(1)
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 3
    assert err.startswith("error: cannot write to stdout:")
    assert "Traceback" not in err and "Exception ignored" not in err
