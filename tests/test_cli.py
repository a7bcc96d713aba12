"""CLI exit-code contract and end-to-end file round-trips."""

import json
import os
import socket
import subprocess
import sys
import threading

import pytest

from mith.circuit import (
    Statement, Witness, format_circuit, format_statement, format_witness,
)
import mith
from mith.cli import main
from mith.corpus import square_plus_one_circuit
from mith.field import Modulus


@pytest.fixture
def workdir(tmp_path):
    m = Modulus(101)
    c = square_plus_one_circuit(m)
    (tmp_path / "c.arith").write_text(format_circuit(c))
    s = Statement(c, (), m.element(10))
    (tmp_path / "s.st").write_text(format_statement(s, "c.arith"))
    (tmp_path / "w.wit").write_text(format_witness(Witness((m.element(3),))))
    (tmp_path / "bad.wit").write_text("secret 1 2\n")
    (tmp_path / "wrong.wit").write_text(format_witness(Witness((m.element(4),))))
    return tmp_path


def run(args):
    return main([str(a) for a in args])


def test_prove_verify_round_trip(workdir, capsys):
    proof = workdir / "p.bin"
    assert run(["prove", "--statement", workdir / "s.st",
                "--witness", workdir / "w.wit", "--reps", 8,
                "--out", proof, "--seed", 5, "--insecure-seed"]) == 0
    out = capsys.readouterr().out
    assert "reps=8" in out and "scheme=prf" in out
    assert run(["verify", "--statement", workdir / "s.st",
                "--proof", proof]) == 0
    assert "accept" in capsys.readouterr().out


def test_deep_chain_file_round_trip(tmp_path):
    """A 1,200-gate chain through the real command line: exit 0 on both
    sides and no traceback."""
    n = 1200
    (tmp_path / "chain.arith").write_text(
        f"field 101\ntopology 0 1 {n}\n"
        + "".join(f"(mul {gid} " for gid in range(n, 0, -1))
        + "(sinput 0)" + " (sinput 0))" * n + "\n")
    (tmp_path / "chain.st").write_text(
        f"field 101\ntarget {pow(2, n + 1, 101)}\ncircuit chain.arith\n")
    (tmp_path / "chain.wit").write_text("secret 2\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mith.__file__)))
    for args in (["prove", "--statement", "chain.st", "--witness", "chain.wit",
                  "--reps", "2", "--out", "chain.proof"],
                 ["verify", "--statement", "chain.st", "--proof", "chain.proof"]):
        done = subprocess.run([sys.executable, "-m", "mith.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
    assert "accept" in done.stdout


def test_verify_verbose_prints_per_repetition(workdir, capsys):
    proof = workdir / "p.bin"
    run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
         "--reps", 3, "--out", proof])
    capsys.readouterr()
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof,
                "--verbose"]) == 0
    out = capsys.readouterr().out
    assert out.count("repetition") == 3


def test_pedersen_scheme_round_trip(workdir):
    proof = workdir / "pp.bin"
    assert run(["prove", "--statement", workdir / "s.st",
                "--witness", workdir / "w.wit", "--reps", 2,
                "--scheme", "pedersen", "--out", proof]) == 0
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof]) == 0


def test_corrupted_proof_rejected(workdir):
    proof = workdir / "p.bin"
    run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
         "--reps", 4, "--out", proof])
    blob = bytearray(proof.read_bytes())
    blob[len(blob) // 2] ^= 0x10
    proof.write_bytes(bytes(blob))
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof]) == 1


def test_wrong_witness_proof_rejected(workdir):
    """A proof honestly produced for a non-witness fails verification."""
    proof = workdir / "pw.bin"
    assert run(["prove", "--statement", workdir / "s.st",
                "--witness", workdir / "wrong.wit", "--reps", 6,
                "--out", proof]) == 0
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof]) == 1


def test_missing_files_exit_3(workdir):
    assert run(["verify", "--statement", workdir / "s.st",
                "--proof", workdir / "nope.bin"]) == 3
    assert run(["prove", "--statement", workdir / "nope.st",
                "--witness", workdir / "w.wit", "--out", workdir / "x.bin"]) == 3


def test_validation_errors_exit_2(workdir):
    assert run(["prove", "--statement", workdir / "s.st",
                "--witness", workdir / "bad.wit", "--out", workdir / "x.bin"]) == 2
    assert run(["prove", "--statement", workdir / "s.st",
                "--witness", workdir / "w.wit", "--reps", 0,
                "--out", workdir / "x.bin"]) == 2
    assert run(["prove", "--statement", workdir / "s.st",
                "--witness", workdir / "w.wit", "--out", workdir / "x.bin",
                "--seed", 1]) == 2  # seed without --insecure-seed


def test_malformed_circuit_exit_2(workdir):
    (workdir / "broken.arith").write_text("field 101\ntopology 0 1 1\n(frob 1)")
    (workdir / "s2.st").write_text("field 101\ntarget 10\ncircuit broken.arith\n")
    assert run(["verify", "--statement", workdir / "s2.st",
                "--proof", workdir / "p.bin"]) == 2


def test_mith1_proof_is_malformed(workdir, capsys):
    proof = workdir / "p.bin"
    assert run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
                "--reps", 2, "--out", proof]) == 0
    blob = proof.read_bytes()
    assert blob[:5] == b"MITH2"
    proof.write_bytes(b"MITH1" + blob[5:])
    capsys.readouterr()
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof]) == 1
    out = capsys.readouterr().out
    assert "malformed proof" in out and "MITH1" in out


@pytest.mark.parametrize("gid", ["-1", "4294967295", "4294967296"])
def test_out_of_range_gate_id_exit_2(tmp_path, gid):
    """Gate ids are u32 below the refresh slot; any other id is a
    validation error on both sides, not a crash."""
    (tmp_path / "c.arith").write_text(
        f"field 101\ntopology 0 1 2\n(add 1\n  (mul {gid} (sinput 0) (sinput 0)) (sinput 0))\n")
    (tmp_path / "s.st").write_text("field 101\ntarget 6\ncircuit c.arith\n")
    (tmp_path / "w.wit").write_text("secret 2\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mith.__file__)))
    for args in (["prove", "--statement", "s.st", "--witness", "w.wit", "--out", "p.bin"],
                 ["verify", "--statement", "s.st", "--proof", "p.bin"]):
        done = subprocess.run([sys.executable, "-m", "mith.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert f"gate id {gid}" in done.stderr and "line 4" in done.stderr


def test_session_round_trip(workdir):
    results = {}

    def verifier():
        results["v"] = run(["verify", "--statement", workdir / "s.st",
                            "--mode", "session", "--listen", "127.0.0.1:0"])

    # Pick a free port explicitly to avoid racing on 0.
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()

    def verifier_fixed():
        results["v"] = run(["verify", "--statement", workdir / "s.st",
                            "--mode", "session", "--listen", f"127.0.0.1:{port}",
                            "--reps", 5, "--timeout", 10])

    th = threading.Thread(target=verifier_fixed)
    th.start()
    import time
    time.sleep(0.3)
    results["p"] = run(["prove", "--statement", workdir / "s.st",
                        "--witness", workdir / "w.wit", "--mode", "session",
                        "--connect", f"127.0.0.1:{port}", "--reps", 5,
                        "--timeout", 10])
    th.join()
    assert results == {"p": 0, "v": 0}


def test_session_connect_failure_exit_4(workdir):
    assert run(["prove", "--statement", workdir / "s.st",
                "--witness", workdir / "w.wit", "--mode", "session",
                "--connect", "127.0.0.1:1", "--timeout", 1]) == 4


def test_selftest_quick_json(workdir, capsys):
    report = workdir / "report.json"
    assert run(["selftest", "--quick", "--seed", 9, "--insecure-seed",
                "--json", report]) == 0
    out = capsys.readouterr().out
    assert "selftest: PASS" in out
    doc = json.loads(report.read_text())
    assert doc["all_pass"] is True
    assert {r["name"] for r in doc["reports"]} >= {
        "completeness", "binding", "sss-2-privacy"}


def test_selftest_reproducible(workdir, capsys):
    run(["selftest", "--quick", "--seed", 42, "--insecure-seed"])
    first = capsys.readouterr().out
    run(["selftest", "--quick", "--seed", 42, "--insecure-seed"])
    second = capsys.readouterr().out
    assert first == second


def test_bench_emits_table_rows(capsys):
    assert run(["bench", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "MitH (7 gates, 2 MUL)" in out
    assert "MitH (11 gates, 3 MUL)" in out
    assert "field 101" in out and "field 97" in out
    assert "Pedersen commitment" in out and "HMAC-SHA256 commitment" in out


def test_bench_field_preset_env(capsys, monkeypatch):
    monkeypatch.setenv("MITH_FIELD_PRESET", "p101")
    assert run(["bench"]) == 0
    out = capsys.readouterr().out
    assert "field 101" in out
    assert "256 bits" not in out
