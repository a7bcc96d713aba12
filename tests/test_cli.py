"""CLI exit-code contract and end-to-end file round-trips."""

import dataclasses
import json
import os
import socket
import subprocess
import sys
import threading

import pytest

from mith import bench, mpc
from mith import protocol as pr
from mith.circuit import (
    Statement, Witness, format_circuit, format_statement, format_witness,
)
import mith
from mith.cli import main
from mith.commit import scheme_by_name
from mith.corpus import square_plus_one_circuit
from mith.errors import MithError, SessionError
from mith.field import Modulus, RandomSource
from mith.harness import OneBadPairCheater, canonical_false_statement


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


def run_cli(cwd, args, timeout=60):
    """`python -m mith.cli args` in cwd, as a user would run it."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mith.__file__)))
    return subprocess.run([sys.executable, "-m", "mith.cli", *map(str, args)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=timeout)


def test_prove_verify_round_trip(workdir, capsys):
    proof = workdir / "p.bin"
    assert run(["prove", "--statement", workdir / "s.st",
                "--witness", workdir / "w.wit", "--reps", 8,
                "--out", proof, "--seed", 5, "--insecure-seed"]) == 0
    out = capsys.readouterr().out
    assert "reps=8" in out and "scheme=prf" in out
    assert run(["verify", "--statement", workdir / "s.st",
                "--proof", proof, "--min-bits", 1]) == 0
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
    for args in (["prove", "--statement", "chain.st", "--witness", "chain.wit",
                  "--reps", "2", "--out", "chain.proof"],
                 ["verify", "--statement", "chain.st", "--proof", "chain.proof",
                  "--min-bits", "0"]):
        done = run_cli(tmp_path, args, timeout=300)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
    assert "accept" in done.stdout


def test_verify_verbose_prints_per_repetition(workdir, capsys):
    proof = workdir / "p.bin"
    run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
         "--reps", 3, "--out", proof])
    capsys.readouterr()
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof,
                "--verbose", "--min-bits", 0]) == 0
    out = capsys.readouterr().out
    assert out.count("repetition") == 3


def test_verify_verbose_checks_each_repetition_once(workdir, capsys, monkeypatch):
    proof = workdir / "p.bin"
    run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
         "--reps", 4, "--out", proof])
    # Each repetition is checked once: one replay whose lanes are the
    # 2*sigma opened views.
    lanes = []
    replay = mpc.out_messages
    monkeypatch.setattr(mpc, "out_messages", lambda c, x, rows: lanes.append(
        len(rows) // mpc.encoded_view_length(c)) or replay(c, x, rows))
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof,
                "--verbose", "--min-bits", 0]) == 0
    assert lanes == [8]


def test_verify_verbose_flags_the_tampered_repetition(workdir, capsys):
    """One repetition's opening replaced: --verbose prints FAIL for that
    repetition alone, and the verdict is reject."""
    c = square_plus_one_circuit(Modulus(101))
    s = Statement(c, (), c.modulus.element(10))
    proof = pr.prove_repeated(Witness((c.modulus.element(3),)), s, 4, RandomSource(6))
    size = len(proof.body) // proof.reps
    pos, n = pr.block_fields(c, scheme_by_name(proof.scheme))[6]  # the first opening
    pos += 2 * size
    path = workdir / "tampered.bin"
    path.write_bytes(pr.serialize_proof(dataclasses.replace(
        proof, body=proof.body[:pos] + bytes(n) + proof.body[pos + n:]), c))
    capsys.readouterr()
    assert run(["verify", "--statement", workdir / "s.st", "--proof", path,
                "--verbose", "--min-bits", 0]) == 1
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if "repetition" in ln]
    assert len(lines) == 4
    assert [k for k, ln in enumerate(lines) if "check=FAIL" in ln] == [2]
    assert "malformed" not in out  # the commitments, and so the challenges, are intact
    assert out.splitlines()[-1] == "reject"


def test_transcript_mode_forgery_rejected(tmp_path):
    """A file that records challenges its writer chose (mode byte 0x00):
    OneBadPairCheater for the false F11 statement, 128 repetitions all
    challenged at (3, 4), which avoids its bad pair.  Trusting those
    challenges would accept; the mode byte is rejected instead, and as a
    derived-mode file the parse names the first challenge not derived."""
    s, w_guess = canonical_false_statement()
    c = s.circuit
    (tmp_path / "c.arith").write_text(format_circuit(c))
    (tmp_path / "s.st").write_text(format_statement(s, "c.arith"))
    cheater = OneBadPairCheater(s, w_guess, (1, 2), RandomSource(40))
    rng = RandomSource(41)
    ch = bytes([pr.PARTY_PAIRS.index((3, 4))])
    reps = 128
    body = []
    st, commit = cheater.commit(rng, reps)
    resp = pr.prover_respond(st, ch * reps)
    size, m = len(resp) // reps, len(commit) // reps
    for k in range(reps):
        body += [commit[k * m:(k + 1) * m], ch, resp[k * size:(k + 1) * size]]
    header = pr.MAGIC + bytes([cheater.scheme.scheme_byte])
    tail = reps.to_bytes(4, "big") + pr.statement_hash(s) + b"".join(body)
    (tmp_path / "forged.bin").write_bytes(header + b"\x00" + tail)
    done = run_cli(tmp_path, ["verify", "--statement", "s.st", "--proof", "forged.bin"])
    assert done.returncode == 1, done.stdout + done.stderr
    assert "malformed proof" in done.stdout and "0x00" in done.stdout
    assert "accept" not in done.stdout and "Traceback" not in done.stderr
    # As a derived-mode file the parse names the first repetition whose
    # derived challenge is not (3, 4): repetition 0's happens to be (3, 4).
    derived = pr.derive_challenge(pr.statement_hash(s), reps, pr.challenge_blobs(commit))
    assert derived[0] == ch[0] != derived[1]
    (tmp_path / "forged.bin").write_bytes(header + b"\x01" + tail)
    done = run_cli(tmp_path, ["verify", "--statement", "s.st", "--proof", "forged.bin",
                              "--min-bits", "0"])
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.startswith("reject: malformed proof: challenge of repetition 1 ")
    assert "accept" not in done.stdout and "Traceback" not in done.stderr


def test_default_verify_rejects_a_sigma40_grinding_forgery(tmp_path):
    """OneBadPairCheater for the false F11 statement recommits all 40
    repetitions until no derived challenge hits its bad pair, (10/9)^40 =
    68 attempts on average.  The file is a real forgery, accepted under
    `--min-bits 0`; `mith verify` with its defaults rejects it at the
    128-bit floor and names the 6.1 bits it carries."""
    s, w_guess = canonical_false_statement()
    c = s.circuit
    (tmp_path / "c.arith").write_text(format_circuit(c))
    (tmp_path / "s.st").write_text(format_statement(s, "c.arith"))
    cheater = OneBadPairCheater(s, w_guess, (1, 2), RandomSource(50))
    rng = RandomSource(51)
    for _ in range(5000):
        proof = pr.respond_repetitions(s, *cheater.commit(rng, 40), rng, cheater.scheme,
                                       "derived")
        if all(cheater.passes(pr.PARTY_PAIRS[ch]) for ch in proof.challenges):
            break
    assert pr.verify_repeated(s, proof)
    (tmp_path / "forged.bin").write_bytes(pr.serialize_proof(proof, c))
    done = run_cli(tmp_path, ["verify", "--statement", "s.st", "--proof", "forged.bin"])
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.splitlines() == [
        "reps=40 security_bits=6.1",
        "reject: sigma=40 gives 6.08 security bits; the 128-bit floor (--min-bits) "
        "needs sigma>=843"]
    assert "Traceback" not in done.stderr
    done = run_cli(tmp_path, ["verify", "--statement", "s.st", "--proof", "forged.bin",
                              "--min-bits", "0"])
    assert done.returncode == 0 and done.stdout.splitlines()[-1] == "accept"


def test_default_prove_passes_the_default_floor(workdir):
    """With no --reps, prove makes a 128-bit proof, sigma=843, and verify
    with its defaults accepts it."""
    done = run_cli(workdir, PROVE + ["--out", "p.bin"])
    assert done.returncode == 0, done.stderr
    assert "reps=843 " in done.stdout and "security_bits=128.1" in done.stdout.split()
    done = run_cli(workdir, VERIFY + ["--proof", "p.bin"])
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines() == ["reps=843 security_bits=128.1", "accept"]


def test_min_bits_bound_is_the_sigma_bound():
    """The largest --min-bits needs the largest sigma a proof header holds,
    and one bit more would need a larger one."""
    from mith import cli
    assert cli.reps_for_bits(cli.MAX_BITS) <= pr.MAX_REPS < cli.reps_for_bits(cli.MAX_BITS + 1)
    assert cli.reps_for_bits(128) == 843 and cli.reps_for_bits(80) == 527


PROVE = ["prove", "--statement", "s.st", "--witness", "w.wit"]
VERIFY = ["verify", "--statement", "s.st"]


@pytest.mark.parametrize("args", [
    PROVE + ["--mode", "session", "--connect", "localhost"],
    VERIFY + ["--mode", "session", "--listen", ":abc"],
    VERIFY + ["--mode", "session", "--listen", "127.0.0.1:70000"],
    VERIFY + ["--mode", "session", "--listen", "127.0.0.1:\u00b2"],
    PROVE + ["--mode", "session", "--connect", "127.0.0.1:9", "--timeout", "-1"],
    PROVE + ["--mode", "session", "--connect", "127.0.0.1:9", "--timeout", "nan"],
    VERIFY + ["--mode", "session", "--listen", "127.0.0.1:0", "--timeout", "0"],
    VERIFY + ["--mode", "session", "--listen", "127.0.0.1:0", "--timeout", "inf"],
    # --out is checked first: reading the absent witness would be exit 3.
    ["prove", "--statement", "s.st", "--witness", "absent.wit"],
    # --reps is checked before any file is read or port bound.
    ["prove", "--statement", "s.st", "--witness", "absent.wit", "--out", "p.bin",
     "--reps", "0"],
    VERIFY + ["--mode", "session", "--listen", "127.0.0.1:0", "--reps", "0"],
    # sigma is a 4-byte field of the proof header and of HELLO.
    ["prove", "--statement", "s.st", "--witness", "absent.wit", "--out", "p.bin",
     "--reps", "99999999999999999999"],
    PROVE + ["--out", "p.bin", "--reps", "4294967296"],
    ["verify", "--statement", "s.st", "--proof", "absent.bin", "--reps", "4294967296"],
    VERIFY + ["--mode", "session", "--listen", "127.0.0.1:0", "--reps", "99999999999999999999"],
    # --min-bits takes 0 up to the bits of the largest sigma.
    VERIFY + ["--proof", "absent.bin", "--min-bits", "-1"],
    VERIFY + ["--proof", "absent.bin", "--min-bits", "652848316"],
    # A socket takes no timeout above about 9.2e9 seconds.
    PROVE + ["--mode", "session", "--connect", "127.0.0.1:9", "--timeout", "1e300"],
    VERIFY + ["--mode", "session", "--listen", "127.0.0.1:0", "--timeout", "1e10"],
    # --seed is checked before any file is read or port bound.
    ["prove", "--statement", "s.st", "--witness", "absent.wit", "--out", "p.bin",
     "--seed", "-1", "--insecure-seed"],
    VERIFY + ["--mode", "session", "--listen", "127.0.0.1:0", "--seed", "-1", "--insecure-seed"],
    ["bench", "--quick", "--seed", "-1"],
    # As for prove, verify and selftest, --seed needs --insecure-seed.
    ["bench", "--quick", "--seed", "3"],
], ids=["connect-no-port", "listen-port-abc", "listen-port-70000", "listen-port-superscript",
        "timeout-negative", "timeout-nan", "timeout-zero", "timeout-inf", "prove-no-out",
        "prove-reps-zero", "verify-reps-zero", "prove-reps-20-digits", "prove-reps-2^32",
        "verify-reps-2^32", "verify-session-reps-20-digits", "min-bits-negative",
        "min-bits-above-sigma-bound",
        "timeout-1e300", "timeout-1e10",
        "prove-seed-negative", "verify-seed-negative", "bench-seed-negative",
        "bench-seed-without-insecure-seed"])
def test_usage_errors_exit_2(workdir, args):
    done = run_cli(workdir, args)
    assert done.returncode == 2, done.stdout + done.stderr
    assert "error:" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize("name", ["s.st", "w.wit", "c.arith"])
def test_non_utf8_file_exit_2(workdir, name):
    """A statement, witness or circuit file that is not UTF-8 text is a
    validation error, not a crash."""
    path = workdir / name
    path.write_bytes(path.read_bytes() + b"\xff\n")
    done = run_cli(workdir, PROVE + ["--out", "p.bin"])
    assert done.returncode == 2, done.stdout + done.stderr
    assert f"{name} is not UTF-8 text" in done.stderr and "Traceback" not in done.stderr


def test_pedersen_scheme_round_trip(workdir):
    proof = workdir / "pp.bin"
    assert run(["prove", "--statement", workdir / "s.st",
                "--witness", workdir / "w.wit", "--reps", 2,
                "--scheme", "pedersen", "--out", proof]) == 0
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof,
                "--min-bits", 0]) == 0


def test_corrupted_proof_rejected(workdir):
    proof = workdir / "p.bin"
    run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
         "--reps", 4, "--out", proof])
    blob = bytearray(proof.read_bytes())
    blob[len(blob) // 2] ^= 0x10
    proof.write_bytes(bytes(blob))
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof,
                "--min-bits", 0]) == 1


@pytest.mark.parametrize("scheme_name", ["prf", "pedersen"])
def test_challenge_not_derived_exits_1_naming_its_repetition(workdir, scheme_name):
    """A derived proof file with the challenge byte of repetition 0, then of
    the last repetition, set to another value below 10: `mith verify`
    exits 1 and names that repetition, with no traceback."""
    proof, reps = workdir / "p.bin", 4
    assert run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
                "--reps", reps, "--scheme", scheme_name, "--out", proof]) == 0
    blob = proof.read_bytes()
    size = (len(blob) - pr.HEADER_LENGTH) // reps
    for k in (0, reps - 1):
        pos = pr.HEADER_LENGTH + k * size + pr.commit_length(scheme_by_name(scheme_name))
        (workdir / "bad.bin").write_bytes(
            blob[:pos] + bytes([(blob[pos] + 1) % 10]) + blob[pos + 1:])
        done = run_cli(workdir, ["verify", "--statement", "s.st", "--proof", "bad.bin",
                                 "--min-bits", "0"])
        assert done.returncode == 1, done.stdout + done.stderr
        assert done.stdout == (f"reject: malformed proof: challenge of repetition {k} "
                               "is not the one derived from the commitments\n")
        assert "Traceback" not in done.stderr


def test_wrong_witness_proof_rejected(workdir):
    """A proof honestly produced for a non-witness fails verification."""
    proof = workdir / "pw.bin"
    assert run(["prove", "--statement", workdir / "s.st",
                "--witness", workdir / "wrong.wit", "--reps", 6,
                "--out", proof]) == 0
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof,
                "--min-bits", 0]) == 1


def test_missing_files_exit_3(workdir):
    assert run(["verify", "--statement", workdir / "s.st",
                "--proof", workdir / "nope.bin"]) == 3
    assert run(["prove", "--statement", workdir / "nope.st",
                "--witness", workdir / "w.wit", "--out", workdir / "x.bin"]) == 3


@pytest.mark.parametrize("reps", [8, 843])
def test_closed_stdout_exits_3_without_traceback(workdir, reps):
    """`mith verify ... | head -c 0`: stdout's read end is closed before
    the child writes, so its first write fails, whether that is a print
    (843 verbose lines overflow the buffer) or the flush at the end."""
    proof = workdir / "p.bin"
    assert run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
                "--reps", reps, "--out", proof]) == 0
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mith.__file__)))
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run([sys.executable, "-m", "mith.cli", "verify", "--statement",
                               "s.st", "--proof", "p.bin", "--verbose", "--min-bits", "0"],
                              cwd=workdir, env=env,
                              stdout=w, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(w)
    assert done.returncode == 3, done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr


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


def check_old_version_is_malformed(workdir, capsys, magic: bytes):
    """A MITH6 file relabelled as an older version exits 1 as an
    unsupported version."""
    proof = workdir / "p.bin"
    assert run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
                "--reps", 2, "--out", proof]) == 0
    blob = proof.read_bytes()
    assert blob[:5] == b"MITH6"
    proof.write_bytes(magic + blob[5:])
    capsys.readouterr()
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof]) == 1
    out = capsys.readouterr().out
    assert "malformed proof" in out and f"unsupported proof version {magic.decode()}" in out


def test_mith1_proof_is_malformed(workdir, capsys):
    check_old_version_is_malformed(workdir, capsys, b"MITH1")


def test_mith2_proof_is_malformed(workdir, capsys):
    check_old_version_is_malformed(workdir, capsys, b"MITH2")


def test_mith3_proof_is_malformed(workdir, capsys):
    check_old_version_is_malformed(workdir, capsys, b"MITH3")


def test_mith4_proof_is_malformed(workdir, capsys):
    check_old_version_is_malformed(workdir, capsys, b"MITH4")


def test_mith5_proof_is_malformed(workdir, capsys):
    check_old_version_is_malformed(workdir, capsys, b"MITH5")


@pytest.mark.parametrize("reps, bits", [(8, "1.2"), (40, "6.1"), (842, "128.0"), (843, "128.1")])
def test_prove_prints_derived_security_bits(workdir, capsys, reps, bits):
    """A derived proof delivers reps * log2(10/9) bits, and prove prints
    those bits, not the interactive bound (9/10)^reps."""
    assert run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
                "--reps", reps, "--out", workdir / "p.bin"]) == 0
    out = capsys.readouterr().out
    assert f"reps={reps} " in out and f"security_bits={bits}" in out.split()
    assert "soundness<=" not in out and "note:" not in out


@pytest.mark.parametrize("reps, bits", [(8, "1.2"), (40, "6.1")])
def test_verify_prints_derived_security_bits(workdir, capsys, reps, bits):
    """verify prints the repetitions and the bits of the proof it checked,
    before its verdict, for an accepted and for a rejected proof."""
    proof = workdir / "p.bin"
    assert run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
                "--reps", reps, "--out", proof]) == 0
    capsys.readouterr()
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof,
                "--min-bits", 1]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"reps={reps} security_bits={bits}", "accept"]
    blob = bytearray(proof.read_bytes())
    blob[-1] ^= 1
    proof.write_bytes(bytes(blob))
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof,
                "--min-bits", 1]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"reps={reps} security_bits={bits}", "reject"]


def test_verify_floor_names_the_sigma_it_needs(workdir, capsys):
    """At the default floor a sigma=842 proof (127.99 bits) is rejected
    before it is checked, and the message shows it falls short of 128 bits
    and the sigma that would meet them."""
    proof = workdir / "p.bin"
    assert run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
                "--reps", 842, "--out", proof]) == 0
    capsys.readouterr()
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "reps=842 security_bits=128.0",
        "reject: sigma=842 gives 127.99 security bits; the 128-bit floor (--min-bits) "
        "needs sigma>=843"]
    assert run(["verify", "--statement", workdir / "s.st", "--proof", proof,
                "--min-bits", 127]) == 0


@pytest.mark.parametrize("gid", ["-1", "4294967295", "4294967296"])
def test_out_of_range_gate_id_exit_2(tmp_path, gid):
    """Gate ids are u32 below 0xFFFFFFFF; any other id is a validation
    error on both sides, not a crash."""
    (tmp_path / "c.arith").write_text(
        f"field 101\ntopology 0 1 2\n(add 1\n  (mul {gid} (sinput 0) (sinput 0)) (sinput 0))\n")
    (tmp_path / "s.st").write_text("field 101\ntarget 6\ncircuit c.arith\n")
    (tmp_path / "w.wit").write_text("secret 2\n")
    for args in (["prove", "--statement", "s.st", "--witness", "w.wit", "--out", "p.bin"],
                 ["verify", "--statement", "s.st", "--proof", "p.bin"]):
        done = run_cli(tmp_path, args)
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert f"gate id {gid}" in done.stderr and "line 4" in done.stderr


def test_session_round_trip(workdir, capsys):
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
    # A session is exempt from the floor; both sides print (9/10)^5.
    out = capsys.readouterr().out
    assert "reps=5 soundness<=0.5905" in out and "soundness<=0.5905 verdict=accept" in out


def test_session_reps_above_frame_cap_exit_2_before_connecting(workdir, capsys, monkeypatch):
    """A session whose COMMIT or RESPONSE payload would exceed the frame
    cap is a usage error, found before connecting or committing."""
    from mith import session
    scheme = scheme_by_name("prf")
    c = square_plus_one_circuit(Modulus(101))
    reps = session.MAX_PAYLOAD // max(pr.block_lengths(c, scheme)) + 1
    connects = []

    def connect(*endpoint):
        connects.append(endpoint)
        raise SessionError("no peer", "connect")

    monkeypatch.setattr(session, "connect", connect)
    for n, code in ((reps, 2), (reps - 1, 4)):
        assert run(["prove", "--statement", workdir / "s.st", "--witness", workdir / "w.wit",
                    "--mode", "session", "--connect", "127.0.0.1:1", "--reps", n]) == code
        assert len(connects) == (code == 4)
    assert "byte cap" in capsys.readouterr().err


@pytest.mark.parametrize("reps", [0, pr.MAX_REPS + 1])
def test_prover_session_rejects_reps_outside_hello_field(reps):
    """prover_session refuses a sigma HELLO cannot carry with a MithError,
    before it sends anything or commits."""
    from mith import session
    m = Modulus(101)
    s = Statement(square_plus_one_circuit(m), (), m.element(10))

    class Silent:
        def send_all(self, data):
            pytest.fail("sent a frame")

    with pytest.raises(MithError, match="repetition count"):
        session.prover_session(Silent(), s, Witness((m.element(3),)), reps)
    with pytest.raises(MithError, match="repetition count"):
        pr.commit_repetitions(Witness((m.element(3),)), s, reps, RandomSource(1),
                              scheme_by_name("prf"))


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


def test_bench_emits_table_rows(capsys, monkeypatch):
    """--quick: bench_a and bench_b, each with both schemes at sigma=40,
    every proof verified; the full ladder adds the depth-9 circuit with
    both schemes and bench_b with PRF at sigma=843: 7 rows."""
    assert run(["bench", "--quick"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.splitlines() if " prf " in ln or " pedersen " in ln]
    assert len(rows) == 4
    assert sum("bench_a F101 (7 gates, 2 mul)" in ln for ln in rows) == 2
    assert sum("bench_b F97 (11 gates, 3 mul)" in ln for ln in rows) == 2
    assert all(ln.split()[-4] == "40" for ln in rows)
    assert "REJECTED" not in out
    names = [name for name, _ in bench.ladder()]
    assert names == ["bench_a", "bench_b", "depth-9"]
    assert bench.ladder()[2][1].topology.n_gates == 103

    # The full ladder's rows, each timed by a stand-in.
    monkeypatch.setattr(bench, "bench_proof", lambda name, c, scheme, reps, rng: bench.BenchRow(
        f"{name} F{c.modulus.p}", scheme, reps, 1.0, 1.0, 1, True))
    assert run(["bench"]) == 0
    rows = [ln.split() for ln in capsys.readouterr().out.splitlines()
            if " prf " in ln or " pedersen " in ln]
    assert [(r[0], r[2], r[3]) for r in rows] == [
        ("bench_a", "prf", "40"), ("bench_a", "pedersen", "40"),
        ("bench_b", "prf", "40"), ("bench_b", "pedersen", "40"),
        ("depth-9", "prf", "40"), ("depth-9", "pedersen", "40"),
        ("bench_b", "prf", "843")]


def test_bench_fails_on_a_rejected_proof(capsys, monkeypatch):
    monkeypatch.setattr(pr, "verify_repeated", lambda s, proof: False)
    assert run(["bench", "--quick"]) == 1
    captured = capsys.readouterr()
    assert captured.out.count("REJECTED") == 4 and "rejected" in captured.err
