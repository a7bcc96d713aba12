"""Command-line driver: prove, verify, interactive sessions, self-tests
and benchmarks.  Subcommands import the session, harness and bench
modules they use, so an offline prove or verify loads none of them.

Exit codes: 0 success/accept, 1 proof rejected, 2 usage or validation
error, 3 I/O error (standard output closed too), 4 session failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from mith import protocol as proto
from mith.circuit import (
    Statement, parse_circuit, parse_statement, parse_witness,
    statement_circuit_path, statement_hash,
)
from mith.commit import scheme_by_name
from mith.errors import CircuitError, MithError, SessionError
from mith.field import RandomSource

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_SESSION = 4

# A proof file is made and checked at 128 bits unless told otherwise, a
# session at sigma=40; --min-bits goes up to MAX_BITS, the most a four-byte
# sigma delivers.
DEFAULT_BITS = 128
SESSION_REPS = 40
MAX_BITS = int(proto.MAX_REPS * proto.derived_security_bits(1))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise _IOFailure(f"cannot read {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise CircuitError(f"{path} is not UTF-8 text: {e.reason} at byte {e.start}") from None


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise _IOFailure(f"cannot read {path}: {e}") from None


def _write_bytes(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise _IOFailure(f"cannot write {path}: {e}") from None


class _IOFailure(Exception):
    pass


def _load_statement(args) -> Statement:
    stmt_text = _read(args.statement)
    circuit_path = args.circuit or statement_circuit_path(stmt_text)
    if circuit_path is None:
        raise CircuitError(
            "statement file has no 'circuit' line; pass --circuit")
    if not os.path.isabs(circuit_path) and args.circuit is None:
        circuit_path = os.path.join(os.path.dirname(args.statement) or ".",
                                    circuit_path)
    circuit = parse_circuit(_read(circuit_path))
    return parse_statement(stmt_text, circuit)


def _seed(args) -> int | None:
    """--seed, once --insecure-seed acknowledges it."""
    if args.seed is not None and not args.insecure_seed:
        raise MithError("--seed requires --insecure-seed (test use only)")
    return args.seed


def _endpoint(spec: str) -> tuple[str, int]:
    """argparse type for host:port (port 0-65535, host 127.0.0.1 if empty)."""
    host, colon, port = spec.rpartition(":")
    if not (colon and port.isascii() and port.isdigit() and int(port) <= 65535):
        raise argparse.ArgumentTypeError(
            f"expected host:port with a port in 0-65535, got {spec!r}")
    return host or "127.0.0.1", int(port)


def _timeout(text: str) -> float:
    """argparse type for a number of seconds above 0 and at most 1e9
    (a socket takes at most about 9.2e9)."""
    try:
        t = float(text)
    except ValueError:
        t = 0.0
    if not 0 < t <= 1e9:
        raise argparse.ArgumentTypeError(
            f"expected a number of seconds above 0 and at most 1e9, got {text!r}")
    return t


def _int_in(low: int, high: float = math.inf):
    """argparse type for an integer in [low, high]."""
    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit() and low <= int(text) <= high):
            want = f"of at least {low}" if high == math.inf else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"expected an integer {want}, got {text!r}")
        return int(text)
    return parse


def reps_for_bits(bits: int) -> int:
    """The least sigma whose derived proof delivers bits."""
    return math.ceil(bits / proto.derived_security_bits(1))


def cmd_prove(args) -> int:
    if args.mode != "session" and not args.out:
        print("error: --out is required unless --mode session", file=sys.stderr)
        return EXIT_USAGE
    reps = args.reps or (SESSION_REPS if args.mode == "session"
                         else reps_for_bits(DEFAULT_BITS))
    s = _load_statement(args)
    w = parse_witness(_read(args.witness), s.circuit)
    scheme = scheme_by_name(args.scheme, s.circuit.modulus.p)
    rng = RandomSource(_seed(args))
    import time
    t0 = time.perf_counter()
    if args.mode == "session":
        if not args.connect:
            print("error: session mode needs --connect host:port", file=sys.stderr)
            return EXIT_USAGE
        from mith import session as session_mod
        if reps * max(proto.block_lengths(s.circuit, scheme)) > session_mod.MAX_PAYLOAD:
            print(f"error: {reps} repetitions make a COMMIT or RESPONSE frame above "
                  f"the {session_mod.MAX_PAYLOAD}-byte cap", file=sys.stderr)
            return EXIT_USAGE
        transport = session_mod.connect(*args.connect, args.timeout)
        try:
            verdict = session_mod.prover_session(
                transport, s, w, reps, scheme, rng)
        finally:
            transport.close()
        elapsed = (time.perf_counter() - t0) * 1000
        print(f"reps={reps} scheme={args.scheme} mode=session time={elapsed:.1f}ms "
              f"soundness<={proto.soundness_bound(reps):.4g} "
              f"verdict={'accept' if verdict else 'reject'}")
        return EXIT_OK if verdict else EXIT_REJECT
    proof = proto.prove_repeated(w, s, reps, rng, scheme, mode="derived")
    blob = proto.serialize_proof(proof, s.circuit)
    _write_bytes(args.out, blob)
    elapsed = (time.perf_counter() - t0) * 1000
    print(f"reps={reps} scheme={args.scheme} mode=derived "
          f"bytes={len(blob)} time={elapsed:.1f}ms "
          f"security_bits={proto.derived_security_bits(reps):.1f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    s = _load_statement(args)
    if args.mode == "session":
        if not args.listen:
            print("error: session mode needs --listen host:port", file=sys.stderr)
            return EXIT_USAGE
        from mith import session as session_mod
        rng = RandomSource(_seed(args))
        transport = session_mod.listen_once(*args.listen, args.timeout)
        try:
            verdict = session_mod.verifier_session(transport, s, args.reps, rng)
        finally:
            transport.close()
        print(f"reps={args.reps} soundness<={proto.soundness_bound(args.reps):.4g}")
        print(f"session verdict: {'accept' if verdict else 'reject'}")
        return EXIT_OK if verdict else EXIT_REJECT
    if not args.proof:
        print("error: --proof is required unless --mode session", file=sys.stderr)
        return EXIT_USAGE
    blob = _read_bytes(args.proof)
    try:
        proof = proto.parse_proof(blob, s.circuit)
    except MithError as e:
        print(f"reject: malformed proof: {e}")
        return EXIT_REJECT
    bits = proto.derived_security_bits(proof.reps)
    print(f"reps={proof.reps} security_bits={bits:.1f}")
    need = reps_for_bits(args.min_bits)
    if proof.reps < need:
        print(f"reject: sigma={proof.reps} gives {bits:.2f} security bits; the "
              f"{args.min_bits}-bit floor (--min-bits) needs sigma>={need}")
        return EXIT_REJECT
    # One pass: the printed checks are the ones the verdict reads.
    checks = proto.check_repetitions(s, proof)
    if args.verbose:
        print(f"statement hash match: {proof.stmt_hash == statement_hash(s)}")
        for k, (ch, ok) in enumerate(zip(proof.challenges, checks)):
            print(f"  repetition {k}: challenge {proto.PARTY_PAIRS[ch]} "
                  f"check={'ok' if ok else 'FAIL'}")
    verdict = proto.accepts(s, proof, checks)
    print("accept" if verdict else "reject")
    return EXIT_OK if verdict else EXIT_REJECT


def cmd_selftest(args) -> int:
    scale = 0.05 if args.quick else 1.0
    from mith import harness
    reports = harness.run_all(seed=_seed(args), scale=scale)
    for r in reports:
        print(r.line())
    if args.json:
        doc = {"reports": [r.to_dict() for r in reports],
               "all_pass": all(r.verdict == "pass" for r in reports)}
        _write_bytes(args.json, json.dumps(doc, indent=2).encode())
        print(f"wrote {args.json}")
    ok = all(r.verdict == "pass" for r in reports)
    print("selftest:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_REJECT


def cmd_bench(args) -> int:
    from mith import bench as bench_mod
    seed = _seed(args)
    rng = RandomSource(7 if seed is None else seed)
    rows = bench_mod.standard_bench(rng, quick=args.quick)
    print(bench_mod.format_rows(rows))
    if not all(r.accepted for r in rows):
        print("error: a benchmark proof was rejected", file=sys.stderr)
        return EXIT_REJECT
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mith",
        description="Zero-knowledge proofs for arithmetic circuits by "
                    "emulating a 5-party computation in the head.")
    sub = ap.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_int_in(0), default=None,
                        help="deterministic randomness (test use only)")
    common.add_argument("--insecure-seed", action="store_true",
                        help="acknowledge that a fixed seed voids security")

    p = sub.add_parser("prove", parents=[common], help="produce a proof")
    p.add_argument("--circuit", help="circuit file (.arith)")
    p.add_argument("--statement", required=True, help="statement file")
    p.add_argument("--witness", required=True, help="witness file")
    p.add_argument("--out", help="proof output path")
    p.add_argument("--reps", type=_int_in(1, proto.MAX_REPS),
                   help=f"repetitions (default {reps_for_bits(DEFAULT_BITS)}, "
                        f"{DEFAULT_BITS} bits, for a proof file; {SESSION_REPS} "
                        "for a session)")
    p.add_argument("--scheme", choices=["prf", "pedersen"], default="prf")
    p.add_argument("--mode", choices=["derived", "session"], default="derived")
    p.add_argument("--connect", type=_endpoint, help="verifier endpoint host:port")
    p.add_argument("--timeout", type=_timeout, default=30.0)
    p.set_defaults(func=cmd_prove)

    v = sub.add_parser("verify", parents=[common], help="check a proof")
    v.add_argument("--circuit", help="circuit file (.arith)")
    v.add_argument("--statement", required=True)
    v.add_argument("--proof", help="proof file to verify")
    v.add_argument("--mode", choices=["offline", "session"], default="offline")
    v.add_argument("--listen", type=_endpoint, help="bind endpoint host:port")
    v.add_argument("--reps", type=_int_in(1, proto.MAX_REPS), default=SESSION_REPS,
                   help=f"expected repetitions (session mode, default {SESSION_REPS})")
    v.add_argument("--min-bits", type=_int_in(0, MAX_BITS), default=DEFAULT_BITS,
                   help="reject a proof file delivering fewer security bits "
                        f"(default {DEFAULT_BITS}; sessions are exempt)")
    v.add_argument("--timeout", type=_timeout, default=30.0)
    v.add_argument("--verbose", action="store_true",
                   help="print per-repetition verdicts")
    v.set_defaults(func=cmd_verify)

    st = sub.add_parser("selftest", parents=[common],
                        help="run the full experiment harness")
    st.add_argument("--quick", action="store_true",
                    help="reduced trial counts")
    st.add_argument("--json", help="also write a machine-readable report")
    st.set_defaults(func=cmd_selftest)

    b = sub.add_parser("bench", parents=[common], help="time whole proofs")
    b.add_argument("--quick", action="store_true", help="bench_a and bench_b only")
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # a bad argument returns 2, as other usage errors do
        return e.code
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at shutdown
        return code
    except BrokenPipeError:  # stdout closed early: devnull keeps the exit flush silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except SessionError as e:
        print(f"session error: {e}", file=sys.stderr)
        return EXIT_SESSION
    except MithError as e:  # circuit, statement, witness and usage errors among them
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _IOFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
