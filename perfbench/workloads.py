"""The workloads of the mith benchmark and the operations they time.

Every workload is a closed loop: one client, one operation at a time, in
one process.  An offline operation is `prove_repeated` + `serialize_proof`
(prove) followed by `parse_proof` + `verify_repeated` (verify).  A session
operation is one live 3-pass session over a fresh loopback TCP connection,
prover on the calling thread and verifier on a second thread.

Circuit shapes are fixed so that numbers stay comparable between commits;
the seed draws only the witness and the public inputs.  The prover and the
session verifier draw their randomness from the OS (`RandomSource()`), as
the command line does.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable

from mith import circuit, commit, corpus, field, protocol, session
from mith.errors import MithError, SessionError

TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Workload:
    name: str
    make_circuit: Callable[[], circuit.Circuit]
    scheme: str
    reps: int
    interactive: bool = False
    # The host speed reference (a name in hostref.REFERENCES): a fixed piece
    # of the kind of work that dominates the workload.  Big-integer
    # exponentiation slows less than interpreted small-integer code when the
    # host is contended.
    reference: str = "small-int"


WORKLOADS = {w.name: w for w in (
    # 103 gates, 24 multiplications: in-the-head evaluation, view encoding
    # and replay dominate.
    Workload("deep9-prf", lambda: corpus.random_circuit(
        random.Random(3), field.Modulus(101), 1, 2, max_depth=9), "prf", 40),
    # bench_a over a 256-bit field with 257-bit Pedersen commitments:
    # commitments dominate, the mpc layer is a few percent.
    Workload("p256-pedersen", lambda: corpus.bench_circuit_a(
        field.preset_modulus("p256")), "pedersen", 40,
        reference="bigint"),
    # bench_b over F97 at the sigma a 128-bit hash-derived proof needs, so
    # costs that grow with sigma (randomness, challenge derivation, proof
    # size) dominate.
    Workload("sigma843-prf", corpus.bench_circuit_b, "prf", 843, reference="small-int-hash"),
    # bench_a over F101 as an interactive session: the only workload that
    # runs the session layer.
    Workload("session-prf", corpus.bench_circuit_a, "prf", 40, interactive=True),
)}


@dataclass(frozen=True)
class Inputs:
    """What a user hands to mith: circuit, statement and witness text."""

    circuit_text: str
    statement_text: str
    witness_text: str
    scheme: str


def make_inputs(wl: Workload, seed: int) -> Inputs:
    c = wl.make_circuit()
    s, w = corpus.random_instance(random.Random(seed), c)
    return Inputs(circuit.format_circuit(c),
                  circuit.format_statement(s, "circuit.arith"),
                  circuit.format_witness(w), wl.scheme)


def load(inp: Inputs):
    """Parse the inputs and build the scheme: the set-up a user pays."""
    c = circuit.parse_circuit(inp.circuit_text)
    s = circuit.parse_statement(inp.statement_text, c)
    w = circuit.parse_witness(inp.witness_text, c)
    return s, w, commit.scheme_by_name(inp.scheme, c.modulus.p)


@dataclass
class Sample:
    """One operation.  prove_ms/verify_ms are the prover's and verifier's
    compute time (in a session: wall time minus time blocked on the peer);
    op_ms is the whole operation (in a session: connect to verdict)."""

    prove_ms: float
    verify_ms: float
    op_ms: float
    wire_bytes: int
    accepted: bool
    frames: int = 0
    prover_wait_ms: float = 0.0
    verifier_wait_ms: float = 0.0


# ---------------------------------------------------------------------------
# Offline proofs


def offline_op(s, w, scheme, reps: int, pause=None) -> tuple[Sample, bytes]:
    """One prove and one verify.  pause, if given, is called between them
    with the prove time in seconds; its own time is in neither timing."""
    c = s.circuit
    clock = time.perf_counter
    t0 = clock()
    proof = protocol.prove_repeated(w, s, reps, field.RandomSource(), scheme, "derived")
    data = protocol.serialize_proof(proof, c)
    t1 = clock()
    if pause is not None:
        pause(t1 - t0)
    t2 = clock()
    accepted = protocol.verify_repeated(s, protocol.parse_proof(data, c))
    t3 = clock()
    return Sample(1e3 * (t1 - t0), 1e3 * (t3 - t2), 1e3 * (t1 - t0 + t3 - t2),
                  len(data), accepted), data


def offline_verdict(s, data: bytes) -> tuple[bool, str]:
    """(rejected, outcome) for proof bytes checked against s.  A parse
    error is a reject; an exception that is not a MithError is a crash,
    which is not."""
    try:
        accepted = protocol.verify_repeated(s, protocol.parse_proof(data, s.circuit))
    except MithError as e:
        return True, f"reject ({type(e).__name__}: {e})"
    except Exception as e:  # a crash on hostile input is a wrong outcome
        return False, f"crash ({type(e).__name__}: {e})"
    return not accepted, "accept" if accepted else "reject"


def flip_opened_view_byte(data: bytes) -> bytes:
    """Flip the low bit of the last byte of the first opened view of
    repetition 0 (the last broadcast share, a field element)."""
    pos = 43  # magic, scheme byte, mode byte, sigma, statement hash
    for _ in range(5):
        pos += 4 + int.from_bytes(data[pos:pos + 4], "big")
    pos += 1  # challenge byte
    end = pos + 4 + int.from_bytes(data[pos:pos + 4], "big")
    return data[:end - 1] + bytes([data[end - 1] ^ 0x01]) + data[end:]


# ---------------------------------------------------------------------------
# Sessions


class MeteredTransport(session.Transport):
    """Counts the frames and bytes it sends and the time it spends blocked
    in recv_exactly.  With corrupt_commit it flips one byte in the middle of
    the COMMIT payload on the way out, as a faulty link would."""

    def __init__(self, sock: socket.socket, corrupt_commit: bool = False):
        super().__init__(sock, TIMEOUT_S)
        self.frames = 0
        self.sent = 0
        self.wait_s = 0.0
        self._corrupt = corrupt_commit

    def send_all(self, data: bytes) -> None:
        if self._corrupt and data[4] == session.MSG_COMMIT:
            mid = 5 + (len(data) - 5) // 2
            data = data[:mid] + bytes([data[mid] ^ 0x01]) + data[mid + 1:]
            self._corrupt = False
        self.frames += 1
        self.sent += len(data)
        super().send_all(data)

    def recv_exactly(self, n: int) -> bytes:
        t0 = time.perf_counter()
        try:
            return super().recv_exactly(n)
        finally:
            self.wait_s += time.perf_counter() - t0


@dataclass
class SessionOutcome:
    sample: Sample
    prover_verdict: bool | None
    verifier_verdict: bool | None
    errors: list[str]


class SessionRig:
    """A listening loopback socket; each session accepts one fresh TCP
    connection on a verifier thread and runs the prover on the caller."""

    def __init__(self):
        self._srv = socket.create_server(("127.0.0.1", 0))
        self._srv.settimeout(TIMEOUT_S)
        self._addr = self._srv.getsockname()

    def close(self) -> None:
        self._srv.close()

    def run(self, s, w, reps: int, scheme, corrupt_commit: bool = False) -> SessionOutcome:
        clock = time.perf_counter
        v: dict = {"errors": []}

        def verifier():
            try:
                conn, _ = self._srv.accept()
            except OSError as e:
                v["errors"].append(f"verifier accept: {e}")
                return
            vt = MeteredTransport(conn)
            t0 = clock()
            try:
                v["verdict"] = session.verifier_session(vt, s, reps, field.RandomSource())
            except SessionError as e:
                v["errors"].append(f"verifier {type(e).__name__}: {e}")
            except Exception as e:  # reported as a failed session by the caller
                v["errors"].append(f"verifier crash {type(e).__name__}: {e}")
            finally:
                v["wall_s"] = clock() - t0
                v["transport"] = vt
                vt.close()

        th = threading.Thread(target=verifier, name="verifier")
        th.start()
        errors: list[str] = []
        verdict = None
        t0 = clock()
        try:
            pt = MeteredTransport(socket.create_connection(self._addr, TIMEOUT_S),
                                  corrupt_commit)
        except OSError as e:
            th.join(TIMEOUT_S)
            raise RuntimeError(f"loopback connect failed: {e}") from None
        try:
            verdict = session.prover_session(pt, s, w, reps, scheme, field.RandomSource())
        except SessionError as e:
            errors.append(f"prover {type(e).__name__}: {e}")
        finally:
            pt.close()
        t1 = clock()
        th.join(2 * TIMEOUT_S)
        if th.is_alive():
            raise RuntimeError("verifier thread did not finish")
        errors += v["errors"]
        vt = v.get("transport")
        v_wait = vt.wait_s if vt else 0.0
        sample = Sample(
            prove_ms=1e3 * (t1 - t0 - pt.wait_s),
            verify_ms=1e3 * (v.get("wall_s", 0.0) - v_wait),
            op_ms=1e3 * (t1 - t0),
            wire_bytes=pt.sent + (vt.sent if vt else 0),
            accepted=verdict is True and v.get("verdict") is True and not errors,
            frames=pt.frames + (vt.frames if vt else 0),
            prover_wait_ms=1e3 * pt.wait_s,
            verifier_wait_ms=1e3 * v_wait,
        )
        return SessionOutcome(sample, verdict, v.get("verdict"), errors)


# ---------------------------------------------------------------------------
# Checks made once per run


def false_cases(wl: Workload, s, w, scheme, proof: bytes, rig: SessionRig):
    """The three false cases; yields (name, rejected, outcome)."""
    yield ("flipped-view-byte", *offline_verdict(s, flip_opened_view_byte(proof)))
    c = s.circuit
    wrong = circuit.Statement(c, s.public_inputs, s.target + c.modulus.one())
    yield ("target-plus-one", *offline_verdict(wrong, proof))
    # Offline workloads corrupt a one-repetition session of their own
    # statement and scheme: the digest echo does not depend on sigma.
    res = rig.run(s, w, wl.reps if wl.interactive else 1, scheme, corrupt_commit=True)
    accepted = res.prover_verdict is True or res.verifier_verdict is True
    outcome = "; ".join(res.errors) or (
        f"prover verdict {res.prover_verdict}, verifier verdict {res.verifier_verdict}")
    yield "corrupt-commit-session", not accepted, outcome


CHAIN_MULS = 1000


def chain_probe(seed: int) -> dict:
    """One prove + verify (sigma=1) on a chain of 1,000 multiplications,
    w^1001 over F101.  Returns {"outcome", "error"}."""
    node = "(sinput 0)"
    for gid in range(1, CHAIN_MULS + 1):
        node = f"(mul {gid} {node} (sinput 0))"
    x = random.Random(seed).randrange(101)
    try:
        c = circuit.parse_circuit(f"field 101\ntopology 0 1 {CHAIN_MULS}\n{node}\n")
        s = circuit.parse_statement(f"field 101\ntarget {pow(x, CHAIN_MULS + 1, 101)}\n", c)
        w = circuit.parse_witness(f"secret {x}\n", c)
        proof = protocol.prove_repeated(w, s, 1, field.RandomSource())
        ok = protocol.verify_repeated(
            s, protocol.parse_proof(protocol.serialize_proof(proof, c), c))
    except Exception as e:  # the probe reports whatever class ends it
        return {"outcome": "error", "error": type(e).__name__}
    return {"outcome": "accept" if ok else "reject", "error": None}


TAIL_MIN_SAMPLES = 20


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with at least ten
    samples above it.  None with fewer than TAIL_MIN_SAMPLES samples, where
    that percentile would lie below the median."""
    xs = sorted(values)
    n = len(xs)
    if n < TAIL_MIN_SAMPLES:
        return None
    return xs[n - 11], 100.0 * (n - 10) / n
