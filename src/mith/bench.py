"""Whole-proof benchmarks: the calls `mith prove` and `mith verify` make,
timed on a fixed ladder of circuits with both commitment schemes, and at
the repetition count a 128-bit hash-derived proof needs."""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

from mith import mpc
from mith import protocol as proto
from mith.circuit import Circuit
from mith.commit import scheme_by_name
from mith.corpus import bench_circuit_a, bench_circuit_b, random_circuit, random_instance
from mith.field import Modulus, RandomSource

BENCH_REPS = 40
# ceil(128 / log2(10/9)): the sigma of a 128-bit hash-derived proof.
DERIVED_REPS = 843
RUNS = 5
SCHEMES = ("prf", "pedersen")


@dataclass
class BenchRow:
    circuit: str
    scheme: str
    reps: int
    prove_ms: float
    verify_ms: float
    proof_bytes: int
    accepted: bool  # every timed proof verified


def _time_ms(fn, inputs) -> tuple[float, list]:
    """Median wall-clock milliseconds of fn over inputs, and its results.
    The median drops one-off costs of the first call, such as compiling
    the circuit or building Pedersen tables."""
    times, outs = [], []
    for x in inputs:
        t0 = time.perf_counter()
        outs.append(fn(x))
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times), outs


def ladder(quick: bool = False) -> list[tuple[str, Circuit]]:
    """bench_a over F101, bench_b over F97 and, unless quick, a depth-9
    random circuit over F101 (103 gates, 24 multiplications)."""
    rungs = [("bench_a", bench_circuit_a()), ("bench_b", bench_circuit_b())]
    if not quick:
        rungs.append(("depth-9", random_circuit(random.Random(3), Modulus(101), 1, 2,
                                                max_depth=9)))
    return rungs


def bench_proof(name: str, circuit: Circuit, scheme_name: str, reps: int,
                rng: RandomSource) -> BenchRow:
    """RUNS proofs at sigma=reps: prove is prove_repeated plus
    serialize_proof, verify is parse_proof plus verify_repeated of each
    proof in turn."""
    s, w = random_instance(random.Random(1), circuit)
    scheme = scheme_by_name(scheme_name, circuit.modulus.p)

    def prove(_):
        return proto.serialize_proof(
            proto.prove_repeated(w, s, reps, rng, scheme), circuit)

    def verify(blob):
        return proto.verify_repeated(s, proto.parse_proof(blob, circuit))

    prove_ms, blobs = _time_ms(prove, range(RUNS))
    verify_ms, verdicts = _time_ms(verify, blobs)
    label = (f"{name} F{circuit.modulus.p} ({circuit.topology.n_gates} gates, "
             f"{mpc.program(circuit).n_mul} mul)")
    return BenchRow(label, scheme_name, reps, prove_ms, verify_ms, len(blobs[0]), all(verdicts))


def format_rows(rows: list[BenchRow]) -> str:
    name_w = max(len(r.circuit) for r in rows) + 2
    lines = [f"{'circuit':<{name_w}}{'scheme':<10}{'sigma':>6}{'prove ms':>10}{'verify ms':>11}"
             f"{'proof bytes':>13}"]
    lines += [f"{r.circuit:<{name_w}}{r.scheme:<10}{r.reps:>6}{r.prove_ms:>10.1f}"
              f"{r.verify_ms:>11.1f}{r.proof_bytes:>13}" + ("" if r.accepted else "  REJECTED")
              for r in rows]
    return "\n".join(lines) + f"\n(wall-clock medians of {RUNS} runs)"


def standard_bench(rng: RandomSource | None = None,
                   quick: bool = False) -> list[BenchRow]:
    """Each ladder circuit with both schemes at sigma=BENCH_REPS; unless
    quick, then bench_b with PRF at sigma=DERIVED_REPS."""
    rng = rng or RandomSource(7)
    rows = [bench_proof(name, c, scheme_name, BENCH_REPS, rng)
            for name, c in ladder(quick) for scheme_name in SCHEMES]
    if not quick:
        rows.append(bench_proof("bench_b", bench_circuit_b(), "prf", DERIVED_REPS, rng))
    return rows
