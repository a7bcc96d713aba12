"""Whole-proof benchmarks: the calls `mith prove` and `mith verify` make,
timed on a fixed ladder of circuits with both commitment schemes."""

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
RUNS = 5
SCHEMES = ("prf", "pedersen")


@dataclass
class BenchRow:
    circuit: str
    scheme: str
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


def bench_proof(name: str, circuit: Circuit, scheme_name: str,
                rng: RandomSource) -> BenchRow:
    """RUNS proofs at sigma=BENCH_REPS: prove is prove_repeated plus
    serialize_proof, verify is parse_proof plus verify_repeated of each
    proof in turn."""
    s, w = random_instance(random.Random(1), circuit)
    scheme = scheme_by_name(scheme_name, circuit.modulus.p)

    def prove(_):
        return proto.serialize_proof(
            proto.prove_repeated(w, s, BENCH_REPS, rng, scheme), circuit)

    def verify(blob):
        return proto.verify_repeated(s, proto.parse_proof(blob, circuit))

    prove_ms, blobs = _time_ms(prove, range(RUNS))
    verify_ms, verdicts = _time_ms(verify, blobs)
    label = (f"{name} F{circuit.modulus.p} ({circuit.topology.n_gates} gates, "
             f"{mpc.program(circuit).n_mul} mul)")
    return BenchRow(label, scheme_name, prove_ms, verify_ms, len(blobs[0]), all(verdicts))


def format_rows(rows: list[BenchRow]) -> str:
    name_w = max(len(r.circuit) for r in rows) + 2
    lines = [f"{'circuit':<{name_w}}{'scheme':<10}{'prove ms':>10}{'verify ms':>11}"
             f"{'proof bytes':>13}"]
    lines += [f"{r.circuit:<{name_w}}{r.scheme:<10}{r.prove_ms:>10.1f}{r.verify_ms:>11.1f}"
              f"{r.proof_bytes:>13}" + ("" if r.accepted else "  REJECTED")
              for r in rows]
    return "\n".join(lines) + f"\n(sigma={BENCH_REPS}; wall-clock medians of {RUNS} runs)"


def standard_bench(rng: RandomSource | None = None,
                   quick: bool = False) -> list[BenchRow]:
    rng = rng or RandomSource(7)
    return [bench_proof(name, c, scheme_name, rng)
            for name, c in ladder(quick) for scheme_name in SCHEMES]
