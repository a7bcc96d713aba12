"""Microbenchmarks: primitive operations and end-to-end proof runs with
both commitment schemes."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from mith import mpc
from mith import protocol as proto
from mith.commit import PedersenScheme, group_for_modulus, scheme_by_name
from mith.corpus import bench_circuit_a, bench_circuit_b, random_instance
from mith.field import Modulus, RandomSource, preset_modulus
from mith.sss import share, reconstruct, random_share_randomness


@dataclass
class BenchRow:
    section: str
    name: str
    cells: dict[str, float]  # column -> milliseconds


def _time_ms(fn, min_duration: float = 0.05, max_iters: int = 20000) -> float:
    """Average wall-clock milliseconds per call."""
    fn()  # warm up
    iters = 0
    start = time.perf_counter()
    while True:
        fn()
        iters += 1
        elapsed = time.perf_counter() - start
        if elapsed >= min_duration or iters >= max_iters:
            return elapsed * 1000.0 / iters


def bench_primitives(m: Modulus, rng: RandomSource) -> list[BenchRow]:
    label = f"field {m.p.bit_length()} bits" if m.p.bit_length() > 16 else f"field {m.p}"
    rows = []
    sr = random_share_randomness(rng, m)
    x = rng.field_element(m)
    sh = share(x, sr)
    rows.append(BenchRow(label, "Shamir share", {
        "rand": _time_ms(lambda: random_share_randomness(rng, m)),
        "share": _time_ms(lambda: share(x, sr)),
        "reconstruct": _time_ms(lambda: reconstruct(sh)),
    }))
    sh2 = share(rng.field_element(m), sr)
    rows.append(BenchRow(label, "BGW addition", {
        "protocol": _time_ms(lambda: mpc.gate_add(sh, sh2)),
    }))
    scalar = mpc.gate_const(rng.field_element(m))
    rows.append(BenchRow(label, "BGW scalar mult", {
        "protocol": _time_ms(lambda: mpc.gate_smul(scalar, sh)),
    }))
    mul_rand = tuple(random_share_randomness(rng, m) for _ in range(5))
    rows.append(BenchRow(label, "BGW multiplication", {
        "rand": _time_ms(lambda: tuple(random_share_randomness(rng, m) for _ in range(5))),
        "protocol": _time_ms(lambda: mpc.gate_mul(sh, sh2, mul_rand)),
    }))

    # Commitments over one view of bench_circuit_a in this field.
    c = bench_circuit_a(m)
    inst, w = random_instance(random.Random(0), c)
    prf = scheme_by_name("prf")
    rp = proto.random_prover_rand(rng, c, prf)
    st, _ = proto.prover_commit(rp, w, inst, prf)
    view = st.views[0]
    n_el = mpc.view_element_count(c)

    key = prf.keygen(rng, n_el)
    com, op = prf.commit_view(key, c, view)
    rows.append(BenchRow(label, "HMAC-SHA256 commitment", {
        "commit": _time_ms(lambda: prf.commit_view(key, c, view)),
        "verify": _time_ms(lambda: prf.verify_view(c, view, com, op)),
    }))
    ped = PedersenScheme(group_for_modulus(m.p))
    pkey = ped.keygen(rng, n_el)
    pcom, pop = ped.commit_view(pkey, c, view)
    rows.append(BenchRow(label, "Pedersen commitment", {
        "rand": _time_ms(lambda: ped.keygen(rng, n_el)),
        "commit": _time_ms(lambda: ped.commit_view(pkey, c, view)),
        "verify": _time_ms(lambda: ped.verify_view(c, view, pcom, pop)),
    }))
    return rows


def bench_mith(circuit, rng: RandomSource, scheme_name: str) -> BenchRow:
    """End-to-end columns for one proof run on a benchmark circuit."""
    m = circuit.modulus
    inst, w = random_instance(random.Random(1), circuit)
    scheme = scheme_by_name(scheme_name, m.p)
    rp = proto.random_prover_rand(rng, circuit, scheme)
    st, cm = proto.prover_commit(rp, w, inst, scheme)
    vst, ch = proto.verifier_challenge(rng, inst, cm)
    resp = proto.prover_respond(st, ch)

    n_mul = mpc.program(circuit).n_mul
    name = (f"MitH ({circuit.topology.n_gates} gates, {n_mul} MUL) "
            f"[{scheme_name}]")

    def commit_only():
        proto.prover_commit(rp, w, inst, scheme)

    def check_only():
        proto.verifier_check(vst, resp, scheme)

    return BenchRow(f"field {m.p}", name, {
        "rand": _time_ms(lambda: proto.random_prover_rand(rng, circuit, scheme)),
        "protocol": _time_ms(lambda: mpc.run_protocol(
            inst, [share(v, r) for v, r in zip(w.secret_inputs, rp.input_r)],
            rp.mpc)),
        "commit": _time_ms(commit_only),
        "verify": _time_ms(check_only),
    })


def format_rows(rows: list[BenchRow]) -> str:
    columns = ["rand", "share", "reconstruct", "protocol", "commit", "verify"]
    used = [c for c in columns if any(c in r.cells for r in rows)]
    name_w = max(len(r.name) for r in rows) + 2
    sect_w = max(len(r.section) for r in rows) + 2
    header = " " * (sect_w + name_w) + "".join(f"{c:>14}" for c in used)
    lines = [header, "-" * len(header)]
    last_section = None
    for r in rows:
        sect = r.section if r.section != last_section else ""
        last_section = r.section
        cells = "".join(
            f"{r.cells[c]:>14.4f}" if c in r.cells else " " * 14 for c in used)
        lines.append(f"{sect:<{sect_w}}{r.name:<{name_w}}{cells}")
    return "\n".join(lines) + "\n(times in ms)"


def standard_bench(rng: RandomSource | None = None,
                   quick: bool = False) -> list[BenchRow]:
    rng = rng or RandomSource(7)
    rows = []
    fields = [preset_modulus("p256")] if quick else [
        preset_modulus("p256"), preset_modulus("p101")]
    for m in fields:
        rows += bench_primitives(m, rng)
    for circuit in (bench_circuit_a(), bench_circuit_b()):
        for scheme_name in ("prf", "pedersen"):
            rows.append(bench_mith(circuit, rng, scheme_name))
    return rows
