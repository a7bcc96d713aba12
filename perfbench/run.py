"""Benchmark of mith: proof-level workloads, end-to-end metrics, and a
traced run that gives per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload deep9-prf --seed 7 --seconds 20 --trace 1

One run builds its inputs from --seed, sets up, warms up with a
one-repetition operation, then repeats operations for --seconds seconds.
Every honest proof and session must accept; three false cases must
reject; a chain of 1,000 multiplications is probed and its outcome
reported.  With --trace 0 the result carries the end-to-end metrics of
BENCHMARK.json, with the timings scaled to a nominal host speed (see
hostref.NOMINAL_MS); the unscaled wall times are printed beside them and
written with the rest of the report to .bench_out/.  With --trace 1 it
alternates untraced and traced operations and carries the per-layer
metrics, the unscaled wall times of its untraced operations among them, and
the spans are written to .bench_out/.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 0 only if every verdict was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
SETUP_RUNS = 11
# Set-up times are scaled to a host that runs the set-up reference (see
# setup_probe.py) in SETUP_NOMINAL_S.
SETUP_NOMINAL_S = 0.05
# The shared host's speed swings by tens of percent within seconds.  Each
# operation is bracketed by batches of its workload's host reference, about
# one per REFERENCE_EVERY_S of operation time and at least one; an offline
# operation has one more batch between prove and verify.  Its times are scaled to a host that runs the reference in
# hostref.NOMINAL_MS (see _scaled).
REFERENCE_EVERY_S = 0.2


def _import_mith() -> None:
    """Put the checkout's own sources first on the path; refuse to run
    against any other copy of mith."""
    if not (SRC / "mith" / "__init__.py").is_file():
        sys.exit(f"error: no mith sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mith
    if Path(mith.__file__).resolve().parent != SRC / "mith":
        sys.exit(f"error: imported mith from {mith.__file__}, not from {SRC}")


def _setup_seconds(inp) -> float:
    """Median set-up time over SETUP_RUNS fresh processes, each scaled by a
    host reference timed in a fresh process just before it."""
    job = json.dumps({"src": str(SRC), "circuit": inp.circuit_text,
                      "statement": inp.statement_text,
                      "witness": inp.witness_text, "scheme": inp.scheme})
    probe = str(Path(__file__).with_name("setup_probe.py"))

    def seconds(*args, stdin=None) -> float:
        r = subprocess.run([sys.executable, probe, *args], input=stdin, text=True,
                           capture_output=True, timeout=120, check=True)
        return json.loads(r.stdout)["setup_s"]

    times = []
    for _ in range(SETUP_RUNS):
        ref = seconds("reference")
        times.append(seconds(stdin=job) * SETUP_NOMINAL_S / ref)
    return statistics.median(times)


def _environment(seed: int) -> dict:
    try:
        from mith._core import HAVE_FAST as have_fast
    except ImportError:  # no compiled-kernel switch in this version of mith
        have_fast = None
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "have_fast": have_fast, "seed": seed}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Returns (result without units, report for people)."""
    import hostref
    import spans
    import workloads as wk

    wl = wk.WORKLOADS[name]
    inp = wk.make_inputs(wl, seed)
    rec = spans.Recorder() if traced else None
    parse_ms = []
    kept_spans = []  # setup and the first traced operation, for the trace file
    if traced:
        for k in range(SETUP_RUNS):
            rec.install()
            try:
                wk.load(inp)
            finally:
                rec.remove()
            batch, _ = rec.drain()
            kept_spans += batch
            parse_ms.append(1e3 * sum(b - a for _, _, n, a, b, _ in batch
                                      if n.startswith("circuit.parse_")))
    s, w, scheme = wk.load(inp)
    rig = wk.SessionRig()
    last_proof = b""
    mids = []  # offline, untraced: the batch between prove and verify of each operation

    def between(prove_s: float) -> None:
        mids.append(hostref.batch_ms(wl.reference, _reference_count(prove_s)))

    try:
        def op(reps: int, pause=None):
            nonlocal last_proof
            if wl.interactive:
                return rig.run(s, w, reps, scheme).sample
            sample, last_proof = wk.offline_op(s, w, scheme, reps, pause)
            return sample

        op(1)  # warm-up: every code path once, at one repetition
        clock = time.perf_counter
        samples, traced_flags, op_summaries = [], [], []
        batches = [hostref.batch_ms(wl.reference, 1)]  # batches[i] runs before operation i
        deadline = clock() + seconds
        i = 0
        while True:
            tr = traced and i % 2 == 1
            if tr:
                rec.op = i
                rec.install()
            t0 = clock()
            try:
                sample = op(wl.reps, None if traced else between)
            finally:
                t1 = clock()
                if tr:
                    rec.remove()
            if tr:
                batch, counts = rec.drain()
                if not op_summaries:
                    kept_spans += batch
                op_summaries.append(spans.summarize_op(batch, counts, t0, t1))
            samples.append(sample)
            traced_flags.append(tr)
            batches.append(hostref.batch_ms(wl.reference, _reference_count(t1 - t0)))
            i += 1
            if clock() >= deadline and (op_summaries or not traced):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

        if wl.interactive:
            last_proof = wk.offline_op(s, w, scheme, wl.reps)[1]
        checks = list(wk.false_cases(wl, s, w, scheme, last_proof, rig))
    finally:
        rig.close()
    chain = wk.chain_probe(seed)

    wrong = sum(not x.accepted for x in samples) + sum(not ok for _, ok, _ in checks)
    problems = [f"false case {n} was not rejected: {o}" for n, ok, o in checks if not ok]
    if wrong > len(problems):
        problems.append(f"{wrong - len(problems)} honest operations were not accepted")
    for field in ("wire_bytes", "frames"):
        if len({getattr(x, field) for x in samples}) > 1:
            problems.append(f"{field} differs between operations")
    if chain["outcome"] == "reject":
        problems.append("chain-1k: a true statement was rejected")

    report = {"workload": name, "interactive": wl.interactive, "env": _environment(seed),
              "operations": len(samples), "checks": checks, "chain": chain,
              "reference_ms": statistics.median([r for b in batches + mids for r in b])}
    if traced:
        metrics, extra, layers = _per_layer(wl, op_summaries, samples, traced_flags, parse_ms)
        metrics["host.reference_ms"] = report["reference_ms"]
        problems += [f"counter {n} differs between operations"
                     for n in spans.inexact_counters(op_summaries)]
        report.update(extra=extra, layers=layers, traced_ops=len(op_summaries))
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{name}-seed{seed}.json", "w") as f:
            json.dump({"workload": name, "env": report["env"],
                       "span_fields": ["id", "parent", "name", "start", "end", "op"],
                       "spans": kept_spans, "layers": layers,
                       "metrics": {**metrics, **extra}}, f)
    else:
        scaled = _scaled(samples, batches, mids)
        metrics = _end_to_end(samples, scaled, inp, peak_rss_mb)
        report["tails"] = {k: wk.tail([x[k] for x in scaled]) for k in TIMINGS}
        report["wall_p50"] = _wall_p50(samples)
    report["problems"] = problems
    result = {"correct": not problems, "attempted": len(samples) + len(checks),
              "failed": wrong, "metrics": metrics}
    if not traced:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"result-{name}-seed{seed}.json", "w") as f:
            json.dump({"result": result, "report": report}, f)
    return result, report


TIMINGS = ("prove_ms", "verify_ms", "op_ms")


def _wall_p50(samples) -> dict:
    """Unscaled medians of the operations' timings."""
    return {k: statistics.median([getattr(x, k) for x in samples]) for k in TIMINGS}


def _reference_count(seconds: float) -> int:
    return max(1, round(seconds / REFERENCE_EVERY_S))


def _scaled(samples, batches, mids) -> list[dict]:
    """Each operation's timings times NOMINAL_MS over the median reference
    time around them.  Offline, prove lies between the batch before the
    operation and the one between prove and verify, and verify between that
    one and the batch after; a session lies between the batches before and
    after.  batches[i] runs before operation i."""
    import hostref

    out = []
    for i, x in enumerate(samples):
        before, after = batches[i], batches[i + 1]
        if mids:
            p = x.prove_ms * hostref.NOMINAL_MS / statistics.median(before + mids[i])
            v = x.verify_ms * hostref.NOMINAL_MS / statistics.median(mids[i] + after)
            out.append({"prove_ms": p, "verify_ms": v, "op_ms": p + v})
        else:
            f = hostref.NOMINAL_MS / statistics.median(before + after)
            out.append({k: getattr(x, k) * f for k in TIMINGS})
    return out


def _end_to_end(samples, scaled, inp, peak_rss_mb: float) -> dict:
    """Medians of the operations' scaled timings."""
    out = {f"{k}.p50": statistics.median([x[k] for x in scaled]) for k in TIMINGS}
    out["wire_bytes"] = samples[0].wire_bytes
    out["setup_s"] = _setup_seconds(inp)
    out["peak_rss_mb"] = peak_rss_mb
    return out


def _per_layer(wl, op_summaries, samples, traced_flags, parse_ms):
    import spans

    summary = spans.combine(op_summaries)
    layers = summary["layers"]
    traced = [x for x, f in zip(samples, traced_flags) if f]
    opened = 2 * wl.reps

    def ms(*names):
        return sum(layers[n]["ms"] for n in names if n in layers)

    def calls(n):
        return layers[n]["calls"] if n in layers else 0.0

    m = {"circuit.parse_ms": statistics.median(parse_ms)}
    for n in ("circuit.mul_gate_ids", "field.random_bytes", "mpc.encode_view",
              "mpc.view_elements", "mpc.valid_view"):
        if n != "circuit.mul_gate_ids":
            m[f"{n}_ms"] = ms(n)
        m[f"{n}.calls"] = calls(n)
        m[f"{n}.per_opened_view"] = calls(n) / opened
    for n in ("sss.share", "mpc.random_gate_randomness", "mpc.run_protocol",
              "mpc.decode_view", "mpc.out_messages", "mpc.local_output",
              "mpc.consistent_views", "commit.keygen", "commit.commit_view",
              "commit.verify_view"):
        m[f"{n}_ms"] = ms(n)
    m["commit.parse_ms"] = ms("commit.parse_commitment", "commit.parse_opening")
    m["protocol.derive_challenge.bytes"] = statistics.median(
        [o.counts[spans.DERIVE_BYTES] for o in op_summaries])
    m["protocol.glue_ms"] = summary["glue_ms"]
    if wl.interactive:  # a session entry span's self time includes waiting for the peer
        m["protocol.glue_ms"] -= statistics.fmean(
            x.prover_wait_ms + x.verifier_wait_ms for x in traced)
    m["session.frames"] = statistics.median([x.frames for x in traced])
    m["session.bytes"] = statistics.median([x.wire_bytes for x in traced]) if wl.interactive else 0
    # Unscaled: alternating operations see the same host.
    untraced = [x for x, f in zip(samples, traced_flags) if not f]
    m["trace.overhead_ms"] = (statistics.median(x.op_ms for x in traced)
                              - statistics.median(x.op_ms for x in untraced))
    m["trace.coverage"] = summary["coverage"]
    m.update({f"{k}.wall_p50": v for k, v in _wall_p50(untraced).items()})

    # Metrics of one mode only; reported, not part of the result line.
    if wl.interactive:
        extra = {"session.prover_wait_ms": statistics.median([x.prover_wait_ms for x in traced]),
                 "session.verifier_wait_ms": statistics.median([x.verifier_wait_ms for x in traced]),
                 "session.prover_compute_ms": statistics.median([x.prove_ms for x in traced]),
                 "session.verifier_compute_ms": statistics.median([x.verify_ms for x in traced])}
    else:
        extra = {"protocol.derive_challenge_ms": ms("protocol.derive_challenge"),
                 "protocol.serialize_proof_ms": ms("protocol.serialize_proof"),
                 "protocol.parse_proof.self_ms": layers.get(
                     "protocol.parse_proof", {}).get("self_ms", 0.0)}
    return m, extra, layers


# ---------------------------------------------------------------------------
# Output


# What the shared end-to-end metrics are called in each mode, printed beside them.
_ALIASES = {False: {"wire_bytes": "proof_bytes"},
            True: {"wire_bytes": "session_bytes", "op_ms.p50": "session_ms.p50"}}
COVERAGE_GOAL = 0.9


def _print_report(report: dict, result: dict, units: dict) -> None:
    import hostref
    import workloads as wk

    env = report["env"]
    print(f"workload {report['workload']}: {report['operations']} operations; "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    aliases = _ALIASES[report["interactive"]]
    for name, value in result["metrics"].items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"  {name:38s} {value:14.4f} {units[name]}{alias}")
    print(f"  host reference {report['reference_ms']:.3f} ms"
          + (f"; the timings above are scaled to {hostref.NOMINAL_MS} ms"
             if "wall_p50" in report else ""))
    for key, value in report.get("wall_p50", {}).items():
        print(f"  {key + '.p50':38s} {value:14.4f} ms  (unscaled wall time)")
    n = report["operations"]
    for key, tail in report.get("tails", {}).items():
        text = (f"{tail[0]:14.4f} ms  (p{tail[1]:.1f} of {n})" if tail
                else f"{'n/a':>14s}     (needs {wk.TAIL_MIN_SAMPLES} operations, ran {n})")
        print(f"  {key + '.tail':38s} {text}")
    for name, value in report.get("extra", {}).items():
        print(f"  {name:38s} {value:14.4f} ms  (this mode only)")
    coverage = result["metrics"].get("trace.coverage")
    if coverage is not None and not report["interactive"]:
        gap = COVERAGE_GOAL - coverage
        print(f"  coverage {coverage:.3f} of operation wall time by top-level layer spans"
              + (f": {gap:.3f} short of {COVERAGE_GOAL}" if gap > 0 else ""))
    if "layers" in report:
        print(f"  span table, per traced operation ({report['traced_ops']} traced):")
        print(f"    {'span':36s} {'ms':>10s} {'self ms':>10s} {'calls':>10s}")
        for name, row in report["layers"].items():
            print(f"    {name:36s} {row['ms']:10.3f} {row['self_ms']:10.3f} "
                  f"{row['calls']:10.1f}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  failed_share {failed}/{attempted} = {failed / attempted:.4f}")
    for name, ok, outcome in report["checks"]:
        print(f"  false case {name}: {'rejected' if ok else 'NOT REJECTED'}: {outcome}")
    chain = report["chain"]
    print(f"  chain-1k probe (1,000 multiplications, sigma=1): {chain['outcome']}"
          + (f" ({chain['error']})" if chain["error"] else ""))
    for p in report["problems"]:
        print(f"  FAILED: {p}")


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh process, then one summary line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = r.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {wl['name']}: no result (exit code {r.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= res["correct"] and r.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{wl['name']}/{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_mith()
    if args.workload == "all":
        return run_all(args, spec)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    import spans

    try:
        result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except spans.MissingTarget as e:
        sys.exit(f"error: {e}")
    if set(result["metrics"]) != set(units):
        sys.exit(f"error: metrics {sorted(set(result['metrics']) ^ set(units))} "
                 "do not match BENCHMARK.json")
    _print_report(report, result, units)
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
