"""Per-layer spans for the traced run, recorded from outside the package.

`Recorder.install()` replaces the public functions and scheme methods of
each mith layer with timing wrappers and `Recorder.remove()` puts the
originals back, so an untraced operation runs the unmodified code.  A
module function is replaced under every name a mith module binds it to
(`mpc` imports `mul_gate_ids` from `circuit`, for instance), so calls
made inside the package are seen too.

A span is (id, parent id, name, start, end, operation id).  Spans are kept
in memory and summed once per operation; the caller keeps the raw spans it
wants to write out when the run ends.  Self time is a span's duration minus
the durations of its children; children of one span run on the span's own
thread, one after another, so their durations never overlap.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

from mith import circuit, commit, field, mpc, protocol, session, sss

# Span names are "<module>.<function>"; both commitment schemes share the
# "commit.<method>" names.
_MODULE_TARGETS = {
    circuit: ("parse_circuit", "parse_statement", "parse_witness", "mul_gate_ids",
              "statement_hash"),
    sss: ("share", "random_share_randomness"),
    mpc: ("random_gate_randomness", "run_protocol", "encode_view", "view_elements",
          "view_element_count", "decode_view", "valid_view", "out_messages",
          "local_output", "consistent_views"),
    protocol: ("derive_challenge", "serialize_proof", "parse_proof",
               "serialize_commitment_msg", "serialize_response_block",
               "prove_repeated", "verify_repeated"),
    session: ("prover_session", "verifier_session"),
}
_METHOD_TARGETS = [(field.RandomSource, "bytes", "field.random_bytes")]
for _scheme in (commit.PrfScheme, commit.PedersenScheme):
    for _method in ("keygen", "commit_view", "verify_view", "parse_commitment",
                    "parse_opening", "serialize_commitment", "serialize_opening"):
        _METHOD_TARGETS.append((_scheme, _method, f"commit.{_method}"))

# Entry points whose self time is protocol glue, not a layer of its own.
ENTRY_SPANS = frozenset({"protocol.prove_repeated", "protocol.verify_repeated",
                         "session.prover_session", "session.verifier_session"})

# RandomSource.randbelow rejects and redraws, so the number of byte draws
# per operation varies; every other call count repeats exactly.
INEXACT_COUNTS = frozenset({"field.random_bytes"})

DERIVE_BYTES = "protocol.derive_challenge.bytes"


class MissingTarget(Exception):
    pass


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, self.op))
                if name == "protocol.derive_challenge":
                    # HMAC message: 4-byte repetition index, then every commitment blob.
                    self.counts[DERIVE_BYTES] += 4 + sum(len(b) for b in args[2])

        return wrapper

    def install(self) -> None:
        """Wrap every target.  A target the installed mith lacks raises
        MissingTarget rather than reading 0, which would look like a gain."""
        missing = [f"{owner.__name__}.{attr}" for owner, attrs in _MODULE_TARGETS.items()
                   for attr in attrs if not callable(getattr(owner, attr, None))]
        missing += [f"{cls.__module__}.{cls.__name__}.{attr}" for cls, attr, _ in _METHOD_TARGETS
                    if not callable(cls.__dict__.get(attr))]
        if missing:
            raise MissingTarget("span targets missing from mith: " + ", ".join(missing)
                                + "; update the target lists in perfbench/spans.py")
        mith_modules = [m for n, m in list(sys.modules.items())
                        if n == "mith" or n.startswith("mith.")]
        for owner, attrs in _MODULE_TARGETS.items():
            for attr in attrs:
                original = getattr(owner, attr)
                self._wrap_everywhere(mith_modules, original,
                                      self._wrap(f"{owner.__name__[5:]}.{attr}", original))
        for cls, attr, name in _METHOD_TARGETS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def _wrap_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules:
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, alias, original))
                    setattr(mod, alias, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def drain(self) -> tuple[list[tuple], Counter]:
        """Spans and counters recorded since the last drain."""
        spans, counts = self.spans[:], self.counts
        del self.spans[:]
        self.counts = Counter()
        return spans, counts


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


@dataclass
class OpSummary:
    """Span totals of one traced operation (seconds)."""

    incl: dict[str, float]
    self_s: dict[str, float]
    counts: Counter
    coverage: float


def summarize_op(spans: list[tuple], counts: Counter, t0: float, t1: float) -> OpSummary:
    """Totals for the spans of one operation that ran from t0 to t1.

    Coverage is the share of the operation's wall time during which some
    top-level layer span (one that is not an entry point, called from an
    entry point or from the benchmark itself) was open on any thread.
    """
    names = {s[0]: s[2] for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    for sid, parent, _, a, b, _ in spans:
        child_s[parent] += b - a
    incl: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    counts = Counter(counts)
    top = []
    for sid, parent, name, a, b, _ in spans:
        incl[name] += b - a
        self_s[name] += b - a - child_s[sid]
        counts[name] += 1
        if name not in ENTRY_SPANS and (parent == 0 or names.get(parent) in ENTRY_SPANS):
            top.append((max(a, t0), min(b, t1)))
    coverage = _union_length([(a, b) for a, b in top if b > a]) / (t1 - t0)
    return OpSummary(dict(incl), dict(self_s), counts, coverage)


def combine(ops: list[OpSummary]) -> dict:
    """Means per operation: {"layers": {span name: {"ms", "self_ms",
    "calls"}}, "glue_ms", "coverage" (median)}."""
    n = len(ops)
    names = sorted(set().union(*(o.incl for o in ops)))
    layers = {name: {"ms": 1e3 * sum(o.incl.get(name, 0.0) for o in ops) / n,
                     "self_ms": 1e3 * sum(o.self_s.get(name, 0.0) for o in ops) / n,
                     "calls": sum(o.counts[name] for o in ops) / n}
              for name in names}
    return {
        "layers": layers,
        "glue_ms": sum(layers[e]["self_ms"] for e in ENTRY_SPANS if e in layers),
        "coverage": statistics.median(o.coverage for o in ops),
    }


def inexact_counters(ops: list[OpSummary]) -> list[str]:
    """Names of the exact counters that differ between operations."""
    names = set().union(*(o.counts for o in ops)) - INEXACT_COUNTS
    return sorted(n for n in names if len({o.counts[n] for o in ops}) > 1)
