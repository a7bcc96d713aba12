"""Host speed references: fixed pieces of pure-Python work that do not
touch mith, timed to follow the speed the shared host gives this process.

They run in the measuring process, on the thread that runs the operations,
with the garbage collector paused, so that the live heap mith leaves behind
cannot move them.
"""

from __future__ import annotations

import gc
import hashlib
import hmac
import time

# Times are scaled to a host that runs a reference in NOMINAL_MS.
NOMINAL_MS = 7.0


class _Element:
    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value
        self.p = p


def small_int_s() -> float:
    """Small objects, tuples of small-integer residues, bytes and one HMAC
    per round: the kinds of work a proof over a small field does."""
    t0 = time.perf_counter()
    p = 101
    acc = 0
    for r in range(24):
        rows = []
        for i in range(120):
            a = _Element((i * 37 + r) % p, p)
            b = _Element((i * 11 + 3) % p, p)
            rows.append(tuple((a.value * k + b.value) % a.p for k in range(1, 6)))
        blob = b"".join(bytes(row) for row in rows)
        acc ^= hmac.new(b"\x01" * 32, blob, hashlib.sha256).digest()[0]
        acc += sum(row[0] for row in dict(enumerate(rows)).values())
    return time.perf_counter() - t0


_BIG_MODULUS = 2**257 - 93


def bigint_s() -> float:
    """A fixed chain of 257-bit modular exponentiations, the work that
    dominates Pedersen commitments."""
    t0 = time.perf_counter()
    x = 0x5DEECE66D
    for _ in range(45):
        x = pow(3, x | (1 << 255), _BIG_MODULUS)
    return time.perf_counter() - t0


_BLOCK = bytes(range(256)) * 256  # 64 KiB, small enough not to show in peak RSS


def small_int_hash_s() -> float:
    """small_int_s plus SHA-256 over 1.5 MiB, about a fifth of the total,
    for proofs whose challenge derivation hashes hundreds of megabytes."""
    t0 = time.perf_counter()
    h = hashlib.sha256()
    for _ in range(24):
        h.update(_BLOCK)
    h.digest()
    return time.perf_counter() - t0 + small_int_s()


REFERENCES = {"small-int": small_int_s, "small-int-hash": small_int_hash_s, "bigint": bigint_s}


def batch_ms(name: str, n: int) -> list[float]:
    """n timings of reference `name`, in milliseconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [1e3 * REFERENCES[name]() for _ in range(n)]
    finally:
        if enabled:
            gc.enable()
