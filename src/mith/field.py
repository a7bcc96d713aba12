"""Prime-field arithmetic, interpolation and randomness sources.

Field elements are immutable and fully reduced; mixing elements of
different moduli raises FieldError.  Serialization is fixed-width
big-endian with width ceil(bits(p)/8).
"""

from __future__ import annotations

import functools
import hashlib
import secrets

from mith.errors import FieldError

# Small primes for quick trial division before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)

# Below this bound the listed witness set is a deterministic primality proof.
_DETERMINISTIC_BOUND = 3317044064679887385961981
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _miller_rabin_round(n: int, a: int, d: int, r: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@functools.lru_cache(maxsize=64)
def is_probable_prime(n: int, rounds: int = 64) -> bool:
    """Miller-Rabin with error probability below 4^-rounds.

    Verdicts are memoized for the last 64 arguments, so a modulus that a
    process parses again (every p256 circuit, every Pedersen group) runs
    its rounds once."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < _DETERMINISTIC_BOUND:
        bases = _DETERMINISTIC_BASES
    else:
        bases = [2] + [secrets.randbelow(n - 3) + 2 for _ in range(rounds - 1)]
    return all(_miller_rabin_round(n, a, d, r) for a in bases)


class Modulus:
    """A prime modulus p >= 11, primality-checked at construction."""

    __slots__ = ("p", "byte_length", "recon_weights")

    def __init__(self, p: int):
        if p < 11:
            raise FieldError(f"modulus must be at least 11, got {p}")
        if p % 2 == 0 or not is_probable_prime(p):
            raise FieldError(f"modulus {p} is not an odd prime")
        self.p = p
        self.byte_length = (p.bit_length() + 7) // 8
        # Degree-4 recombination weights at 0 for evaluation points 1..5.
        self.recon_weights = lagrange_weights((1, 2, 3, 4, 5), p)

    def element(self, value: int) -> FieldElement:
        return FieldElement(value % self.p, self)

    def zero(self) -> FieldElement:
        return FieldElement(0, self)

    def one(self) -> FieldElement:
        return FieldElement(1, self)

    def from_bytes(self, data: bytes) -> FieldElement:
        if len(data) != self.byte_length:
            raise FieldError(
                f"expected {self.byte_length} bytes, got {len(data)}")
        v = int.from_bytes(data, "big")
        if v >= self.p:
            raise FieldError("encoded value exceeds modulus")
        return FieldElement(v, self)

    def __eq__(self, other):
        return isinstance(other, Modulus) and other.p == self.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return f"Modulus({self.p})"


class FieldElement:
    """Immutable value in [0, p) tied to its modulus."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: Modulus):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, val):
        raise AttributeError("FieldElement is immutable")

    def _check(self, other: FieldElement) -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.modulus.p != self.modulus.p:
            raise FieldError(
                f"modulus mismatch: {self.modulus.p} vs {other.modulus.p}")

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        m = self.modulus
        return FieldElement((self.value + other.value) % m.p, m)

    def __sub__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        m = self.modulus
        return FieldElement((self.value - other.value) % m.p, m)

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        m = self.modulus
        return FieldElement(self.value * other.value % m.p, m)

    def __neg__(self) -> FieldElement:
        return FieldElement((-self.value) % self.modulus.p, self.modulus)

    def inverse(self) -> FieldElement:
        if self.value == 0:
            raise FieldError("zero has no inverse")
        m = self.modulus
        return FieldElement(pow(self.value, -1, m.p), m)

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and other.value == self.value
                and other.modulus.p == self.modulus.p)

    def __hash__(self):
        return hash((self.value, self.modulus.p))

    def __repr__(self):
        return f"FieldElement({self.value} mod {self.modulus.p})"

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(self.modulus.byte_length, "big")


def lagrange_weights(xs, p: int) -> tuple[int, ...]:
    """Lagrange coefficients at 0 for pairwise-distinct nonzero points."""
    ws = []
    for i, xi in enumerate(xs):
        num = den = 1
        for j, xj in enumerate(xs):
            if j != i:
                num = num * xj % p
                den = den * (xj - xi) % p
        ws.append(num * pow(den, -1, p) % p)
    return tuple(ws)


def lagrange_at_zero(points: list[tuple[FieldElement, FieldElement]]) -> FieldElement:
    """P(0) for the unique degree-(n-1) polynomial through n <= 5 points.

    X-coordinates must be pairwise distinct and nonzero.
    """
    if not 1 <= len(points) <= 5:
        raise FieldError(f"need 1..5 points, got {len(points)}")
    m = points[0][0].modulus
    xs = []
    ys = []
    for x, y in points:
        if x.modulus.p != m.p or y.modulus.p != m.p:
            raise FieldError("interpolation points mix moduli")
        if x.value == 0:
            raise FieldError("interpolation point at zero")
        xs.append(x.value)
        ys.append(y.value)
    if len(set(xs)) != len(xs):
        raise FieldError("duplicate interpolation x-coordinate")
    ws = lagrange_weights(xs, m.p)
    return FieldElement(sum(w * y for w, y in zip(ws, ys)) % m.p, m)


# _BYTE_MASKS[k] maps each byte to its low k bits (a bytes.translate table).
_BYTE_MASKS = tuple(bytes(range(1 << k)) * (256 >> k) for k in range(9))


class RandomSource:
    """Uniform byte source.

    Unseeded: OS entropy.  Seeded: a deterministic SHA-256 counter
    stream, so distinct seeds give independent replayable streams.  Both
    refill one buffer in blocks of at least REFILL bytes, so a draw is a
    slice; the seeded stream does not depend on the block size.
    Instances are single-owner; use one per execution strand.  They are
    not fork-safe: a forked child would replay its parent's buffer.
    """

    REFILL = 4096

    def __init__(self, seed: int | bytes | None = None):
        if seed is None:
            self._key = None
        else:
            if isinstance(seed, int):
                seed = seed.to_bytes((seed.bit_length() + 7) // 8 or 1, "big", signed=False)
            self._key = hashlib.sha256(b"mith-rng" + seed).digest()
            self._counter = 0
        self._buf = b""
        self._pos = 0

    def _fresh(self, n: int) -> bytes:
        """At least n new bytes of the stream."""
        if self._key is None:
            return secrets.token_bytes(n)
        blocks = []
        for _ in range(-(-n // 32)):
            blocks.append(hashlib.sha256(
                self._key + self._counter.to_bytes(8, "big")).digest())
            self._counter += 1
        return b"".join(blocks)

    def bytes(self, n: int) -> bytes:
        pos = self._pos
        if pos + n > len(self._buf):
            self._buf = self._buf[pos:] + self._fresh(max(n, self.REFILL))
            pos = 0
        self._pos = pos + n
        return self._buf[pos:pos + n]

    def randbelow(self, bound: int) -> int:
        """Uniform in [0, bound) by rejection on fixed-width draws."""
        return self.randbelows(bound, 1)[0]

    def randbelows(self, bound: int, count: int) -> list[int]:
        """count uniform draws in [0, bound); the same stream, byte for
        byte, as count calls of randbelow."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbytes = (bound.bit_length() + 7) // 8
        mask = (1 << bound.bit_length()) - 1
        out: list[int] = []
        while len(out) < count:
            # One attempt per nbytes chunk, and never more attempts than
            # draws still missing, so no byte past the last draw is used.
            data = self.bytes((count - len(out)) * nbytes)
            if nbytes == 1:
                out += [v for v in data.translate(_BYTE_MASKS[mask.bit_length()]) if v < bound]
            else:
                for k in range(0, len(data), nbytes):
                    v = int.from_bytes(data[k:k + nbytes], "big") & mask
                    if v < bound:
                        out.append(v)
        return out

    def field_element(self, modulus: Modulus) -> FieldElement:
        return FieldElement(self.randbelow(modulus.p), modulus)


# Shipped presets: tiny field for exhaustive tests, the two desk-scale
# benchmark fields, and a 256-bit prime.
FIELD_PRESETS = {
    "p11": 11,
    "p97": 97,
    "p101": 101,
    "p256": 2**256 - 189,
}


def preset_modulus(name: str) -> Modulus:
    try:
        return Modulus(FIELD_PRESETS[name])
    except KeyError:
        raise FieldError(
            f"unknown field preset {name!r} (choose from {sorted(FIELD_PRESETS)})"
        ) from None
