"""Prime-field arithmetic, lane columns, randomness sources and the
immutable `Record` base of the package's data types.

Field elements are immutable and fully reduced; mixing elements of
different moduli raises FieldError.  Serialization is fixed-width
big-endian with width ceil(bits(p)/8).

A lane column holds one field value per lane, and `columns(p)` does the
lane-wise arithmetic of the in-the-head evaluation: over a field below
128 a column is a `bytes` of one value per lane (`ByteColumns`), over a
wider one a list of ints (`IntColumns`).
"""

from __future__ import annotations

import functools
import hashlib
import os
from itertools import chain, repeat
from operator import attrgetter, mul

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
        bases = [2, *[b + 2 for b in RandomSource().randbelows(n - 3, rounds - 1)]]
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


class Record:
    """An immutable record.  A subclass names its fields once, as class
    annotations, and is built from their values by position or keyword;
    records compare and hash by class and field values, and print as
    Class(name=value, ...).  Setting or deleting an attribute raises, but
    `__dict__` stays open, so a record can keep a derived value (a digest,
    a compiled program) beside its fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__dict__.get("__annotations__", ()))
        get = attrgetter(*names)
        # The field values as one tuple, read in C: equality and hashing
        # (a Pedersen group keys its window tables) stay as fast as a tuple's.
        cls._values = property((lambda self: (get(self),)) if len(names) == 1 else get)

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        # Each field exactly once: no extra, repeated, unknown or missing value.
        if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for k in names:  # as attributes, not through __dict__: reads stay fast
            object.__setattr__(self, k, values[k])

    def __setattr__(self, name, val):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values))
        return f"{type(self).__name__}({fields})"


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


def _generator(p: int) -> int:
    """The least generator of F_p^*."""
    n = p - 1
    factors = [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]
    return next(g for g in range(2, p) if all(pow(g, n // q, p) != 1 for q in factors))


def _little(b) -> int:
    return int.from_bytes(b, "little")


class ByteColumns:
    """Lane columns over a field below 128: one byte per lane value.

    A sum is a big-int addition of whole columns in 8-bit lanes (two
    values fit a byte), reduced by `bytes.translate`; scalar
    multiplication is one `translate`; a product adds discrete logs
    (log/exp tables) and masks the lanes where a factor is zero.
    `columns` builds the tables once per modulus."""

    width = 1

    def __init__(self, p: int):
        self.p = p
        self._red = bytes(v % p for v in range(256))     # v mod p
        self._high = bytes(256 * v % p for v in range(256))  # 256 v mod p
        self._nonzero = bytes([0] + [255] * 255)
        self._residues = bytes(range(p))
        self._times: dict[int, bytes] = {}
        g = _generator(p)
        powers = [pow(g, e, p) for e in range(p - 1)]
        log = [0] * 256
        for e, v in enumerate(powers):
            log[v] = e
        self._log = bytes(log)
        self._exp = bytes(powers[e % (p - 1)] for e in range(256))

    def _scale(self, k: int) -> bytes:
        """The translate table of v -> k v mod p."""
        table = self._times.get(k)
        if table is None:
            table = self._times[k] = bytes(k * v % self.p for v in range(256))
        return table

    def const(self, v: int, n: int) -> bytes:
        return bytes((v,)) * n

    from_ints = encode = staticmethod(bytes)

    @staticmethod
    def decode(data) -> bytes:
        return data

    @staticmethod
    def join(cols) -> bytes:
        return b"".join(cols)

    @staticmethod
    def place(buf: bytearray, off: int, stride: int, col) -> None:
        """Write col's values at buf[off], buf[off + stride], ..."""
        buf[off::stride] = col

    @staticmethod
    def column(data, off: int, stride: int) -> bytes:
        return data[off::stride]

    encoded_column = column

    def below_p(self, data) -> bool:
        """Whether every value encoded in data is below p: one pass."""
        return not data.translate(None, self._residues)

    def add(self, x: bytes, y: bytes) -> bytes:
        return (_little(x) + _little(y)).to_bytes(len(x), "little").translate(self._red)

    def smul(self, k: int, y: bytes) -> bytes:
        return y.translate(self._scale(k))

    def mul(self, x: bytes, y: bytes) -> bytes:
        n = len(x)
        nz = self._nonzero
        mask = _little(x.translate(nz)) & _little(y.translate(nz))
        lx, ly = x.translate(self._log), y.translate(self._log)  # their sum fits a byte
        e = _little((_little(lx) + _little(ly)).to_bytes(n, "little").translate(self._exp))
        return (e & mask).to_bytes(n, "little")

    def lincomb(self, weights, cols) -> bytes:
        """sum_k weights[k] cols[k], lane by lane (up to 256 terms): summed
        in 16-bit lanes, each then reduced as lo + 256 hi < 2p."""
        acc, n = 0, len(cols[0])
        term = bytearray(2 * n)  # 16-bit lanes whose high bytes stay 0
        for k, col in zip(weights, cols):
            term[::2] = col if k == 1 else col.translate(self._scale(k))
            acc += _little(term)
        b = acc.to_bytes(2 * n, "little")
        lo, hi = b[::2].translate(self._red), b[1::2].translate(self._high)
        return (_little(lo) + _little(hi)).to_bytes(n, "little").translate(self._red)

    def share(self, d: bytes, a1: bytes, a2: bytes) -> tuple[bytes, ...]:
        """Five party columns: lane k's shares of d[k] on the polynomial
        s(x) = d[k] + a1[k] x + a2[k] x^2, at x = 1..5, by finite
        differences on whole columns in 8-bit lanes: s(0) = d and s(x+1) =
        s(x) + D(x), with D(0) = a1 + a2 and D(x+1) = D(x) + 2 a2.  Each
        sum has lanes below 2p <= 254, so adding 128 - p sets a lane's top
        bit exactly where p is to be subtracted."""
        n, p = len(d), self.p
        ones = _little(b"\x01" * n)
        high = (128 - p) * ones

        def red(s: int) -> int:
            return s - ((s + high) >> 7 & ones) * p

        a2 = _little(a2)
        step = red(a2 + a2)
        delta = red(_little(a1) + a2)
        s = red(_little(d) + delta)
        out = [s.to_bytes(n, "little")]
        for _ in range(4):
            delta = red(delta + step)
            s = red(s + delta)
            out.append(s.to_bytes(n, "little"))
        return tuple(out)


class IntColumns:
    """Lane columns over a wide field: lists of ints."""

    def __init__(self, p: int):
        self.p = p
        self.width = (p.bit_length() + 7) // 8
        self._p_bytes = p.to_bytes(self.width, "big")

    def const(self, v: int, n: int) -> list[int]:
        return [v] * n

    from_ints = staticmethod(list)

    def encode(self, vals) -> bytes:
        w = self.width
        return b"".join([v.to_bytes(w, "big") for v in vals])

    def decode(self, data) -> list[int]:
        w = self.width
        return list(map(int.from_bytes, [data[k:k + w] for k in range(0, len(data), w)],
                        repeat("big")))

    @staticmethod
    def join(cols) -> list[int]:
        return list(chain.from_iterable(cols))

    def place(self, buf: bytearray, off: int, stride: int, col) -> None:
        """Write col's values, width bytes each, at buf[off], buf[off +
        stride], ..."""
        data, w = self.encode(col), self.width
        for t in range(w):
            buf[off + t::stride] = data[t::w]

    def encoded_column(self, data, off: int, stride: int) -> bytearray:
        """The values at data[off], data[off + stride], ..., still
        encoded: width bytes each."""
        w = self.width
        b = bytearray(len(data) // stride * w)
        for t in range(w):
            b[t::w] = data[off + t::stride]
        return b

    def column(self, data, off: int, stride: int) -> list[int]:
        return self.decode(self.encoded_column(data, off, stride))

    def below_p(self, data) -> bool:
        """Big-endian encodings of one width compare as their values."""
        w = self.width
        return max([data[k:k + w] for k in range(0, len(data), w)], default=b"") < self._p_bytes

    def add(self, x, y) -> list[int]:
        p = self.p
        return [(u + v) % p for u, v in zip(x, y)]

    def smul(self, k: int, y) -> list[int]:
        p = self.p
        return [k * v % p for v in y]

    def mul(self, x, y) -> list[int]:
        p = self.p
        return [u * v % p for u, v in zip(x, y)]

    def lincomb(self, weights, cols) -> list[int]:
        p = self.p
        return [sum(map(mul, weights, t)) % p for t in zip(*cols)]

    def share(self, d, a1, a2) -> tuple[list[int], ...]:
        p = self.p
        return tuple([(s + x * u + x * x * v) % p for s, u, v in zip(d, a1, a2)]
                     for x in range(1, 6))


@functools.lru_cache(maxsize=16)
def columns(p: int):
    """The lane-column arithmetic of F_p, built on first use per modulus."""
    return ByteColumns(p) if p < 128 else IntColumns(p)


@functools.lru_cache(maxsize=64)
def _byte_sampler(bound: int) -> tuple[bytes, bytes]:
    """randbelows' translate arguments for a bound below 256: the table
    keeping each byte's low bits(bound) bits, and the bytes it maps to
    bound or above (the rejected draws)."""
    mask = (1 << bound.bit_length()) - 1
    return (bytes(v & mask for v in range(256)),
            bytes(v for v in range(256) if v & mask >= bound))


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
            return os.urandom(n)
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

    def randbelows(self, bound: int, count: int) -> bytes | list[int]:
        """count uniform draws in [0, bound): bytes for a bound below 256,
        else a list.  The same stream, byte for byte, as count calls of
        randbelow.  Each attempt takes one chunk of the stream, and no
        more attempts are made than draws are missing, so no byte past
        the last draw is used."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound < 256:
            # One translate masks every attempt and drops the rejected ones.
            table, rejected = _byte_sampler(bound)
            out = b""
            while len(out) < count:
                out += self.bytes(count - len(out)).translate(table, rejected)
            return out
        nbytes = (bound.bit_length() + 7) // 8
        mask = (1 << bound.bit_length()) - 1
        vals: list[int] = []
        while len(vals) < count:
            data = self.bytes((count - len(vals)) * nbytes)
            for k in range(0, len(data), nbytes):
                v = int.from_bytes(data[k:k + nbytes], "big") & mask
                if v < bound:
                    vals.append(v)
        return vals

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
