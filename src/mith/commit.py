"""Commitment schemes over canonically encoded party views.

Two instantiations, one commitment per view: SHA-256(key || view)
(opening = the 32-byte key) and hash-then-commit Pedersen, g^H(view) *
h^r mod P in a prime-order subgroup of Z_P* with H = SHA-256 over the
view's bytes (opening = the blinder r).  At the view level (`PrfScheme`,
`PedersenScheme`) a commitment and an opening are their bytes: each is
packed once, where it is made (`keygen`, `commit_view`), parsing checks
it and returns the bytes it checked, and `verify_view` recomputes each
commitment from its view and opening and compares bytes; all three take
a batch, every view of a proof in one call.  Pedersen binds under
SHA-256 collision resistance and discrete log, provided q > 2^256 so
that H is never reduced; it hides perfectly.  Only a group's order q
runs Miller-Rabin: P's primality follows from q's by Pocklington's
criterion (`PedersenParams`).  Both bases are fixed for the life of a
group, so they are looked up in 8-bit window tables built on first use
(Brickell-Gordon-McCurley-Wilson): about 2n modular multiplications for
an n-byte group order, in place of two full exponentiations.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from itertools import accumulate, repeat
from typing import Iterable, Sequence

from mith.errors import MithError, ProofError
from mith.field import RandomSource, Record, is_probable_prime

PRF_KEY_LEN = 32
DIGEST_LEN = 32


class PedersenParams(Record):
    """Schnorr-style subgroup: generators g, h of prime order q in Z_P*.
    Only q runs Miller-Rabin when q^2 > P: the order checks prove P prime."""

    group_prime: int
    order: int
    g: int
    h: int

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        P, q, g, h = self.group_prime, self.order, self.g, self.h
        if not is_probable_prime(q):
            raise MithError("Pedersen subgroup order q is not prime")
        if (P - 1) % q != 0:
            raise MithError("Pedersen order q does not divide P-1")
        # Pocklington (Brillhart, Lehmer and Selfridge, 1975): with q prime,
        # q | P-1, q^2 > P and g^q = 1 for 1 < g < P (checked below), P is
        # prime.  A prime factor r of P has r = 1 (mod q) unless g = 1
        # (mod r), g's order mod r dividing q.  Split P = U V, V the factors
        # = 1 (mod q); then U = 1 (mod q) too, so U, V > 1 would make
        # P >= (q+1)^2.  V = 1 would leave g = 1 modulo every prime of P,
        # hence, q being prime to P, g = 1 (mod P).  So P = V, and a
        # composite V is at least (q+1)^2 again.
        if q * q <= P and not is_probable_prime(P):
            raise MithError("Pedersen group prime P is not prime")
        for name, x in (("g", g), ("h", h)):
            if not 1 < x < P:
                raise MithError(f"Pedersen generator {name} out of range")
            if pow(x, q, P) != 1:
                raise MithError(f"Pedersen generator {name} does not have order q")
        if g == h:
            raise MithError("Pedersen generators must be distinct")

    @property
    def element_bytes(self) -> int:
        return (self.group_prime.bit_length() + 7) // 8


def _window_rows(base: int, P: int, n: int) -> tuple[tuple[int, ...], ...]:
    """n rows of 256 entries: row k holds base^(d * 256^k) mod P at d."""
    rows = []
    for _ in range(n):
        row = tuple(accumulate(repeat(base, 255), lambda x, y: x * y % P, initial=1))
        rows.append(row)
        base = row[-1] * base % P
    return tuple(rows)


@functools.lru_cache(maxsize=4)
def _fixed_base_tables(params: PedersenParams):
    """Window tables of g and h, one row per byte of an exponent below q.

    Built on first use, not with the params, and kept for the last few
    parameter sets.  Concurrent first uses may each build them; the
    tables are deterministic, so every caller sees the same values.
    """
    n = (params.order.bit_length() + 7) // 8
    P = params.group_prime
    return _window_rows(params.g, P, n), _window_rows(params.h, P, n), n


def pedersen_commit(params: PedersenParams, blinders: Sequence[int],
                    msg: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Element-wise c_i = g^m_i * h^r_i mod P; opening = blinders."""
    if len(blinders) != len(msg):
        raise MithError(
            f"need one blinder per element: {len(blinders)} vs {len(msg)}")
    P, q = params.group_prime, params.order
    for v in msg:
        if not 0 <= v < q:
            raise MithError(f"committed value {v} not below group order")
    rs = tuple(r % q for r in blinders)
    tg, th, n = _fixed_base_tables(params)
    cs = []
    for v, r in zip(msg, rs):
        # Little-endian bytes of v and r are their base-256 digits.
        acc = 1
        for g_row, h_row, dv, dr in zip(tg, th, v.to_bytes(n, "little"),
                                        r.to_bytes(n, "little")):
            acc = acc * g_row[dv] * h_row[dr] % P
        cs.append(acc)
    return tuple(cs), rs


# Shipped parameter sets.  The 64-bit group is deliberately tiny so tests
# can cross-check `pedersen_commit` against a naive oracle (it is too small
# for `PedersenScheme`); every field commits in the 257-bit group, whose
# q > 2^256.  Neither is hardened for production use.
TEST_GROUP_64 = PedersenParams(
    group_prime=4294967387,
    order=2147483693,
    g=4,
    h=9,
)


# Constructing the 257-bit group runs 64 Miller-Rabin rounds on q (P's
# primality follows from q's), so it is built on first access
# (`commit.BENCH_GROUP_257`), not on import.
@functools.cache
def _bench_group_257() -> PedersenParams:
    return PedersenParams(
        group_prime=95644265710023177419869633617176211886801007333819105896591964390536245082832459,
        order=115792089237316195423570985008687907853269984665640564039457584007913129640233,
        g=31928947829963435951804009826220012569408962358774800608384794276299486007020642,
        h=83411703274934786478899154415020041077440611362202044731496127736458924436078967,
    )


def __getattr__(name: str):
    if name == "BENCH_GROUP_257":
        return _bench_group_257()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# View-level scheme objects used by the proof protocol.  A commitment and
# an opening are the bytes that proof files and frames carry: PRF's are
# the digest and the key, Pedersen's the group element and the blinder,
# each big-endian in the width the scheme fixes (`commitment_length`,
# `opening_length`).  Both schemes commit to the view's
# canonical byte encoding, which is the view itself (`mpc.encode_view`).


class PrfScheme:
    name = "prf"
    scheme_byte = 0x01
    commitment_length = DIGEST_LEN
    opening_length = PRF_KEY_LEN

    def keygen(self, rng: RandomSource, n: int) -> list[bytes]:
        """n keys, slices of one draw."""
        data = rng.bytes(PRF_KEY_LEN * n)
        return [data[k:k + PRF_KEY_LEN] for k in range(0, len(data), PRF_KEY_LEN)]

    def commit_view(self, keys: Sequence[bytes], views: Iterable[bytes]) -> list[bytes]:
        """Each view's commitment under its key, SHA-256(key || view)."""
        # A fixed-length key splits key || view one way only.
        if set(map(len, keys)) - {PRF_KEY_LEN}:
            raise MithError(f"PRF commit key must be {PRF_KEY_LEN} bytes")
        sha256 = hashlib.sha256
        return [sha256(key + view).digest() for key, view in zip(keys, views, strict=True)]

    def verify_view(self, views: Iterable[bytes], commitments: Iterable[bytes],
                    openings: Iterable[bytes]) -> list[bool]:
        """Per view, whether its opening is a key that opens its commitment."""
        sha256, equal = hashlib.sha256, hmac.compare_digest
        return [len(key) == PRF_KEY_LEN and equal(sha256(key + view).digest(), com)
                for view, com, key in zip(views, commitments, openings, strict=True)]

    def serialize_commitment(self, digest: bytes) -> bytes:
        return digest

    def parse_commitment(self, data: bytes) -> bytes:
        if len(data) != self.commitment_length:
            raise ProofError(f"PRF commitment must be {self.commitment_length} bytes")
        return data

    def serialize_opening(self, key: bytes) -> bytes:
        return key

    def parse_opening(self, data: bytes) -> bytes:
        if len(data) != self.opening_length:
            raise ProofError(f"PRF opening must be {self.opening_length} bytes")
        return data

    def parse_fields(self, commitments, openings) -> None:
        """Nothing to check: every byte string of the widths a proof's
        blocks are cut at is a digest or a key."""


class PedersenScheme:
    name = "pedersen"
    scheme_byte = 0x02

    def __init__(self, params: PedersenParams):
        # Binding: two views whose digests agree mod q open one commitment.
        if params.order <= 1 << (8 * DIGEST_LEN):
            raise MithError("Pedersen group order must exceed 2^256 to commit "
                            "to a SHA-256 digest")
        self.params = params
        self.commitment_length = params.element_bytes
        self.opening_length = (params.order.bit_length() + 7) // 8

    def keygen(self, rng: RandomSource, n: int) -> list[bytes]:
        """n blinders, one `randbelows` draw."""
        return list(map(self.serialize_opening, rng.randbelows(self.params.order, n)))

    def commit_view(self, keys: Sequence[bytes], views: Iterable[bytes]) -> list[bytes]:
        return [self.serialize_commitment(self._commit(key, view))
                for key, view in zip(keys, views, strict=True)]

    def verify_view(self, views: Iterable[bytes], commitments: Iterable[bytes],
                    openings: Iterable[bytes]) -> list[bool]:
        """Per view, whether its opening is a blinder that opens its commitment."""
        return [len(key) == self.opening_length and int.from_bytes(key, "big") < self.params.order
                and self._commit(key, view).to_bytes(self.commitment_length, "big") == com
                for view, com, key in zip(views, commitments, openings, strict=True)]

    def _commit(self, key: bytes, view: bytes) -> int:
        r = self._blinder(key)
        h = int.from_bytes(hashlib.sha256(view).digest(), "big")
        return pedersen_commit(self.params, (r,), (h,))[0][0]

    def _blinder(self, data: bytes) -> int:
        """The blinder data packs, in one width and below q: one encoding."""
        if len(data) != self.opening_length:
            raise ProofError(f"Pedersen opening must be {self.opening_length} bytes")
        r = int.from_bytes(data, "big")
        if r >= self.params.order:
            raise ProofError("Pedersen blinder not below the group order")
        return r

    def serialize_commitment(self, element: int) -> bytes:
        return element.to_bytes(self.commitment_length, "big")

    def parse_commitment(self, data: bytes) -> bytes:
        if len(data) != self.commitment_length:
            raise ProofError(f"Pedersen commitment must be {self.commitment_length} bytes")
        if not 0 < int.from_bytes(data, "big") < self.params.group_prime:
            raise ProofError("Pedersen commitment element out of range")
        return data

    def serialize_opening(self, blinder: int) -> bytes:
        return blinder.to_bytes(self.opening_length, "big")

    def parse_opening(self, data: bytes) -> bytes:
        self._blinder(data)
        return data

    def parse_fields(self, commitments, openings) -> None:
        """ProofError unless every commitment is an element in (0, P) and
        every opening a blinder below q."""
        for com in commitments:
            self.parse_commitment(com)
        for opening in openings:
            self.parse_opening(opening)


# Every field commits in the 257-bit group, so modulus_p goes unread.
def scheme_by_name(name: str, modulus_p: int | None = None):
    if name == "prf":
        return PrfScheme()
    if name == "pedersen":
        return PedersenScheme(_bench_group_257())
    raise MithError(f"unknown commitment scheme {name!r}")


def scheme_by_byte(b: int):
    if b == PrfScheme.scheme_byte:
        return PrfScheme()
    if b == PedersenScheme.scheme_byte:
        return PedersenScheme(_bench_group_257())
    raise ProofError(f"unknown commitment scheme byte {b:#x}")
