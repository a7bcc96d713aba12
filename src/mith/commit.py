"""Commitment schemes over canonically encoded party views.

Two instantiations: an HMAC-SHA256 commitment (one digest per view,
opening = the 32-byte key) and an element-wise Pedersen commitment in a
prime-order subgroup of Z_P* (one group element per view field element,
opening = the blinder vector).  At the view level (`PrfScheme`,
`PedersenScheme`) a commitment and an opening are their bytes: each is
packed once, where it is made (`keygen`, `commit_view`), parsing checks
it and returns the bytes it checked, and `verify_view` recomputes the
commitment from the view and the opening and compares bytes.  The
asymmetry is deliberate: the PRF scheme hashes the whole encoded view at
once, Pedersen pays a pair of fixed-base exponentiations per element.
Both bases are fixed for the life of a group, so they are looked up in
8-bit window tables built on first use (Brickell-Gordon-McCurley-Wilson):
about 2n modular multiplications per element for an n-byte group order,
in place of two full exponentiations.
"""

from __future__ import annotations

import functools
import hmac
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Sequence

from mith import mpc
from mith.errors import MithError
from mith.field import RandomSource, is_probable_prime

PRF_KEY_LEN = 32
DIGEST_LEN = 32


def prf_commit(key: bytes, message: bytes) -> tuple[bytes, bytes]:
    """Commitment = HMAC-SHA256(key, message); opening = key."""
    if len(key) != PRF_KEY_LEN:
        raise MithError(f"PRF commit key must be {PRF_KEY_LEN} bytes")
    return hmac.digest(key, message, "sha256"), key


def prf_verify(message: bytes, commitment: bytes, opening: bytes) -> bool:
    if len(opening) != PRF_KEY_LEN or len(commitment) != DIGEST_LEN:
        return False
    return hmac.compare_digest(hmac.digest(opening, message, "sha256"), commitment)


@dataclass(frozen=True)
class PedersenParams:
    """Schnorr-style subgroup: generators g, h of prime order q in Z_P*."""

    group_prime: int
    order: int
    g: int
    h: int

    def __post_init__(self):
        P, q, g, h = self.group_prime, self.order, self.g, self.h
        if not is_probable_prime(P):
            raise MithError("Pedersen group prime P is not prime")
        if not is_probable_prime(q):
            raise MithError("Pedersen subgroup order q is not prime")
        if (P - 1) % q != 0:
            raise MithError("Pedersen order q does not divide P-1")
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

    @classmethod
    def from_text(cls, text: str) -> "PedersenParams":
        vals = [int(v) for v in text.split()]
        if len(vals) != 4:
            raise MithError("Pedersen params file needs 4 decimals: P q g h")
        return cls(*vals)

    def to_text(self) -> str:
        return f"{self.group_prime}\n{self.order}\n{self.g}\n{self.h}\n"


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
# can cross-check exponentiation against a naive oracle; the 257-bit group
# has q > 2^256 so any shipped field preset fits.  Neither is hardened for
# production use.
TEST_GROUP_64 = PedersenParams(
    group_prime=4294967387,
    order=2147483693,
    g=4,
    h=9,
)


# Constructing the 257-bit group runs 64 Miller-Rabin rounds on P and on
# q, so it is built on first access (`commit.BENCH_GROUP_257`), not on
# import.
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


def group_for_modulus(p: int) -> PedersenParams:
    """Smallest shipped group whose order fits the committed field."""
    if p <= TEST_GROUP_64.order:
        return TEST_GROUP_64
    group = _bench_group_257()
    if p <= group.order:
        return group
    raise MithError(
        f"no shipped Pedersen group fits modulus of {p.bit_length()} bits; "
        "load custom params")


# ---------------------------------------------------------------------------
# View-level scheme objects used by the proof protocol.  A commitment and
# an opening are the bytes that proof files and frames carry: PRF's are
# the digest and the key, Pedersen's the packed group elements and the
# packed blinders, which are its key.  The PRF scheme commits to the
# view's canonical byte encoding, which is the view itself (`mpc.View`);
# Pedersen commits to its field-element sequence.


class PrfScheme:
    name = "prf"
    scheme_byte = 0x01

    def keygen(self, rng: RandomSource, n_elements: int) -> bytes:
        return self.serialize_opening(rng.bytes(PRF_KEY_LEN))

    def commit_view(self, key: bytes, view: mpc.View) -> bytes:
        return self.serialize_commitment(prf_commit(key, view)[0])

    def verify_view(self, view: mpc.View, commitment: bytes, opening: bytes) -> bool:
        return prf_verify(view, commitment, opening)

    def serialize_commitment(self, digest: bytes) -> bytes:
        return digest

    def parse_commitment(self, data: bytes) -> bytes:
        if len(data) != DIGEST_LEN:
            raise MithError("PRF commitment must be 32 bytes")
        return data

    def serialize_opening(self, key: bytes) -> bytes:
        return key

    def parse_opening(self, data: bytes) -> bytes:
        if len(data) != PRF_KEY_LEN:
            raise MithError("PRF opening must be 32 bytes")
        return data


class PedersenScheme:
    name = "pedersen"
    scheme_byte = 0x02

    def __init__(self, params: PedersenParams):
        self.params = params
        self._blinder_bytes = (params.order.bit_length() + 7) // 8

    def keygen(self, rng: RandomSource, n_elements: int) -> bytes:
        return self.serialize_opening(rng.randbelows(self.params.order, n_elements))

    def commit_view(self, key: bytes, view: mpc.View) -> bytes:
        return self.serialize_commitment(self._commit(key, view))

    def verify_view(self, view: mpc.View, commitment: bytes, opening: bytes) -> bool:
        try:
            return _pack_ints(self._commit(opening, view), self.params.element_bytes) == commitment
        except MithError:
            return False

    def _commit(self, key: bytes, view: mpc.View) -> tuple[int, ...]:
        blinders = _unpack_ints(key, self._blinder_bytes, "opening")
        return pedersen_commit(self.params, blinders, mpc.view_elements(view))[0]

    def serialize_commitment(self, elements: Sequence[int]) -> bytes:
        return _pack_ints(elements, self.params.element_bytes)

    def parse_commitment(self, data: bytes) -> bytes:
        vals = _unpack_ints(data, self.params.element_bytes, "commitment")
        if any(not 0 < v < self.params.group_prime for v in vals):
            raise MithError("Pedersen commitment element out of range")
        return data

    def serialize_opening(self, blinders: Sequence[int]) -> bytes:
        return _pack_ints(blinders, self._blinder_bytes)

    def parse_opening(self, data: bytes) -> bytes:
        """Blinders below the group order only, so an opening has exactly
        one encoding."""
        vals = _unpack_ints(data, self._blinder_bytes, "opening")
        if any(v >= self.params.order for v in vals):
            raise MithError("Pedersen blinder not below the group order")
        return data


def _pack_ints(vals, width: int) -> bytes:
    """The Pedersen codec: a 4-byte count, then width-byte big-endian ints."""
    return len(vals).to_bytes(4, "big") + b"".join(v.to_bytes(width, "big") for v in vals)


def _unpack_ints(data: bytes, width: int, what: str) -> tuple[int, ...]:
    if len(data) < 4:
        raise MithError(f"truncated Pedersen {what}")
    if len(data) != 4 + int.from_bytes(data[:4], "big") * width:
        raise MithError(f"Pedersen {what} length mismatch")
    return tuple(int.from_bytes(data[k:k + width], "big") for k in range(4, len(data), width))


def scheme_by_name(name: str, modulus_p: int | None = None):
    if name == "prf":
        return PrfScheme()
    if name == "pedersen":
        return PedersenScheme(group_for_modulus(modulus_p))
    raise MithError(f"unknown commitment scheme {name!r}")


def scheme_by_byte(b: int, modulus_p: int | None = None):
    if b == PrfScheme.scheme_byte:
        return PrfScheme()
    if b == PedersenScheme.scheme_byte:
        return PedersenScheme(group_for_modulus(modulus_p))
    raise MithError(f"unknown commitment scheme byte {b:#x}")
