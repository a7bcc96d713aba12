"""Shamir secret sharing for 5 parties with threshold 2.

Party i's share is the degree-2 polynomial s + a1*x + a2*x^2 evaluated
at x = i, for i in 1..5.  Reconstruction always interpolates all five
points with degree-4 weights, so it is total on F^5 and also recovers
the secret of the degree-4 product sharings that appear inside the
multiplication subprotocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from mith.errors import FieldError
from mith.field import FieldElement, Modulus, RandomSource

N_PARTIES = 5
THRESHOLD = 2
PARTY_IDS = (1, 2, 3, 4, 5)

# All 10 unordered challenge pairs in lexicographic order.
PARTY_PAIRS = tuple(
    (i, j) for i in PARTY_IDS for j in PARTY_IDS if i < j
)


@dataclass(frozen=True)
class ShareRandomness:
    """Degree-1 and degree-2 coefficients of one sharing polynomial."""

    a1: FieldElement
    a2: FieldElement


@dataclass(frozen=True)
class Sharing:
    """One share per party, in party order 1..5."""

    shares: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.shares) != N_PARTIES:
            raise FieldError(f"sharing needs {N_PARTIES} shares, got {len(self.shares)}")

    def __getitem__(self, pid: int) -> FieldElement:
        return self.shares[pid - 1]

    @property
    def modulus(self) -> Modulus:
        return self.shares[0].modulus

    def values(self) -> tuple[int, ...]:
        return tuple(s.value for s in self.shares)


def share5(s: int, a1: int, a2: int, p: int) -> tuple[int, ...]:
    """Evaluate s + a1*x + a2*x^2 mod p at x = 1..5."""
    return ((s + a1 + a2) % p, (s + 2 * a1 + 4 * a2) % p, (s + 3 * a1 + 9 * a2) % p,
            (s + 4 * a1 + 16 * a2) % p, (s + 5 * a1 + 25 * a2) % p)


def dot5(w, y, p: int) -> int:
    return (w[0] * y[0] + w[1] * y[1] + w[2] * y[2] + w[3] * y[3] + w[4] * y[4]) % p


def random_share_randomness(rng: RandomSource, m: Modulus) -> ShareRandomness:
    return ShareRandomness(rng.field_element(m), rng.field_element(m))


def share(s: FieldElement, r: ShareRandomness) -> Sharing:
    m = s.modulus
    vals = share5(s.value, r.a1.value, r.a2.value, m.p)
    return Sharing(tuple(FieldElement(v, m) for v in vals))


def reconstruct(sh: Sharing) -> FieldElement:
    m = sh.modulus
    v = dot5(m.recon_weights, sh.values(), m.p)
    return FieldElement(v, m)


def share_sim(rng: RandomSource, corrupt: tuple[int, int], m: Modulus) -> tuple[FieldElement, FieldElement]:
    """Simulated pair of shares for two corrupt parties.

    For any secret, the joint share distribution of any two parties is
    uniform on F^2, so two independent uniform draws are a perfect
    simulation.
    """
    i, j = corrupt
    if i == j:
        raise FieldError("corrupt parties must be distinct")
    return rng.field_element(m), rng.field_element(m)
