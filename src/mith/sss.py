"""Shamir secret sharing for 5 parties with threshold 2.

Party i's share is the degree-2 polynomial s + a1*x + a2*x^2 evaluated
at x = i, for i in 1..5.  Reconstruction always interpolates all five
points with degree-4 weights, so it is total on F^5 and also recovers
the secret of the degree-4 product sharings that appear inside the
multiplication subprotocol.

The prover shares in lane form: one lane per repetition, and a sharing
as five party columns with one share per lane.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

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


def share_lanes(secrets: Iterable[int], a1s: Iterable[int], a2s: Iterable[int],
                p: int) -> tuple[list[int], ...]:
    """share5 lane by lane: five party columns, whose lane k holds the
    shares of secrets[k] on the polynomial with coefficients a1s[k], a2s[k]."""
    lanes = list(zip(secrets, a1s, a2s))
    return tuple([(s + x * a1 + xx * a2) % p for s, a1, a2 in lanes]
                 for x, xx in ((1, 1), (2, 4), (3, 9), (4, 16), (5, 25)))


def random_share_randomness(rng: RandomSource, p: int, n: int) -> list[int]:
    """(a1, a2) of n sharing polynomials over F_p, flat, in wire order."""
    return rng.randbelows(p, 2 * n)


def share(s: int, a1s: Sequence[int], a2s: Sequence[int], p: int) -> tuple[list[int], ...]:
    """Share s once per lane: five party columns, lane k on the polynomial
    s + a1s[k]*x + a2s[k]*x^2."""
    return share_lanes(repeat(s), a1s, a2s, p)


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
