"""Shamir secret sharing for 5 parties with threshold 2.

Party i's share is the degree-2 polynomial s + a1*x + a2*x^2 evaluated
at x = i, for i in 1..5.  Reconstruction always interpolates all five
points with degree-4 weights, so it is total on F^5 and also recovers
the secret of the degree-4 product sharings that appear inside the
multiplication subprotocol.

The prover shares in lane form: one lane per repetition, and a sharing
as five party columns (`field.columns`) with one share per lane.
"""

from __future__ import annotations

from typing import Sequence

from mith.errors import FieldError
from mith.field import FieldElement, Modulus, RandomSource, columns

N_PARTIES = 5
THRESHOLD = 2
PARTY_IDS = (1, 2, 3, 4, 5)

# All 10 unordered challenge pairs in lexicographic order.
PARTY_PAIRS = tuple(
    (i, j) for i in PARTY_IDS for j in PARTY_IDS if i < j
)


def random_share_randomness(rng: RandomSource, p: int, n: int):
    """(a1, a2) of n sharing polynomials over F_p, flat, in wire order
    (`RandomSource.randbelows`)."""
    return rng.randbelows(p, 2 * n)


def share(s: int, a1s: Sequence[int], a2s: Sequence[int], p: int) -> tuple:
    """Share s once per lane: five party columns (`field.columns`), lane
    k on the polynomial s + a1s[k]*x + a2s[k]*x^2."""
    cols = columns(p)
    return cols.share(cols.const(s, len(a1s)), cols.from_ints(a1s), cols.from_ints(a2s))


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
