"""Shamir sharing: correctness, interpolation degrees, exact 2-privacy."""

import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from mith.errors import FieldError
from mith.field import FieldElement, Modulus, RandomSource
from mith.sss import (
    N_PARTIES, PARTY_IDS, PARTY_PAIRS, random_share_randomness, share, share_sim,
)

from test_field import chi2_uniform, lagrange_at_zero


@dataclass(frozen=True)
class Sharing:
    """One share per party, in party order 1..5."""

    shares: tuple

    def __post_init__(self):
        if len(self.shares) != N_PARTIES:
            raise FieldError(f"sharing needs {N_PARTIES} shares, got {len(self.shares)}")

    def __getitem__(self, pid: int) -> FieldElement:
        return self.shares[pid - 1]

    @property
    def modulus(self) -> Modulus:
        return self.shares[0].modulus

    def values(self) -> tuple:
        return tuple(s.value for s in self.shares)


def reconstruct(sh: Sharing) -> FieldElement:
    """The secret, interpolated from all five shares with degree-4 weights."""
    m = sh.modulus
    return FieldElement(sum(w * y for w, y in zip(m.recon_weights, sh.values())) % m.p, m)


def poly_oracle(coeffs, x, p):
    return sum(c * x**k for k, c in enumerate(coeffs)) % p


def share1(m, s, a1, a2):
    """The Sharing of s on s + a1*x + a2*x^2: one lane of share."""
    s = s.value if not isinstance(s, int) else s
    return Sharing(tuple(m.element(col[0]) for col in share(s, (a1,), (a2,), m.p)))


def test_share_spec_example(m11):
    sharing = share1(m11, 5, 2, 3)
    assert sharing.values() == (10, 10, 5, 6, 2)
    assert {pid: sharing[pid].value for pid in PARTY_IDS} == {
        1: 10, 2: 10, 3: 5, 4: 6, 5: 2}


def test_share_lanes_are_independent_sharings(m11):
    """Lane k of share's party columns is the sharing on lane k's
    coefficients, whatever the other lanes hold."""
    cols = share(5, (2, 0, 10), (3, 0, 10), 11)
    assert [list(col) for col in cols] == [[10, 5, 3], [10, 5, 10], [5, 5, 4], [6, 5, 7],
                                           [2, 5, 8]]
    for k in range(3):
        assert tuple(col[k] for col in cols) == share1(
            m11, 5, (2, 0, 10)[k], (3, 0, 10)[k]).values()


def test_share_zero_randomness_is_constant(m11):
    for s in range(11):
        sharing = share1(m11, s, 0, 0)
        assert sharing.values() == (s,) * 5


def test_reconstruct_spec_example(m11):
    sharing = Sharing(tuple(m11.element(v) for v in (10, 10, 5, 6, 2)))
    assert reconstruct(sharing).value == 5


def test_share_reconstruct_round_trip(m97, rng):
    for _ in range(1000):
        s = rng.field_element(m97)
        sharing = share1(m97, s, *random_share_randomness(rng, 97, 1))
        assert reconstruct(sharing) == s


def test_reconstruct_degree_four_polynomials(m11, rnd):
    """Degree-4 sharings (the shape of product shares) reconstruct too."""
    for _ in range(200):
        coeffs = [rnd.randrange(11) for _ in range(5)]
        sharing = Sharing(tuple(
            m11.element(poly_oracle(coeffs, x, 11)) for x in PARTY_IDS))
        assert reconstruct(sharing).value == coeffs[0]


def test_reconstruct_total_on_arbitrary_tuples(m11, rnd):
    """Any 5-tuple is a valid input (degree-4 interpolation is total)."""
    for _ in range(50):
        vals = tuple(rnd.randrange(11) for _ in range(5))
        sharing = Sharing(tuple(m11.element(v) for v in vals))
        reconstruct(sharing)  # never raises


def test_any_three_shares_agree_with_all_five(m11, rnd):
    for _ in range(100):
        s = m11.element(rnd.randrange(11))
        sharing = share1(m11, s, rnd.randrange(11), rnd.randrange(11))
        for combo in itertools.combinations(PARTY_IDS, 3):
            pts = [(m11.element(i), sharing[i]) for i in combo]
            assert lagrange_at_zero(pts) == s


def test_public_encoding(m11):
    """A public value enters the protocol as the constant sharing (v,)*5:
    every party holds v, and it reconstructs to v."""
    enc = Sharing((m11.element(7),) * 5)
    assert enc == share1(m11, 7, 0, 0)
    assert reconstruct(enc).value == 7


def test_sharing_needs_five_entries(m11):
    with pytest.raises(FieldError):
        Sharing((m11.one(),) * 4)


@settings(max_examples=100, deadline=None)
@given(s=st.integers(0, 96), a1=st.integers(0, 96), a2=st.integers(0, 96))
def test_share_reconstruct_property(s, a1, a2):
    m = Modulus(97)
    assert reconstruct(share1(m, s, a1, a2)).value == s


# ---------------------------------------------------------------------------
# Exact 2-privacy


def exhaustive_pair_distribution(m, secret, pair):
    """Multiset of corrupt-pair shares over the full randomness space."""
    i, j = pair
    out = []
    for a1 in range(m.p):
        for a2 in range(m.p):
            sh = share1(m, secret, a1, a2)
            out.append((sh[i].value, sh[j].value))
    return sorted(out)


def test_two_privacy_exact_enumeration(m11):
    """All 121 (a1,a2) draws hit every share pair exactly once, for every
    corrupt pair and independently of the secret."""
    full = sorted((a, b) for a in range(11) for b in range(11))
    for pair in PARTY_PAIRS:
        d3 = exhaustive_pair_distribution(m11, 3, pair)
        d8 = exhaustive_pair_distribution(m11, 8, pair)
        assert d3 == d8 == full


def test_share_sim_matches_real_distribution(m11):
    """share_sim is uniform on F^2; the real pair distribution is too."""
    rng = RandomSource(12)
    counts = {}
    n = 12_100
    for _ in range(n):
        a, b = share_sim(rng, (2, 5), m11)
        counts[(a.value, b.value)] = counts.get((a.value, b.value), 0) + 1
    # With n = 100 * 121 every cell should be populated.
    assert len(counts) == 121
    _, pval = chi2_uniform([counts.get((a, b), 0)
                            for a in range(11) for b in range(11)])
    assert pval >= 0.001


def test_share_sim_deterministic_under_seed(m11):
    a = share_sim(RandomSource(4), (1, 3), m11)
    b = share_sim(RandomSource(4), (1, 3), m11)
    assert a == b


@pytest.mark.parametrize("pair", [(2, 2), (0, 7)], ids=["equal", "out-of-range"])
def test_share_sim_rejects_duplicate_parties(m11, pair):
    with pytest.raises(FieldError):
        share_sim(RandomSource(1), pair, m11)
