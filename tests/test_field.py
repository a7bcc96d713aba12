"""Field arithmetic against independent integer oracles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from mith.errors import FieldError
from mith.field import (
    FIELD_PRESETS, FieldElement, Modulus, RandomSource, is_probable_prime,
    lagrange_weights, preset_modulus,
)
from mith.stats import chi2_sf


def chi2_uniform(counts):
    """Goodness-of-fit statistic and p-value against the uniform law."""
    n = sum(counts)
    k = len(counts)
    if n == 0 or k < 2:
        raise ValueError("need at least two cells and one observation")
    expected = n / k
    stat = sum((c - expected) ** 2 / expected for c in counts)
    return stat, chi2_sf(stat, k - 1)


def lagrange_at_zero(points):
    """P(0) for the unique degree-(n-1) polynomial through n <= 5 points
    (FieldElement pairs); x-coordinates pairwise distinct and nonzero."""
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


def egcd_inverse(a: int, p: int) -> int:
    """Extended-Euclid oracle, independent of pow(a, -1, p)."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % p


def poly_eval_oracle(coeffs, x, p):
    return sum(c * x**k for k, c in enumerate(coeffs)) % p


def test_preset_primes_load():
    for name in FIELD_PRESETS:
        m = preset_modulus(name)
        assert m.p == FIELD_PRESETS[name]


def test_modulus_rejects_composite_and_small():
    with pytest.raises(FieldError):
        Modulus(15)
    with pytest.raises(FieldError):
        Modulus(7)  # prime but below the 11 floor
    with pytest.raises(FieldError):
        Modulus(2**255)


def test_is_probable_prime_known_values():
    assert is_probable_prime(2**256 - 189)
    assert not is_probable_prime(2**256 - 190)
    assert not is_probable_prime(561)  # Carmichael



def test_primality_verdict_memoized(monkeypatch):
    """A second Modulus(p256) in one process reruns no Miller-Rabin round."""
    from mith import field
    rounds = []
    real = field._miller_rabin_round
    monkeypatch.setattr(field, "_miller_rabin_round",
                        lambda *args: rounds.append(args) or real(*args))
    field.is_probable_prime.cache_clear()
    Modulus(2**256 - 189)
    assert len(rounds) == 64
    rounds.clear()
    Modulus(2**256 - 189)
    assert rounds == []
    assert not is_probable_prime(2**256 - 190)

def test_add_examples(m11):
    assert (m11.element(3) + m11.element(10)).value == 2
    assert (m11.element(7) * m11.element(8)).value == 1


def test_add_identity(m11):
    for x in range(11):
        assert (m11.element(x) + m11.zero()).value == x


def test_modulus_mismatch_rejected(m11, m97):
    with pytest.raises(FieldError):
        m11.element(1) + m97.element(1)
    with pytest.raises(FieldError):
        m11.element(2) * m97.element(2)


def test_inverse_examples(m11):
    assert m11.one().inverse() == m11.one()
    assert m11.element(3).inverse().value == 4
    assert m11.element(7).inverse().value == 8


def test_inverse_of_zero_rejected(m11):
    with pytest.raises(FieldError):
        m11.zero().inverse()


@pytest.mark.parametrize("p", [11, 97, 101])
def test_inverse_matches_egcd_oracle(p):
    m = Modulus(p)
    for a in range(1, p):
        assert m.element(a).inverse().value == egcd_inverse(a, p)


def test_inverse_large_field():
    m = preset_modulus("p256")
    rnd = random.Random(5)
    for _ in range(50):
        a = rnd.randrange(1, m.p)
        inv = m.element(a).inverse()
        assert (m.element(a) * inv) == m.one()
        assert inv.value == egcd_inverse(a, m.p)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 96), b=st.integers(0, 96), c=st.integers(0, 96))
def test_field_algebra_laws(a, b, c):
    m = Modulus(97)
    fa, fb, fc = m.element(a), m.element(b), m.element(c)
    assert fa + fb == fb + fa
    assert fa * fb == fb * fa
    assert (fa + fb) + fc == fa + (fb + fc)
    assert fa * (fb + fc) == fa * fb + fa * fc
    assert fa - fa == m.zero()
    if a % 97:
        assert fa * fa.inverse() == m.one()


def test_lagrange_spec_example(m11):
    pts = [(m11.element(1), m11.element(10)),
           (m11.element(2), m11.element(10)),
           (m11.element(3), m11.element(5))]
    assert lagrange_at_zero(pts).value == 5


def test_lagrange_constant_polynomial(m11):
    for c in (0, 4, 10):
        pts = [(m11.element(x), m11.element(c)) for x in (1, 2, 3)]
        assert lagrange_at_zero(pts).value == c


@pytest.mark.parametrize("p", [11, 101])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_lagrange_recovers_constant_term(p, degree):
    """Fuzz against the direct polynomial-evaluation oracle."""
    m = Modulus(p)
    rnd = random.Random(degree * 1000 + p)
    for _ in range(60):
        coeffs = [rnd.randrange(p) for _ in range(degree + 1)]
        xs = rnd.sample(range(1, min(p, 9)), degree + 1)
        pts = [(m.element(x), m.element(poly_eval_oracle(coeffs, x, p)))
               for x in xs]
        assert lagrange_at_zero(pts).value == coeffs[0]


def test_lagrange_rejects_bad_points(m11):
    one = (m11.element(1), m11.element(5))
    with pytest.raises(FieldError):
        lagrange_at_zero([one, one])
    with pytest.raises(FieldError):
        lagrange_at_zero([(m11.element(0), m11.element(5))])
    with pytest.raises(FieldError):
        lagrange_at_zero([])


def test_serialization_roundtrip():
    m = preset_modulus("p256")
    rnd = random.Random(9)
    for _ in range(20):
        x = m.element(rnd.randrange(m.p))
        data = x.to_bytes()
        assert len(data) == m.byte_length == 32
        assert m.from_bytes(data) == x
    with pytest.raises(FieldError):
        m.from_bytes(b"\x00")
    with pytest.raises(FieldError):
        m.from_bytes(m.p.to_bytes(32, "big"))


def test_field_element_immutable(m11):
    x = m11.element(3)
    with pytest.raises(AttributeError):
        x.value = 4


# ---------------------------------------------------------------------------
# Randomness source


def test_seeded_rng_replays(m11):
    a = RandomSource(1234)
    b = RandomSource(1234)
    assert [a.randbelow(11) for _ in range(32)] == [b.randbelow(11) for _ in range(32)]


def test_distinct_seeds_independent_streams():
    a = RandomSource(1)
    b = RandomSource(2)
    assert a.bytes(64) != b.bytes(64)


def test_rejection_sampling_never_exceeds_bound():
    rng = RandomSource(7)
    p = 11
    bad = sum(1 for _ in range(1_000_000) if not 0 <= rng.randbelow(p) < p)
    assert bad == 0


def test_sample_uniformity_chi_square(m11):
    rng = RandomSource(99)
    counts = [0] * 11
    for _ in range(100_000):
        counts[rng.field_element(m11).value] += 1
    _, pval = chi2_uniform(counts)
    assert pval >= 0.001


def test_unseeded_rng_draws():
    rng = RandomSource()
    assert len(rng.bytes(16)) == 16
    assert 0 <= rng.randbelow(1000) < 1000


def reference_randbelow(rng, bound: int) -> int:
    """One draw by rejection, as randbelow's docstring states it: take
    ceil(bits/8) bytes of the stream, keep the low bits(bound) bits of
    their big-endian value, and retry until it is below bound."""
    nbytes = (bound.bit_length() + 7) // 8
    while True:
        v = int.from_bytes(rng.bytes(nbytes), "big") % (1 << bound.bit_length())
        if v < bound:
            return v


@pytest.mark.parametrize("bound", [1, 2, 11, 97, 101, 127, 128, 129, 255, 256, 257,
                                   65_537, 2**256 - 189])
def test_randbelows_is_the_randbelow_stream(bound):
    """randbelows(b, n) gives the n draws of the rejection sampler, as
    bytes for every one-byte bound, and consumes exactly their bytes: the
    streams agree afterwards.  The counts cross the source's refill
    blocks and include 0."""
    seed = b"randbelows-%d" % bound
    got, want = RandomSource(seed), RandomSource(seed)
    for count in (1, 0, 40, 5000, 3):
        draws = got.randbelows(bound, count)
        assert isinstance(draws, bytes) == (bound < 256)
        assert list(draws) == [reference_randbelow(want, bound) for _ in range(count)]
        assert got.randbelow(bound) == reference_randbelow(want, bound)
    assert got.bytes(16) == want.bytes(16)
