"""Byte-column lane arithmetic against the int-list form.

Over every field below 128 the in-the-head evaluation runs on
`field.ByteColumns`, one byte per lane value, where two values add in
8-bit lanes; `field.IntColumns`, the list-of-ints form that every wider
field uses, is the reference.  Over random columns each byte op must give
the int op's values, up to the largest byte-lane prime, 127.
"""

import pytest
from hypothesis import given, settings, strategies as st

from mith.field import ByteColumns, IntColumns, Modulus, RandomSource, columns

from test_field import reference_randbelow

PRIMES = [11, 97, 101, 127]


@st.composite
def field_columns(draw, k):
    """(p, k columns of one length over F_p), with 0 and p - 1 frequent."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.integers(1, 80))
    return p, [[v % p if v < 248 else (0, p - 1)[v & 1]
                for v in draw(st.binary(min_size=n, max_size=n))] for _ in range(k)]


def ops(p):
    return ByteColumns(p), IntColumns(p)


@settings(max_examples=100, deadline=None)
@given(field_columns(2))
def test_add_matches_int_columns(case):
    p, (x, y) = case
    byte, ints = ops(p)
    assert list(byte.add(bytes(x), bytes(y))) == ints.add(x, y)


@settings(max_examples=100, deadline=None)
@given(field_columns(1), st.integers(0, 300))
def test_smul_matches_int_columns(case, k):
    p, (y,) = case
    byte, ints = ops(p)
    assert list(byte.smul(k % p, bytes(y))) == ints.smul(k % p, y)


@settings(max_examples=100, deadline=None)
@given(field_columns(2))
def test_mul_matches_int_columns(case):
    p, (x, y) = case
    byte, ints = ops(p)
    assert list(byte.mul(bytes(x), bytes(y))) == ints.mul(x, y)


@settings(max_examples=100, deadline=None)
@given(field_columns(6))
def test_recombination_matches_int_columns(case):
    """Degree-4 recombination with the interpolation weights, and the
    six-term refresh sum."""
    p, cols = case
    byte, ints = ops(p)
    lam = Modulus(p).recon_weights
    assert list(byte.lincomb(lam, [bytes(c) for c in cols[:5]])) == ints.lincomb(lam, cols[:5])
    ones = (1,) * 6
    assert list(byte.lincomb(ones, [bytes(c) for c in cols])) == ints.lincomb(ones, cols)


@settings(max_examples=100, deadline=None)
@given(field_columns(3))
def test_share_matches_int_columns(case):
    p, (d, a1, a2) = case
    byte, ints = ops(p)
    got = byte.share(bytes(d), bytes(a1), bytes(a2))
    assert [list(col) for col in got] == list(ints.share(d, a1, a2))


@pytest.mark.parametrize("p, triples", [
    (11, [(d, a1, a2) for d in range(11) for a1 in range(11) for a2 in range(11)]),
    (127, [(126, 126, 126)] * 80),
], ids=["F11-every-triple", "F127-all-p-minus-1"])
def test_share_exhaustive_lanes(p, triples):
    """Every (d, a1, a2) over F_11, and the largest values over the largest
    byte-lane field, each triple a lane of one call."""
    d, a1, a2 = (list(col) for col in zip(*triples))
    got = ByteColumns(p).share(bytes(d), bytes(a1), bytes(a2))
    assert [list(col) for col in got] == list(IntColumns(p).share(d, a1, a2))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 255), st.integers(0, 300), st.binary(max_size=8))
def test_byte_randbelows_matches_reference(bound, count, seed):
    """A one-byte bound draws bytes: the rejection sampler's stream, one
    translate per attempt, consuming exactly the draws' bytes."""
    got, want = RandomSource(b"columns" + seed), RandomSource(b"columns" + seed)
    draws = got.randbelows(bound, count)
    assert isinstance(draws, bytes)
    assert list(draws) == [reference_randbelow(want, bound) for _ in range(count)]
    assert got.bytes(8) == want.bytes(8)


@pytest.mark.parametrize("p", [101, 2**256 - 189])
def test_place_and_column_invert(p):
    """Writing columns into strided rows and slicing them back out gives
    the columns again, for one-byte and 32-byte elements."""
    cols = columns(p)
    w = cols.width
    n, stride = 7, 3 * w + 2
    vals = [[(17 * k + 5 * j) % p for k in range(n)] for j in range(3)]
    buf = bytearray(b"\xee") * (n * stride)
    for j, col in enumerate(vals):
        cols.place(buf, j * w, stride, cols.from_ints(col))
    assert [list(cols.column(bytes(buf), j * w, stride)) for j in range(3)] == vals
    assert buf[3 * w::stride] == b"\xee" * n


def test_columns_chosen_by_width():
    """Byte lanes exactly below 128; 131 and 251 still encode one byte
    per value, on int lanes."""
    assert isinstance(columns(127), ByteColumns)
    assert all(isinstance(columns(p), IntColumns) for p in (131, 251, 257))
    assert columns(251).width == 1
    assert columns(97) is columns(97)
