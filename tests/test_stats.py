"""The chi-square survival function against published critical values
and closed-form identities.

`chi2_sf` decides every privacy verdict of the experiment harness, so its
p-values are checked here directly: at the tabulated critical values it
returns alpha, at df 1 and 2 it is erfc and exp, it falls with the
statistic and rises with df, and it refuses what is not a chi-square law.
"""

import math

import pytest

from mith.stats import chi2_sf

# Upper critical values chi2_{alpha, df}, rounded to six decimals; the
# printed tables agree to the digits they give.
CRITICAL = {
    0.05: {1: 3.841459, 2: 5.991465, 10: 18.307038, 30: 43.772972,
           100: 124.342113, 255: 293.247835},
    0.01: {1: 6.634897, 2: 9.210340, 10: 23.209251, 30: 50.892181,
           100: 135.806723, 255: 310.457388},
    0.001: {1: 10.827566, 2: 13.815511, 10: 29.588298, 30: 59.703064,
            100: 149.449253, 255: 330.519744},
}

STATS = [1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 3.0, 7.5, 20.0, 64.0, 300.0, 1000.0]


@pytest.mark.parametrize("alpha,df", [(a, df) for a in CRITICAL for df in CRITICAL[a]])
def test_critical_values(alpha, df):
    """Six decimals of the critical value move the tail by far less than
    1e-6 (the density there is below 0.03)."""
    assert chi2_sf(CRITICAL[alpha][df], df) == pytest.approx(alpha, abs=1e-6)


@pytest.mark.parametrize("x", STATS)
def test_df2_is_exp(x):
    assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("x", STATS)
def test_df1_is_erfc(x):
    assert chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-12, abs=1e-300)


def never_falls(qs):
    """Each value at least the one before, up to rounding: the sum of up
    to df/2 terms may land a few ulps either side of its true value."""
    return all(0.0 <= q <= 1.0 for q in qs) and all(b >= a * (1 - 1e-12) for a, b in zip(qs, qs[1:]))


@pytest.mark.parametrize("df", [1, 2, 3, 4, 9, 10, 99, 100, 255, 256, 1000, 2000])
def test_falls_with_stat(df):
    qs = [chi2_sf(x, df) for x in sorted([0.0] + STATS + [5.0 * df, 50.0 * df + 50.0])]
    assert qs[0] == 1.0
    assert never_falls(qs[::-1])
    assert qs[-1] < 1e-9 < qs[1]


@pytest.mark.parametrize("x", STATS)
def test_rises_with_df(x):
    assert never_falls([chi2_sf(x, df) for df in range(1, 400)])


@pytest.mark.parametrize("stat,df", [(-1e-9, 1), (-1.0, 5), (1.0, 0), (0.0, 0), (1.0, -3)])
def test_domain(stat, df):
    with pytest.raises(ValueError):
        chi2_sf(stat, df)
