"""Small statistics kit for the experiment harness: the chi-square
homogeneity test and binomial tolerances.

For an integer df the chi-square survival function is a finite sum
(the regularized upper gamma Q(df/2, stat/2) in closed form), which
keeps the package dependency-free."""

from __future__ import annotations

import math
from typing import Sequence


def chi2_sf(stat: float, df: int) -> float:
    """P[Chi2_df >= stat] for an integer df: with h = stat/2, [df odd]
    erfc(sqrt h) + sum e^-h h^(k-1) / Gamma(k) over k = 1, 2, ..., df/2 or
    k = 3/2, 5/2, ..., df/2, each term one exp of its log (so none
    underflows early), capped at 1 against rounding."""
    if stat < 0 or df < 1:
        raise ValueError("need stat >= 0 and df >= 1")
    if stat == 0:
        return 1.0
    h, half = stat / 2.0, df % 2 / 2.0
    log_h = math.log(h)
    tail = math.erfc(math.sqrt(h)) if half else 0.0
    return min(1.0, tail + sum(math.exp((j + half - 1.0) * log_h - h - math.lgamma(j + half))
                               for j in range(1, df // 2 + 1)))


def chi2_homogeneity(counts_a: Sequence[int], counts_b: Sequence[int]) -> tuple[float, float]:
    """Two-sample test that both count vectors come from one law."""
    if len(counts_a) != len(counts_b):
        raise ValueError("count vectors must align")
    na, nb = sum(counts_a), sum(counts_b)
    stat = 0.0
    df = 0
    for ca, cb in zip(counts_a, counts_b):
        tot = ca + cb
        if tot == 0:
            continue
        ea = tot * na / (na + nb)
        eb = tot * nb / (na + nb)
        stat += (ca - ea) ** 2 / ea + (cb - eb) ** 2 / eb
        df += 1
    if df < 2:
        raise ValueError("too few occupied cells")
    return stat, chi2_sf(stat, df - 1)


def binomial_tolerance(p: float, n: int, sigmas: float = 3.0) -> float:
    """Half-width of the +/- sigmas band for a rate estimated from n trials;
    0 for a rate of 0 or 1, which admits no miss."""
    return sigmas * math.sqrt(p * (1.0 - p) / n)
