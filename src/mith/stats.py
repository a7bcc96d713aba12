"""Small statistics kit for the experiment harness: the chi-square
homogeneity test and binomial tolerances.

The chi-square survival function is computed from the regularized
incomplete gamma function (series expansion below a+1, Lentz continued
fraction above), which keeps the package dependency-free."""

from __future__ import annotations

import math
from typing import Sequence

_EPS = 1e-14
_MAX_ITER = 500


def _gamma_p_series(a: float, x: float) -> float:
    """Regularized lower gamma P(a, x) by series; converges for x < a+1."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_cf(a: float, x: float) -> float:
    """Regularized upper gamma Q(a, x) by continued fraction; x >= a+1."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(stat: float, df: int) -> float:
    """P[Chi2_df >= stat]."""
    if stat < 0 or df < 1:
        raise ValueError("need stat >= 0 and df >= 1")
    if stat == 0:
        return 1.0
    a, x = df / 2.0, stat / 2.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_cf(a, x)


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
