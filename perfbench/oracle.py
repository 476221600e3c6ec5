"""Exact half-order seminorm of a continuous periodic piecewise-linear function.

With slope jumps J_j at knots x_j (sum_j J_j = 0),

    ||f||^2 = sum_k |k| |fhat(k)|^2 = (1/2 pi^2) sum_{j,l} J_j J_l C3(x_j - x_l),

where C3(theta) = sum_{k>=1} cos(k theta) / k^3 is a Clausen function.  On
|theta| <= pi (Lewin, *Polylogarithms and Associated Functions*, 1981)

    C3(theta) = zeta(3) - 3 theta^2/4 + (theta^2/2) ln|theta|
                - sum_{n>=1} zeta(2n) theta^(2n+2) / (n (2n+1) (2n+2) (2 pi)^(2n)).

zeta(2n) / (2 pi)^(2n) = |B_2n| / (2 (2n)!), so every series coefficient is a
rational number, computed here exactly and rounded once.  The zeta(3) term
drops out of the double sum because the jumps sum to zero, so the pair
kernel is C3 - zeta(3), which vanishes on the diagonal.  Pair sums run over
row blocks with numpy's pairwise reduction and the block totals are added
with ``math.fsum``.  The cost is O(M^2) in the number M of knots with a
nonzero jump: fine for certifying a few functions, far too slow for an
optimizer loop.

The sum is ill-conditioned for narrow tents: pair terms reach J^2 ~ 1e8 at
J = 6 blocks while ||v||^2 ~ 0.4, so rounding in C3 and in the knot
differences is amplified.  Against the same sum in 80-bit extended
precision, ||v||^2 of the construction is off by 8e-10 (J = 4), 5e-7
(J = 5) and 7e-6 (J = 6) relative; tests/test_bench_oracle.py pins the
J = 4 figure.  That bounds how small a products_rel_err this oracle can
resolve at each J.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

TWO_PI = 2.0 * math.pi
ZETA3 = 1.2020569031595942853997381615114499907649862923405
_TERMS = 24  # a_n pi^(2n) < 1e-19 beyond this, far below one ulp of the kernel
_BLOCK = 1 << 16  # pair-matrix entries per row block; small enough to stay in cache


def _bernoulli_even(count: int) -> list:
    """|B_2|, |B_4|, ..., |B_2count| as exact fractions (Akiyama-Tanigawa)."""
    size = 2 * count + 1
    a = [Fraction(0)] * (size + 1)
    out = []
    for m in range(size + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        if m >= 2 and m % 2 == 0:
            out.append(abs(a[0]))
    return out[:count]


def _series_coeffs(count: int) -> np.ndarray:
    """a_n = |B_2n| / (2 (2n)! n (2n+1) (2n+2)), so that the series above is
    sum_n a_n theta^(2n+2)."""
    coeffs = []
    for n, b in enumerate(_bernoulli_even(count), start=1):
        coeffs.append(float(b / (2 * math.factorial(2 * n) * n * (2 * n + 1) * (2 * n + 2))))
    return np.array(coeffs)


_A = _series_coeffs(_TERMS)


def clausen_c3(theta) -> np.ndarray:
    """C3(theta) = sum_{k>=1} cos(k theta) / k^3 for any real theta."""
    t = np.mod(np.abs(np.asarray(theta, dtype=float)), TWO_PI)
    return ZETA3 + _kernel(np.minimum(t, TWO_PI - t))


def _kernel(t: np.ndarray) -> np.ndarray:
    """C3(t) - zeta(3) for t in [0, pi]."""
    t2 = t * t
    poly = np.full(t.shape, _A[-1])
    for a in _A[-2::-1]:
        poly *= t2
        poly += a
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t = np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0)), 0.0)
    return t2 * (-0.75 + 0.5 * log_t - t2 * poly)


def slope_jumps(knots, values) -> tuple:
    """Knots and slope jumps (slope after minus slope before) of the real part
    of a periodic PL function, with zero jumps dropped."""
    t = np.asarray(knots, dtype=float)
    y = np.asarray(values).real.astype(float)
    if t.size < 2:
        return t[:0], y[:0]
    slopes = np.diff(np.append(y, y[0])) / np.diff(np.append(t, t[0] + TWO_PI))
    jumps = slopes - np.roll(slopes, 1)
    keep = jumps != 0.0
    return t[keep], jumps[keep]


def seminorm_sq_from_jumps(x: np.ndarray, jumps: np.ndarray) -> float:
    """(1/2 pi^2) sum_{j,l} J_j J_l C3(x_j - x_l) for sorted knots x in [0, 2 pi)."""
    m = x.size
    if m < 2:
        return 0.0
    rows = max(1, _BLOCK // m)
    parts = []
    for i0 in range(0, m - 1, rows):
        i1 = min(i0 + rows, m - 1)
        # pairs j < l: row j against columns l in (j, m)
        d = x[None, i0 + 1 :] - x[i0:i1, None]
        mask = np.arange(i0 + 1, m)[None, :] > np.arange(i0, i1)[:, None]
        d = np.where(mask, d, 0.0)
        t = np.minimum(d, TWO_PI - d)
        w = _kernel(t) * jumps[None, i0 + 1 :]
        parts.extend((jumps[i0:i1] * np.sum(w, axis=1)).tolist())
    return math.fsum(parts) / (math.pi * math.pi)


def pl_seminorm(f) -> float:
    """Exact ||f||_{1/2} of a continuous periodic PL function (real part)."""
    x, jumps = slope_jumps(f.knots, f.values)
    return math.sqrt(max(seminorm_sq_from_jumps(x, jumps), 0.0))
