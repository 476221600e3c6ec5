"""Half-order Sobolev seminorms on the circle, in two equivalent forms.

Spectral form (general order s > 0):

    ||f||_s = ( sum_k |fhat(k)|^2 |k|^(2s) )^(1/2)

Difference-quotient form (order 1/2 only):

    |||f||| = ( int_0^{2pi} theta^-2 int_0^{2pi} |f(t+theta)-f(t)|^2 dt dtheta )^(1/2)

The double integral is discretized on the sample grid: the inner integral
is evaluated exactly (for grid data) as 2*pi times the mean of
|g(t+theta_m)-g(t)|^2 at each grid shift theta_m = 2*pi*m/N, and the outer
integral by the midpoint rule over the cells centred at theta_m, m >= 1
(the singular theta=0 cell is excluded).  The shift means are obtained for
all m at once through the circular autocorrelation (one FFT pair), which
is algebraically identical to the double loop.

For PL functions ``pl_seminorm`` gives the order-1/2 spectral form exactly.

Also here: moduli of continuity of real PL functions (one exact sweep over
a whole delta grid, the range-extremum sparse tables of the knot values
built once per function), Lipschitz-class checks, and the empirical
equivalence-constant scan between the two seminorm forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, GridFunction, PiecewiseLinearFunction, _readonly, reduce_angle
from .fourier import SpectrumCoeffs

__all__ = [
    "ModulusSpec",
    "EquivalenceEstimate",
    "LipReport",
    "sobolev_spectral",
    "pl_seminorm",
    "sobolev_integral",
    "modulus_of_continuity",
    "lip_check",
    "default_delta_grid",
    "equivalence_scan",
    "harmonic_shift_weight",
]


@dataclass(frozen=True, eq=False)
class ModulusSpec:
    """A modulus of continuity: nondecreasing, subadditive, omega(0) = 0.

    Two kinds are supported: ``power`` (omega(d) = d**alpha, 0 < alpha <= 1,
    which satisfies the axioms analytically) and ``table`` (piecewise-linear
    interpolation of (delta, omega) pairs, validated at construction and
    extended by its last value beyond the tabulated range).
    """

    kind: str
    alpha: float | None = None
    deltas: np.ndarray | None = None
    omegas: np.ndarray | None = None

    @staticmethod
    def power(alpha: float) -> "ModulusSpec":
        alpha = float(alpha)
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"power modulus needs alpha in (0, 1], got {alpha}")
        return ModulusSpec(kind="power", alpha=alpha)

    @staticmethod
    def table(deltas, omegas) -> "ModulusSpec":
        deltas = np.asarray(deltas, dtype=float)
        omegas = np.asarray(omegas, dtype=float)
        if deltas.ndim != 1 or deltas.shape != omegas.shape or deltas.size < 2:
            raise ValueError("table modulus needs matching 1-d arrays with >= 2 points")
        if deltas[0] != 0.0 or omegas[0] != 0.0:
            raise ValueError("table modulus must start at (0, 0)")
        if not np.all(np.diff(deltas) > 0.0):
            raise ValueError("table deltas must be strictly increasing")
        if np.any(np.diff(omegas) < 0.0) or np.any(omegas < 0.0):
            raise ValueError("table modulus must be nonnegative and nondecreasing")
        # subadditivity omega(x+y) <= omega(x) + omega(y), checked on grid pairs
        sums = deltas[:, None] + deltas[None, :]
        vals = np.interp(sums, deltas, omegas, right=float(omegas[-1]))
        bound = omegas[:, None] + omegas[None, :]
        scale = max(1.0, float(omegas[-1]))
        if np.any(vals > bound + 1e-12 * scale):
            i, j = np.unravel_index(np.argmax(vals - bound), vals.shape)
            raise ValueError(
                f"table modulus not subadditive at ({deltas[i]}, {deltas[j]})"
            )
        return ModulusSpec(
            kind="table", deltas=_readonly(deltas.copy()), omegas=_readonly(omegas.copy())
        )

    def __call__(self, d):
        if self.kind == "power":
            return np.asarray(d, dtype=float) ** self.alpha if np.ndim(d) else float(d) ** self.alpha
        out = np.interp(d, self.deltas, self.omegas, right=float(self.omegas[-1]))
        return float(out) if np.ndim(d) == 0 else out

    def describe(self) -> str:
        if self.kind == "power":
            return f"power(alpha={self.alpha})"
        return f"table({self.deltas.size} points, support <= {self.deltas[-1]})"


@dataclass(frozen=True)
class EquivalenceEstimate:
    """Empirical bracket for the ratio integral-form / spectral-form."""

    ratio_min: float
    ratio_max: float
    sample_count: int

    def __post_init__(self):
        if not (0.0 < self.ratio_min <= self.ratio_max):
            raise ValueError("need 0 < ratio_min <= ratio_max")

    @property
    def spread(self) -> float:
        return self.ratio_max / self.ratio_min


def sobolev_spectral(c: SpectrumCoeffs, s: float) -> float:
    """Spectral seminorm ( sum |fhat(k)|^2 |k|^(2s) )^(1/2), s > 0."""
    s = float(s)
    if s <= 0.0:
        raise ValueError("order s must be positive")
    k = np.abs(c.k_values).astype(float)
    return math.sqrt(float(np.sum(np.abs(c.coeffs) ** 2 * k ** (2.0 * s))))


# Lewin's series (*Polylogarithms and Associated Functions*, 1981) for
# C3(t) = sum_{k>=1} cos(kt)/k^3 on [0, pi], with u = (t/2pi)^2 <= 1/4:
#     C3(t) - zeta(3) = t^2 (ln(t)/2 - 3/4 - sum_n c_n u^n),
#     c_n = zeta(2n) / (n (2n+1) (2n+2)); terms past n = 24 are below 1e-19.
# zeta(2), ..., zeta(48) as float64: the values scipy.special.zeta returns,
# which are the closed form |B_2n| (2pi)^2n / (2 (2n)!) of DLMF 25.6.2
# rounded to nearest (tests/test_seminorm.py checks both).
_ZETA_EVEN = np.array([
    1.6449340668482264, 1.0823232337111381, 1.0173430619844492, 1.0040773561979444,
    1.000994575127818, 1.000246086553308, 1.0000612481350588, 1.0000152822594086,
    1.000003817293265, 1.0000009539620338, 1.0000002384505027, 1.000000059608189,
    1.0000000149015549, 1.000000003725334, 1.0000000009313275, 1.000000000232831,
    1.0000000000582077, 1.000000000014552, 1.000000000003638, 1.0000000000009095,
    1.0000000000002274, 1.0000000000000568, 1.0000000000000142, 1.0000000000000036,
])
_C3_N = np.arange(1, 25)
_C3_COEFFS = _ZETA_EVEN / (_C3_N * (2 * _C3_N + 1) * (2 * _C3_N + 2))


def _clausen3_offset(t: np.ndarray) -> np.ndarray:
    """C3(t) - zeta(3) for t in [0, pi]."""
    u = (t / TWO_PI) ** 2
    series = np.zeros_like(t)
    for c in _C3_COEFFS[::-1]:
        series = (series + c) * u
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > 0.0, t * t * (0.5 * np.log(t) - 0.75 - series), 0.0)


def pl_seminorm(f: PiecewiseLinearFunction) -> float:
    """Exact ||f||_{1/2} of a PL function: no spectrum truncation.

    With slope jumps J_j at knots x_j, fhat(k) = -sum_j J_j e^{-ik x_j} / (2 pi k^2),
    so ||f||^2 = (1/2pi^2) sum_{j,l} J_j conj(J_l) C3(x_j - x_l).  The jumps
    sum to zero, so C3 - zeta(3) stands in for C3; for complex f this
    Hermitian form is ||Re f||^2 + ||Im f||^2.  O(M^2) in the M knots with a
    nonzero jump: rows are summed in blocks, the row totals by ``math.fsum``.
    """
    nz = f.jumps != 0.0
    x, jumps = f.knots[nz], f.jumps[nz]
    rows = max(1, (1 << 16) // max(x.size, 1))
    parts = []
    for i in range(0, x.size, rows):
        d = np.abs(x[i : i + rows, None] - x[None, :])
        kernel = _clausen3_offset(np.minimum(d, TWO_PI - d))
        parts.extend(np.real(jumps[i : i + rows] * np.sum(kernel * np.conj(jumps), axis=1)))
    return math.sqrt(max(math.fsum(parts) / (2.0 * math.pi**2), 0.0))


def _shift_energies(g: GridFunction) -> np.ndarray:
    """mean_j |g(t_j + theta_m) - g(t_j)|^2 for every grid shift m = 0..N-1,
    via the circular autocorrelation identity."""
    big = np.fft.fft(g.samples)
    corr = np.fft.ifft(np.abs(big) ** 2) / g.n_samples  # mean_j g_{j+m} conj(g_j)
    power = corr[0].real
    return np.maximum(2.0 * (power - corr.real), 0.0)


def sobolev_integral(g: GridFunction) -> float:
    """Difference-quotient seminorm of grid data (see module docstring)."""
    n = g.n_samples
    energies = _shift_energies(g)
    m = np.arange(1, n)
    thetas = m * (TWO_PI / n)
    total = np.sum((TWO_PI / n) * (TWO_PI * energies[1:]) / thetas**2)
    return math.sqrt(max(float(total), 0.0))


def _sparse_tables(a: np.ndarray, op):
    """Level l holds op over the windows a[i : i + 2^l] (the range-minimum
    sparse table of Bender & Farach-Colton, LATIN 2000)."""
    levels = [a]
    size = a.size
    l = 1
    while (1 << l) <= size:
        prev = levels[-1]
        half = 1 << (l - 1)
        levels.append(op(prev[:-half], prev[half:]))
        l += 1
    return levels


def _range_query(levels, lo: np.ndarray, hi: np.ndarray):
    """Extrema over inclusive index ranges [lo, hi] (lo <= hi assumed): the
    classic two-overlapping-blocks sparse-table lookup, grouped by level."""
    length = hi - lo + 1
    lev = np.floor(np.log2(length)).astype(int)
    left = np.empty(lo.shape, dtype=levels[0].dtype)
    right = np.empty_like(left)
    for l in np.unique(lev):
        mask = lev == l
        tab = levels[l]
        left[mask] = tab[lo[mask]]
        right[mask] = tab[hi[mask] - (1 << int(l)) + 1]
    return left, right


def modulus_of_continuity(f: PiecewiseLinearFunction, delta):
    """sup |f(t1) - f(t2)| over circle distance |t1 - t2| <= delta, for a
    real PL function f and one delta (a float back) or an array of them.

    The supremum is attained with one point at a knot and the other at a
    knot or at distance exactly delta, so the search over that finite
    candidate set is exact.  The max and min sparse tables of the knot
    values over two periods depend only on f and are built once; each delta
    below pi then costs one range query per knot (the knots within delta
    after it) and the two edge values f(t +- delta).
    """
    if not f.is_real:
        raise ValueError("moduli of continuity are defined here for real-valued functions only")
    deltas = np.asarray(delta, dtype=float)
    if not np.all((deltas >= 0.0) & (deltas <= TWO_PI + 1e-12)):
        raise ValueError(f"delta must lie in [0, 2*pi], got {delta}")
    moduli = np.zeros(deltas.size)
    t = f.knots
    y = f.values
    n = t.size
    if n > 1:
        t_ext = np.concatenate([t, t + TWO_PI])
        y_ext = np.concatenate([y, y])
        tmax = _sparse_tables(y_ext, np.maximum)
        tmin = _sparse_tables(y_ext, np.minimum)
        lo = np.arange(n) + 1
        for i, d in enumerate(deltas.ravel()):
            if d == 0.0:
                continue
            if d >= math.pi:
                moduli[i] = np.max(y) - np.min(y)
                continue
            hi = np.searchsorted(t_ext, t + d, side="right") - 1
            mask = hi >= lo
            best = 0.0
            if mask.any():
                a1, a2 = _range_query(tmax, lo[mask], hi[mask])
                b1, b2 = _range_query(tmin, lo[mask], hi[mask])
                yi = y[mask]
                best = float(np.max(np.maximum(np.maximum(a1, a2) - yi, yi - np.minimum(b1, b2))))
            up = np.abs(f(reduce_angle(t + d)) - y)
            down = np.abs(f(reduce_angle(t - d)) - y)
            moduli[i] = max(best, float(np.max(up)), float(np.max(down)))
    return float(moduli[0]) if deltas.ndim == 0 else moduli.reshape(deltas.shape)


def default_delta_grid() -> np.ndarray:
    """Geometric grid 2*pi * 2^-m, m = 1..20."""
    return TWO_PI * 2.0 ** (-np.arange(1, 21, dtype=float))


@dataclass(frozen=True, eq=False)
class LipReport:
    """Per-delta moduli of a function against a reference modulus."""

    deltas: np.ndarray
    moduli: np.ndarray
    ratios: np.ndarray
    max_ratio: float


def lip_check(f: PiecewiseLinearFunction, omega: ModulusSpec, delta_grid=None) -> LipReport:
    """sup over the grid of omega(f, delta) / omega(delta).

    Membership in the omega-Lipschitz class is asserted by the caller
    comparing ``max_ratio`` against its constant.
    """
    deltas = np.asarray(default_delta_grid() if delta_grid is None else delta_grid, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0 or not np.all((deltas > 0.0) & (deltas <= TWO_PI + 1e-12)):
        raise ValueError("delta grid must be a nonempty 1-d array with entries in (0, 2*pi]")
    moduli = modulus_of_continuity(f, deltas)
    denom = np.array([omega(d) for d in deltas], dtype=float)
    ratios = np.where(denom > 0.0, moduli / np.where(denom > 0.0, denom, 1.0), np.where(moduli > 0.0, np.inf, 0.0))
    return LipReport(
        deltas=_readonly(deltas.copy()),
        moduli=_readonly(moduli),
        ratios=_readonly(ratios),
        max_ratio=float(np.max(ratios)),
    )


def equivalence_scan(test_set, n: int) -> EquivalenceEstimate:
    """Bracket the ratio sobolev_integral / sobolev_spectral over a family
    of bandlimited test functions synthesized on an n-grid."""
    from .fourier import synthesize

    specs = list(test_set)
    if not specs:
        raise ValueError("empty test set")
    ratios = []
    for c in specs:
        denom = sobolev_spectral(c, 0.5)
        if denom == 0.0:
            raise ValueError("degenerate (constant) test function in equivalence scan")
        g = synthesize(c, n)
        ratios.append(sobolev_integral(g) / denom)
    ratios = np.asarray(ratios)
    return EquivalenceEstimate(float(np.min(ratios)), float(np.max(ratios)), len(specs))


def harmonic_shift_weight(k: int) -> float:
    """w(k) = int_0^{2pi} 4 sin^2(k theta / 2) / theta^2 dtheta by adaptive
    quadrature, integrated piecewise over the oscillation periods.

    Independent scalar oracle for the difference-quotient seminorm of pure
    harmonics: |||e^{ikt}|||^2 = 2*pi*w(k).
    """
    from scipy.integrate import quad

    k = int(k)
    if k == 0:
        return 0.0
    k = abs(k)

    def integrand(theta):
        return (2.0 * math.sin(0.5 * k * theta) / theta) ** 2

    edges = np.linspace(0.0, TWO_PI, k + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(integrand, a, b, limit=200)
        total += val
    return total
