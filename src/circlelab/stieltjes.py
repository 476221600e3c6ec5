"""Exact Riemann-Stieltjes integration of PL integrands against PL
integrators, plus the certified pairing lower bounds and the dual-norm
inequality audit.

On the merged knot set both functions are linear on every piece, so

    int x dy = sum_pieces (y_right - y_left) * (x_left + x_right) / 2

is exact up to rounding -- no quadrature error enters the chain of
inequalities checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, PiecewiseLinearFunction, _readonly
from .construction import TriangleSystem, build_u, build_v, truncate_un
from .fourier import SpectrumCoeffs
from .seminorm import pl_seminorm, sobolev_spectral

__all__ = [
    "StieltjesReport",
    "DualityReport",
    "rs_integral",
    "fourier_pairing",
    "pairing_report",
    "duality_check",
]


def _require_real(y: PiecewiseLinearFunction, role: str):
    if not y.is_real:
        raise ValueError(f"{role} must be real-valued")


def rs_integral(x: PiecewiseLinearFunction, y: PiecewiseLinearFunction) -> complex:
    """int_0^{2pi} x(t) dy(t) for continuous PL x (complex ok) and real PL y."""
    _require_real(y, "integrator")
    t = np.unique(np.concatenate([x.knots, y.knots]))
    xa = x(t)
    ya = y(t)
    # piece i runs from t[i] to t[i + 1], the last one to the wrap knot t[0] + 2pi
    return complex(np.sum(0.5 * (xa + np.roll(xa, -1)) * (np.roll(ya, -1) - ya)))


def fourier_pairing(y: PiecewiseLinearFunction, k) -> complex | np.ndarray:
    """(1/2*pi) int e^{ikt} dy(t), evaluated analytically per linear piece.

    Equals -ik * yhat(-k) by integration by parts; computing it directly
    keeps the identity checkable against the closed-form spectrum.
    """
    _require_real(y, "integrator")
    scalar = np.ndim(k) == 0
    ks = np.atleast_1d(np.asarray(k, dtype=float))
    out = np.zeros(ks.shape, dtype=complex)
    if y.n_knots >= 2:
        nz = ks != 0
        kk = ks[nz][:, None]
        # one exponential per knot, differenced along the knot axis
        seg = np.diff(np.exp(1j * kk * y.ext_knots[None, :]), axis=1)
        out[nz] = (seg @ y.slopes) / (1j * ks[nz]) / TWO_PI
    return complex(out[0]) if scalar else out


@dataclass(frozen=True, eq=False)
class StieltjesReport:
    """Pairing of v against a truncation u_n with per-tent accounting.

    ``value`` is the real number int v du_n (``to_dict`` still writes
    ``value_im`` as 0.0); ``per_interval[k]`` is the exact contribution of
    [a_k, center_k];
    ``lb_terms[k]`` the certified floor (2/9) w_k^2 when the tent is active
    at this truncation (w_k >= 3/n), else 0.
    """

    value: float
    per_interval: np.ndarray
    n: int
    lower_bound: float
    weights: np.ndarray
    lb_terms: np.ndarray
    active: np.ndarray

    def __post_init__(self):
        for name in ("per_interval", "weights", "lb_terms"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "active", _readonly(np.asarray(self.active, dtype=bool)))

    def to_dict(self) -> dict:
        return {
            "value_re": self.value,
            "value_im": 0.0,
            "n": self.n,
            "lower_bound": self.lower_bound,
            "per_interval": self.per_interval.tolist(),
            "weights": self.weights.tolist(),
            "lower_bound_terms": self.lb_terms.tolist(),
            "active": self.active.tolist(),
        }

    def csv_rows(self):
        """Rows (k, w_k, contribution, lower_bound_term), k 1-based."""
        for i in range(self.per_interval.size):
            yield (i + 1, float(self.weights[i]), float(self.per_interval[i]), float(self.lb_terms[i]))


def pairing_report(
    sys: TriangleSystem,
    n: int,
    u: PiecewiseLinearFunction | None = None,
    v: PiecewiseLinearFunction | None = None,
) -> StieltjesReport:
    """Exact int v du_n with per-tent contributions over the left halves.

    For every active tent (w_k >= 3/n) the truncation coincides with u on
    the middle third of J_k and rises there by w_k/3 while v >= 2 w_k/3, so
    the contribution over J_k is at least (2/9) w_k^2; it is >= 0 for every
    tent since u_n is nondecreasing on J_k and v >= 0.
    """
    n = int(n)
    if u is None:
        u = build_u(sys)
    if v is None:
        v = build_v(sys)
    un = truncate_un(u, n)
    t = np.unique(np.concatenate([v.knots, un.knots, sys.a, sys.center]))
    # piece i runs from t[i] to t[i + 1], the last one to the wrap knot t[0] + 2pi
    va = v(t)
    ua = un(t)
    pieces = 0.5 * (va + np.roll(va, -1)) * (np.roll(ua, -1) - ua)
    value = float(np.sum(pieces))

    if sys.count:
        t_ext = np.append(t, t[0] + TWO_PI)
        mids = 0.5 * (t_ext[:-1] + t_ext[1:])
        idx = np.searchsorted(sys.a, mids, side="right") - 1
        inside = (idx >= 0) & (idx < sys.count)
        sel = np.where(inside, idx, 0)
        inside &= mids <= sys.center[sel]
        per = np.bincount(idx[inside], weights=pieces[inside], minlength=sys.count)
        active = sys.weight >= 3.0 / n
        lb_terms = np.where(active, (2.0 / 9.0) * sys.weight**2, 0.0)
    else:
        per = np.zeros(0)
        active = np.zeros(0, dtype=bool)
        lb_terms = np.zeros(0)
    return StieltjesReport(
        value=value,
        per_interval=per,
        n=n,
        lower_bound=float(np.sum(lb_terms)),
        weights=sys.weight.copy(),
        lb_terms=lb_terms,
        active=active,
    )


@dataclass(frozen=True)
class DualityReport:
    """|(1/2pi) int x dy| against the product of half-order seminorms."""

    lhs: float
    rhs: float
    holds: bool
    x_seminorm: float
    y_seminorm: float


def duality_check(x: SpectrumCoeffs, y: PiecewiseLinearFunction, tol: float = 1e-8) -> DualityReport:
    """Check |(1/2pi) int x dy| <= ||x|| * ||y|| (half-order seminorms).

    The left side pairs the bandlimited x with y analytically per harmonic.
    Both seminorms on the right side are exact: ||x|| sums the finite
    spectrum of x and ||y|| is the slope-jump sum of ``pl_seminorm``.
    """
    _require_real(y, "integrator")
    pair = fourier_pairing(y, x.k_values)
    lhs = abs(complex(np.sum(x.coeffs * pair)))
    x_norm = sobolev_spectral(x, 0.5)
    y_norm = pl_seminorm(y)
    rhs = x_norm * y_norm
    return DualityReport(
        lhs=float(lhs),
        rhs=float(rhs),
        holds=bool(lhs <= rhs * (1.0 + tol)),
        x_seminorm=float(x_norm),
        y_seminorm=float(y_norm),
    )
