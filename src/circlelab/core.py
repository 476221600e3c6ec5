"""Functions on the circle T = R/(2*pi*Z).

Two concrete carriers are used everywhere in this package:

* :class:`PiecewiseLinearFunction` -- an exact finite-knot representation
  of a continuous periodic function (strictly increasing knot angles in
  [0, 2*pi), complex values, linear interpolation between knots, and a
  wrap segment from the last knot back to the first).  Every PL function
  in the package is of this kind.  The class is the only code that knows
  the wrap-segment layout; everything else reads it through the read-only
  segment views ``ext_knots`` and ``ext_values`` (knots and values closed
  by the wrap knot) and the lazily cached ``slopes`` and ``jumps``.
* :class:`GridFunction` -- uniform power-of-two sample grids, the carrier
  for FFT-based computations.

Values are stored as complex even for real-valued functions; operations
that only make sense for real functions check that the imaginary part is
exactly zero.  All objects are immutable after construction (backing
arrays are marked read-only), so everything here is safe for concurrent
read-only use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi

__all__ = [
    "TWO_PI",
    "CircleInterval",
    "PiecewiseLinearFunction",
    "GridFunction",
    "triangle",
    "sample",
    "total_variation",
    "reduce_angle",
]


def reduce_angle(t):
    """Reduce an angle (or array of angles) to [0, 2*pi).

    Scalars come back as floats, arrays as new arrays; non-finite input
    raises ``ValueError``.
    """
    arr = np.array(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("angles must be finite")
    mask = (arr < 0.0) | (arr >= TWO_PI)
    if mask.any():
        arr[mask] = np.mod(arr[mask], TWO_PI)
        # mod can return 2*pi for tiny negative inputs
        arr[arr >= TWO_PI] -= TWO_PI
    return float(arr) if arr.ndim == 0 else arr


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CircleInterval:
    """Closed arc [a, b] with 0 <= a < b <= 2*pi."""

    a: float
    b: float

    def __post_init__(self):
        if not (0.0 <= self.a < self.b <= TWO_PI):
            raise ValueError(f"invalid interval [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def center(self) -> float:
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True, eq=False)
class PiecewiseLinearFunction:
    """Continuous periodic piecewise-linear function on the circle.

    ``knots`` are strictly increasing angles in [0, 2*pi); ``values`` the
    complex value at each knot.  Between knots the function is the linear
    interpolant; the final segment wraps from the last knot to
    ``knots[0] + 2*pi`` where it takes ``values[0]`` again.

    ``ext_knots`` and ``ext_values`` are the knots and values closed by that
    wrap knot, so segment i runs from ``ext_knots[i]`` to ``ext_knots[i + 1]``;
    ``knots`` and ``values`` are views of them without the last entry.
    """

    knots: np.ndarray
    values: np.ndarray
    ext_knots: np.ndarray = field(init=False, repr=False)
    ext_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        knots = np.atleast_1d(np.asarray(self.knots, dtype=float))
        values = np.atleast_1d(np.asarray(self.values, dtype=complex))
        if knots.ndim != 1 or values.shape != knots.shape:
            raise ValueError("knots and values must be 1-d arrays of equal length")
        if knots.size < 1:
            raise ValueError("need at least one knot")
        if not np.all(np.isfinite(knots)) or not np.all(np.isfinite(values)):
            raise ValueError("knots and values must be finite")
        if knots[0] < 0.0 or knots[-1] >= TWO_PI:
            raise ValueError("knots must lie in [0, 2*pi)")
        if knots.size > 1 and not np.all(np.diff(knots) > 0.0):
            raise ValueError("knots must be strictly increasing")
        # built here, not on first use: arrays cached later on a long-lived
        # function keep freed heap below them resident (peak RSS of
        # verify --blocks 7 rose 7% that way)
        ext_knots = _readonly(np.concatenate([knots, [knots[0] + TWO_PI]]))
        ext_values = _readonly(np.concatenate([values, [values[0]]]))
        object.__setattr__(self, "ext_knots", ext_knots)
        object.__setattr__(self, "ext_values", ext_values)
        object.__setattr__(self, "knots", ext_knots[:-1])
        object.__setattr__(self, "values", ext_values[:-1])

    @property
    def n_knots(self) -> int:
        return self.knots.size

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    @cached_property
    def slopes(self) -> np.ndarray:
        """Slope of each segment, the wrap segment last."""
        return _readonly(np.diff(self.ext_values) / np.diff(self.ext_knots))

    @cached_property
    def jumps(self) -> np.ndarray:
        """Slope jump at each knot: slope after minus slope before."""
        return _readonly(self.slopes - np.roll(self.slopes, 1))

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        tt = np.atleast_1d(reduce_angle(t))
        if self.knots.size == 1:
            out = np.full(tt.shape, self.values[0], dtype=complex)
            return out[0] if scalar else out
        t_ext = self.ext_knots
        v_ext = self.ext_values
        pos = np.where(tt < self.knots[0], tt + TWO_PI, tt)
        idx = np.searchsorted(t_ext, pos, side="right") - 1
        idx = np.clip(idx, 0, t_ext.size - 2)
        t0 = t_ext[idx]
        t1 = t_ext[idx + 1]
        lam = (pos - t0) / (t1 - t0)
        out = v_ext[idx] + lam * (v_ext[idx + 1] - v_ext[idx])
        return out[0] if scalar else out

    def to_dict(self) -> dict:
        return {
            "knots": self.knots.tolist(),
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "PiecewiseLinearFunction":
        knots = np.asarray(d["knots"], dtype=float)
        values = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
        return PiecewiseLinearFunction(knots, values)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Samples of a function at t_j = 2*pi*j/N for a power-of-two N."""

    n_samples: int
    samples: np.ndarray

    def __post_init__(self):
        n = int(self.n_samples)
        if n < 2 or n & (n - 1):
            raise ValueError(f"sample count must be a power of two >= 2, got {n}")
        samples = np.asarray(self.samples, dtype=complex)
        if samples.shape != (n,):
            raise ValueError("samples must be a 1-d array of length n_samples")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "n_samples", n)
        object.__setattr__(self, "samples", _readonly(samples))

    def grid(self) -> np.ndarray:
        return np.arange(self.n_samples) * (TWO_PI / self.n_samples)


def triangle(interval: CircleInterval) -> PiecewiseLinearFunction:
    """Unit tent supported on ``interval``: 0 at the endpoints and outside,
    1 at the center, linear on each half.

    The interval must lie strictly inside (0, 2*pi) so the tent vanishes in
    a neighbourhood of the wrap point.
    """
    if interval.a <= 0.0 or interval.b >= TWO_PI:
        raise ValueError("interval must lie strictly inside (0, 2*pi)")
    knots = np.array([0.0, interval.a, interval.center, interval.b])
    values = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
    return PiecewiseLinearFunction(knots, values)


def sample(f: PiecewiseLinearFunction, n: int) -> GridFunction:
    """Sample ``f`` exactly on the uniform grid t_j = 2*pi*j/n."""
    n = int(n)
    if n < 2 or n & (n - 1):
        raise ValueError(f"sample count must be a power of two >= 2, got {n}")
    t = np.arange(n) * (TWO_PI / n)
    return GridFunction(n, f(t))


def total_variation(f: PiecewiseLinearFunction) -> float:
    """Total variation of a real-valued PL function, wrap segment included."""
    if not f.is_real:
        raise ValueError("total variation is defined here for real-valued functions only")
    y = f.values.real
    return float(np.sum(np.abs(np.diff(y)))) + abs(float(y[0] - y[-1]))
