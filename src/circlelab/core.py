"""Functions on the circle T = R/(2*pi*Z).

Two concrete carriers are used everywhere in this package:

* :class:`PiecewiseLinearFunction` -- an exact finite-knot representation
  of a continuous periodic function (strictly increasing knot angles in
  [0, 2*pi), real or complex values, linear interpolation between knots,
  and a wrap segment from the last knot back to the first).  Every PL function
  in the package is of this kind.  The class is the only code that knows
  the wrap-segment layout; everything else reads it through the read-only
  segment views ``ext_knots`` and ``ext_values`` (knots and values closed
  by the wrap knot) and the lazily cached ``slopes`` and ``jumps``.
* :class:`GridFunction` -- uniform power-of-two sample grids, the carrier
  for FFT-based computations.

A PL function's values are float64 when every imaginary part is exactly
zero and complex128 otherwise, so ``is_real`` is a dtype test and real data
stay real through every operation built on them; operations that only make
sense for real functions check it.  All objects are immutable after
construction (backing arrays are marked read-only), so everything here is
safe for concurrent read-only use.
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
    value at each knot, stored as float64 when every imaginary part is
    exactly zero and as complex128 otherwise.  Between knots the function
    is the linear interpolant; the final segment wraps from the last knot
    to ``knots[0] + 2*pi`` where it takes ``values[0]`` again.

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
        values = np.atleast_1d(np.asarray(self.values))
        if np.iscomplexobj(values) and np.any(values.imag):
            values = values.astype(complex, copy=False)
        else:
            values = values.real.astype(float, copy=False)
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
        return self.values.dtype == float

    @cached_property
    def slopes(self) -> np.ndarray:
        """Slope of each segment, the wrap segment last."""
        return _readonly(np.diff(self.ext_values) / np.diff(self.ext_knots))

    @cached_property
    def jumps(self) -> np.ndarray:
        """Slope jump at each knot: slope after minus slope before."""
        return _readonly(self.slopes - np.roll(self.slopes, 1))

    def __call__(self, t):
        """f at an angle or an array of angles; angles outside [0, 2*pi) are
        reduced first and non-finite ones raise ``ValueError``."""
        t = np.asarray(t, dtype=float)
        if t.size and not (t.min() >= 0.0 and t.max() < TWO_PI):
            t = np.asarray(reduce_angle(t))
        # angles below the first knot lie on the wrap segment, 2*pi up
        if self.knots[0] > 0.0:
            t = np.where(t < self.knots[0], t + TWO_PI, t)
        return np.interp(t, self.ext_knots, self.ext_values)

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


def triangle(interval: CircleInterval) -> PiecewiseLinearFunction:
    """Unit tent supported on ``interval``: 0 at the endpoints and outside,
    1 at the center, linear on each half.

    The interval must lie strictly inside (0, 2*pi) so the tent vanishes in
    a neighbourhood of the wrap point.
    """
    if interval.a <= 0.0 or interval.b >= TWO_PI:
        raise ValueError("interval must lie strictly inside (0, 2*pi)")
    knots = np.array([0.0, interval.a, interval.center, interval.b])
    values = np.array([0.0, 0.0, 1.0, 0.0])
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
    return float(np.sum(np.abs(np.diff(f.ext_values))))
