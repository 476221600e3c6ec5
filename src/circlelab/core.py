"""Functions on the circle T = R/(2*pi*Z).

Two concrete carriers are used everywhere in this package:

* :class:`PiecewiseLinearFunction` -- an exact finite-knot representation
  of a continuous periodic function (strictly increasing knot angles in
  [0, 2*pi), real or complex values, linear interpolation between knots,
  and a wrap segment from the last knot back to the first).  Every PL function
  in the package is of this kind.  This module is the only code that knows
  the wrap-segment layout; everything else reads it through the read-only
  segment views ``ext_knots`` and ``ext_values`` (knots and values closed
  by the wrap knot), the lazily cached ``slopes`` and ``jumps``, the same
  closure on several functions' merged knots (``_on_merged_knots``), and
  builds functions by ``from_points`` (points in any order), ``_from_sorted_runs``
  (two runs of points, each sorted by knot, merged without a sort) or
  ``_tent_sum``.
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


def _float_fields(d, kind: str, names) -> list:
    """The named fields of a JSON payload as float arrays.  A payload that is
    not an object, lacks a field or holds a field that is not numeric is
    rejected with a ``ValueError`` naming the field."""
    if not isinstance(d, dict):
        raise ValueError(f"{kind} must be a JSON object, got {type(d).__name__}")
    missing = [name for name in names if name not in d]
    if missing:
        raise ValueError(f"{kind} is missing field(s) {', '.join(map(repr, missing))}")
    out = []
    for name in names:
        try:
            out.append(np.asarray(d[name], dtype=float))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{kind} field {name!r} is not numeric: {exc}") from None
    return out


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
        if not np.all(knots[1:] > knots[:-1]):
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
    def from_points(knots, values) -> "PiecewiseLinearFunction":
        """The function through points given in any order: the points are
        sorted stably by knot, and of equal knots the first one given is kept.
        Non-finite knots are kept, so that the constructor rejects them."""
        order = np.argsort(knots, kind="stable")
        # rebound as soon as sorted, so no unsorted copy outlives its use
        knots = np.asarray(knots, dtype=float)[order]
        values = np.asarray(values)[order]
        keep = np.concatenate([[True], knots[1:] != knots[:-1]])
        return PiecewiseLinearFunction(knots[keep], values[keep])

    @staticmethod
    def from_dict(d: dict) -> "PiecewiseLinearFunction":
        knots, re, im = _float_fields(d, "PL function", ("knots", "re", "im"))
        return PiecewiseLinearFunction(knots, re + 1j * im)


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


def _from_sorted_runs(knots_a, values_a, knots_b, values_b) -> PiecewiseLinearFunction:
    """``from_points`` of the points of run a followed by those of run b, bit
    for bit, when each run's knots are strictly increasing: b's points are
    inserted among a's without a sort, and a point of b at a knot of a is
    dropped, as the stable sort puts it after a's and the first is kept.
    Other runs, an empty run a among them, go through ``from_points``."""
    if not (knots_a.size and np.all(knots_a[1:] > knots_a[:-1]) and np.all(knots_b[1:] > knots_b[:-1])):
        return PiecewiseLinearFunction.from_points(
            np.concatenate([knots_a, knots_b]), np.concatenate([values_a, values_b])
        )
    at = np.searchsorted(knots_a, knots_b, side="right")
    # a knot of a equal to b's is the one just before b's place; at place 0,
    # index -1 reads a's last knot, which is above b's
    new = knots_a[at - 1] != knots_b
    at, knots_b, values_b = at[new], knots_b[new], values_b[new]
    # rebound as soon as merged, so no run outlives its use
    knots_a = np.insert(knots_a, at, knots_b)
    values_a = values_a.astype(np.result_type(values_a, values_b), copy=False)
    return PiecewiseLinearFunction(knots_a, np.insert(values_a, at, values_b))


def _on_merged_knots(fs, extra=()) -> tuple:
    """The sorted union t of the functions' knots and the ``extra`` angles, and
    each function's values at t closed by its value at the wrap knot t[0] + 2*pi:
    piece i runs from t[i] to t[i + 1], the last one to the wrap knot."""
    t = np.unique(np.concatenate([f.knots for f in fs] + list(extra)))
    closed = []
    for f in fs:
        # grown in place, so no second merged-length array is made
        y = f(t)
        y.resize(t.size + 1, refcheck=False)
        y[-1] = y[0]
        closed.append(y)
    return t, closed


def _tent_sum(lefts, peaks, rights, weights) -> PiecewiseLinearFunction:
    """Sum of disjoint tents in increasing order strictly inside (0, 2*pi): tent k
    rises from 0 at ``lefts[k]`` to ``weights[k]`` at ``peaks[k]``, back to 0 at ``rights[k]``."""
    knots = np.zeros(3 * lefts.size + 1)
    values = np.zeros(3 * lefts.size + 1)
    knots[1::3] = lefts
    knots[2::3] = peaks
    knots[3::3] = rights
    values[2::3] = weights
    return PiecewiseLinearFunction(knots, values)


def triangle(interval: CircleInterval) -> PiecewiseLinearFunction:
    """Unit tent supported on ``interval``: 0 at the endpoints and outside,
    1 at the center, linear on each half.

    The interval must lie strictly inside (0, 2*pi) so the tent vanishes in
    a neighbourhood of the wrap point.
    """
    if interval.a <= 0.0 or interval.b >= TWO_PI:
        raise ValueError("interval must lie strictly inside (0, 2*pi)")
    return _tent_sum(np.array([interval.a]), np.array([interval.center]), np.array([interval.b]), 1.0)


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
