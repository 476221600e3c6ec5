"""Increasing piecewise-linear homeomorphisms of the circle.

A map is stored by matching knot lists (t_i, s_i), both strictly increasing
in [0, 2*pi) and starting at 0 (rotations are quotiented out: both seminorm
forms are rotation-invariant, so fixing h(0) = 0 loses no generality for
the searches here).  The map is linear between knots and extends by
h(t + 2*pi) = h(t) + 2*pi.

Superposition f o h is computed exactly: its knot set is the union of h's
input knots with the h-preimages of f's knots, and values are taken from
f's knot values directly (never re-evaluated through a round trip), so
sup-norm and total variation are preserved to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, PiecewiseLinearFunction, _readonly, reduce_angle

__all__ = [
    "PLHomeomorphism",
    "from_increments",
    "superpose",
    "random_homeomorphism",
]

_RAW_CLIP = 12.0  # keeps softmax increments representable: spans <= e^24


@dataclass(frozen=True, eq=False)
class PLHomeomorphism:
    """Orientation-preserving PL circle homeomorphism with h(0) = 0."""

    knots_in: np.ndarray
    knots_out: np.ndarray

    def __post_init__(self):
        kin = np.atleast_1d(np.asarray(self.knots_in, dtype=float))
        kout = np.atleast_1d(np.asarray(self.knots_out, dtype=float))
        if kin.shape != kout.shape or kin.ndim != 1 or kin.size < 1:
            raise ValueError("knot lists must be matching 1-d arrays")
        for arr, name in ((kin, "input"), (kout, "output")):
            if arr[0] != 0.0:
                raise ValueError(f"{name} knots must start at 0")
            if arr[-1] >= TWO_PI or (arr.size > 1 and not np.all(np.diff(arr) > 0.0)):
                raise ValueError(f"{name} knots must be strictly increasing in [0, 2*pi)")
        object.__setattr__(self, "knots_in", _readonly(kin))
        object.__setattr__(self, "knots_out", _readonly(kout))

    @staticmethod
    def identity(knot_count: int = 2) -> "PLHomeomorphism":
        t = np.arange(int(knot_count)) * (TWO_PI / int(knot_count))
        return PLHomeomorphism(t, t.copy())

    @property
    def n_knots(self) -> int:
        return self.knots_in.size

    def apply(self, t):
        scalar = np.isscalar(t) or np.ndim(t) == 0
        tt = np.atleast_1d(reduce_angle(t))
        t_ext = np.concatenate([self.knots_in, [TWO_PI]])
        s_ext = np.concatenate([self.knots_out, [TWO_PI]])
        idx = np.searchsorted(t_ext, tt, side="right") - 1
        idx = np.clip(idx, 0, t_ext.size - 2)
        lam = (tt - t_ext[idx]) / (t_ext[idx + 1] - t_ext[idx])
        out = s_ext[idx] + lam * (s_ext[idx + 1] - s_ext[idx])
        return float(out[0]) if scalar else out

    __call__ = apply

    def invert(self) -> "PLHomeomorphism":
        return PLHomeomorphism(self.knots_out, self.knots_in)

    def to_dict(self) -> dict:
        return {"t": self.knots_in.tolist(), "s": self.knots_out.tolist()}

    @staticmethod
    def from_dict(d: dict) -> "PLHomeomorphism":
        return PLHomeomorphism(np.asarray(d["t"], float), np.asarray(d["s"], float))


def from_increments(raw) -> PLHomeomorphism:
    """Homeomorphism from an unconstrained vector: softmax of ``raw`` gives
    the output increments over uniform input knots, so every real vector
    yields a valid map.  Entries are clipped to +-12 before the softmax to
    keep all increments representable."""
    raw = np.atleast_1d(np.asarray(raw, dtype=float))
    if raw.ndim != 1 or raw.size < 2:
        raise ValueError("need a vector of at least 2 increments")
    if not np.all(np.isfinite(raw)):
        raise ValueError("increments must be finite")
    w = np.exp(np.clip(raw - np.mean(raw), -_RAW_CLIP, _RAW_CLIP))
    p = w / np.sum(w) * TWO_PI
    m = raw.size
    kin = np.arange(m) * (TWO_PI / m)
    kout = np.concatenate([[0.0], np.cumsum(p)[:-1]])
    return PLHomeomorphism(kin, kout)


def superpose(f: PiecewiseLinearFunction, h: PLHomeomorphism) -> PiecewiseLinearFunction:
    """Exact PL representation of f o h.

    Knots: h's input knots plus h-preimages of f's knots.  Values carry
    over exactly -- f's knot values at the preimages, f evaluated at h's
    exact output knots elsewhere.
    """
    z = np.atleast_1d(h.invert().apply(f.knots))
    positions = np.concatenate([z, h.knots_in])
    values = np.concatenate([f.values, f(h.knots_out)])
    order = np.argsort(positions, kind="stable")
    positions = positions[order]
    values = values[order]
    keep = np.concatenate([[True], np.diff(positions) > 0.0])
    return PiecewiseLinearFunction(positions[keep], values[keep])


def random_homeomorphism(knot_count: int, roughness: float = 1.0, rng=None) -> PLHomeomorphism:
    """Seeded random map: raw increments i.i.d. uniform on [-roughness, roughness]."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    raw = gen.uniform(-float(roughness), float(roughness), int(knot_count))
    return from_increments(raw)
