"""Construction of the tent-function system driving the obstruction.

Given a modulus of continuity omega with limsup omega(d)/sqrt(d) = infinity,
a block sequence is built first: per block j a width eps_j with

    0 < eps_j < 2^-(j+1)   and   omega(eps_j)^2 / eps_j >= 2^j,

repeated n_j times where

    1/(2^(j+1) eps_j) <= n_j < 1/(2^j eps_j).

Flattening the blocks gives widths delta_k with sum_k delta_k <= 1 while
every block contributes at least 1/2 to sum_k omega(delta_k)^2 -- small
total width, divergent squared-weight sum.

On the circle, disjoint intervals I_k = [a_k, b_k] of length 6*delta_k are
packed left to right with equal gaps.  With J_k the left half of I_k and
w_k = omega(delta_k):

    u = sum_k w_k * tent(I_k),    v = sum_k w_k * tent(J_k),

and the complex profile under study is f = u + i*v.  Truncations
u_n = max(u, 1/n) are the bounded-variation approximants whose pairing
with v is bounded below interval by interval (see the stieltjes module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, PiecewiseLinearFunction, _readonly
from .seminorm import ModulusSpec

__all__ = [
    "ConstructionError",
    "DeltaSequence",
    "TriangleSystem",
    "build_delta_sequence",
    "place_intervals",
    "build_u",
    "build_v",
    "build_f",
    "truncate_un",
]

_MAX_FLATTENED = 10_000_000


class ConstructionError(RuntimeError):
    """Raised when no representable block sequence satisfies the constraints."""


@dataclass(frozen=True, eq=False)
class DeltaSequence:
    """Block sequence (eps_j, n_j, N_j) flattened to widths delta_k.

    ``block_starts`` holds N_0 = 1, N_j = N_{j-1} + n_j; delta_k = eps_j for
    N_{j-1} <= k < N_j.  ``omega_values`` carries omega(delta_k) so interval
    placement does not need the modulus again.
    """

    epsilons: np.ndarray
    block_sizes: np.ndarray
    block_starts: np.ndarray
    deltas: np.ndarray
    omega_values: np.ndarray

    def __post_init__(self):
        for name in ("epsilons", "deltas", "omega_values"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))
        for name in ("block_sizes", "block_starts"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=np.int64)))

    @property
    def blocks(self) -> int:
        return self.epsilons.size

    def block_slice(self, j: int) -> slice:
        """0-based slice of the flattened arrays covered by block j (1-based)."""
        if not (1 <= j <= self.blocks):
            raise IndexError(f"block {j} out of range")
        return slice(int(self.block_starts[j - 1]) - 1, int(self.block_starts[j]) - 1)

    def block_weight_sums(self) -> np.ndarray:
        """sum of omega(delta_k)^2 over each block."""
        return np.array(
            [float(np.sum(self.omega_values[self.block_slice(j)] ** 2)) for j in range(1, self.blocks + 1)]
        )


def _power_exponent(j: int, alpha: float) -> int:
    """Smallest m with 2^-m < 2^-(j+1) and m*(1-2*alpha) >= j."""
    m = j + 2
    denom = 1.0 - 2.0 * alpha
    target = j / denom
    cand = round(target)
    if abs(cand * denom - j) > 1e-9:
        cand = math.ceil(target - 1e-12)
    while cand * denom < j * (1.0 - 1e-12):
        cand += 1
    return max(m, cand)


def build_delta_sequence(omega: ModulusSpec, blocks: int, strict: bool = True) -> DeltaSequence:
    """Build the block sequence for ``blocks`` blocks.

    ``strict`` enforces the weight growth omega(eps_j)^2/eps_j >= 2^j, which
    requires omega(d)/sqrt(d) to be unbounded near zero (alpha < 1/2 for
    power moduli).  With ``strict=False`` only the width cap is applied;
    block sums may then fall below 1/2 (exploratory use only).
    """
    blocks = int(blocks)
    if blocks < 1:
        raise ValueError("need at least one block")
    if strict and omega.kind == "power" and omega.alpha >= 0.5:
        raise ConstructionError(
            f"power modulus alpha={omega.alpha} has bounded omega(d)/sqrt(d); "
            "no admissible block widths exist"
        )
    eps = np.empty(blocks)
    sizes = np.empty(blocks, dtype=np.int64)
    for j in range(1, blocks + 1):
        cap = 2.0 ** -(j + 1)
        if omega.kind == "power":
            m = _power_exponent(j, omega.alpha) if strict else j + 2
            if m > 1020:
                raise ConstructionError(
                    f"block {j}: required width 2^-{m} is not representable in"
                    " double precision (modulus too close to sqrt)"
                )
            e = 2.0**-m
        else:
            candidates = omega.deltas[(omega.deltas > 0.0) & (omega.deltas < cap)]
            e = None
            for cand in candidates[::-1]:
                if not strict or omega(cand) ** 2 / cand >= 2.0**j * (1.0 - 1e-12):
                    e = float(cand)
                    break
            if e is None:
                raise ConstructionError(
                    f"block {j}: no table point below {cap} with omega(d)^2/d >= 2^{j}"
                )
        if strict:
            ratio = omega(e) ** 2 / e
            if ratio < 2.0**j * (1.0 - 1e-12):
                raise ConstructionError(
                    f"block {j}: width {e} gives omega^2/width = {ratio} < 2^{j}"
                )
        n = math.ceil(1.0 / (2.0 ** (j + 1) * e))
        if not (n >= 1 and n < 1.0 / (2.0**j * e) * (1.0 + 1e-12)):
            raise ConstructionError(f"block {j}: no integer count in the bracket for width {e}")
        eps[j - 1] = e
        sizes[j - 1] = n
        if np.sum(sizes[:j]) > _MAX_FLATTENED:
            raise ConstructionError(
                f"flattened sequence exceeds {_MAX_FLATTENED} entries at block {j}"
            )
    starts = np.concatenate([[1], 1 + np.cumsum(sizes)]).astype(np.int64)
    deltas = np.repeat(eps, sizes)
    total = float(np.sum(deltas))
    if total > 1.0 + 1e-12:
        raise ConstructionError(f"total width {total} exceeds 1")
    weights = np.asarray(omega(deltas), dtype=float)
    return DeltaSequence(
        epsilons=eps,
        block_sizes=sizes,
        block_starts=starts,
        deltas=deltas,
        omega_values=weights,
    )


@dataclass(frozen=True, eq=False)
class TriangleSystem:
    """Disjoint tent intervals I_k = [a_k, b_k] inside (0, 2*pi).

    Stored per tent: left endpoint ``a``, right endpoint ``b = a + 6*delta``,
    peak position ``center = a + 3*delta`` (which is also the right end of
    the left half J_k = [a, center]), width parameter ``delta`` and weight
    ``w = omega(delta)``.  The middle third of J_k is [a + delta, a + 2*delta].
    """

    a: np.ndarray
    b: np.ndarray
    center: np.ndarray
    delta: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for name in ("a", "delta", "weight", "b", "center"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-d array, got shape {arr.shape}")
            object.__setattr__(self, name, _readonly(arr))
            if arr.size != self.a.size:
                raise ValueError(f"{name} has {arr.size} entries, a has {self.a.size}")
        if self.a.size:
            if self.a[0] <= 0.0 or self.b[-1] >= TWO_PI:
                raise ValueError("intervals must lie strictly inside (0, 2*pi)")
            if np.any(self.b[:-1] >= self.a[1:]):
                raise ValueError("intervals must be strictly ordered with gaps")
            if np.any(self.delta <= 0.0) or np.any(self.weight <= 0.0):
                raise ValueError("widths and weights must be positive")

    @property
    def count(self) -> int:
        return self.a.size

    @property
    def n_grid(self) -> list:
        """Distinct truncation levels ceil(3/w_k), ascending: the smallest n
        at which each tent is active (w_k >= 3/n)."""
        return sorted({math.ceil(3.0 / w) for w in self.weight.tolist()})

    @property
    def mid_lo(self) -> np.ndarray:
        return self.a + self.delta

    @property
    def mid_hi(self) -> np.ndarray:
        return self.a + 2.0 * self.delta

    def to_dict(self) -> dict:
        return {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "w": self.weight.tolist(),
            "delta": self.delta.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "TriangleSystem":
        a = np.asarray(d["a"], dtype=float)
        delta = np.asarray(d["delta"], dtype=float)
        return TriangleSystem(
            a=a,
            b=a + 6.0 * delta,
            center=a + 3.0 * delta,
            delta=delta,
            weight=np.asarray(d["w"], dtype=float),
        )


def place_intervals(seq: DeltaSequence, count: int) -> TriangleSystem:
    """Pack the first ``count`` tents left to right with equal gaps.

    The gap g = (2*pi - 6*sum(delta)) / (count + 1) precedes the first
    interval and separates/follows the rest, so everything stays strictly
    inside (0, 2*pi).
    """
    count = int(count)
    if count < 0:
        raise ValueError("count must be >= 0")
    if count > seq.deltas.size:
        raise ValueError(f"only {seq.deltas.size} widths available, asked for {count}")
    deltas = seq.deltas[:count]
    occupied = 6.0 * float(np.sum(deltas))
    if occupied >= TWO_PI:
        raise ValueError(f"{count} tents occupy {occupied} >= 2*pi; reduce the count")
    gap = (TWO_PI - occupied) / (count + 1)
    prefix = np.concatenate([[0.0], np.cumsum(6.0 * deltas)])[:count]
    a = gap * np.arange(1, count + 1) + prefix
    return TriangleSystem(
        a=a,
        b=a + 6.0 * deltas,
        center=a + 3.0 * deltas,
        delta=deltas.copy(),
        weight=seq.omega_values[:count].copy(),
    )


def _tent_sum(lefts, peaks, rights, weights) -> PiecewiseLinearFunction:
    k = lefts.size
    if k == 0:
        return PiecewiseLinearFunction(np.array([0.0]), np.array([0.0]))
    knots = np.empty(3 * k + 1)
    values = np.zeros(3 * k + 1)
    knots[0] = 0.0
    knots[1::3] = lefts
    knots[2::3] = peaks
    knots[3::3] = rights
    values[2::3] = weights
    return PiecewiseLinearFunction(knots, values)


def build_u(sys: TriangleSystem) -> PiecewiseLinearFunction:
    """u = sum_k w_k * tent(I_k): peaks w_k at the interval centers."""
    return _tent_sum(sys.a, sys.center, sys.b, sys.weight)


def build_v(sys: TriangleSystem) -> PiecewiseLinearFunction:
    """v = sum_k w_k * tent(J_k): tents on the left halves [a_k, center_k]."""
    return _tent_sum(sys.a, sys.a + 1.5 * sys.delta, sys.center, sys.weight)


def build_f(sys: TriangleSystem) -> PiecewiseLinearFunction:
    """f = u + i*v on the union knot set."""
    u = build_u(sys)
    v = build_v(sys)
    knots = np.unique(np.concatenate([u.knots, v.knots]))
    return PiecewiseLinearFunction(knots, u(knots) + 1j * v(knots))


def truncate_un(u: PiecewiseLinearFunction, n: int) -> PiecewiseLinearFunction:
    """Pointwise max(u, 1/n) as an exact PL function.

    New knots are inserted where u crosses the level 1/n, so the result is
    exactly the truncation everywhere, not just at the original knots.
    """
    n = int(n)
    if n < 1:
        raise ValueError("truncation index must be a positive integer")
    if not u.is_real:
        raise ValueError("truncation applies to real-valued functions")
    c = 1.0 / n
    t = u.knots
    y = u.values
    t_next = u.ext_knots[1:]
    y_next = u.ext_values[1:]
    crossing = (y - c) * (y_next - c) < 0.0
    tc = t[crossing] + (c - y[crossing]) / (y_next[crossing] - y[crossing]) * (
        t_next[crossing] - t[crossing]
    )
    tc = np.where(tc >= TWO_PI, tc - TWO_PI, tc)
    knots = np.concatenate([t, tc])
    values = np.concatenate([np.maximum(y, c), np.full(tc.size, c)])
    order = np.argsort(knots, kind="stable")
    knots = knots[order]
    values = values[order]
    keep = np.concatenate([[True], np.diff(knots) > 0.0])
    return PiecewiseLinearFunction(knots[keep], values[keep])
