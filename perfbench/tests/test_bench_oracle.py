"""The Clausen-C3 oracle against mpmath and against converging spectra."""

import math

import numpy as np
import pytest

import oracle
from circlelab import TWO_PI, PiecewiseLinearFunction, pl_spectrum, sobolev_spectral


def _random_real_pl(seed: int, knots: int) -> PiecewiseLinearFunction:
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, TWO_PI, knots))
    return PiecewiseLinearFunction(t, rng.uniform(-1.0, 1.0, knots).astype(complex))


def test_clausen_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    theta = np.concatenate([
        np.linspace(-3.0 * math.pi, 3.0 * math.pi, 601),
        [0.0, 1e-12, -1e-9, 1e-6, math.pi, -math.pi, math.pi - 1e-12, TWO_PI - 1e-9],
    ])
    ours = oracle.clausen_c3(theta)
    exact = np.array([float(mpmath.clcos(3, mpmath.mpf(float(t)))) for t in theta])
    assert np.max(np.abs(ours - exact)) <= 1e-14


def test_series_coefficients_are_the_zeta_form():
    # a_n = zeta(2n) / (n (2n+1) (2n+2) (2 pi)^(2n)); zeta(2) = pi^2/6, zeta(4) = pi^4/90
    assert oracle._A[0] == pytest.approx((math.pi**2 / 6) / (1 * 3 * 4 * TWO_PI**2), rel=1e-15)
    assert oracle._A[1] == pytest.approx((math.pi**4 / 90) / (2 * 5 * 6 * TWO_PI**4), rel=1e-15)


@pytest.mark.parametrize("seed,knots", [(1, 8), (2, 40), (3, 64)])
def test_oracle_bounds_and_is_approached_by_spectral_partial_sums(seed, knots):
    f = _random_real_pl(seed, knots)
    exact_sq = oracle.pl_seminorm(f) ** 2
    _, jumps = oracle.slope_jumps(f.knots, f.values)
    previous = 0.0
    gaps = []
    for p in range(6, 17, 2):
        k = 1 << p
        partial_sq = sobolev_spectral(pl_spectrum(f, k), 0.5) ** 2
        # the discarded tail 2 sum_{k>K} |S(k)|^2 / (4 pi^2 k^3) <= (sum |J|)^2 / (4 pi^2 K^2)
        tail_bound = (np.sum(np.abs(jumps)) / TWO_PI) ** 2 / k**2
        assert previous <= partial_sq <= exact_sq * (1.0 + 1e-12)
        assert exact_sq - partial_sq <= tail_bound
        previous = partial_sq
        gaps.append(exact_sq - partial_sq)
    assert gaps[-1] <= 1e-3 * gaps[0]


def test_constant_and_zero_jump_knots():
    flat = PiecewiseLinearFunction(np.array([0.0, 1.0, 2.0]), np.full(3, 0.5 + 0j))
    assert oracle.pl_seminorm(flat) == 0.0
    f = _random_real_pl(4, 16)
    # a knot inserted on a segment carries a zero jump and changes nothing
    mid = 0.5 * (f.knots[3] + f.knots[4])
    knots = np.insert(f.knots, 4, mid)
    values = np.insert(f.values, 4, f(mid))
    g = PiecewiseLinearFunction(knots, values)
    assert oracle.pl_seminorm(g) == pytest.approx(oracle.pl_seminorm(f), rel=1e-12)


def _extended_precision_sum(x, jumps):
    """The same pair sum in 80-bit long double, one row at a time."""
    ld = np.longdouble
    pi = ld("3.14159265358979323846264338327950288")
    coeffs = [ld(float(a)) for a in oracle._A]
    x, jumps = x.astype(ld), jumps.astype(ld)
    total = ld(0)
    for j in range(x.size - 1):
        d = x[j + 1 :] - x[j]
        t = np.minimum(d, 2 * pi - d)
        t2 = t * t
        poly = np.full(t.shape, coeffs[-1])
        for a in coeffs[-2::-1]:
            poly = poly * t2 + a
        kernel = t2 * (ld(-0.75) + np.log(t) / 2 - t2 * poly)
        total += jumps[j] * np.sum(kernel * jumps[j + 1 :])
    return float(total / (pi * pi))


def test_rounding_of_the_pair_sum_on_the_four_block_profile():
    from circlelab import ModulusSpec, build_delta_sequence, build_v, place_intervals

    seq = build_delta_sequence(ModulusSpec.power(1 / 3), 4)
    v = build_v(place_intervals(seq, seq.deltas.size))
    x, jumps = oracle.slope_jumps(v.knots, v.values)
    ours = oracle.seminorm_sq_from_jumps(x, jumps)
    assert ours == pytest.approx(_extended_precision_sum(x, jumps), rel=1e-8)
