import math
from fractions import Fraction

import numpy as np
import pytest

from circlelab import (
    TWO_PI,
    CircleInterval,
    GridFunction,
    ModulusSpec,
    PiecewiseLinearFunction,
    SpectrumCoeffs,
    build_delta_sequence,
    build_u,
    build_v,
    default_delta_grid,
    equivalence_scan,
    harmonic,
    harmonic_shift_weight,
    lip_check,
    modulus_of_continuity,
    place_intervals,
    pl_seminorm,
    pl_spectrum,
    reduce_angle,
    sample,
    sobolev_integral,
    sobolev_spectral,
    synthesize,
    triangle,
)
from circlelab import seminorm
from circlelab.experiments import _random_pl


def test_pl_seminorm_matches_mpmath_clausen_sum():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    for _ in range(12):
        f = _random_pl(rng, 20)
        with mpmath.workdps(40):
            x = [mpmath.mpf(float(t)) for t in f.knots]
            jumps = [mpmath.mpf(float(j)) for j in f.jumps]
            # C3(0) = zeta(3) on the diagonal, each off-diagonal pair twice
            total = mpmath.zeta(3) * mpmath.fsum(j * j for j in jumps)
            total += 2 * mpmath.fsum(
                jumps[i] * jumps[l] * mpmath.clcos(3, x[l] - x[i])
                for i in range(len(x))
                for l in range(i + 1, len(x))
            )
            exact = float(mpmath.sqrt(total / (2 * mpmath.pi**2)))
        assert pl_seminorm(f) == pytest.approx(exact, rel=1e-10, abs=0.0)


def test_pl_seminorm_bounds_and_is_approached_by_truncated_spectra():
    f = _random_pl(np.random.default_rng(3), 64)
    exact = pl_seminorm(f)
    gaps = [exact - sobolev_spectral(pl_spectrum(f, 1 << p), 0.5) for p in range(6, 17)]
    assert all(g > 0.0 for g in gaps)
    assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-5 * exact


def test_pl_seminorm_unit_tent_closed_form():
    # ||tent||^2 = (2 / (pi^2 L^2)) (2 K(L) - 8 K(L/2)) with K = C3 - zeta(3)
    mpmath = pytest.importorskip("mpmath")

    def K(t):
        return mpmath.clcos(3, t) - mpmath.zeta(3)

    for a, width in ((1.0, 0.001), (1.0, 0.5), (0.5, 2.0), (1.0, 3.0), (0.1, 6.0)):
        with mpmath.workdps(40):
            L = mpmath.mpf(width)
            exact = float(mpmath.sqrt(2 / (mpmath.pi**2 * L**2) * (2 * K(L) - 8 * K(L / 2))))
        tent = triangle(CircleInterval(a, a + width))
        assert pl_seminorm(tent) == pytest.approx(exact, rel=1e-12)


def test_pl_seminorm_complex_is_sum_of_parts():
    f = _random_pl(np.random.default_rng(5), 64, complex_values=True)
    re = PiecewiseLinearFunction(f.knots, f.values.real)
    im = PiecewiseLinearFunction(f.knots, f.values.imag)
    assert pl_seminorm(f) ** 2 == pytest.approx(pl_seminorm(re) ** 2 + pl_seminorm(im) ** 2, rel=1e-12)


@pytest.mark.parametrize("complex_values", [False, True])
def test_pl_seminorm_agrees_with_difference_quotient_form(complex_values):
    # |||e^{ikt}|||^2 = 2 pi w(k) with w(k) = 2|k| Si(2 pi |k|), so
    # |||f|||^2 = 2 pi^2 ||f||^2 - 4 pi sum_k |k| (pi/2 - Si(2 pi |k|)) |fhat(k)|^2;
    # the correction decays like |fhat(k)|^2, so K = 2^12 leaves ~1e-7
    from scipy.special import sici

    f = _random_pl(np.random.default_rng(11), 64, complex_values=complex_values)
    spec = pl_spectrum(f, 1 << 12)
    k = np.abs(spec.k_values).astype(float)
    correction = 4 * math.pi * np.sum(k * (0.5 * math.pi - sici(TWO_PI * k)[0]) * np.abs(spec.coeffs) ** 2)
    predicted = 2 * math.pi**2 * pl_seminorm(f) ** 2 - correction
    # the grid error of the difference-quotient form shrinks like 1/N
    errors = [abs(sobolev_integral(sample(f, n)) ** 2 - predicted) / predicted for n in (1 << 12, 1 << 14)]
    assert errors[1] < 3e-3
    assert errors[1] < 0.5 * errors[0]


def test_pl_seminorm_constant_and_single_knot_vanish():
    assert pl_seminorm(PiecewiseLinearFunction(np.array([2.0]), np.array([4.0 + 1j]))) == 0.0
    flat = PiecewiseLinearFunction(np.array([0.0, 1.0, 2.0]), np.full(3, -3.0 + 0j))
    assert pl_seminorm(flat) == 0.0


def test_spectral_single_harmonic():
    assert sobolev_spectral(harmonic(4), 0.5) == 2.0
    assert sobolev_spectral(harmonic(9), 0.5) == 3.0


def test_spectral_constant_vanishes():
    c = SpectrumCoeffs(2, np.array([0, 0, 7.0, 0, 0], dtype=complex))
    assert sobolev_spectral(c, 0.5) == 0.0


def test_spectral_lacunary_partial_sums():
    # sum_{k<=K} 2^{-k/2} e^{i 2^k t}: every term contributes exactly 1
    for K in (0, 3, 7):
        F = 1 << K
        coeffs = np.zeros(2 * F + 1, dtype=complex)
        for k in range(K + 1):
            coeffs[F + (1 << k)] = math.sqrt(2.0**-k)
        val = sobolev_spectral(SpectrumCoeffs(F, coeffs), 0.5) ** 2
        assert abs(val - (K + 1)) < 1e-12 * (K + 1)


def test_spectral_rejects_bad_order():
    with pytest.raises(ValueError):
        sobolev_spectral(harmonic(1), 0.0)
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"order s must be finite and positive, got {s}"):
            sobolev_spectral(harmonic(1), s)


def test_spectral_rejects_an_order_that_overflows():
    # 2^800 is a float64, 3^800 is not; no overflow warning escapes
    assert sobolev_spectral(harmonic(2), 400.0) == 2.0**400
    with pytest.raises(ValueError, match=r"^the order-s seminorm overflows float64 at s = 400\.0$"):
        sobolev_spectral(harmonic(3), 400.0)


def test_integral_constant_vanishes():
    g = GridFunction(64, np.full(64, 2.3, dtype=complex))
    assert sobolev_integral(g) == 0.0


def test_integral_matches_quadrature_oracle_for_first_harmonic():
    # scalar oracle: |||e^{it}|||^2 = 2*pi * int 4 sin^2(theta/2)/theta^2 dtheta
    g = synthesize(harmonic(1, max_freq=2), 1 << 12)
    oracle = math.sqrt(TWO_PI * harmonic_shift_weight(1))
    assert abs(sobolev_integral(g) - oracle) / oracle < 1e-3


def test_shift_weight_scales_linearly():
    # w(k)/k settles near a constant; bracket recorded from the oracle
    ratios = [harmonic_shift_weight(k) / k for k in range(1, 65)]
    assert 2.7 < min(ratios) and max(ratios) < 3.3


def test_integral_agrees_with_double_loop():
    # the weight form must equal the literal double sum
    rng = np.random.default_rng(2)
    n = 64
    for samples in (rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal(size=n)):
        g = GridFunction(n, samples)
        total = 0.0
        for m in range(1, n):
            theta = m * (TWO_PI / n)
            inner = TWO_PI * np.mean(np.abs(np.roll(samples, -m) - samples) ** 2)
            total += (TWO_PI / n) * inner / theta**2
        assert abs(sobolev_integral(g) - math.sqrt(total)) < 1e-12


def _autocorrelation_integral(g):
    """The difference-quotient seminorm through the circular autocorrelation:
    shift energies 2 (power - Re corr_m), clamped at 0, summed against the
    midpoint weights of 1/theta^2."""
    n = g.n_samples
    big = np.fft.fft(g.samples)
    corr = np.fft.ifft(np.abs(big) ** 2) / n
    energies = np.maximum(2.0 * (corr[0].real - corr.real), 0.0)
    thetas = np.arange(1, n) * (TWO_PI / n)
    return math.sqrt(np.sum((TWO_PI / n) * (TWO_PI * energies[1:]) / thetas**2))


def test_integral_matches_the_autocorrelation_form():
    from circlelab.experiments import _random_trig_poly

    rng = np.random.default_rng(17)
    grids = [synthesize(_random_trig_poly(rng, 64), 1 << 14) for _ in range(20)]
    grids += [sample(_random_pl(rng, 64), 1 << 14) for _ in range(5)]
    grids += [sample(_random_pl(rng, 64), 1 << 12) for _ in range(5)]
    for g in grids:
        assert sobolev_integral(g) == pytest.approx(_autocorrelation_integral(g), rel=1e-12, abs=0.0)


def test_shift_weights_are_cached_read_only_and_symmetric():
    for n in (2, 64, 1024, 4096, 1 << 14):
        w = seminorm._shift_weights(n)
        assert seminorm._shift_weights(n) is w
        assert not w.flags.writeable
        assert w.shape == (n,) and w[0] == 0.0
        assert np.array_equal(w[1:], w[:0:-1])
        assert np.all(w[1:] >= 0.0)


def test_modulus_triangle():
    tri = triangle(CircleInterval(1.0, 2.0))
    assert modulus_of_continuity(tri, 0.5) == 1.0
    assert modulus_of_continuity(tri, 0.25) == 0.5
    assert modulus_of_continuity(tri, 0.0) == 0.0
    assert modulus_of_continuity(tri, math.pi) == 1.0


def test_modulus_sees_wrap_distance():
    # peaks on both sides of the seam: circular distance makes them close
    from circlelab import PiecewiseLinearFunction

    f = PiecewiseLinearFunction(
        np.array([0.0, 0.1, 0.2, 6.0, 6.1, 6.2]),
        np.array([0.0, 1.0, 0.0, 0.0, -1.0, 0.0], dtype=complex),
    )
    assert modulus_of_continuity(f, 0.5) == 2.0


def _brute_force_modulus(f, delta):
    """O(M^2) enumeration: knot pairs within circular distance delta, and
    each knot against the points at distance exactly delta."""
    t, y = f.knots, f.values
    best = 0.0
    for i in range(t.size):
        for j in range(t.size):
            gap = abs(t[i] - t[j])
            if min(gap, TWO_PI - gap) <= delta:
                best = max(best, abs(y[i] - y[j]))
        for s in (t[i] + delta, t[i] - delta):
            best = max(best, abs(f(s) - y[i]))
    return best


def test_modulus_matches_brute_force_enumeration():
    rng = np.random.default_rng(8)
    functions = [_random_pl(rng, 24) for _ in range(11)]
    # support straddling the wrap point: zero on [0.6, 5.6]
    knots = np.array([0.0, 0.3, 0.6, 2.0, 4.0, 5.6, 5.9, 6.2])
    values = np.concatenate([rng.uniform(-1.0, 1.0, 2), np.zeros(4), rng.uniform(-1.0, 1.0, 2)])
    functions.append(PiecewiseLinearFunction(knots, values))
    # 300 distinct values: ranks past 255 need two bytes
    functions.append(PiecewiseLinearFunction(np.sort(rng.uniform(0.0, TWO_PI, 300)), rng.normal(size=300)))
    deltas =np.array([1e-4, 0.3, 1.0, 2.5, math.pi - 1e-9, math.pi, TWO_PI])
    for f in functions:
        expected = np.array([_brute_force_modulus(f, d) for d in deltas])
        assert np.array_equal(modulus_of_continuity(f, deltas), expected)
        for d, e in zip(deltas, expected):
            got = modulus_of_continuity(f, float(d))
            assert isinstance(got, float) and got == e


def test_modulus_rejects_complex_functions_and_bad_deltas():
    f = _random_pl(np.random.default_rng(9), 24, complex_values=True)
    with pytest.raises(ValueError, match="real-valued"):
        modulus_of_continuity(f, 0.5)
    tri = triangle(CircleInterval(1.0, 2.0))
    for bad in (math.nan, -0.1, 7.0, [0.5, math.nan]):
        with pytest.raises(ValueError, match="delta"):
            modulus_of_continuity(tri, bad)
    for bad in ([0.5, math.nan], [0.0, 0.5], [], [[0.5]]):
        with pytest.raises(ValueError, match="delta"):
            lip_check(tri, ModulusSpec.power(0.5), bad)


def _reduceat_modulus(f, deltas):
    """The knot-window search with each window's extremes taken by
    ``reduceat`` over the doubled knot values, no sparse table, plus the two
    edge values f(t +- delta)."""
    t, y = f.knots, f.values
    n = t.size
    t_ext = np.concatenate([t, t + TWO_PI])
    y_ext = np.concatenate([y, y, y[:1]])  # hi + 1 <= 2n stays a valid index
    lo = np.arange(1, n + 1)
    out = []
    for d in deltas:
        hi = np.searchsorted(t_ext, t + d, side="right") - 1
        bounds = np.stack([lo, hi + 1], axis=1).ravel()
        top = np.maximum.reduceat(y_ext, bounds)[::2]
        bottom = np.minimum.reduceat(y_ext, bounds)[::2]
        full = hi >= lo
        best = np.max(np.maximum(top - y, y - bottom)[full], initial=0.0)
        up = np.max(np.abs(f(reduce_angle(t + d)) - y))
        down = np.max(np.abs(f(reduce_angle(t - d)) - y))
        out.append(max(best, up, down))
    return np.array(out)


def test_modulus_matches_window_reductions_on_the_construction():
    # 2,047 knots: 11 table levels, and windows that run past the last knot
    omega = ModulusSpec.power(1.0 / 3.0)
    seq = build_delta_sequence(omega, 5)
    sys_ = place_intervals(seq, seq.deltas.size)
    deltas = default_delta_grid()
    for f in (build_u(sys_), build_v(sys_)):
        assert f.knots.size == 2047
        assert np.array_equal(modulus_of_continuity(f, deltas), _reduceat_modulus(f, deltas))


def test_lip_check_builds_each_sparse_table_once(monkeypatch):
    built = []

    def counting(a, op, longest):
        table = build(a, op, longest)
        built.append((op, table.shape))
        return table

    build = seminorm._sparse_tables
    monkeypatch.setattr(seminorm, "_sparse_tables", counting)
    omega = ModulusSpec.power(1.0 / 3.0)
    seq = build_delta_sequence(omega, 4)
    u = build_u(place_intervals(seq, seq.deltas.size))
    lip_check(u, omega)
    # two periods of ranks, and only the rows of windows up to one period
    n = u.n_knots
    assert built == [(np.maximum, (n.bit_length(), 2 * n)), (np.minimum, (n.bit_length(), 2 * n))]


def test_lip_check_constant_is_zero():
    from circlelab import PiecewiseLinearFunction

    const = PiecewiseLinearFunction(np.array([0.0]), np.array([5.0 + 0j]))
    rep = lip_check(const, ModulusSpec.power(0.5))
    assert rep.max_ratio == 0.0


def test_lip_check_single_tent_constant_four():
    # tent of width 6*delta and height omega(delta): ratio <= 4 up to the width
    delta = 0.05
    omega = ModulusSpec.power(1.0 / 3.0)
    w = omega(delta)
    from circlelab import PiecewiseLinearFunction

    a = 1.0
    tent = PiecewiseLinearFunction(
        np.array([0.0, a, a + 3 * delta, a + 6 * delta]),
        np.array([0.0, 0.0, w, 0.0], dtype=complex),
    )
    grid = np.geomspace(1e-4, 6 * delta, 25)
    rep = lip_check(tent, omega, grid)
    assert rep.max_ratio <= 4.0 + 1e-9


def test_default_delta_grid():
    grid = default_delta_grid()
    assert grid.size == 20
    assert abs(grid[0] - math.pi) < 1e-15
    assert np.all(np.diff(grid) < 0)


def test_equivalence_harmonics_interval():
    est = equivalence_scan([harmonic(k) for k in range(1, 33)], 1 << 13)
    assert est.sample_count == 32
    assert est.spread < 4.0


def test_equivalence_oracle_match():
    for k in (1, 7, 32):
        measured = sobolev_integral(synthesize(harmonic(k), 1 << 14)) / math.sqrt(k)
        oracle = math.sqrt(TWO_PI * harmonic_shift_weight(k)) / math.sqrt(k)
        assert abs(measured - oracle) / oracle < 0.01


def test_equivalence_scaling_invariance():
    c = harmonic(3)
    c7 = SpectrumCoeffs(3, 7.0 * c.coeffs)
    n = 1 << 10
    r1 = sobolev_integral(synthesize(c, n)) / sobolev_spectral(c, 0.5)
    r2 = sobolev_integral(synthesize(c7, n)) / sobolev_spectral(c7, 0.5)
    assert abs(r1 - r2) < 1e-12


def test_equivalence_rejects_degenerate():
    c = SpectrumCoeffs(1, np.array([0.0, 5.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        equivalence_scan([c], 64)


def test_trig_integral_matches_the_sample_path():
    # |G_k|^2 = n^2 |fhat(k)|^2 read from the spectrum, up to max_freq = n/2 - 1
    rng = np.random.default_rng(29)
    for n in (1 << p for p in range(8, 15)):
        for i in range(20):
            d = n // 2 - 1 if i == 0 else int(rng.integers(1, n // 2))
            coeffs = rng.normal(size=2 * d + 1) + 1j * rng.normal(size=2 * d + 1)
            c = SpectrumCoeffs(d, coeffs / (1.0 + np.abs(np.arange(-d, d + 1))))
            sampled = sobolev_integral(synthesize(c, n))
            assert seminorm._trig_integral(c, n) == pytest.approx(sampled, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [64, 48, 96, 0])
def test_equivalence_rejects_grids_that_cannot_hold_the_spectrum(n):
    # harmonic 32 needs a power of two above 64
    with pytest.raises(ValueError):
        equivalence_scan([harmonic(1), harmonic(32)], n)
    with pytest.raises(ValueError):
        seminorm._trig_integral(harmonic(32), n)
    assert equivalence_scan([harmonic(1), harmonic(32)], 128).sample_count == 2


def test_equivalence_random_stability():
    from circlelab.experiments import _random_trig_poly

    spreads = []
    for seed in (42, 1042):
        rng = np.random.default_rng(seed)
        polys = [_random_trig_poly(rng, 64) for _ in range(100)]
        spreads.append(equivalence_scan(polys, 1 << 12).spread)
    assert all(s < 10.0 for s in spreads)


def test_power_modulus_validation():
    with pytest.raises(ValueError):
        ModulusSpec.power(0.0)
    with pytest.raises(ValueError):
        ModulusSpec.power(1.5)
    m = ModulusSpec.power(0.5)
    assert m(0.25) == 0.5


def test_table_modulus_validation():
    good = ModulusSpec.table([0.0, 0.5, 1.0], [0.0, 0.7, 1.0])
    assert good(0.25) == pytest.approx(0.35)
    assert good(2.0) == 1.0  # constant extension
    with pytest.raises(ValueError):
        ModulusSpec.table([0.1, 0.5], [0.1, 0.5])  # must start at (0, 0)
    with pytest.raises(ValueError):
        ModulusSpec.table([0.0, 0.5, 1.0], [0.0, 0.7, 0.6])  # decreasing
    with pytest.raises(ValueError):
        # omega(x) = x^2 on a grid is not subadditive
        xs = np.linspace(0.0, 1.0, 11)
        ModulusSpec.table(xs, xs**2)
    for name in ("deltas", "omegas"):
        for bad in (math.nan, math.inf, -math.inf):
            table = {"deltas": np.linspace(0.0, 1.0, 8), "omegas": np.sqrt(np.linspace(0.0, 1.0, 8))}
            table[name][5] = bad
            with pytest.raises(ValueError, match=f"^table {name} must be finite, got {bad}$"):
                ModulusSpec.table(table["deltas"], table["omegas"])


def _even_bernoulli(count):
    """|B_2|, |B_4|, ..., |B_2count| exactly, by the recurrence
    sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return [abs(b[2 * n]) for n in range(1, count + 1)]


def test_zeta_table_matches_scipy_and_the_bernoulli_closed_form():
    from scipy.special import zeta

    n = np.arange(1, seminorm._ZETA_EVEN.size + 1)
    assert seminorm._ZETA_EVEN.size == 24
    assert np.array_equal(seminorm._ZETA_EVEN, zeta(2.0 * n))
    pi = Fraction("3.14159265358979323846264338327950288419716939937510582097494")
    for k, bern in zip(n.tolist(), _even_bernoulli(n.size)):
        exact = bern * (2 * pi) ** (2 * k) / (2 * math.factorial(2 * k))
        assert seminorm._ZETA_EVEN[k - 1] == pytest.approx(float(exact), rel=1e-14, abs=0.0)
