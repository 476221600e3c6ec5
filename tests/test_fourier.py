import numpy as np
import pytest
from scipy.integrate import quad

from circlelab import (
    TWO_PI,
    CircleInterval,
    PiecewiseLinearFunction,
    SpectrumCoeffs,
    harmonic,
    pl_mean,
    pl_spectrum,
    sample,
    synthesize,
    triangle,
)


def grid_samples(fn, n):
    t = np.arange(n) * (TWO_PI / n)
    from circlelab import GridFunction

    return GridFunction(n, fn(t))


def dft(g, max_freq):
    """Grid approximations of fhat(k), k = -max_freq .. max_freq (alias-free
    for 2*max_freq < N)."""
    return (np.fft.fft(g.samples) / g.n_samples)[np.arange(-max_freq, max_freq + 1) % g.n_samples]


def test_dft_pure_harmonic():
    g = grid_samples(lambda t: np.exp(3j * t), 64)
    expected = np.zeros(17, dtype=complex)
    expected[8 + 3] = 1.0
    assert np.max(np.abs(dft(g, 8) - expected)) < 1e-12


def test_dft_constant():
    g = grid_samples(lambda t: np.full(t.shape, 5.0, dtype=complex), 32)
    c = dft(g, 4)
    assert abs(c[4] - 5.0) < 1e-14
    assert np.max(np.abs(np.delete(c, 4))) < 1e-14


def test_closed_form_matches_dft_for_triangle():
    tri = triangle(CircleInterval(np.pi - 1.0, np.pi + 1.0))
    approx = dft(sample(tri, 1 << 14), 128)
    exact = pl_spectrum(tri, 128)
    assert np.max(np.abs(approx - exact.coeffs)) < 1e-6


def test_closed_form_against_quadrature():
    # fully independent oracle for a couple of coefficients
    tri = triangle(CircleInterval(1.0, 2.5))
    corners = [1.0, 1.75, 2.5]
    for k in (1, 5, 12):
        re, _ = quad(lambda t: tri(t) * np.cos(k * t), 0.0, TWO_PI, points=corners, limit=300)
        im, _ = quad(lambda t: -tri(t) * np.sin(k * t), 0.0, TWO_PI, points=corners, limit=300)
        oracle = (re + 1j * im) / TWO_PI
        assert abs(pl_spectrum(tri, 12).coeff(k) - oracle) < 1e-10


def test_triangle_slope_jump_formula():
    a, b = 1.0, 2.0
    interval = CircleInterval(a, b)
    tri = triangle(interval)
    length = interval.length
    c = interval.center
    spec = pl_spectrum(tri, 9)
    for k in (1, 2, 9):
        expected = (
            -(1.0 / (TWO_PI * k * k))
            * (2.0 / length)
            * (np.exp(-1j * k * a) - 2.0 * np.exp(-1j * k * c) + np.exp(-1j * k * b))
        )
        assert abs(spec.coeff(k) - expected) < 1e-15


def test_mean_is_area():
    interval = CircleInterval(1.0, 2.5)
    tri = triangle(interval)
    assert abs(pl_mean(tri) - (interval.length / 2.0) / TWO_PI) < 1e-15
    assert abs(pl_spectrum(tri, 4).coeff(0) - pl_mean(tri)) == 0.0


def test_constant_spectrum_vanishes():
    const = PiecewiseLinearFunction(np.array([0.0, 1.0]), np.array([2.0, 2.0], dtype=complex))
    spec = pl_spectrum(const, 8)
    assert abs(spec.coeff(0) - 2.0) < 1e-15
    assert np.max(np.abs(np.delete(spec.coeffs, 8))) < 1e-15


def test_hermitian_symmetry():
    tri = triangle(CircleInterval(0.5, 4.0))
    exact = pl_spectrum(tri, 64).coeffs
    grid = dft(sample(tri, 1 << 12), 64)
    assert np.max(np.abs(exact[::-1] - np.conj(exact))) == 0.0
    assert np.max(np.abs(grid[::-1] - np.conj(grid))) < 1e-10


def test_synthesize_round_trip():
    rng = np.random.default_rng(4)
    c = SpectrumCoeffs(10, rng.normal(size=21) + 1j * rng.normal(size=21))
    g = synthesize(c, 64)
    assert np.max(np.abs(dft(g, 10) - c.coeffs)) < 1e-12


def test_synthesize_single_harmonic():
    g = synthesize(harmonic(1), 16)
    t = np.arange(16) * (TWO_PI / 16)
    assert np.max(np.abs(g.samples - np.exp(1j * t))) < 1e-13


def test_synthesize_needs_room():
    with pytest.raises(ValueError):
        synthesize(harmonic(8), 16)


def test_parseval_bandlimited():
    rng = np.random.default_rng(5)
    c = SpectrumCoeffs(12, rng.normal(size=25) + 1j * rng.normal(size=25))
    g = synthesize(c, 128)
    lhs = np.mean(np.abs(g.samples) ** 2)
    rhs = np.sum(np.abs(c.coeffs) ** 2)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, rhs)


def test_dft_error_shrinks_quadratically():
    tri = triangle(CircleInterval(1.0, 2.0))
    exact = pl_spectrum(tri, 32)

    def err(n):
        return float(np.max(np.abs(dft(sample(tri, n), 32) - exact.coeffs)))

    e1, e2 = err(1 << 10), err(1 << 11)
    assert e2 < e1 / 2.5  # ~4x per doubling
