"""Fourier coefficients on the circle.

Convention: fhat(k) = (1/2*pi) * integral_0^{2pi} f(t) e^{-ikt} dt, so that
f(t) ~ sum_k fhat(k) e^{ikt}.  Spectra are stored two-sided, k = -K .. K.

For continuous periodic piecewise-linear functions the coefficients have a
closed form obtained by integrating by parts twice: with slope jump J_j at
knot x_j,

    fhat(k) = -(1/(2*pi*k^2)) * sum_j J_j e^{-ik x_j},  k != 0,

and fhat(0) is the exact trapezoid mean.  (Consistency of the sign with
the k -> 0 limit: for a unit tent of width L the jump sum tends to
-k^2 L / 2, giving fhat(k) -> L/(4*pi) = fhat(0).)  This serves as a
high-precision oracle against the FFT path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, GridFunction, PiecewiseLinearFunction, _readonly

__all__ = [
    "SpectrumCoeffs",
    "dft_coeffs",
    "pl_spectrum",
    "pl_mean",
    "synthesize",
    "harmonic",
]


@dataclass(frozen=True, eq=False)
class SpectrumCoeffs:
    """Two-sided Fourier coefficients fhat(k), k = -max_freq .. max_freq."""

    max_freq: int
    coeffs: np.ndarray

    def __post_init__(self):
        k = int(self.max_freq)
        if k < 0:
            raise ValueError("max_freq must be >= 0")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (2 * k + 1,):
            raise ValueError(f"expected {2 * k + 1} coefficients, got {coeffs.shape}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "max_freq", k)
        object.__setattr__(self, "coeffs", _readonly(coeffs))

    @property
    def k_values(self) -> np.ndarray:
        return np.arange(-self.max_freq, self.max_freq + 1)

    def coeff(self, k: int) -> complex:
        if abs(k) > self.max_freq:
            return 0.0 + 0.0j
        return complex(self.coeffs[self.max_freq + k])

    def hermitian_defect(self) -> float:
        """max_k |fhat(-k) - conj(fhat(k))|; zero for spectra of real functions."""
        return float(np.max(np.abs(self.coeffs[::-1] - np.conj(self.coeffs))))

    def to_dict(self) -> dict:
        return {
            "kmax": self.max_freq,
            "re": self.coeffs.real.tolist(),
            "im": self.coeffs.imag.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "SpectrumCoeffs":
        c = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
        return SpectrumCoeffs(int(d["kmax"]), c)


def dft_coeffs(g: GridFunction, max_freq: int | None = None) -> SpectrumCoeffs:
    """Discrete approximation of the Fourier coefficients from grid samples.

    Requires 2*max_freq < N so the reported range is alias-free; the
    default N/4 keeps aliasing below discretization error for PL sources.
    """
    n = g.n_samples
    max_freq = n // 4 if max_freq is None else int(max_freq)
    if 2 * max_freq >= n:
        raise ValueError(f"max_freq={max_freq} too large for {n} samples")
    big = np.fft.fft(g.samples) / n
    ks = np.arange(-max_freq, max_freq + 1)
    return SpectrumCoeffs(max_freq, big[ks % n])


def pl_mean(f: PiecewiseLinearFunction) -> complex:
    """fhat(0): the exact trapezoid mean over one period."""
    if f.n_knots == 1:
        return complex(f.values[0])
    v_ext = f.ext_values
    pieces = 0.5 * (v_ext[:-1] + v_ext[1:]) * np.diff(f.ext_knots)
    return complex(np.sum(pieces) / TWO_PI)


def _jump_transform(x: np.ndarray, jumps: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """sum_j jumps_j * e^{-i k x_j} for every k, chunked to bound memory.

    For consecutive k (the spectrum sweep) the phase matrix is built by a
    cumulative product anchored exactly at each chunk start, which is far
    cheaper than exponentiating every entry; the accumulated rounding stays
    below chunk_length * eps in relative terms.
    """
    out = np.empty(ks.size, dtype=complex)
    step = max(1, int(4_000_000 // max(x.size, 1)))
    consecutive = ks.size > 1 and np.all(np.diff(ks) == ks[1] - ks[0]) and abs(ks[1] - ks[0]) == 1
    base = np.exp(-1j * (ks[1] - ks[0]) * x) if consecutive else None
    for s in range(0, ks.size, step):
        kk = ks[s : s + step]
        if consecutive and kk.size > 1:
            phases = np.empty((kk.size, x.size), dtype=complex)
            phases[0] = np.exp(-1j * kk[0] * x)
            phases[1:] = base[None, :]
            np.cumprod(phases, axis=0, out=phases)
        else:
            phases = np.exp(-1j * np.outer(kk, x))
        out[s : s + step] = phases @ jumps
    return out


def pl_spectrum(f: PiecewiseLinearFunction, max_freq: int) -> SpectrumCoeffs:
    """Closed-form spectrum of a PL function for all |k| <= max_freq."""
    max_freq = int(max_freq)
    if max_freq < 0:
        raise ValueError("max_freq must be >= 0")
    out = np.zeros(2 * max_freq + 1, dtype=complex)
    out[max_freq] = pl_mean(f)
    if max_freq == 0 or f.n_knots < 2:
        return SpectrumCoeffs(max_freq, out)
    ks = np.arange(1, max_freq + 1)
    denom = -TWO_PI * ks.astype(float) ** 2
    pos = _jump_transform(f.knots, f.jumps, ks) / denom
    out[max_freq + 1 :] = pos
    if f.is_real:
        out[:max_freq] = np.conj(pos[::-1])
    else:
        neg = _jump_transform(f.knots, f.jumps, -ks) / denom
        out[:max_freq] = neg[::-1]
    return SpectrumCoeffs(max_freq, out)


def synthesize(c: SpectrumCoeffs, n: int) -> GridFunction:
    """Samples of sum_k fhat(k) e^{ik t_j} on the uniform n-grid.

    Requires n > 2*max_freq (power of two) so placement is collision-free.
    """
    n = int(n)
    if n < 2 or n & (n - 1):
        raise ValueError(f"sample count must be a power of two >= 2, got {n}")
    if n <= 2 * c.max_freq:
        raise ValueError(f"need n > 2*max_freq, got n={n}, max_freq={c.max_freq}")
    full = np.zeros(n, dtype=complex)
    full[c.k_values % n] = c.coeffs
    return GridFunction(n, np.fft.ifft(full) * n)


def harmonic(k: int, max_freq: int | None = None, amplitude: complex = 1.0) -> SpectrumCoeffs:
    """Spectrum of amplitude * e^{ikt}."""
    k = int(k)
    if max_freq is None:
        max_freq = abs(k)
    if abs(k) > max_freq:
        raise ValueError("harmonic frequency beyond max_freq")
    coeffs = np.zeros(2 * max_freq + 1, dtype=complex)
    coeffs[max_freq + k] = amplitude
    return SpectrumCoeffs(max_freq, coeffs)
