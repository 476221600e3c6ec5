"""Verification suites, the obstruction experiment, and result emission.

``verify_all`` runs every invariant suite from the other modules against a
freshly built construction and reports one pass/fail line per suite.

``run_obstruction`` realizes the obstruction numerically: for a growing
number of blocks it computes the exact pairing lower bounds

    (1/2*pi) |int v du_n|  for n on the grid  { ceil(3/w_k) },

then plays the adversary, searching over piecewise-linear circle
homeomorphisms h (softmax increment parametrization, Nelder-Mead with
restarts) to minimize

    max_n  ||v o h|| * ||u_n o h||        (spectral seminorms, s = 1/2).

Each candidate's seminorms come from one grid sampling of v o h and of
u o h, with the levels n applied as a pointwise max on the samples, and
real FFTs that transform a batch of rows per call into buffers allocated
once per block count.

Every candidate ever evaluated is audited against the precomputed lower
bounds: the dual-norm inequality guarantees no h can beat them, so the
experiment's output is the observed gap, not convergence.  The searched
family is a PL subfamily of all homeomorphisms; reported minima are
empirical upper bounds for the true infimum, while the lower bounds are
exact.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from .core import (
    TWO_PI,
    CircleInterval,
    PiecewiseLinearFunction,
    sample,
    total_variation,
    triangle,
)
from .fourier import SpectrumCoeffs, harmonic, pl_spectrum, synthesize
from .seminorm import (
    ModulusSpec,
    equivalence_scan,
    harmonic_shift_weight,
    lip_check,
    pl_seminorm,
    sobolev_integral,
    sobolev_spectral,
)
from .construction import (
    TriangleSystem,
    build_delta_sequence,
    build_u,
    build_v,
    place_intervals,
    truncate_un,
)
from .stieltjes import StieltjesReport, duality_check, fourier_pairing, pairing_report, rs_integral
from .homeo import PLHomeomorphism, from_increments, random_homeomorphism, superpose

__all__ = [
    "SuiteResult",
    "VerifyReport",
    "VerifyConfig",
    "verify_all",
    "ObstructionRecord",
    "run_obstruction",
    "LacunaryReport",
    "lacunary_fixture",
    "emit",
    "write_pairing_csv",
]

SCOPE_NOTE = (
    "search restricted to piecewise-linear homeomorphisms; minima are "
    "empirical upper bounds, lower bounds are exact"
)


# --------------------------------------------------------------------------
# suite plumbing
# --------------------------------------------------------------------------


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    witness: str | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" witness={self.witness}" if (self.witness and not self.passed) else ""
        return f"{status} {self.name}: {self.detail}{extra}"


@dataclass
class VerifyReport:
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "suites": [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "witness": r.witness}
                for r in self.results
            ],
        }


@dataclass
class VerifyConfig:
    alpha: float = 1.0 / 3.0
    blocks: int = 4
    homeo_knots: int = 32
    seed: int = 7
    alt_seed: int = 42
    quick: bool = False

    def scaled(self, full: int, quick: int) -> int:
        return quick if self.quick else full


# --------------------------------------------------------------------------
# individual suites (reused by the acceptance tests)
# --------------------------------------------------------------------------


def check_delta_sequence(omega: ModulusSpec, block_counts, tol: float = 1e-12) -> SuiteResult:
    """Width caps, weight growth, count brackets, block sums and total width."""
    for blocks in block_counts:
        seq = build_delta_sequence(omega, blocks)
        for j in range(1, blocks + 1):
            e = float(seq.epsilons[j - 1])
            n = int(seq.block_sizes[j - 1])
            if not (0.0 < e < 2.0 ** -(j + 1)):
                return SuiteResult("delta-sequence", False, f"width cap broken at block {j}", f"eps={e}")
            if omega(e) ** 2 / e < 2.0**j * (1.0 - tol):
                return SuiteResult("delta-sequence", False, f"weight growth broken at block {j}", f"eps={e}")
            lo = 1.0 / (2.0 ** (j + 1) * e)
            hi = 1.0 / (2.0**j * e)
            if not (lo <= n < hi * (1.0 + tol)):
                return SuiteResult("delta-sequence", False, f"count bracket broken at block {j}", f"n={n}")
        sums = seq.block_weight_sums()
        if np.any(sums < 0.5 - tol):
            j = int(np.argmin(sums)) + 1
            return SuiteResult("delta-sequence", False, f"block sum below 1/2 at block {j}", f"sum={sums[j-1]}")
        total = float(np.sum(seq.deltas))
        if total > 1.0 + tol:
            return SuiteResult("delta-sequence", False, f"total width {total} exceeds 1", f"blocks={blocks}")
    return SuiteResult(
        "delta-sequence",
        True,
        f"{omega.describe()}, blocks {list(block_counts)}: caps, growth, brackets, sums ok",
    )


def check_tent_slope(count: int, seed: int, tol: float = 1e-12) -> SuiteResult:
    """|tent(t1) - tent(t2)| <= (2/|I|) |t1 - t2| on random triples."""
    rng = np.random.default_rng(seed)
    per_interval = 100
    n_intervals = max(1, count // per_interval)
    worst = 0.0
    witness = None
    for _ in range(n_intervals):
        a = rng.uniform(1e-4, TWO_PI - 2e-4)
        b = rng.uniform(a + 1e-4, TWO_PI - 1e-4)
        tent = triangle(CircleInterval(a, b))
        t1 = rng.uniform(0.0, TWO_PI, per_interval)
        t2 = rng.uniform(0.0, TWO_PI, per_interval)
        lhs = np.abs(tent(t1) - tent(t2))
        rhs = (2.0 / (b - a)) * np.abs(t1 - t2)
        excess = float(np.max(lhs - rhs))
        if excess > worst:
            worst = excess
            i = int(np.argmax(lhs - rhs))
            witness = f"I=[{a},{b}], t1={t1[i]}, t2={t2[i]}"
    passed = worst <= tol
    return SuiteResult(
        "tent-slope-bound",
        passed,
        f"{n_intervals * per_interval} triples, worst excess {worst:.2e}",
        witness if not passed else None,
    )


def check_modulus_bounds(u: PiecewiseLinearFunction, v: PiecewiseLinearFunction, omega: ModulusSpec) -> SuiteResult:
    """Both construction profiles stay in the omega class with constant 8."""
    ru = lip_check(u, omega)
    rv = lip_check(v, omega)
    worst = max(ru.max_ratio, rv.max_ratio)
    passed = worst <= 8.0 + 1e-9
    return SuiteResult(
        "modulus-bound",
        passed,
        f"max ratio u={ru.max_ratio:.4f}, v={rv.max_ratio:.4f} (bound 8.0)",
        None if passed else f"delta={ru.deltas[int(np.argmax(ru.ratios))]}",
    )


def check_construction_geometry(sys: TriangleSystem, u, v) -> SuiteResult:
    """Peak values, the rise through the middle thirds, and vanishing supports."""
    if sys.count == 0:
        warnings.warn("empty construction: geometry checks are vacuous", stacklevel=2)
        return SuiteResult("construction-geometry", True, "vacuous (no intervals)")
    w = sys.weight
    checks = [
        ("u at peaks", np.max(np.abs(u(sys.center) - w))),
        ("u at a+delta", np.max(np.abs(u(sys.mid_lo) - w / 3.0))),
        ("u at a+2delta", np.max(np.abs(u(sys.mid_hi) - 2.0 * w / 3.0))),
        ("v at third ends", np.max(np.abs(np.minimum(v(sys.mid_lo), v(sys.mid_hi)) - 2.0 * w / 3.0))),
    ]
    # v >= 2w/3 throughout the middle third (it peaks in the interior)
    interior = v(0.5 * (sys.mid_lo + sys.mid_hi))
    if np.any(interior < 2.0 * w / 3.0 - 1e-12):
        return SuiteResult("construction-geometry", False, "v dips below 2w/3 on a middle third")
    gaps = 0.5 * (sys.b[:-1] + sys.a[1:]) if sys.count > 1 else np.array([sys.a[0] / 2.0])
    if np.any(np.abs(u(gaps)) != 0.0) or np.any(np.abs(v(gaps)) != 0.0):
        return SuiteResult("construction-geometry", False, "profiles fail to vanish between intervals")
    # v vanishes on the right halves (center, b)
    right_mids = 0.5 * (sys.center + sys.b)
    if np.any(np.abs(v(right_mids)) != 0.0):
        return SuiteResult("construction-geometry", False, "v fails to vanish on right halves")
    worst_name, worst = max(checks, key=lambda c: c[1])
    passed = worst <= 1e-12
    return SuiteResult(
        "construction-geometry",
        passed,
        f"{sys.count} tents, worst deviation {worst:.2e} ({worst_name})",
    )


def check_truncation(sys: TriangleSystem, u, seed: int, pairs: int = 2000) -> SuiteResult:
    """Contraction, exact variation identity, and coincidence on middle thirds."""
    rng = np.random.default_rng(seed)
    n_values = sys.n_grid or [2]
    t1 = rng.uniform(0.0, TWO_PI, pairs)
    t2 = rng.uniform(0.0, TWO_PI, pairs)
    du = np.abs(u(t1) - u(t2))
    for n in n_values:
        un = truncate_un(u, n)
        dn = np.abs(un(t1) - un(t2))
        if np.max(dn - du) > 1e-12:
            i = int(np.argmax(dn - du))
            return SuiteResult(
                "truncation", False, f"contraction broken at n={n}", f"t1={t1[i]}, t2={t2[i]}"
            )
        c = 1.0 / n
        tv = total_variation(un)
        tv_formula = 2.0 * float(np.sum(np.maximum(sys.weight - c, 0.0)))
        if abs(tv - tv_formula) > 1e-12 * max(1.0, tv_formula):
            return SuiteResult("truncation", False, f"variation identity broken at n={n}", f"tv={tv}")
        if tv > 2.0 * float(np.sum(sys.weight[sys.weight >= c])) + 1e-12:
            return SuiteResult("truncation", False, f"variation bound broken at n={n}")
        active = sys.weight / 3.0 >= c
        if active.any():
            lo, hi = sys.mid_lo[active], sys.mid_hi[active]
            pts = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 5)[None, :]
            # interpolation anchors differ (crossing knots), so allow rounding
            if np.max(np.abs(un(pts.ravel()) - u(pts.ravel()))) > 1e-13:
                return SuiteResult("truncation", False, f"coincidence on middle thirds broken at n={n}")
    return SuiteResult(
        "truncation", True, f"{pairs} pairs, n in {n_values}: contraction, variation, coincidence ok"
    )


def check_pairing(sys: TriangleSystem, u, v, tol: float = 1e-12) -> SuiteResult:
    """Per-tent certified floors and nonnegativity at every truncation level."""
    if sys.count == 0:
        warnings.warn("empty construction: pairing checks are vacuous", stacklevel=2)
        return SuiteResult("pairing-lower-bound", True, "vacuous (no intervals)")
    n_values = sys.n_grid
    for n in n_values:
        rep = pairing_report(sys, n, u=u, v=v)
        scale = max(1.0, float(np.max(rep.lb_terms, initial=0.0)))
        bad = rep.per_interval < rep.lb_terms - tol * scale
        if bad.any():
            k = int(np.argmax(bad))
            return SuiteResult(
                "pairing-lower-bound",
                False,
                f"per-tent floor broken at n={n}",
                f"k={k + 1}, contribution={rep.per_interval[k]}, floor={rep.lb_terms[k]}",
            )
        if np.any(rep.per_interval < -tol):
            k = int(np.argmin(rep.per_interval))
            return SuiteResult(
                "pairing-lower-bound", False, f"negative contribution at n={n}", f"k={k + 1}"
            )
        if rep.value < rep.lower_bound - tol * max(1.0, rep.lower_bound):
            return SuiteResult(
                "pairing-lower-bound", False, f"total below certified sum at n={n}",
                f"total={rep.value}, certified={rep.lower_bound}",
            )
        if abs(rep.value - float(np.sum(rep.per_interval))) > 1e-10 * max(1.0, abs(rep.value)):
            return SuiteResult(
                "pairing-lower-bound", False, f"mass outside the left halves at n={n}"
            )
    return SuiteResult(
        "pairing-lower-bound", True, f"{sys.count} tents, n in {n_values}: floors and totals ok"
    )


def _random_pl(rng, max_knots: int = 64, complex_values: bool = False) -> PiecewiseLinearFunction:
    m = int(rng.integers(4, max_knots + 1))
    knots = np.sort(rng.uniform(0.0, TWO_PI, m))
    # keep gaps (hence slopes) moderate so rounding stays far below the
    # exactness tolerances the audits assert
    while min(np.min(np.diff(knots)), knots[0] + TWO_PI - knots[-1]) < 1e-4:
        knots = np.sort(rng.uniform(0.0, TWO_PI, m))
    vals = rng.uniform(-1.0, 1.0, m)
    if complex_values:
        vals = vals + 1j * rng.uniform(-1.0, 1.0, m)
    return PiecewiseLinearFunction(knots, vals)


def _random_trig_poly(rng, degree: int) -> SpectrumCoeffs:
    d = int(rng.integers(1, degree + 1))
    coeffs = rng.normal(size=2 * d + 1) + 1j * rng.normal(size=2 * d + 1)
    coeffs /= 1.0 + np.abs(np.arange(-d, d + 1))
    return SpectrumCoeffs(d, coeffs)


def check_duality(count: int, seed: int, tol: float = 1e-8) -> SuiteResult:
    """Randomized audit of the pairing/product inequality; violations are bugs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    for i in range(count):
        x = _random_trig_poly(rng, 64)
        y = _random_pl(rng, 64)
        rep = duality_check(x, y, tol=tol)
        margin = rep.lhs / rep.rhs if rep.rhs > 0 else (0.0 if rep.lhs == 0 else math.inf)
        if margin > worst:
            worst = margin
            witness = f"pair {i}: lhs={rep.lhs}, rhs={rep.rhs}"
    passed = worst <= 1.0 + tol
    return SuiteResult(
        "duality-audit", passed, f"{count} random pairs, worst lhs/rhs = {worst:.6f}",
        witness if not passed else None,
    )


def check_parts_identity(count: int, seed: int, k_range: int = 64, tol: float = 1e-10) -> SuiteResult:
    """(1/2pi) int e^{ikt} dy == -ik yhat(-k) across random integrators."""
    rng = np.random.default_rng(seed)
    ks = np.concatenate([np.arange(-k_range, 0), np.arange(1, k_range + 1)])
    worst = 0.0
    for _ in range(count):
        y = _random_pl(rng, 64)
        spec = pl_spectrum(y, k_range)
        pair = fourier_pairing(y, ks)
        ident = np.array([-1j * k * spec.coeff(-k) for k in ks])
        worst = max(worst, float(np.max(np.abs(pair - ident))))
    return SuiteResult(
        "parts-identity", worst <= tol, f"{count} integrators, |k|<= {k_range}, max err {worst:.2e}"
    )


def check_superposition(count: int, seed: int, knot_count: int = 32) -> SuiteResult:
    """Variation preservation, inverse round trip, and substitution invariance."""
    rng = np.random.default_rng(seed)
    worst_tv = worst_rt = worst_cv = 0.0
    for _ in range(count):
        f_real = _random_pl(rng, 64)
        f_cplx = _random_pl(rng, 64, complex_values=True)
        h = random_homeomorphism(knot_count, roughness=1.0, rng=rng)
        fh = superpose(f_real, h)
        worst_tv = max(worst_tv, abs(total_variation(fh) - total_variation(f_real)))
        back = superpose(fh, h.invert())
        worst_rt = max(worst_rt, float(np.max(np.abs(back(f_real.knots) - f_real.values))))
        lhs = rs_integral(superpose(f_cplx, h), fh)
        rhs = rs_integral(f_cplx, f_real)
        worst_cv = max(worst_cv, abs(lhs - rhs))
        if np.max(np.abs(fh.values)) != np.max(np.abs(f_real.values)):
            return SuiteResult("superposition", False, "sup-norm not preserved")
    passed = worst_tv <= 1e-10 and worst_rt <= 1e-10 and worst_cv <= 1e-9
    return SuiteResult(
        "superposition",
        passed,
        f"{count} pairs: variation {worst_tv:.2e}, round trip {worst_rt:.2e}, "
        f"substitution {worst_cv:.2e}",
    )


def _reflect_pl(f: PiecewiseLinearFunction) -> PiecewiseLinearFunction:
    knots = np.where(f.knots == 0.0, 0.0, TWO_PI - f.knots)
    order = np.argsort(knots)
    return PiecewiseLinearFunction(knots[order], f.values[order])


def check_seminorm_sanity(seed: int, n: int = 1 << 12) -> SuiteResult:
    """Homogeneity, reflection symmetry, real/imaginary parts, s-monotonicity."""
    rng = np.random.default_rng(seed)
    c = _random_trig_poly(rng, 32)
    c7 = SpectrumCoeffs(c.max_freq, 7.0 * c.coeffs)
    if abs(sobolev_spectral(c7, 0.5) - 7.0 * sobolev_spectral(c, 0.5)) > 1e-12 * sobolev_spectral(c7, 0.5):
        return SuiteResult("seminorm-sanity", False, "spectral homogeneity broken")
    gi = sobolev_integral(synthesize(c, n))
    gi7 = sobolev_integral(synthesize(c7, n))
    if abs(gi7 - 7.0 * gi) > 1e-12 * max(gi7, 1.0):
        return SuiteResult("seminorm-sanity", False, "integral homogeneity broken")
    f = _random_pl(rng, 32)
    fr = _reflect_pl(f)
    s1 = pl_seminorm(f)
    s2 = pl_seminorm(fr)
    if abs(s1 - s2) > 1e-10 * max(1.0, s1):
        return SuiteResult("seminorm-sanity", False, "reflection symmetry broken (exact PL)")
    i1 = sobolev_integral(sample(f, n))
    i2 = sobolev_integral(sample(fr, n))
    if abs(i1 - i2) > 1e-10 * max(1.0, i1):
        return SuiteResult("seminorm-sanity", False, "reflection symmetry broken (integral)")
    # real and imaginary parts never exceed the full seminorm
    k = c.max_freq
    re_part = 0.5 * (c.coeffs + np.conj(c.coeffs[::-1]))
    im_part = (c.coeffs - np.conj(c.coeffs[::-1])) / 2j
    for part in (re_part, im_part):
        if sobolev_spectral(SpectrumCoeffs(k, part), 0.5) > sobolev_spectral(c, 0.5) * (1 + 1e-12):
            return SuiteResult("seminorm-sanity", False, "part seminorm exceeds full seminorm")
    # monotone in s for spectra supported away from k = 0
    c0 = np.array(c.coeffs, copy=True)
    c0[k] = 0.0
    cs = SpectrumCoeffs(k, c0)
    vals = [sobolev_spectral(cs, s) for s in (0.3, 0.5, 1.0)]
    if not (vals[0] <= vals[1] * (1 + 1e-12) and vals[1] <= vals[2] * (1 + 1e-12)):
        return SuiteResult("seminorm-sanity", False, "s-monotonicity broken")
    only_mean = np.zeros(3, dtype=complex)
    only_mean[1] = 3.0
    if sobolev_spectral(SpectrumCoeffs(1, only_mean), 0.5) != 0.0:
        return SuiteResult("seminorm-sanity", False, "constant has nonzero seminorm")
    if sobolev_integral(synthesize(harmonic(2), 256)) <= 0.0:
        return SuiteResult("seminorm-sanity", False, "nonconstant function has zero seminorm")
    return SuiteResult("seminorm-sanity", True, "homogeneity, reflection, parts, monotonicity ok")


def check_equivalence(
    k_count: int, n: int, seeds=(42, 1042), draws: int = 100, oracle_tol: float = 0.01
) -> SuiteResult:
    """Harmonic ratios against the quadrature oracle plus random-family spread."""
    harmonics = [harmonic(k) for k in range(1, k_count + 1)]
    est = equivalence_scan(harmonics, n)
    if est.spread >= 4.0:
        return SuiteResult("equivalence", False, f"harmonic spread {est.spread:.3f} >= 4")
    worst_rel = 0.0
    for k in range(1, k_count + 1):
        oracle = math.sqrt(TWO_PI * harmonic_shift_weight(k)) / math.sqrt(k)
        measured = sobolev_integral(synthesize(harmonic(k), n)) / math.sqrt(k)
        worst_rel = max(worst_rel, abs(measured - oracle) / oracle)
    if worst_rel > oracle_tol:
        return SuiteResult(
            "equivalence", False, f"harmonic ratio deviates {worst_rel:.3%} from the quadrature oracle"
        )
    spreads = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        polys = [_random_trig_poly(rng, 64) for _ in range(draws)]
        spreads.append(equivalence_scan(polys, n).spread)
    if any(s >= 10.0 for s in spreads):
        return SuiteResult("equivalence", False, f"random-family spread {spreads} not < 10")
    return SuiteResult(
        "equivalence",
        True,
        f"harmonics 1..{k_count}: ratios in [{est.ratio_min:.4f}, {est.ratio_max:.4f}] "
        f"(spread {est.spread:.3f}), oracle deviation {worst_rel:.3%}, "
        f"random spreads {[f'{s:.2f}' for s in spreads]}",
    )


def check_lacunary(terms: int = 9) -> SuiteResult:
    rep = lacunary_fixture(terms)
    if rep.seminorm_sq != float(terms + 1):
        return SuiteResult("lacunary", False, f"partial sum {rep.seminorm_sq} != {terms + 1}")
    if abs(rep.seminorm_sq_spectral - rep.seminorm_sq) > 1e-12 * rep.seminorm_sq:
        return SuiteResult("lacunary", False, "float spectral path disagrees with exact accumulation")
    return SuiteResult(
        "lacunary", True,
        f"{terms + 1} dyadic terms: seminorm^2 = {rep.seminorm_sq}, "
        f"Lip-1/2 ratio {rep.lip_half_ratio:.3f}",
    )


def verify_all(config: VerifyConfig | None = None) -> VerifyReport:
    """Run every invariant suite; nonzero exit is left to the CLI."""
    cfg = config or VerifyConfig()
    omega = ModulusSpec.power(cfg.alpha)
    seq = build_delta_sequence(omega, cfg.blocks)
    sys = place_intervals(seq, seq.deltas.size)
    u = build_u(sys)
    v = build_v(sys)
    results = [
        check_delta_sequence(omega, range(1, cfg.blocks + 3)),
        check_tent_slope(cfg.scaled(100_000, 10_000), cfg.seed),
        check_modulus_bounds(u, v, omega),
        check_construction_geometry(sys, u, v),
        check_truncation(sys, u, cfg.seed, pairs=cfg.scaled(2000, 400)),
        check_pairing(sys, u, v),
        check_duality(cfg.scaled(200, 20), cfg.seed),
        check_parts_identity(cfg.scaled(20, 5), cfg.seed),
        check_superposition(cfg.scaled(100, 10), cfg.seed, knot_count=cfg.homeo_knots),
        check_seminorm_sanity(cfg.alt_seed),
        check_equivalence(
            cfg.scaled(32, 8),
            1 << (14 if not cfg.quick else 12),
            seeds=(cfg.alt_seed, cfg.alt_seed + 1000),
            draws=cfg.scaled(100, 10),
        ),
        check_lacunary(9),
    ]
    return VerifyReport(results)


# --------------------------------------------------------------------------
# obstruction experiment
# --------------------------------------------------------------------------


@dataclass(eq=False)
class ObstructionRecord:
    """One block count: exact lower bounds and the adversary's best attempt."""

    blocks: int
    tents: int
    n_grid: list
    lower_bounds: list
    certified_sums: list
    sup_lower_bound: float
    best_raw: list
    best_homeo: PLHomeomorphism
    achieved_products: list
    identity_products: list
    best_objective: float
    evals: int
    violations: int
    budget_exhausted: bool
    scope: str = SCOPE_NOTE

    def to_dict(self) -> dict:
        return {
            "blocks": self.blocks,
            "tents": self.tents,
            "n_grid": list(self.n_grid),
            "lower_bounds": list(self.lower_bounds),
            "certified_sums": list(self.certified_sums),
            "sup_lower_bound": self.sup_lower_bound,
            "best_raw": list(self.best_raw),
            "best_homeo": self.best_homeo.to_dict(),
            "achieved_products": list(self.achieved_products),
            "identity_products": list(self.identity_products),
            "best_objective": self.best_objective,
            "evals": self.evals,
            "violations": self.violations,
            "budget_exhausted": self.budget_exhausted,
            "scope": self.scope,
        }

    @staticmethod
    def from_dict(d: dict) -> "ObstructionRecord":
        d = dict(d)
        d["best_homeo"] = PLHomeomorphism.from_dict(d["best_homeo"])
        return ObstructionRecord(**d)


# Rows per rfft call: one call per batch of rows replaces one call per row.
# 4 rows keep the block and spectra buffers at 2 MB each at N = 2^16;
# transforming every row at once (8 at J = 7) was only slightly faster and
# raised peak RSS by about 9%.
BATCH_ROWS = 4


class _ProductObjective:
    """max_n ||v o h|| * ||u_n o h|| with built-in lower-bound auditing.

    Each evaluation samples the real functions v o h and u o h once on the
    N-point grid, by one ``np.interp`` each (``__call__``: the grid needs no
    angle reduction and both start with a knot at 0).  Sampling commutes
    with the pointwise max, so max(samples of u o h, 1/n) are the samples
    of u_n o h = ``truncate_un(u o h, n)`` and no truncated PL function is
    built.  Row 0 holds v o h and row i the level 1/n_i; the rows go
    through ``BATCH_ROWS`` at a time: written into one block, transformed
    by one real FFT into a spectra block (both allocated once), then
    squared in place up to ``max_freq`` and reduced by one matrix-vector
    product with the weights 2k/N^2, which gives the squared spectral
    seminorms truncated at ``max_freq``.  The per-n lower bounds
    are exact constants precomputed from the pairing, so auditing every
    evaluation is free.
    """

    def __init__(self, u, v, n_grid, bounds, grid_n, max_freq, audit_tol):
        self.u = u
        self.v = v
        self.n_grid = list(n_grid)
        self.bounds = np.asarray(bounds, dtype=float)
        self.grid_n = int(grid_n)
        self.max_freq = int(max_freq)
        self.audit_tol = float(audit_tol)
        self.t_grid = np.arange(self.grid_n) * (TWO_PI / self.grid_n)
        # the floor under each row: none for v o h, 1/n for each level
        self._floors = np.array([-math.inf] + [1.0 / n for n in self.n_grid])
        batch = min(BATCH_ROWS, len(self._floors))
        self._block = np.empty((batch, self.grid_n))
        self._spectra = np.empty((batch, self.grid_n // 2 + 1), dtype=complex)
        # weights on the interleaved (re, im) float view of frequencies 0..max_freq
        k = np.arange(self.max_freq + 1, dtype=float)
        self._weights = np.repeat(2.0 * k / float(self.grid_n) ** 2, 2)
        self.evals = 0
        self.violations = 0
        self.best_objective = math.inf
        self.best_raw = None
        self.best_products = None

    def evaluate(self, raw) -> tuple[float, np.ndarray]:
        h = from_increments(raw)
        # sample each composition before building the next: holding both
        # raised the heap peak, and at J = 7 most processes then refaulted
        # about 4 MB of freed heap per evaluation
        vh_samples = superpose(self.v, h)(self.t_grid)
        uh_samples = superpose(self.u, h)(self.t_grid)
        rows = len(self._floors)
        squares = np.empty(rows)
        for start in range(0, rows, BATCH_ROWS):
            stop = min(start + BATCH_ROWS, rows)
            block = self._block[: stop - start]
            for row, i in zip(block, range(start, stop)):
                np.maximum(uh_samples if i else vh_samples, self._floors[i], out=row)
            spectra = np.fft.rfft(block, axis=1, out=self._spectra[: stop - start])
            power = spectra.view(float)[:, : self._weights.size]
            np.square(power, out=power)
            np.matmul(power, self._weights, out=squares[start:stop])
        norms = np.sqrt(squares)
        products = norms[0] * norms[1:]
        self.evals += 1
        if np.any(products * (1.0 + self.audit_tol) < self.bounds):
            self.violations += 1
        objective = float(np.max(products))
        if objective < self.best_objective:
            self.best_objective = objective
            self.best_raw = np.array(raw, dtype=float)
            self.best_products = products
        return objective, products

    def __call__(self, raw) -> float:
        return self.evaluate(raw)[0]


def run_obstruction(
    omega: ModulusSpec,
    block_counts,
    knots: int = 32,
    budget: int = 2000,
    seed: int = 7,
    restarts: int = 4,
    grid_n: int = 1 << 16,
    max_freq: int = 1 << 14,
    roughness: float = 0.3,
    audit_tol: float = 1e-6,
    strict: bool = True,
) -> list:
    """Adversarial search per block count (see module docstring).

    Each restart derives its own generator from (seed, blocks, restart),
    so records do not depend on execution order and identical inputs give
    identical records.
    """
    grid_n, max_freq, restarts = int(grid_n), int(max_freq), int(restarts)
    knots, budget = int(knots), int(budget)
    roughness, audit_tol = float(roughness), float(audit_tol)
    if knots < 2:
        raise ValueError(f"knots must be at least 2, got {knots}")
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    if not 1 <= max_freq <= grid_n // 2:
        raise ValueError(f"max_freq must be in 1..grid_n // 2 = {grid_n // 2}, got {max_freq}")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if budget < restarts:
        raise ValueError(f"budget must be at least restarts = {restarts}, got {budget}")
    for name, value in (("audit_tol", audit_tol), ("roughness", roughness)):
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")
    records = []
    for blocks in block_counts:
        seq = build_delta_sequence(omega, int(blocks), strict=strict)
        tents = seq.deltas.size
        sys = place_intervals(seq, tents)
        u = build_u(sys)
        v = build_v(sys)
        n_grid = sys.n_grid
        reports = [pairing_report(sys, n, u=u, v=v) for n in n_grid]
        lower_bounds = [abs(r.value) / TWO_PI for r in reports]
        certified = [r.lower_bound / TWO_PI for r in reports]
        engine = _ProductObjective(u, v, n_grid, lower_bounds, grid_n, max_freq, audit_tol)
        _, identity_products = engine.evaluate(np.zeros(knots))
        per_restart = budget // restarts
        for r in range(restarts):
            rng = np.random.default_rng([int(seed), int(blocks), r])
            x0 = rng.uniform(-roughness, roughness, knots)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                minimize(
                    engine,
                    x0,
                    method="Nelder-Mead",
                    options={
                        "maxfev": per_restart,
                        "adaptive": True,
                        "xatol": 1e-6,
                        "fatol": 1e-9,
                        "maxiter": 10**9,
                    },
                )
        records.append(
            ObstructionRecord(
                blocks=int(blocks),
                tents=int(tents),
                n_grid=[int(n) for n in n_grid],
                lower_bounds=[float(b) for b in lower_bounds],
                certified_sums=[float(c) for c in certified],
                sup_lower_bound=float(max(lower_bounds)),
                best_raw=[float(x) for x in engine.best_raw],
                best_homeo=from_increments(engine.best_raw),
                achieved_products=[float(p) for p in engine.best_products],
                identity_products=[float(p) for p in identity_products],
                best_objective=float(engine.best_objective),
                evals=int(engine.evals),
                violations=int(engine.violations),
                budget_exhausted=bool(engine.evals >= budget),
            )
        )
        # two engines' buffers are never live at once
        del engine
    return records


# --------------------------------------------------------------------------
# fixtures and emission
# --------------------------------------------------------------------------


@dataclass
class LacunaryReport:
    """Dyadic-frequency partial sum sum_{k<=K} 2^{-k/2} e^{i 2^k t}.

    ``seminorm_sq`` accumulates the exact dyadic terms |fhat(2^k)|^2 * 2^k
    = 1 each (the float-squared coefficients would land a few ulp off);
    ``seminorm_sq_spectral`` is the ordinary float spectral path.
    """

    terms: int
    seminorm_sq: float
    seminorm_sq_spectral: float
    lip_half_ratio: float

    def to_dict(self) -> dict:
        return {
            "terms": self.terms,
            "seminorm_sq": self.seminorm_sq,
            "seminorm_sq_spectral": self.seminorm_sq_spectral,
            "lip_half_ratio": self.lip_half_ratio,
        }


def lacunary_fixture(terms: int) -> LacunaryReport:
    """Report on the K-term dyadic partial sum (K = ``terms``)."""
    terms = int(terms)
    if terms < 0:
        raise ValueError("terms must be >= 0")
    if terms > 20:
        raise ValueError("terms beyond the supported spectral range (max 20)")
    max_freq = 1 << terms
    coeffs = np.zeros(2 * max_freq + 1, dtype=complex)
    exact = 0.0
    for k in range(terms + 1):
        coeffs[max_freq + (1 << k)] = math.sqrt(2.0**-k)
        exact += (2.0**-k) * float(1 << k)  # exact dyadic product: 1.0 each
    spec = SpectrumCoeffs(max_freq, coeffs)
    spectral_sq = sobolev_spectral(spec, 0.5) ** 2
    n = 1 << max(15, terms + 3)
    g = synthesize(spec, n)
    ratio = 0.0
    shift = 1
    while shift <= n // 8:
        diff = float(np.max(np.abs(np.roll(g.samples, -shift) - g.samples)))
        delta = shift * (TWO_PI / n)
        ratio = max(ratio, diff / math.sqrt(delta))
        shift *= 2
    return LacunaryReport(
        terms=terms,
        seminorm_sq=float(exact),
        seminorm_sq_spectral=float(spectral_sq),
        lip_half_ratio=ratio,
    )


def _json_dump(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def emit(records, fmt: str, outdir) -> list:
    """Write obstruction records to ``outdir`` as obstruction.json or
    obstruction.csv; the same records yield identical bytes."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        return [_json_dump(outdir / "obstruction.json", {"records": [r.to_dict() for r in records]})]
    path = outdir / "obstruction.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["J", "K", "sup_lower_bound", "min_product", "evals"])
        for r in records:
            writer.writerow([r.blocks, r.tents, repr(r.sup_lower_bound), repr(r.best_objective), r.evals])
    return [path]


def write_pairing_csv(report: StieltjesReport, path) -> Path:
    """Write a pairing report's per-tent rows to ``path`` as CSV."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "w_k", "contribution", "lower_bound_term"])
        for row in report.csv_rows():
            writer.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])
    return path
