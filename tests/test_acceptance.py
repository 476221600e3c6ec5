"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance and
budget is pinned here; the obstruction experiment (criterion 9) dominates
the runtime at about a minute.
"""

import math
import time

import numpy as np

from circlelab import (
    TWO_PI,
    ModulusSpec,
    build_delta_sequence,
    build_u,
    build_v,
    harmonic,
    harmonic_shift_weight,
    lip_check,
    place_intervals,
    rs_integral,
    random_homeomorphism,
    sobolev_integral,
    superpose,
    synthesize,
    total_variation,
)
from circlelab.experiments import (
    _random_pl,
    check_delta_sequence,
    check_duality,
    check_pairing,
    check_parts_identity,
    check_tent_slope,
    lacunary_fixture,
    run_obstruction,
)
from circlelab.stieltjes import pairing_report

OMEGA = ModulusSpec.power(1.0 / 3.0)


def _done(num: int, name: str, started: float, limit: float):
    elapsed = time.perf_counter() - started
    print(f"[acceptance {num}] {name}: PASS ({elapsed:.2f}s, limit {limit:.0f}s)", flush=True)
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget: {elapsed:.2f}s"


def test_criterion_1_block_sequence():
    started = time.perf_counter()
    result = check_delta_sequence(OMEGA, range(1, 9), tol=1e-12)
    assert result.passed, result.line()
    # block sums are exact dyadic halves for the cube-root modulus
    for blocks in range(1, 9):
        sums = build_delta_sequence(OMEGA, blocks).block_weight_sums()
        assert np.all(np.abs(sums - 0.5) < 1e-12)
    _done(1, "block sequence (widths, growth, brackets, sums)", started, 1.0)


def test_criterion_2_tent_slope_bound():
    started = time.perf_counter()
    result = check_tent_slope(100_000, seed=20260809, tol=1e-12)
    assert result.passed, result.line()
    _done(2, "tent slope bound on 1e5 random triples", started, 1.0)


def test_criterion_3_modulus_class():
    started = time.perf_counter()
    seq = build_delta_sequence(OMEGA, 6)
    sys6 = place_intervals(seq, seq.deltas.size)
    for f in (build_u(sys6), build_v(sys6)):
        rep = lip_check(f, OMEGA)
        assert rep.max_ratio <= 8.0, f"class constant exceeded: {rep.max_ratio}"
    _done(3, "profiles stay in the cube-root class with constant 8", started, 5.0)


def test_criterion_4_pairing_floors_and_growth():
    started = time.perf_counter()
    sup_values = []
    sup_certified = []
    for blocks in range(1, 7):
        seq = build_delta_sequence(OMEGA, blocks)
        sysb = place_intervals(seq, seq.deltas.size)
        u, v = build_u(sysb), build_v(sysb)
        result = check_pairing(sysb, u, v, tol=1e-12)
        assert result.passed, result.line()
        n_grid = sorted({math.ceil(3.0 / w) for w in sysb.weight.tolist()})
        reports = [pairing_report(sysb, n, u=u, v=v) for n in n_grid]
        sup_values.append(max(r.value.real for r in reports))
        sup_certified.append(max(r.lower_bound for r in reports))
    for prev, cur in zip(sup_values, sup_values[1:]):
        assert cur - prev >= 1.0 / 9.0 - 1e-10
    for prev, cur in zip(sup_certified, sup_certified[1:]):
        assert cur - prev >= 1.0 / 9.0 - 1e-10
    _done(4, "pairing floors per tent and 1/9-per-block growth", started, 5.0)


def test_criterion_5_duality_audit():
    started = time.perf_counter()
    result = check_duality(200, seed=7, tol=1e-8)
    assert result.passed, result.line()
    identity = check_parts_identity(20, seed=7, k_range=64, tol=1e-10)
    assert identity.passed, identity.line()
    _done(5, "duality inequality on 200 seeded pairs + parts identity", started, 30.0)


def test_criterion_6_equivalence_against_oracle():
    started = time.perf_counter()
    n = 1 << 16
    ratios = []
    worst_rel = 0.0
    for k in range(1, 65):
        measured = sobolev_integral(synthesize(harmonic(k), n)) / math.sqrt(k)
        oracle = math.sqrt(TWO_PI * harmonic_shift_weight(k)) / math.sqrt(k)
        ratios.append(measured)
        worst_rel = max(worst_rel, abs(measured - oracle) / oracle)
    spread = max(ratios) / min(ratios)
    assert spread < 4.0, f"harmonic ratio spread {spread}"
    assert worst_rel <= 0.01, f"oracle deviation {worst_rel:.3%}"
    _done(6, f"seminorm equivalence (spread {spread:.3f}, oracle diff {worst_rel:.2%})", started, 60.0)


def test_criterion_7_superposition_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        f_real = _random_pl(rng, 64)
        f_cplx = _random_pl(rng, 64, complex_values=True)
        h = random_homeomorphism(int(rng.integers(4, 65)), roughness=1.0, rng=rng)
        fh = superpose(f_real, h)
        assert abs(total_variation(fh) - total_variation(f_real)) <= 1e-10
        back = superpose(fh, h.invert())
        assert np.max(np.abs(back(f_real.knots) - f_real.values)) <= 1e-10
        lhs = rs_integral(superpose(f_cplx, h), fh)
        assert abs(lhs - rs_integral(f_cplx, f_real)) <= 1e-9
    _done(7, "superposition exactness on 100 random pairs", started, 10.0)


def test_criterion_8_lacunary_divergence():
    started = time.perf_counter()
    values = [lacunary_fixture(k).seminorm_sq for k in range(13)]
    assert values == [float(k + 1) for k in range(13)]  # exact equality
    diffs = np.diff(values)
    assert np.all(diffs == 1.0)  # linear divergence, one per dyadic term
    _done(8, "lacunary partial sums: seminorm^2 = K+1 exactly", started, 1.0)


def test_criterion_9_obstruction_experiment():
    started = time.perf_counter()
    records = run_obstruction(
        OMEGA, [1, 2, 3, 4, 5, 6], knots=32, budget=2000, seed=7, restarts=4
    )
    increments = np.diff([r.sup_lower_bound for r in records])
    assert np.all(increments > 0.0)
    assert np.all(increments >= (1.0 / TWO_PI) / 9.0 - 1e-12)
    for rec in records:
        assert rec.violations == 0, f"blocks={rec.blocks}: {rec.violations} audited violations"
        assert rec.best_objective >= rec.sup_lower_bound
        bounds = np.array(rec.lower_bounds)
        assert np.all(np.array(rec.achieved_products) * (1 + 1e-6) >= bounds)
        assert np.all(np.array(rec.identity_products) * (1 + 1e-6) >= bounds)
    lines = ", ".join(
        f"J={r.blocks}: lb={r.sup_lower_bound:.4f} best={r.best_objective:.4f}" for r in records
    )
    print(f"    {lines}", flush=True)
    _done(9, "obstruction experiment (audited search vs exact bounds)", started, 600.0)
