import json
import math
import warnings

import numpy as np
import pytest

from circlelab import (
    ModulusSpec,
    PiecewiseLinearFunction,
    build_delta_sequence,
    build_u,
    build_v,
    from_increments,
    pl_seminorm,
    place_intervals,
    sample,
    sobolev_integral,
    superpose,
    truncate_un,
)
from circlelab import experiments
from circlelab.experiments import (
    ObstructionRecord,
    _ProductObjective,
    VerifyConfig,
    check_construction_geometry,
    check_pairing,
    lacunary_fixture,
    run_obstruction,
    verify_all,
)

OMEGA = ModulusSpec.power(1.0 / 3.0)


def test_verify_all_quick_passes():
    report = verify_all(VerifyConfig(blocks=3, quick=True))
    for result in report.results:
        assert result.passed, result.line()
    assert report.passed


def test_delta_sequence_suite_reads_blocks_past_the_flattening_cap():
    # verify --blocks 10 checks blocks 1..12; block 12 alone holds 2^23 tents
    result = experiments.check_delta_sequence(OMEGA, range(1, 13))
    assert result.passed, result.line()


def test_corrupted_build_is_caught():
    seq = build_delta_sequence(OMEGA, 2)
    sys2 = place_intervals(seq, seq.deltas.size)
    u = build_u(sys2)
    from circlelab.construction import _tent_sum

    bad_v = _tent_sum(sys2.a, sys2.a + 1.5 * sys2.delta, sys2.center, 0.5 * sys2.weight)
    result = check_pairing(sys2, u, bad_v)
    assert not result.passed
    assert result.witness and "k=" in result.witness


def test_pairing_suite_compares_the_value_with_its_closed_form():
    # v scaled up by 1e-9 keeps every per-tent floor; only the closed form sees it
    seq = build_delta_sequence(OMEGA, 3)
    sys3 = place_intervals(seq, seq.deltas.size)
    u, v = build_u(sys3), build_v(sys3)
    assert check_pairing(sys3, u, v).passed
    result = check_pairing(sys3, u, PiecewiseLinearFunction(v.knots, (1.0 + 1e-9) * v.values))
    assert not result.passed
    assert "closed form" in result.detail


def test_equivalence_suite_spot_checks_the_sample_path(monkeypatch):
    assert experiments.check_equivalence(8, 1 << 12, draws=10).passed
    scaled = lambda g: (1.0 + 1e-9) * sobolev_integral(g)
    monkeypatch.setattr(experiments, "sobolev_integral", scaled)
    result = experiments.check_equivalence(8, 1 << 12, draws=10)
    assert not result.passed
    assert "sample paths differ" in result.detail


def test_empty_construction_is_vacuous_with_warning():
    seq = build_delta_sequence(OMEGA, 1)
    sys0 = place_intervals(seq, 0)
    u, v = build_u(sys0), build_v(sys0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res1 = check_construction_geometry(sys0, u, v)
        res2 = check_pairing(sys0, u, v)
    assert res1.passed and res2.passed
    assert any("vacuous" in str(w.message) for w in caught)


def test_lacunary_fixture_values():
    assert lacunary_fixture(0).seminorm_sq == 1.0
    rep = lacunary_fixture(9)
    assert rep.seminorm_sq == 10.0
    assert abs(rep.seminorm_sq_spectral - 10.0) < 1e-12 * 10.0
    assert rep.lip_half_ratio < 10.0
    # linear divergence in the term count
    values = [lacunary_fixture(k).seminorm_sq for k in range(6)]
    assert values == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def test_lacunary_fixture_bounds():
    with pytest.raises(ValueError):
        lacunary_fixture(-1)
    with pytest.raises(ValueError):
        lacunary_fixture(21)


def smoke_records():
    return run_obstruction(OMEGA, [1, 2], knots=8, budget=60, seed=3)


def test_obstruction_smoke_invariants():
    records = smoke_records()
    assert [r.blocks for r in records] == [1, 2]
    prev = 0.0
    for rec in records:
        assert rec.violations == 0
        assert rec.best_objective >= rec.sup_lower_bound
        bounds = np.array(rec.lower_bounds)
        assert np.all(np.array(rec.identity_products) * (1 + 1e-6) >= bounds)
        assert np.all(np.array(rec.achieved_products) * (1 + 1e-6) >= bounds)
        assert np.all(np.array(rec.certified_sums) <= bounds + 1e-15)
        assert rec.sup_lower_bound >= prev + (1.0 / (2.0 * math.pi)) / 9.0 - 1e-10
        prev = rec.sup_lower_bound
        assert rec.n_grid == sorted(set(rec.n_grid))
    # best products are empirically nondecreasing in the block count
    best = [r.best_objective for r in records]
    assert all(b >= a for a, b in zip(best, best[1:]))
    # threshold-crossing surrogate: blocks needed to exceed T is bounded
    T = 0.02
    first = next(r.blocks for r in records if r.sup_lower_bound > T)
    assert first <= 2 + math.ceil(2.0 * math.pi * 9.0 * 2.0 * T)


def test_obstruction_determinism():
    a = smoke_records()
    b = smoke_records()
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_record_round_trip():
    rec = smoke_records()[0]
    back = ObstructionRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
    assert back.to_dict() == rec.to_dict()
    assert back.scope  # the family restriction is stated on every record


def test_exploratory_sqrt_modulus_runs():
    records = run_obstruction(ModulusSpec.power(0.5), [1], knots=8, budget=40, seed=3, strict=False)
    assert records[0].violations == 0


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"restarts": 0}, "restarts"),
        ({"knots": 1}, "knots"),
        ({"budget": 3}, "budget"),
        ({"budget": 0}, "budget"),
        ({"block_counts": []}, "need at least one block count"),
        ({"block_counts": iter([])}, "need at least one block count"),
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"knots": experiments.MAX_KNOTS + 1}, "knots must lie in"),
    ],
)
def test_run_obstruction_rejects_bad_inputs(kwargs, name, monkeypatch):
    # every check fires before the tent system is built
    monkeypatch.setattr(experiments, "build_delta_sequence", None)
    with pytest.raises(ValueError, match=name):
        run_obstruction(OMEGA, **{"block_counts": [1], "knots": 4, "budget": 4, **kwargs})


@pytest.mark.parametrize("name", ["seed", "alt_seed"])
def test_verify_config_rejects_a_negative_seed(name):
    with pytest.raises(ValueError, match=f"^{name} must be a non-negative integer, got -1$"):
        VerifyConfig(**{name: -1})


def _objective(blocks):
    seq = build_delta_sequence(OMEGA, blocks)
    sys_ = place_intervals(seq, seq.deltas.size)
    u, v = build_u(sys_), build_v(sys_)
    n_grid = sorted({math.ceil(3.0 / w) for w in sys_.weight.tolist()})
    return _ProductObjective(u, v, n_grid, np.zeros(len(n_grid)))


def _reference_seminorm(f, grid_n):
    # the whole spectrum of the samples, the Nyquist bin k = N/2 counted once
    big = np.fft.rfft(sample(f, grid_n).samples.real) / grid_n
    weight = 2.0 * np.arange(grid_n // 2 + 1)
    weight[-1] /= 2.0
    return math.sqrt(float(np.sum(np.abs(big) ** 2 * weight)))


@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5, 6])
def test_objective_matches_truncated_pl_path(blocks):
    engine = _objective(blocks)
    n = experiments.GRID_N
    for seed in range(3):
        raw = np.random.default_rng([seed, blocks]).uniform(-0.3, 0.3, 32)
        _, products = engine.evaluate(raw)
        h = from_increments(raw)
        uh = superpose(engine.u, h)
        nv = _reference_seminorm(superpose(engine.v, h), n)
        expected = [nv * _reference_seminorm(truncate_un(uh, k), n) for k in engine.n_grid]
        np.testing.assert_allclose(products, expected, rtol=1e-12, atol=0.0)


def test_objective_products_lie_near_the_exact_ones():
    # design rule 2: the default grid's products against the exact PL
    # seminorms, at the identity and at three seeded maps (roughness 0.3)
    engine = _objective(4)
    raws = [np.zeros(32)] + [np.random.default_rng([seed, 4]).uniform(-0.3, 0.3, 32) for seed in range(3)]
    for raw in raws:
        _, products = engine.evaluate(raw)
        h = from_increments(raw)
        uh = superpose(engine.u, h)
        nv = pl_seminorm(superpose(engine.v, h))
        exact = [nv * pl_seminorm(truncate_un(uh, k)) for k in engine.n_grid]
        np.testing.assert_allclose(products, exact, rtol=0.02, atol=0.0)


def test_later_evaluations_leave_earlier_results_alone():
    engine = _objective(3)
    _, first = engine.evaluate(np.zeros(8))
    first_copy, best, best_copy = first.copy(), engine.best_products, engine.best_products.copy()
    rng = np.random.default_rng(5)
    for _ in range(4):
        engine.evaluate(rng.uniform(-0.3, 0.3, 8))
    np.testing.assert_array_equal(first, first_copy)
    np.testing.assert_array_equal(best, best_copy)
