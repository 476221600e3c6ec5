import math

import numpy as np
import pytest

from circlelab import (
    TWO_PI,
    CircleInterval,
    ModulusSpec,
    PiecewiseLinearFunction,
    SpectrumCoeffs,
    build_delta_sequence,
    build_u,
    build_v,
    duality_check,
    fourier_pairing,
    harmonic,
    pairing_closed_form,
    pairing_report,
    pl_spectrum,
    place_intervals,
    rs_integral,
    triangle,
    truncate_un,
)
from circlelab.experiments import _random_pl


def weighted_sum(functions, weights):
    """Exact weighted sum of PL functions on the union knot set."""
    knots = np.unique(np.concatenate([f.knots for f in functions]))
    return PiecewiseLinearFunction(knots, sum(w * f(knots) for w, f in zip(weights, functions)))


def dense_pl(fn, n=4096):
    t = np.arange(n) * (TWO_PI / n)
    return PiecewiseLinearFunction(t, fn(t))


def test_constant_integrator_gives_zero():
    x = triangle(CircleInterval(1.0, 2.0))
    y = PiecewiseLinearFunction(np.array([0.0]), np.array([3.0 + 0j]))
    assert rs_integral(x, y) == 0.0


def test_constant_integrand_gives_zero():
    one = PiecewiseLinearFunction(np.array([0.0]), np.array([1.0 + 0j]))
    rng = np.random.default_rng(1)
    y = _random_pl(rng, 32)
    assert abs(rs_integral(one, y)) < 1e-14


def test_bilinearity():
    rng = np.random.default_rng(2)
    x1, x2 = _random_pl(rng, 24, complex_values=True), _random_pl(rng, 24, complex_values=True)
    y1, y2 = _random_pl(rng, 24), _random_pl(rng, 24)
    lhs = rs_integral(weighted_sum([x1, x2], [2.0, -3.0]), y1)
    rhs = 2.0 * rs_integral(x1, y1) - 3.0 * rs_integral(x2, y1)
    assert abs(lhs - rhs) < 1e-12
    lhs2 = rs_integral(x1, weighted_sum([y1, y2], [1.0, 4.0]))
    rhs2 = rs_integral(x1, y1) + 4.0 * rs_integral(x1, y2)
    assert abs(lhs2 - rhs2) < 1e-12


def test_parts_identity_against_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(5):
        y = _random_pl(rng, 64)
        spec = pl_spectrum(y, 64)
        ks = np.concatenate([np.arange(-64, 0), np.arange(1, 65)])
        pair = fourier_pairing(y, ks)
        ident = np.array([-1j * k * spec.coeff(-k) for k in ks])
        assert np.max(np.abs(pair - ident)) < 1e-10


def test_pairing_matches_the_two_exponential_formula_bit_for_bit():
    # the per-segment form exp(ik t_{j+1}) - exp(ik t_j), one exponential per endpoint
    rng = np.random.default_rng(17)
    ks = np.concatenate([np.arange(-64, 0), np.arange(1, 65)]).astype(float)
    for _ in range(20):
        y = _random_pl(rng, 64)
        t_ext = y.ext_knots
        slopes = np.diff(y.ext_values) / np.diff(t_ext)
        kk = ks[:, None]
        seg = np.exp(1j * kk * t_ext[None, 1:]) - np.exp(1j * kk * t_ext[None, :-1])
        expected = (seg @ slopes) / (1j * ks) / TWO_PI
        np.testing.assert_array_equal(fourier_pairing(y, ks), expected)


def test_pairing_zero_frequency():
    rng = np.random.default_rng(3)
    y = _random_pl(rng, 16)
    assert fourier_pairing(y, 0) == 0.0


def test_rs_integral_matches_analytic_pairing_on_dense_pl():
    # e^{ikt} sampled as a dense PL integrand approaches the analytic value
    rng = np.random.default_rng(4)
    y = _random_pl(rng, 12)
    k = 3
    x = dense_pl(lambda t: np.exp(1j * k * t))
    approx = rs_integral(x, y) / TWO_PI
    exact = fourier_pairing(y, k)
    assert abs(approx - exact) < 1e-4
    assert abs(approx - exact) > 0.0  # PL sampling is an approximation here


def test_duality_single_harmonic_tent():
    y = triangle(CircleInterval(1.0, 2.0))
    x = harmonic(1)
    rep = duality_check(x, y)
    yspec = pl_spectrum(y, 4)
    assert abs(rep.lhs - abs(yspec.coeff(-1))) < 1e-12
    assert rep.holds and rep.lhs < rep.rhs  # strict: other harmonics carry mass


def test_duality_constant_integrand():
    y = triangle(CircleInterval(1.0, 2.0))
    x = SpectrumCoeffs(1, np.array([0.0, 5.0, 0.0], dtype=complex))
    rep = duality_check(x, y)
    assert rep.lhs == 0.0 and rep.holds


def test_duality_random_audit():
    from circlelab.experiments import check_duality

    result = check_duality(50, seed=7)
    assert result.passed, result.line()


def test_change_of_variable_invariance():
    from circlelab import random_homeomorphism, superpose, truncate_un

    omega = ModulusSpec.power(1.0 / 3.0)
    seq = build_delta_sequence(omega, 3)
    sys3 = place_intervals(seq, seq.deltas.size)
    u, v = build_u(sys3), build_v(sys3)
    un = truncate_un(u, 12)
    for seed in (1, 2, 3):
        h = random_homeomorphism(16, roughness=1.0, rng=seed)
        lhs = rs_integral(superpose(v, h), superpose(un, h))
        assert abs(lhs - rs_integral(v, un)) < 1e-9


def test_pairing_report_floors_and_totals():
    omega = ModulusSpec.power(1.0 / 3.0)
    seq = build_delta_sequence(omega, 3)
    sys3 = place_intervals(seq, seq.deltas.size)
    u, v = build_u(sys3), build_v(sys3)
    for n in (6, 12, 24):
        rep = pairing_report(sys3, n, u=u, v=v)
        active = sys3.weight >= 3.0 / n
        assert np.all(rep.active == active)
        assert np.all(rep.per_interval >= rep.lb_terms - 1e-14)
        assert np.all(rep.per_interval >= -1e-14)
        assert rep.value >= rep.lower_bound - 1e-12
        assert abs(rep.value - np.sum(rep.per_interval)) < 1e-12


def test_pairing_contribution_formula():
    # per active tent with c <= w/2: contribution = w^2/2 - c^2 (independent derivation)
    omega = ModulusSpec.power(1.0 / 3.0)
    seq = build_delta_sequence(omega, 2)
    sys2 = place_intervals(seq, seq.deltas.size)
    n = 12
    c = 1.0 / n
    rep = pairing_report(sys2, n)
    for k in range(sys2.count):
        w = sys2.weight[k]
        if c <= w / 2:
            expected = w * w / 2.0 - c * c
        elif c < w:
            expected = (w - c) ** 2
        else:
            expected = 0.0
        assert abs(rep.per_interval[k] - expected) < 1e-14


def test_corrupted_weights_detected():
    # halving v's weights breaks the certified floor on active tents
    omega = ModulusSpec.power(1.0 / 3.0)
    seq = build_delta_sequence(omega, 2)
    sys2 = place_intervals(seq, seq.deltas.size)
    u = build_u(sys2)
    from circlelab.construction import _tent_sum

    bad_v = _tent_sum(sys2.a, sys2.a + 1.5 * sys2.delta, sys2.center, 0.5 * sys2.weight)
    rep = pairing_report(sys2, 6, u=u, v=bad_v)
    failing = np.flatnonzero(rep.active & (rep.per_interval < rep.lb_terms - 1e-14))
    assert failing.size > 0


def test_report_serialization():
    omega = ModulusSpec.power(1.0 / 3.0)
    seq = build_delta_sequence(omega, 1)
    sys1 = place_intervals(seq, seq.deltas.size)
    rep = pairing_report(sys1, 6)
    d = rep.to_dict()
    assert d["n"] == 6
    assert len(d["per_interval"]) == sys1.count
    assert d["per_interval"][0] == rep.per_interval[0]


def test_rs_integral_rejects_complex_integrator():
    x = triangle(CircleInterval(1.0, 2.0))
    y = PiecewiseLinearFunction(np.array([0.0, 1.0]), np.array([0.0, 1j]))
    with pytest.raises(ValueError):
        rs_integral(x, y)


@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5])
def test_pairing_value_matches_rs_integral(blocks):
    seq = build_delta_sequence(ModulusSpec.power(1.0 / 3.0), blocks)
    sys_ = place_intervals(seq, seq.deltas.size)
    u, v = build_u(sys_), build_v(sys_)
    # a caller-supplied v whose first knot lies above 0, nonzero on the wrap
    rng = np.random.default_rng(blocks)
    knots = np.sort(rng.uniform(0.3, TWO_PI - 0.3, 40))
    shifted_v = PiecewiseLinearFunction(knots, rng.uniform(0.5, 1.5, 40))
    assert shifted_v.knots[0] > 0.0
    for n in sorted({math.ceil(3.0 / w) for w in sys_.weight.tolist()}):
        un = truncate_un(u, n)
        for vv in (v, shifted_v):
            rep = pairing_report(sys_, n, u=u, v=vv)
            assert abs(rep.value - rs_integral(vv, un)) <= 1e-13


def test_closed_form_matches_the_exact_pairing():
    # one term w^2 phi(1/(n w)) per tent against the exact PL pairing, J = 1..7
    omega = ModulusSpec.power(1.0 / 3.0)
    for blocks in range(1, 8):
        seq = build_delta_sequence(omega, blocks)
        sys_ = place_intervals(seq, seq.deltas.size)
        u, v = build_u(sys_), build_v(sys_)
        for n in sys_.n_grid:
            exact = pairing_report(sys_, n, u=u, v=v).value / TWO_PI
            assert pairing_closed_form(sys_, n) == pytest.approx(exact, rel=1e-14, abs=0.0)
    with pytest.raises(ValueError):
        pairing_closed_form(sys_, 0)


def _rs_by_roll(x, y):
    """int x dy on the merged knots, the wrap piece taken by np.roll."""
    t = np.unique(np.concatenate([x.knots, y.knots]))
    xa, ya = x(t), y(t)
    return complex(np.sum(0.5 * (xa + np.roll(xa, -1)) * (np.roll(ya, -1) - ya)))


def _midpoint_attribution(sys_, u, v, n):
    """Per-tent pairing by classifying each merged piece by its midpoint:
    the piece belongs to tent k when its midpoint lies in [a_k, center_k]."""
    un = truncate_un(u, n)
    t = np.unique(np.concatenate([v.knots, un.knots, sys_.a, sys_.center]))
    va, ua = v(t), un(t)
    pieces = 0.5 * (va + np.roll(va, -1)) * (np.roll(ua, -1) - ua)
    t_ext = np.append(t, t[0] + TWO_PI)
    mids = 0.5 * (t_ext[:-1] + t_ext[1:])
    idx = np.searchsorted(sys_.a, mids, side="right") - 1
    inside = (idx >= 0) & (idx < sys_.count)
    inside &= mids <= sys_.center[np.where(inside, idx, 0)]
    return np.bincount(idx[inside], weights=pieces[inside], minlength=sys_.count), pieces


@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 5])
def test_pieces_are_attributed_by_index(blocks):
    seq = build_delta_sequence(ModulusSpec.power(1.0 / 3.0), blocks)
    sys_ = place_intervals(seq, seq.deltas.size)
    u, v = build_u(sys_), build_v(sys_)
    for n in range(1, max(sys_.n_grid) + 2):
        rep = pairing_report(sys_, n, u=u, v=v)
        per, pieces = _midpoint_attribution(sys_, u, v, n)
        assert np.array_equal(rep.per_interval, per)
        # the value sums the same pieces, the wrap piece taken by np.roll
        assert rep.value == float(np.sum(pieces))
        un = truncate_un(u, n)
        assert rs_integral(v, un) == _rs_by_roll(v, un)
    # hand-made profiles: v without the a_k and center_k knots, and u lifted
    # above every level so that each tent's first piece carries a rise
    rng = np.random.default_rng(blocks)
    knots = np.sort(rng.uniform(0.0, TWO_PI, 64))
    assert not np.isin(np.concatenate([sys_.a, sys_.center]), knots).any()
    hand_v = PiecewiseLinearFunction(knots, rng.uniform(0.0, 1.0, 64))
    lifted_u = PiecewiseLinearFunction(u.knots, u.values + 1.0)
    for uu in (u, lifted_u):
        for n in (6, 48):
            rep = pairing_report(sys_, n, u=uu, v=hand_v)
            expected, pieces = _midpoint_attribution(sys_, uu, hand_v, n)
            # at most a handful of pieces per tent, summed in another order
            tol = 8 * np.finfo(float).eps * float(np.max(np.abs(pieces)))
            assert np.allclose(rep.per_interval, expected, rtol=0.0, atol=tol)
            assert np.any(rep.per_interval != 0.0)
            assert rep.value == float(np.sum(pieces))


def test_rs_integral_equals_the_roll_formula_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(40):
        x = _random_pl(rng, 48, complex_values=bool(rng.integers(2)))
        y = _random_pl(rng, 48)
        assert rs_integral(x, y) == _rs_by_roll(x, y)


def test_a_tent_of_weight_three_over_n_is_active():
    # J = 2: the two tents of block 1 have w = 1/2, exactly 3/6
    sys2 = place_intervals(build_delta_sequence(ModulusSpec.power(1.0 / 3.0), 2), 10)
    assert sys2.weight[:2].tolist() == [0.5, 0.5]
    expected = [True] * 2 + [False] * 8
    assert sys2.active(6).tolist() == expected
    rep = pairing_report(sys2, 6)
    assert rep.active.tolist() == expected
    assert rep.lb_terms.tolist() == [2.0 / 9.0 * 0.25] * 2 + [0.0] * 8
