import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlelab import (
    TWO_PI,
    CircleInterval,
    ModulusSpec,
    PiecewiseLinearFunction,
    build_delta_sequence,
    build_u,
    lip_check,
    pairing_report,
    pl_spectrum,
    place_intervals,
    random_homeomorphism,
    reduce_angle,
    sample,
    superpose,
    total_variation,
    triangle,
    truncate_un,
)
from circlelab.experiments import run_obstruction


def weighted_sum(functions, weights):
    """Exact weighted sum of PL functions on the union knot set."""
    knots = np.unique(np.concatenate([f.knots for f in functions]))
    return PiecewiseLinearFunction(knots, sum(w * f(knots) for w, f in zip(weights, functions)))


OMEGA = ModulusSpec.power(1.0 / 3.0)
TENT = triangle(CircleInterval(1.0, 2.0))


def _system():
    seq = build_delta_sequence(OMEGA, 2)
    return place_intervals(seq, seq.deltas.size)


ARRAY_HOLDERS = {
    "PiecewiseLinearFunction": lambda: triangle(CircleInterval(1.0, 2.0)),
    "GridFunction": lambda: sample(TENT, 8),
    "SpectrumCoeffs": lambda: pl_spectrum(TENT, 4),
    "PLHomeomorphism": lambda: random_homeomorphism(8, roughness=1.0, rng=np.random.default_rng(1)),
    "ModulusSpec": lambda: ModulusSpec.table([0.0, 0.5, 1.0], [0.0, 0.7, 1.0]),
    "DeltaSequence": lambda: build_delta_sequence(OMEGA, 2),
    "TriangleSystem": _system,
    "StieltjesReport": lambda: pairing_report(_system(), 6),
    "LipReport": lambda: lip_check(TENT, ModulusSpec.power(0.5)),
    "ObstructionRecord": lambda: run_obstruction(
        OMEGA, [1], knots=4, budget=4, restarts=1, grid_n=1 << 10, max_freq=1 << 8
    )[0],
}


@pytest.mark.parametrize("make", ARRAY_HOLDERS.values(), ids=ARRAY_HOLDERS.keys())
def test_array_holders_compare_without_raising(make):
    # a generated __eq__ would compare array fields elementwise and raise
    a, b = make(), make()
    assert (a == a) is True
    assert isinstance(a == b, bool)
    assert isinstance(a != b, bool)


def test_triangle_center_and_endpoints():
    tri = triangle(CircleInterval(1.0, 2.0))
    assert tri(1.5) == 1.0
    assert tri(1.0) == 0.0
    assert tri(2.0) == 0.0
    assert tri(1.25) == 0.5
    assert tri(1.75) == 0.5


def test_triangle_rejects_boundary_touch():
    with pytest.raises(ValueError):
        triangle(CircleInterval(0.0, 1.0))
    with pytest.raises(ValueError):
        triangle(CircleInterval(1.0, TWO_PI))


def test_interval_validation():
    with pytest.raises(ValueError):
        CircleInterval(2.0, 1.0)
    with pytest.raises(ValueError):
        CircleInterval(-0.1, 1.0)


def test_eval_constant_and_gap():
    const = PiecewiseLinearFunction(np.array([0.0]), np.array([3.5 + 1j]))
    for t in (0.0, 1.0, 6.0):
        assert const(t) == 3.5 + 1j
    two = weighted_sum([triangle(CircleInterval(1.0, 2.0)), triangle(CircleInterval(3.0, 4.0))], [1.0, 1.0])
    assert two(2.5) == 0.0
    assert two(5.0) == 0.0


def test_sample_knots_on_grid_exact():
    tri = triangle(CircleInterval(np.pi / 2, 3 * np.pi / 2))
    g = sample(tri, 4)
    assert g.samples.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_sample_matches_eval_everywhere():
    tri = triangle(CircleInterval(0.7, 2.9))
    for n in (2, 64):
        g = sample(tri, n)
        t = np.arange(n) * (TWO_PI / n)
        assert np.array_equal(g.samples, tri(t))


def test_sample_rejects_bad_counts():
    tri = triangle(CircleInterval(1.0, 2.0))
    for bad in (0, 1, 3, 24):
        with pytest.raises(ValueError):
            sample(tri, bad)


def test_total_variation_triangle_and_constant():
    assert total_variation(triangle(CircleInterval(1.0, 2.0))) == 2.0
    const = PiecewiseLinearFunction(np.array([0.0]), np.array([2.0 + 0j]))
    assert total_variation(const) == 0.0


def test_total_variation_weighted_tents():
    # disjoint supports: variation is the sum of per-tent rises and falls
    weights = [0.5, 0.3, 0.2]
    tents = [
        triangle(CircleInterval(0.5, 1.0)),
        triangle(CircleInterval(2.0, 3.0)),
        triangle(CircleInterval(4.0, 5.5)),
    ]
    u = weighted_sum(tents, weights)
    assert abs(total_variation(u) - 2.0 * sum(weights)) < 1e-15


def test_total_variation_rejects_complex():
    f = PiecewiseLinearFunction(np.array([0.0, 1.0]), np.array([0.0, 1j]))
    with pytest.raises(ValueError):
        total_variation(f)


def test_eval_exact_at_knots():
    rng = np.random.default_rng(11)
    knots = np.sort(rng.uniform(0.0, TWO_PI, 17))
    values = rng.normal(size=17) + 1j * rng.normal(size=17)
    f = PiecewiseLinearFunction(knots, values)
    out = f(knots)
    assert np.array_equal(out, values)


def test_collinear_knot_is_invisible():
    tri = triangle(CircleInterval(1.0, 2.0))
    # insert a redundant knot in the middle of the rising edge
    knots = np.sort(np.append(tri.knots, 1.25))
    f2 = PiecewiseLinearFunction(knots, tri(knots))
    assert abs(total_variation(f2) - total_variation(tri)) < 1e-12
    t = np.linspace(0, 6.2, 100)
    assert np.max(np.abs(f2(t) - tri(t))) < 1e-14


def test_validation_rejects_bad_knots():
    with pytest.raises(ValueError):
        PiecewiseLinearFunction(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PiecewiseLinearFunction(np.array([0.0, TWO_PI]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PiecewiseLinearFunction(np.array([0.0, 1.0]), np.array([np.nan, 2.0]))


def test_json_round_trip():
    tri = triangle(CircleInterval(1.0, 2.5))
    back = PiecewiseLinearFunction.from_dict(tri.to_dict())
    assert np.array_equal(back.knots, tri.knots)
    assert np.array_equal(back.values, tri.values)


@given(
    a=st.floats(min_value=1e-3, max_value=5.0),
    width=st.floats(min_value=1e-3, max_value=1.2),
    t1=st.floats(min_value=0.0, max_value=TWO_PI),
    t2=st.floats(min_value=0.0, max_value=TWO_PI),
)
@settings(max_examples=200, deadline=None)
def test_tent_slope_bound_property(a, width, t1, t2):
    b = min(a + width, TWO_PI - 1e-6)
    tent = triangle(CircleInterval(a, b))
    lhs = abs(tent(t1) - tent(t2))
    assert lhs <= (2.0 / (b - a)) * abs(t1 - t2) + 1e-12


@given(st.floats(min_value=-10.0, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_reduce_angle_range(t):
    r = reduce_angle(t)
    assert 0.0 <= r < TWO_PI
    assert abs((r - t) % TWO_PI) < 1e-9 or abs(((r - t) % TWO_PI) - TWO_PI) < 1e-9


def test_reduce_angle_far_and_non_finite():
    # far angles reduce the same way as scalars and as arrays
    r = reduce_angle(1e20)
    assert 0.0 <= r < TWO_PI
    assert reduce_angle(np.array([1e20]))[0] == r
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            reduce_angle(bad)
        with pytest.raises(ValueError):
            reduce_angle(np.array([1.0, bad]))


def test_segment_views():
    f = PiecewiseLinearFunction(np.array([0.5, 2.0, 4.0]), np.array([1.0, 4.0, 0.0], dtype=complex))
    assert np.array_equal(f.ext_knots, [0.5, 2.0, 4.0, 0.5 + TWO_PI])
    assert np.array_equal(f.ext_values, [1.0, 4.0, 0.0, 1.0])
    wrap = 1.0 / (0.5 + TWO_PI - 4.0)
    assert np.allclose(f.slopes, [2.0, -2.0, wrap], rtol=1e-15, atol=0.0)
    assert np.allclose(f.jumps, [2.0 - wrap, -4.0, wrap + 2.0], rtol=1e-15, atol=0.0)
    assert abs(np.sum(f.jumps)) < 1e-15
    t = np.array([0.0, 0.25, 0.5, 1.0, 4.0, 5.0, TWO_PI - 1e-9])  # both sides of the wrap
    expected = np.interp(np.where(t < 0.5, t + TWO_PI, t), f.ext_knots, f.ext_values)
    np.testing.assert_array_equal(f(t), expected)
    # angles outside [0, 2*pi) are reduced; non-finite ones raise
    np.testing.assert_array_equal(f(np.array([TWO_PI, -TWO_PI, 1.0])), f(np.array([0.0, 0.0, 1.0])))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="angles"):
            f(np.array([0.5, bad]))
    assert np.shares_memory(f.knots, f.ext_knots) and f.jumps is f.jumps
    for view in (f.knots, f.ext_values, f.jumps):
        with pytest.raises(ValueError):
            view[0] = 0.0


@pytest.mark.parametrize("first_knot", [0.0, 0.5])
def test_call_matches_the_wrap_shift_formula_bit_for_bit(first_knot):
    # first knot at 0: no angle lies below it; at 0.5: the grid's first angles do
    rng = np.random.default_rng(23)
    knots = np.concatenate([[first_knot], np.sort(rng.uniform(first_knot + 0.01, TWO_PI, 40))])
    real = rng.normal(size=knots.size)
    t = np.arange(4096) * (TWO_PI / 4096)
    for values in (real, real + 1j * rng.normal(size=knots.size)):
        # the one-knot function is the constant values[0]
        for f in (PiecewiseLinearFunction(knots, values), PiecewiseLinearFunction(knots[:1], values[:1])):
            pos = np.where(t < f.knots[0], t + TWO_PI, t)
            expected = np.interp(pos, f.ext_knots, f.ext_values)
            assert expected.dtype == values.dtype
            np.testing.assert_array_equal(f(t), expected)
        assert np.all(f(t) == values[0])


def test_real_values_are_stored_as_float():
    knots = np.array([0.0, 1.0, 3.0])
    real_inputs = {
        "float": np.array([0.0, 2.0, -1.0]),
        "int": np.array([0, 2, -1]),
        "complex with zero imaginary": np.array([0.0, 2.0, -1.0], dtype=complex),
    }
    for name, values in real_inputs.items():
        f = PiecewiseLinearFunction(knots, values)
        assert f.values.dtype == np.float64 and f.is_real, name
    f = PiecewiseLinearFunction.from_dict({"knots": [0.0, 1.0], "re": [1.0, 2.0], "im": [0.0, 0.0]})
    assert f.values.dtype == np.float64 and f.is_real
    g = PiecewiseLinearFunction(knots, np.array([0.0, 2.0 + 1e-300j, -1.0]))
    assert g.values.dtype == np.complex128 and not g.is_real
    assert g.values.imag[1] == 1e-300 and g.slopes.dtype == np.complex128
    # the constructions keep real data real
    sys = _system()
    u = build_u(sys)
    for h in (triangle(CircleInterval(1.0, 2.0)), u, truncate_un(u, 6), superpose(u, random_homeomorphism(8, rng=3))):
        assert h.values.dtype == np.float64 and h.slopes.dtype == np.float64


def test_import_loads_no_scipy():
    import os
    import subprocess
    import sys

    import circlelab

    src = os.path.dirname(os.path.dirname(circlelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, circlelab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
