import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlelab import (
    TWO_PI,
    CircleInterval,
    PLHomeomorphism,
    build_delta_sequence,
    build_u,
    from_increments,
    ModulusSpec,
    place_intervals,
    random_homeomorphism,
    superpose,
    total_variation,
    triangle,
    truncate_un,
)
from circlelab.experiments import _random_pl


def test_equal_increments_give_identity():
    h = from_increments(np.zeros(8))
    knots = np.arange(8) * (TWO_PI / 8)
    assert np.max(np.abs(h.knots_in - knots)) < 1e-12
    assert np.max(np.abs(h.knots_out - knots)) < 1e-12
    t = np.linspace(0.0, TWO_PI, 100, endpoint=False)
    assert np.max(np.abs(h.apply(t) - t)) < 1e-12


def test_increment_prefix_sums():
    raw = np.array([math.log(3.0), 0.0, 0.0, 0.0])
    h = from_increments(raw)
    # independent recomputation of the softmax prefix sums
    w = np.exp(raw - np.mean(raw))
    p = w / w.sum() * TWO_PI
    expected = np.array([0.0, p[0], p[0] + p[1], p[0] + p[1] + p[2]])
    assert np.max(np.abs(h.knots_out - expected)) < 1e-12
    assert h.knots_out[1] == pytest.approx(TWO_PI / 2.0, rel=1e-12)


def test_any_raw_vector_is_valid():
    rng = np.random.default_rng(6)
    for scale in (0.1, 5.0, 100.0, 1e6):
        h = from_increments(rng.normal(size=16) * scale)
        assert np.all(np.diff(h.knots_out) > 0.0)
        assert h.knots_out[-1] < TWO_PI


def test_invert_is_involutive():
    h = random_homeomorphism(12, rng=3)
    back = h.invert().invert()
    assert np.array_equal(back.knots_in, h.knots_in)
    assert np.array_equal(back.knots_out, h.knots_out)


def test_apply_exact_at_knots():
    h = random_homeomorphism(10, rng=5)
    assert np.array_equal(h.apply(h.knots_in), h.knots_out)


def test_identity_superpose_returns_function():
    tri = triangle(CircleInterval(1.0, 2.0))
    knots = np.arange(4) * (TWO_PI / 4)
    fh = superpose(tri, PLHomeomorphism(knots, knots))
    t = np.linspace(0.0, TWO_PI, 300, endpoint=False)
    assert np.max(np.abs(fh(t) - tri(t))) < 1e-12


def test_superpose_preserves_variation_and_range():
    seq = build_delta_sequence(ModulusSpec.power(1.0 / 3.0), 3)
    sys3 = place_intervals(seq, seq.deltas.size)
    u = build_u(sys3)
    un = truncate_un(u, 12)
    for seed in (1, 2, 3, 4):
        h = random_homeomorphism(24, roughness=1.5, rng=seed)
        uh = superpose(un, h)
        assert abs(total_variation(uh) - total_variation(un)) < 1e-10
        assert np.max(uh.values) == np.max(un.values)
        assert np.min(uh.values) == np.min(un.values)


def test_superpose_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = _random_pl(rng, 48, complex_values=True)
        h = random_homeomorphism(16, rng=rng)
        back = superpose(superpose(f, h), h.invert())
        assert np.max(np.abs(back(f.knots) - f.values)) < 1e-10


def test_homeo_validation():
    with pytest.raises(ValueError):
        PLHomeomorphism(np.array([0.1, 1.0]), np.array([0.0, 1.0]))  # must start at 0
    with pytest.raises(ValueError):
        PLHomeomorphism(np.array([0.0, 1.0]), np.array([0.0, TWO_PI]))  # < 2*pi
    with pytest.raises(ValueError):
        from_increments(np.array([1.0]))  # need at least 2


def test_homeo_serialization():
    h = random_homeomorphism(7, rng=2)
    back = PLHomeomorphism.from_dict(h.to_dict())
    assert np.array_equal(back.knots_in, h.knots_in)
    assert np.array_equal(back.knots_out, h.knots_out)


@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=24))
@settings(max_examples=150, deadline=None)
def test_from_increments_always_valid(raw):
    h = from_increments(np.asarray(raw))
    assert h.knots_in[0] == 0.0 and h.knots_out[0] == 0.0
    assert np.all(np.diff(h.knots_out) > 0.0)
    t = np.linspace(0.0, TWO_PI, 21, endpoint=False)
    s = h.apply(t)
    assert np.all(np.diff(s) > 0.0)  # strictly increasing on [0, 2*pi)


def test_superpose_at_the_clip_keeps_knots_increasing():
    # raw increments at +-12 give output spans e^24 apart
    seq = build_delta_sequence(ModulusSpec.power(1.0 / 3.0), 3)
    sys_ = place_intervals(seq, seq.deltas.size)
    u = build_u(sys_)
    signs = np.where(np.random.default_rng(3).random(32) < 0.5, 1.0, -1.0)
    for raw in (np.tile([12.0, -12.0], 16), 12.0 * signs):
        h = from_increments(raw)
        g = superpose(u, h)
        assert np.all(np.diff(g.knots) > 0.0)
        # preimages of u's knots by the segment-search lift formula
        s_ext, t_ext = np.append(h.knots_out, TWO_PI), np.append(h.knots_in, TWO_PI)
        idx = np.clip(np.searchsorted(s_ext, u.knots, side="right") - 1, 0, s_ext.size - 2)
        lam = (u.knots - s_ext[idx]) / (s_ext[idx + 1] - s_ext[idx])
        positions = np.concatenate([t_ext[idx] + lam * (t_ext[idx + 1] - t_ext[idx]), h.knots_in])
        order = np.argsort(positions, kind="stable")
        positions, values = positions[order], np.concatenate([u.values, u(h.knots_out)])[order]
        keep = np.concatenate([[True], np.diff(positions) > 0.0])
        assert g.n_knots == np.count_nonzero(keep)
        assert np.all(np.abs(g.knots - positions[keep]) <= 4 * np.spacing(positions[keep]))
        assert np.array_equal(g.values, values[keep])
