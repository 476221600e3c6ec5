import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circlelab import (
    TWO_PI,
    ConstructionError,
    ModulusSpec,
    TriangleSystem,
    build_delta_sequence,
    build_f,
    build_u,
    build_v,
    lip_check,
    place_intervals,
    total_variation,
    truncate_un,
)


OMEGA_CUBE_ROOT = ModulusSpec.power(1.0 / 3.0)


def test_cube_root_blocks_match_hand_derivation():
    # alpha = 1/3: widths 2^-3j, counts 2^(2j-1), block sums exactly 1/2
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 3)
    assert seq.epsilons.tolist() == [2.0**-3, 2.0**-6, 2.0**-9]
    assert seq.block_sizes.tolist() == [2, 8, 32]
    assert seq.deltas.tolist() == [2.0**-3] * 2 + [2.0**-6] * 8 + [2.0**-9] * 32
    sums = seq.block_weight_sums()
    # independent recomputation: n_j * (eps_j^(1/3))^2
    for j in range(3):
        by_hand = seq.block_sizes[j] * (seq.epsilons[j] ** (1.0 / 3.0)) ** 2
        assert abs(sums[j] - by_hand) < 1e-15
        assert abs(sums[j] - 0.5) < 1e-12


def _assert_block_invariants(seq, omega):
    for j in range(1, seq.blocks + 1):
        e = seq.epsilons[j - 1]
        n = int(seq.block_sizes[j - 1])
        assert 0.0 < e < 2.0 ** -(j + 1)
        assert omega(e) ** 2 / e >= 2.0**j * (1 - 1e-12)
        assert 1.0 / (2.0 ** (j + 1) * e) <= n < 1.0 / (2.0**j * e)
    assert np.all(seq.block_weight_sums() >= 0.5 - 1e-12)
    assert sum(int(n) * float(e) for n, e in zip(seq.block_sizes, seq.epsilons)) <= 1.0 + 1e-12


def test_block_invariants_through_eight_blocks():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 8)
    _assert_block_invariants(seq, OMEGA_CUBE_ROOT)
    assert float(np.sum(seq.deltas)) <= 1.0 + 1e-12


def test_flattening_is_blockwise_constant():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 3)
    ends = np.cumsum(seq.block_sizes)
    assert seq.deltas.size == ends[-1]
    for j in range(3):
        blk = seq.deltas[ends[j] - seq.block_sizes[j] : ends[j]]
        assert np.all(blk == seq.epsilons[j])


def _flattened_placement(seq, omega):
    """Interval placement as it was when the sequence stored one row per
    tent: widths repeated per block first, omega applied to every width."""
    deltas = np.repeat(seq.epsilons, seq.block_sizes)
    count = deltas.size
    occupied = 6.0 * float(np.sum(deltas))
    gap = (TWO_PI - occupied) / (count + 1)
    prefix = np.concatenate([[0.0], np.cumsum(6.0 * deltas)])[:count]
    a = gap * np.arange(1, count + 1) + prefix
    return a, a + 6.0 * deltas, a + 3.0 * deltas, deltas, np.asarray(omega(deltas), dtype=float)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 1.0 / 3.0])
def test_placement_equals_the_flattened_path(alpha):
    omega = ModulusSpec.power(alpha)
    for blocks in range(1, 10):
        seq = build_delta_sequence(omega, blocks)
        sys_ = place_intervals(seq, seq.deltas.size)
        got = (sys_.a, sys_.b, sys_.center, sys_.delta, sys_.weight)
        for mine, ref in zip(got, _flattened_placement(seq, omega)):
            assert np.array_equal(mine, ref)


def test_blocks_past_the_flattening_cap():
    # 2^59 tents in block 30: the blocks are built, only flattening is refused
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 30)
    assert seq.block_sizes[-1] == 2**59
    _assert_block_invariants(seq, OMEGA_CUBE_ROOT)
    with pytest.raises(ConstructionError, match="10000000 entries at block 12"):
        seq.deltas
    # a placement repeats only the tents it places: its first 100 are J = 4's
    assert seq.tents == sum(2 ** (2 * j - 1) for j in range(1, 31))
    sys4 = place_intervals(build_delta_sequence(OMEGA_CUBE_ROOT, 4), 100)
    got = place_intervals(seq, 100)
    for name in ("a", "b", "center", "delta", "weight"):
        assert np.array_equal(getattr(got, name), getattr(sys4, name)), name
    with pytest.raises(ConstructionError, match="^flattened sequence exceeds 10000000 entries at block 12$"):
        place_intervals(seq, 10**7 + 1)
    # alpha = 0.45: n_j = 2^(9j - 1), so block 7 is the last that fits int64
    omega = ModulusSpec.power(0.45)
    _assert_block_invariants(build_delta_sequence(omega, 7), omega)
    with pytest.raises(ConstructionError, match="block 8: count 2361183241434822606848 does not fit"):
        build_delta_sequence(omega, 9)


def test_block_count_beyond_int64_rejected():
    with pytest.raises(ConstructionError, match="block 2: .* does not fit a 64-bit integer"):
        build_delta_sequence(ModulusSpec.power(0.49), 2)


def test_sqrt_modulus_rejected():
    with pytest.raises(ConstructionError):
        build_delta_sequence(ModulusSpec.power(0.5), 2)


def test_nearly_sqrt_modulus_unrepresentable():
    # alpha close to 1/2 forces widths below double-precision range
    with pytest.raises(ConstructionError, match="representable"):
        build_delta_sequence(ModulusSpec.power(0.4999999), 2)


def test_exploratory_mode_builds_anyway():
    seq = build_delta_sequence(ModulusSpec.power(0.5), 3, strict=False)
    assert seq.blocks == 3
    assert float(np.sum(seq.deltas)) <= 1.0


def test_table_modulus_sequence():
    # tabulated cube root on a dyadic grid
    xs = np.concatenate([[0.0], 2.0 ** -np.arange(30, 0, -1.0)])
    omega = ModulusSpec.table(xs, xs ** (1.0 / 3.0))
    seq = build_delta_sequence(omega, 2)
    assert np.all(seq.block_weight_sums() >= 0.5 - 1e-12)


def test_table_modulus_too_flat():
    xs = np.linspace(0.0, 1.0, 50)
    omega = ModulusSpec.table(xs, xs)  # omega(d)/sqrt(d) bounded
    with pytest.raises(ConstructionError):
        build_delta_sequence(omega, 1)


def test_single_interval_placement():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 1)
    sys1 = place_intervals(seq, 1)
    delta = seq.deltas[0]
    gap = (TWO_PI - 6 * delta) / 2.0
    assert sys1.a[0] == pytest.approx(gap, rel=1e-15)
    assert sys1.b[0] == pytest.approx(gap + 6 * delta, rel=1e-15)


def test_placement_orders_and_fits():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 4)
    sys4 = place_intervals(seq, seq.deltas.size)
    assert np.all(sys4.b[:-1] < sys4.a[1:])
    assert 0.0 < sys4.a[0] and sys4.b[-1] < TWO_PI
    assert 6.0 * float(np.sum(sys4.delta)) <= 6.0 < TWO_PI
    # equal gaps, including before the first and after the last interval
    gaps = np.diff(np.concatenate([[0.0], np.stack([sys4.a, sys4.b], 1).ravel(), [TWO_PI]]))[::2]
    assert np.max(np.abs(gaps - gaps[0])) < 1e-12


def test_placement_rejects_overflow():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 2)
    with pytest.raises(ValueError):
        place_intervals(seq, seq.deltas.size + 1)


def test_profile_values_on_the_thirds():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 3)
    sys3 = place_intervals(seq, seq.deltas.size)
    u, v = build_u(sys3), build_v(sys3)
    w = sys3.weight
    assert np.array_equal(u(sys3.center), w)
    assert np.max(np.abs(u(sys3.mid_lo) - w / 3)) < 1e-15
    assert np.max(np.abs(u(sys3.mid_hi) - 2 * w / 3)) < 1e-15
    # v attains its minimum over each middle third at the endpoints: 2w/3
    assert np.max(np.abs(v(sys3.mid_lo) - 2 * w / 3)) < 1e-15
    assert np.max(np.abs(v(sys3.mid_hi) - 2 * w / 3)) < 1e-15
    mid = 0.5 * (sys3.mid_lo + sys3.mid_hi)
    assert np.all(v(mid) >= 2 * w / 3 - 1e-15)


def test_profiles_vanish_off_support():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 2)
    sys2 = place_intervals(seq, seq.deltas.size)
    u, v = build_u(sys2), build_v(sys2)
    gaps = 0.5 * (sys2.b[:-1] + sys2.a[1:])
    assert np.all(u(gaps) == 0.0)
    assert np.all(v(gaps) == 0.0)
    right_halves = 0.5 * (sys2.center + sys2.b)
    assert np.all(v(right_halves) == 0.0)
    assert np.all(u(right_halves) > 0.0)


def test_complex_profile_combines_parts():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 2)
    sys2 = place_intervals(seq, seq.deltas.size)
    f = build_f(sys2)
    u, v = build_u(sys2), build_v(sys2)
    t = np.linspace(0.0, TWO_PI, 777, endpoint=False)
    assert np.max(np.abs(f(t) - (u(t) + 1j * v(t)))) < 1e-15


def test_truncation_floor_and_identity_regions():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 2)
    sys2 = place_intervals(seq, seq.deltas.size)
    u = build_u(sys2)
    # 1/n above the peak: constant
    un = truncate_un(u, 1)
    assert np.all(un(np.linspace(0, 6.2, 100)) == 1.0)
    # u_n equals u wherever u >= 1/n
    un6 = truncate_un(u, 6)
    t = np.linspace(0.0, TWO_PI, 4001)
    ut = u(t)
    high = ut >= 1.0 / 6.0 + 1e-12
    assert np.max(np.abs(un6(t)[high] - ut[high])) < 1e-13
    low = ut < 1.0 / 6.0 - 1e-12
    assert np.all(un6(t)[low] == 1.0 / 6.0)


def test_truncation_variation_formula():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 3)
    sys3 = place_intervals(seq, seq.deltas.size)
    u = build_u(sys3)
    for n in (2, 6, 12, 24):
        c = 1.0 / n
        un = truncate_un(u, n)
        expected = 2.0 * float(np.sum(np.maximum(sys3.weight - c, 0.0)))
        assert abs(total_variation(un) - expected) < 1e-12
        assert total_variation(un) <= 2.0 * float(np.sum(sys3.weight[sys3.weight >= c])) + 1e-12


@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.0, max_value=TWO_PI))
@settings(max_examples=150, deadline=None)
def test_truncation_is_a_contraction(n, t1):
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 2)
    sys2 = place_intervals(seq, seq.deltas.size)
    u = build_u(sys2)
    un = truncate_un(u, n)
    t2 = (t1 * 2.718281828) % TWO_PI
    assert abs(un(t1) - un(t2)) <= abs(u(t1) - u(t2)) + 1e-12


def test_modulus_class_membership():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 4)
    sys4 = place_intervals(seq, seq.deltas.size)
    for f in (build_u(sys4), build_v(sys4)):
        rep = lip_check(f, OMEGA_CUBE_ROOT)
        assert rep.max_ratio <= 8.0 + 1e-9


def test_system_serialization_round_trip():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 2)
    sys2 = place_intervals(seq, seq.deltas.size)
    back = TriangleSystem.from_dict(sys2.to_dict())
    assert np.array_equal(back.a, sys2.a)
    assert np.array_equal(back.weight, sys2.weight)
    assert np.max(np.abs(back.center - sys2.center)) < 1e-15


def test_system_rejects_fields_of_different_lengths():
    good = {"a": [1.0, 2.0], "delta": [0.01, 0.01], "w": [0.5, 0.5]}
    assert TriangleSystem.from_dict(good).count == 2
    for name, short in (("delta", [0.01]), ("weight", [0.5])):
        key = "w" if name == "weight" else name
        with pytest.raises(ValueError, match=f"^{name} has 1 entries, a has 2"):
            TriangleSystem.from_dict({**good, key: short})
    with pytest.raises(ValueError, match="^delta has 2 entries, a has 1"):
        TriangleSystem.from_dict({**good, "a": [1.0]})
    with pytest.raises(ValueError, match="^a must be a 1-d array"):
        TriangleSystem.from_dict({**good, "a": [[1.0, 2.0]]})


def test_truncation_levels_are_the_distinct_ceilings():
    assert place_intervals(build_delta_sequence(OMEGA_CUBE_ROOT, 2), 10).n_grid == [6, 12]
    assert place_intervals(build_delta_sequence(OMEGA_CUBE_ROOT, 1), 0).n_grid == []


def test_empty_system():
    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 1)
    sys0 = place_intervals(seq, 0)
    assert sys0.count == 0
    u = build_u(sys0)
    assert np.all(u(np.linspace(0, 6, 10)) == 0.0)


def test_placement_repeats_only_the_tents_it_places():
    from circlelab import DeltaSequence

    # block 2 is far too long to repeat; the first five tents need two of it
    seq = DeltaSequence(epsilons=[2.0**-3, 2.0**-40], block_sizes=[3, 2**62], weights=[0.5, 2.0**-20])
    assert seq.tents == 3 + 2**62
    sys5 = place_intervals(seq, 5)
    assert sys5.delta.tolist() == [2.0**-3] * 3 + [2.0**-40] * 2
    assert sys5.weight.tolist() == [0.5] * 3 + [2.0**-20] * 2
    with pytest.raises(ConstructionError, match="^flattened sequence exceeds 10000000 entries at block 2$"):
        place_intervals(seq, 10**7 + 1)


def test_the_system_stores_only_left_ends_widths_and_weights():
    from dataclasses import fields

    seq = build_delta_sequence(OMEGA_CUBE_ROOT, 3)
    sys3 = place_intervals(seq, seq.tents)
    assert [f.name for f in fields(sys3)] == ["a", "delta", "weight"]
    assert np.array_equal(sys3.b, sys3.a + 6.0 * sys3.delta)
    assert np.array_equal(sys3.center, sys3.a + 3.0 * sys3.delta)
    assert sys3.to_dict()["b"] == sys3.b.tolist()


def _truncate_by_argsort(u, n):
    """max(u, 1/n) with the level crossings merged by a stable argsort, the
    first of equal knots kept."""
    c = 1.0 / n
    t, y = u.knots, u.values
    t_next, y_next = u.ext_knots[1:], u.ext_values[1:]
    crossing = (y - c) * (y_next - c) < 0.0
    tc = t[crossing] + (c - y[crossing]) / (y_next[crossing] - y[crossing]) * (t_next[crossing] - t[crossing])
    tc = np.where(tc >= TWO_PI, tc - TWO_PI, tc)
    knots = np.concatenate([t, tc])
    values = np.concatenate([np.maximum(y, c), np.full(tc.size, c)])
    order = np.argsort(knots, kind="stable")
    knots = knots[order]
    values = values[order]
    keep = np.concatenate([[True], np.diff(knots) > 0.0])
    return knots[keep], values[keep]


def test_truncation_equals_the_argsort_path_bit_for_bit():
    from circlelab import PiecewiseLinearFunction

    cases = []
    for blocks in range(1, 6):
        seq = build_delta_sequence(OMEGA_CUBE_ROOT, blocks)
        sys_ = place_intervals(seq, seq.tents)
        u = build_u(sys_)
        cases += [(u, n) for n in range(1, max(sys_.n_grid) + 2)]
    # random profiles whose wrap segment crosses the level, and one that
    # touches the level at knots without crossing it
    rng = np.random.default_rng(3)
    for _ in range(8):
        knots = np.sort(rng.uniform(0.2, TWO_PI - 0.2, 30))
        cases += [(PiecewiseLinearFunction(knots, rng.uniform(0.0, 1.0, 30)), n) for n in (2, 3, 5)]
    cases.append((PiecewiseLinearFunction(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 0.5, 1.0, 0.5])), 2))
    for u, n in cases:
        knots, values = _truncate_by_argsort(u, n)
        un = truncate_un(u, n)
        np.testing.assert_array_equal(un.knots, knots)
        np.testing.assert_array_equal(un.values, values)
