import tracemalloc

import numpy as np
import pytest
from _oracles import build_q_reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparsebeam as sb
from sparsebeam import DomainError


def test_snm_matches_row_mean_definition():
    c = np.array([[1.0 + 1j, 1.0 - 1j], [2.0, 2.0], [0.0, 0.0]])
    out = sb.snm(c)
    means = np.abs(c.mean(axis=1)) ** 2  # [1, 4, 0]
    np.testing.assert_allclose(out, means / means.max(), atol=1e-15)


def test_snm_unit_maximum_and_range(q_weights):
    assert q_weights.max() == 1.0
    assert q_weights.min() >= 0.0


def test_snm_all_zero_input():
    np.testing.assert_array_equal(sb.snm(np.zeros((4, 6))), np.zeros(4))


def test_snm_global_phase_invariance():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((6, 50)) + 1j * rng.standard_normal((6, 50))
    np.testing.assert_allclose(sb.snm(c * np.exp(0.7j)), sb.snm(c), atol=1e-12)


def test_snm_positive_scaling_invariance():
    rng = np.random.default_rng(6)
    c = rng.standard_normal((6, 50)) + 1j * rng.standard_normal((6, 50))
    np.testing.assert_allclose(sb.snm(17.0 * c), sb.snm(c), atol=1e-12)


@pytest.mark.parametrize("exponent", [-600, 600])
def test_snm_is_scale_free_at_the_float_limits(exponent):
    # |mean|^2 once underflowed to all zeros at 2^-600 and overflowed to
    # NaN at 2^600. A power of two scales every mean exactly: the same bits.
    rng = np.random.default_rng(7)
    c = rng.standard_normal((6, 50)) + 1j * rng.standard_normal((6, 50))
    assert sb.snm(2.0**exponent * c).tobytes() == sb.snm(c).tobytes()


def test_snm_rejects_row_means_that_overflow():
    with pytest.raises(DomainError, match="row means must be finite"):
        sb.snm(np.full((2, 4), 1e308 + 0j))


def test_snm_rejects_non_matrix():
    with pytest.raises(DomainError):
        sb.snm(np.ones(3))


def test_build_q_peaks_at_strongest_interferer(grid, q_weights):
    # The 40 dB source at 70 deg dominates the data, so its grid point
    # carries the unit weight.
    assert grid[int(np.argmax(q_weights))] == 70.0
    assert q_weights[int(np.argmax(q_weights))] == 1.0


def test_build_q_separates_interference_from_quiet_directions(grid, q_weights):
    quiet = np.abs(grid + 60.0) < 0.5
    assert q_weights[quiet].max() < 0.1 * q_weights.max()


def test_build_q_length_matches_grid(grid, q_weights):
    assert q_weights.shape == (grid.size,)


def test_build_q_zero_data_falls_back_to_ones(a_grid):
    q = sb.build_q(a_grid, np.zeros((8, 10), dtype=complex))
    np.testing.assert_array_equal(q, np.ones(a_grid.shape[1]))


@pytest.mark.parametrize("factor", [1e-170, 1e160])
def test_build_q_is_scale_free_at_the_float_limits(a_grid, snapshots, q_weights, factor):
    # At 1e-170 every |mean|^2 underflowed and the no-energy fallback gave
    # all ones; at 1e160 they overflowed and q was all NaN.
    q = sb.build_q(a_grid, factor * snapshots)
    np.testing.assert_allclose(q, q_weights, rtol=1e-12, atol=0)
    assert q.max() == 1.0


def test_build_q_rejects_data_whose_row_means_overflow(a_grid):
    with pytest.raises(DomainError, match="row means must be finite"):
        sb.build_q(a_grid, np.full((8, 4), 1e308 + 0j))


def test_build_q_shape_mismatch(a_grid):
    with pytest.raises(DomainError):
        sb.build_q(a_grid, np.zeros((7, 10), dtype=complex))


def test_build_q_rejects_empty_snapshots(a_grid):
    with pytest.raises(DomainError):
        sb.build_q(a_grid, np.zeros((8, 0), dtype=complex))


# Rows per block: B = max(8, 2^20 // (16 K)), so K = 1000 gives B = 65
# and K = 8192 gives the minimum, B = 8.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    m=st.integers(2, 32),
    n=st.integers(1, 900),
    k=st.integers(1, 5000),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=8, n=181, k=100, seed=0)  # fig1 and fig2: one block
@example(m=32, n=720, k=1000, seed=1)  # wide: 11 blocks
@example(m=4, n=64, k=1000, seed=2)  # N < B
@example(m=4, n=65, k=1000, seed=3)  # N = B
@example(m=4, n=131, k=1000, seed=4)  # N = 2B + 1
@example(m=4, n=8, k=8192, seed=5)  # B = 8, N = B
@example(m=4, n=17, k=8192, seed=6)  # B = 8, N = 2B + 1
@example(m=3, n=7, k=8192, seed=7)  # B = 8, N < B
def test_build_q_blocks_match_the_whole_product(m, n, k, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    x = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    assert sb.build_q(a, x).tobytes() == build_q_reference(a, x).tobytes()


def test_build_q_at_the_wide_benchmark_shape_matches_the_whole_product():
    # perfbench/configs/wide.cfg's grid and data: 720 rows in 11 blocks.
    # np.array_split puts the five 66-row blocks first; the row bounds
    # 720 i // 11 once spread them out.
    geometry = sb.ArrayGeometry(32, 0.5)
    a = sb.steering_matrix(geometry, sb.interference_grid(3.0, 0.25))
    scenario = sb.Scenario(0.0, 10.0, ((-30.0, 20.0), (30.0, 20.0), (70.0, 40.0)), 1000, 1.0, 12345)
    x = sb.generate_snapshots(scenario, geometry)
    assert (a.shape, x.shape) == ((32, 720), (32, 1000))
    assert sb.build_q(a, x).tobytes() == build_q_reference(a, x).tobytes()


def test_build_q_working_memory_is_one_block():
    # The wide benchmark's shape: the whole 720 x 1000 product would
    # take 11 MiB.
    geometry = sb.ArrayGeometry(32, 0.5)
    a = sb.steering_matrix(geometry, sb.interference_grid(3.0, 0.25))
    assert a.shape == (32, 720)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 1000)) + 1j * rng.standard_normal((32, 1000))
    tracemalloc.start()
    try:
        sb.build_q(a, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_snm_rejects_zero_columns():
    with pytest.raises(DomainError, match=">= 1"):
        sb.snm(np.zeros((3, 0)))
