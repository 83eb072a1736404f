import numpy as np
import pytest
from _oracles import generate_snapshots_reference

import sparsebeam as sb
from sparsebeam import DomainError


class TestSteeringVector:
    def test_first_element_is_one(self, geometry):
        for theta in (-90.0, -37.2, 0.0, 12.5, 90.0):
            assert sb.steering_vector(geometry, theta)[0] == 1.0 + 0.0j

    def test_unit_modulus(self, geometry):
        a = sb.steering_vector(geometry, 41.3)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-15)

    def test_broadside_is_all_ones(self, geometry):
        np.testing.assert_array_equal(
            sb.steering_vector(geometry, 0.0), np.ones(8, dtype=complex)
        )

    def test_negative_angle_conjugates(self, geometry):
        a = sb.steering_vector(geometry, 25.0)
        np.testing.assert_allclose(sb.steering_vector(geometry, -25.0), a.conj(), atol=1e-15)

    def test_endfire_alternates_sign(self, geometry):
        # d/lambda = 0.5 at 90 deg gives phase pi per element.
        a = sb.steering_vector(geometry, 90.0)
        np.testing.assert_allclose(a, (-1.0 + 0j) ** np.arange(8), atol=1e-12)

    def test_out_of_range_rejected(self, geometry):
        with pytest.raises(DomainError):
            sb.steering_vector(geometry, 90.0001)
        with pytest.raises(DomainError):
            sb.steering_vector(geometry, -91.0)


class TestSteeringMatrix:
    def test_columns_match_steering_vector(self, geometry):
        angles = np.array([-60.0, -5.0, 0.0, 44.0])
        mat = sb.steering_matrix(geometry, angles)
        assert mat.shape == (8, 4)
        for i, theta in enumerate(angles):
            np.testing.assert_allclose(mat[:, i], sb.steering_vector(geometry, theta), atol=1e-15)

    def test_rejects_bad_grids(self, geometry):
        with pytest.raises(DomainError):
            sb.steering_matrix(geometry, [])
        with pytest.raises(DomainError):
            sb.steering_matrix(geometry, [10.0, 5.0])
        with pytest.raises(DomainError):
            sb.steering_matrix(geometry, [0.0, 0.0])
        with pytest.raises(DomainError):
            sb.steering_matrix(geometry, [-95.0, 0.0])


class TestInterferenceGrid:
    def test_default_grid_has_180_points(self):
        g = sb.interference_grid(0.0, 1.0)
        assert g.size == 180
        assert not np.any(np.isclose(g, 0.0))
        assert g[0] == -90.0 and g[-1] == 90.0

    def test_excludes_the_steering_point_only(self):
        g = sb.interference_grid(3.0, 1.0)
        assert g.size == 180
        assert not np.any(np.isclose(g, 3.0))
        assert np.any(np.isclose(g, 0.0))

    def test_off_grid_steer_removes_nothing(self):
        assert sb.interference_grid(0.5, 1.0).size == 181

    def test_finer_step(self):
        assert sb.interference_grid(0.0, 0.5).size == 360

    def test_bad_step(self):
        with pytest.raises(DomainError):
            sb.interference_grid(0.0, 0.0)

    def test_grid_stays_inside_the_half_plane(self):
        # -90 + step * arange(round(180 / step) + 1) once overshot 90 for
        # 40 of these steps: 0.13 ended at 90.05.
        for step in np.arange(1, 101) / 100:
            g = sb.interference_grid(0.5, step)
            assert g[0] == -90.0 and g[-1] == 90.0, step


# A count field or argument, and a call that sets it to a non-integer.
NON_INTEGER_COUNTS = {
    "num_elements": lambda geometry: sb.ArrayGeometry(2.5),
    "num_snapshots": lambda geometry: sb.Scenario(0.0, 10.0, num_snapshots=1.5),
    "max_iterations": lambda geometry: sb.SolverOptions(max_iterations=2.5),
    "num_samples": lambda geometry: sb.build_ellipsoid(geometry, 0.0, 3.0, 13.5),
    "monte_carlo_runs": lambda geometry: sb.ExperimentConfig(
        geometry, sb.Scenario(0.0, 10.0), ("mvdr",), monte_carlo_runs=1.5),
    "ellipsoid_num_samples": lambda geometry: sb.ExperimentConfig(
        geometry, sb.Scenario(0.0, 10.0), ("rmvb",), ellipsoid_num_samples=2.5),
    "failure_budget": lambda geometry: sb.ExperimentConfig(
        geometry, sb.Scenario(0.0, 10.0), ("mvdr",), failure_budget=0.5),
}


@pytest.mark.parametrize("name", NON_INTEGER_COUNTS)
def test_non_integer_counts_rejected_when_built(geometry, name):
    # Each once passed construction. ArrayGeometry(2.5) became a 3-element
    # array, failure_budget=0.5 was used as given, and the others failed
    # later inside numpy or range() with a TypeError.
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        NON_INTEGER_COUNTS[name](geometry)


# A count field and a call that sets it to a bool, which each once
# accepted as the integer 0 or 1.
BOOL_COUNTS = {
    "num_snapshots": lambda geometry: sb.Scenario(0.0, 10.0, num_snapshots=True),
    "rng_seed": lambda geometry: sb.Scenario(0.0, 10.0, rng_seed=False),
    "max_iterations": lambda geometry: sb.SolverOptions(max_iterations=True),
    "monte_carlo_runs": lambda geometry: sb.ExperimentConfig(
        geometry, sb.Scenario(0.0, 10.0), ("mvdr",), monte_carlo_runs=True),
    "failure_budget": lambda geometry: sb.ExperimentConfig(
        geometry, sb.Scenario(0.0, 10.0), ("mvdr",), failure_budget=False),
}


@pytest.mark.parametrize("name", BOOL_COUNTS)
def test_bool_counts_rejected_when_built(geometry, name):
    with pytest.raises(DomainError, match=f"{name} must be an integer"):
        BOOL_COUNTS[name](geometry)


def _pattern(geometry):
    return sb.beam_pattern(sb.steering_vector(geometry, 0.0), geometry, 1.0)


def _config(geometry, **fields):
    return sb.ExperimentConfig(geometry, sb.Scenario(0.0, 10.0), ("rmvb",), **fields)


# Every public scalar parameter: the name its DomainError gives, and a
# call that sets it to v. Each once let a str, a bool, NaN or an int too
# large for a float through, or leaked a bare TypeError, ValueError or
# OverflowError.
SCALARS = {
    "ArrayGeometry.spacing_wavelengths": ("spacing_wavelengths", lambda g, v: sb.ArrayGeometry(8, v)),
    "Scenario.soi_doa_deg": ("soi_doa_deg", lambda g, v: sb.Scenario(v, 10.0)),
    "Scenario.soi_snr_db": ("soi_snr_db", lambda g, v: sb.Scenario(0.0, v)),
    "Scenario.noise_power": ("noise_power", lambda g, v: sb.Scenario(0.0, 10.0, noise_power=v)),
    "Scenario.interferer_doa": ("interferer DOA", lambda g, v: sb.Scenario(0.0, 10.0, ((v, 20.0),))),
    "Scenario.interferer_inr": ("interferer INR", lambda g, v: sb.Scenario(0.0, 10.0, ((30.0, v),))),
    "steering_vector.theta_deg": ("theta_deg", lambda g, v: sb.steering_vector(g, v)),
    "interference_grid.steer_deg": ("steer_deg", lambda g, v: sb.interference_grid(v)),
    "interference_grid.step_deg": ("step_deg", lambda g, v: sb.interference_grid(0.0, v)),
    "diagonal_load.epsilon": ("epsilon", lambda g, v: sb.diagonal_load(np.eye(2), v)),
    "SolverOptions.gamma": ("gamma", lambda g, v: sb.SolverOptions(gamma=v)),
    "SolverOptions.p": ("p", lambda g, v: sb.SolverOptions(p=v)),
    "SolverOptions.objective_tolerance": (
        "objective_tolerance", lambda g, v: sb.SolverOptions(objective_tolerance=v)),
    "SolverOptions.irls_epsilon": ("irls_epsilon", lambda g, v: sb.SolverOptions(irls_epsilon=v)),
    "SolverOptions.diagonal_loading": ("diagonal_loading", lambda g, v: sb.SolverOptions(diagonal_loading=v)),
    "build_ellipsoid.theta0_deg": ("theta0_deg", lambda g, v: sb.build_ellipsoid(g, v, 3.0)),
    "build_ellipsoid.half_width_deg": ("half_width_deg", lambda g, v: sb.build_ellipsoid(g, 0.0, v)),
    "beam_pattern.resolution_deg": (
        "resolution_deg", lambda g, v: sb.beam_pattern(sb.steering_vector(g, 0.0), g, v)),
    "null_depth.theta_deg": ("theta_deg", lambda g, v: sb.null_depth(_pattern(g), v)),
    "null_depth.window_deg": ("window_deg", lambda g, v: sb.null_depth(_pattern(g), 30.0, v)),
    "sidelobe_level.mainlobe_center_deg": (
        "mainlobe_center_deg", lambda g, v: sb.sidelobe_level(_pattern(g), v)),
    "pointing_error.true_doa_deg": ("true_doa_deg", lambda g, v: sb.pointing_error(_pattern(g), v)),
    "ExperimentConfig.mismatch_deg": ("mismatch_deg", lambda g, v: _config(g, mismatch_deg=v)),
    "ExperimentConfig.grid_resolution_deg": (
        "grid_resolution_deg", lambda g, v: _config(g, grid_resolution_deg=v)),
    "ExperimentConfig.ellipsoid_half_width_deg": (
        "ellipsoid_half_width_deg", lambda g, v: _config(g, ellipsoid_half_width_deg=v)),
}


@pytest.mark.parametrize("value", ["x", "1", True, float("nan"), 10**400], ids=repr)
@pytest.mark.parametrize("parameter", SCALARS)
def test_scalar_that_is_not_a_finite_real_names_its_parameter(geometry, parameter, value):
    name, call = SCALARS[parameter]
    with pytest.raises(DomainError, match=f"^{name} must be finite and lie in "):
        call(geometry, value)


def test_scalar_interval_ends(geometry):
    # Square brackets close an end, round ones open it.
    assert sb.SolverOptions(p=1).p == 1
    assert sb.beam_pattern(sb.steering_vector(geometry, 0.0), geometry, 1).angles_deg.size == 181
    np.testing.assert_array_equal(sb.diagonal_load(np.eye(2), 0), np.eye(2))
    with pytest.raises(DomainError, match=r"p must be finite and lie in \(0, 1\], got 0"):
        sb.SolverOptions(p=0)
    with pytest.raises(DomainError, match=r"resolution_deg must be finite and lie in \(0, 1\], got 0"):
        sb.beam_pattern(sb.steering_vector(geometry, 0.0), geometry, 0)


def _nan_snapshots(geometry):
    x = sb.generate_snapshots(sb.Scenario(0.0, 10.0, num_snapshots=20), geometry)
    x[0, 0] = np.nan
    return x


# Each case once got past its function: NaN columns, a LinAlgError from
# numpy's SVD, NaN statistics, a warning inside steering_vector, or an
# empty grid.
NON_FINITE_INPUTS = {
    "steering_matrix": lambda g: sb.steering_matrix(g, [np.nan]),
    "build_ellipsoid-center": lambda g: sb.build_ellipsoid(g, np.nan, 3.0),
    "build_ellipsoid-half-width": lambda g: sb.build_ellipsoid(g, 0.0, np.nan),
    "sample_covariance": lambda g: sb.sample_covariance(_nan_snapshots(g)),
    "snm": lambda g: sb.snm(_nan_snapshots(g)),
    "build_q": lambda g: sb.build_q(sb.steering_matrix(g, sb.interference_grid(0.0)), _nan_snapshots(g)),
    "ArrayGeometry-spacing": lambda g: sb.ArrayGeometry(8, np.inf),
    "interference_grid": lambda g: sb.interference_grid(np.nan),
}


@pytest.mark.parametrize("case", NON_FINITE_INPUTS)
def test_non_finite_input_rejected_at_the_boundary(geometry, case):
    with pytest.raises(DomainError):
        NON_FINITE_INPUTS[case](geometry)


def _off_diagonal_nan():
    r = np.eye(3, dtype=complex)
    r[0, 1] = np.nan
    return r


# Each case once escaped as a bare numpy error (ValueError, TypeError,
# OverflowError or AttributeError) or returned a matrix it should not:
# sample_covariance a 0 x 0 one, diagonal_load a NaN one.
UNUSABLE_ARRAYS = {
    "build_q-empty-grid": lambda g: sb.build_q(np.zeros((8, 0)), np.ones((8, 5))),
    "snm-no-rows": lambda g: sb.snm(np.zeros((0, 5))),
    "sample_covariance-no-rows": lambda g: sb.sample_covariance(np.zeros((0, 5))),
    "diagonal_load-non-square": lambda g: sb.diagonal_load(np.ones((2, 3)), 0.1),
    "diagonal_load-vector": lambda g: sb.diagonal_load(np.ones(3), 0.1),
    "diagonal_load-nan-off-diagonal": lambda g: sb.diagonal_load(_off_diagonal_nan(), 0.1),
    "steering_matrix-text": lambda g: sb.steering_matrix(g, "abc"),
    "steering_matrix-overflow": lambda g: sb.steering_matrix(g, [10**400]),
    "mvdr-text-covariance": lambda g: sb.mvdr("abc", np.ones(8)),
    "mvdr-ellipsoid": lambda g: sb.mvdr(np.eye(8), sb.build_ellipsoid(g, 0.0, 3.0)),
    "rmvb-steering-vector": lambda g: sb.solve_rmvb(np.eye(8), np.ones(8)),
}


@pytest.mark.parametrize("case", UNUSABLE_ARRAYS)
def test_unusable_array_is_a_one_line_domain_error(geometry, case):
    with pytest.raises(DomainError) as caught:
        UNUSABLE_ARRAYS[case](geometry)
    assert "\n" not in str(caught.value)


class TestScenario:
    def test_sources_are_the_soi_then_each_interferer(self):
        scen = sb.Scenario(10.0, 5.0, ((-30.0, 20.0), (40.0, 0.0)), noise_power=2.0)
        assert scen.sources == (
            (10.0, 2.0 * 10.0 ** (5.0 / 10.0)),
            (-30.0, 2.0 * 10.0 ** (20.0 / 10.0)),
            (40.0, 2.0),
        )

    def test_interferer_at_soi_rejected(self):
        with pytest.raises(DomainError):
            sb.Scenario(10.0, 0.0, ((10.0, 20.0),))

    def test_duplicate_interferers_rejected(self):
        with pytest.raises(DomainError):
            sb.Scenario(0.0, 0.0, ((30.0, 20.0), (30.0, 10.0)))

    def test_basic_validation(self):
        with pytest.raises(DomainError):
            sb.Scenario(0.0, 0.0, (), num_snapshots=0)
        with pytest.raises(DomainError):
            sb.Scenario(0.0, 0.0, (), noise_power=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("soi_doa_deg", np.nan),
            ("soi_snr_db", np.inf),
            ("soi_snr_db", -np.inf),
            ("noise_power", np.inf),
            ("interferers", ((np.nan, 20.0),)),
            ("interferers", ((30.0, np.inf),)),
            # Finite, but the source power overflows: 3100 dB once passed
            # here, and sources raised a bare OverflowError.
            ("soi_snr_db", 3100.0),
            ("interferers", ((30.0, 3100.0),)),
            ("noise_power", 1.7e308),
        ],
        ids=["doa-nan", "snr-inf", "snr-minus-inf", "noise-inf", "jammer-doa-nan", "jammer-inr-inf",
             "snr-power-overflows", "inr-power-overflows", "noise-times-power-overflows"],
    )
    def test_non_finite_values_rejected(self, field, value):
        kwargs = {"soi_doa_deg": 0.0, "soi_snr_db": 10.0, field: value}
        with pytest.raises(DomainError, match="finite"):
            sb.Scenario(**kwargs)

    def test_interferers_canonicalized_to_float_tuples(self):
        scen = sb.Scenario(0.0, 10.0, ((30, 20),))
        assert scen.interferers == ((30.0, 20.0),)

    @pytest.mark.parametrize(
        "interferers, bad",
        [((30.0, 20.0), 30.0), ((None,), None), (((30.0,),), (30.0,)), (((30.0, 20.0, 1.0),), (30.0, 20.0, 1.0)),
         (None, None)],
        ids=["flat-pair", "none-entry", "one-value", "three-values", "none"],
    )
    def test_interferers_that_are_not_pairs_name_the_bad_entry(self, interferers, bad):
        # Each once leaked a TypeError or the unpack's ValueError.
        with pytest.raises(DomainError) as info:
            sb.Scenario(0.0, 10.0, interferers)
        message = str(info.value)
        assert "\n" not in message and message.startswith("interferers ") and message.endswith(repr(bad))

    def test_geometry_validation(self):
        with pytest.raises(DomainError):
            sb.ArrayGeometry(1)
        with pytest.raises(DomainError):
            sb.ArrayGeometry(4, 0.0)


class TestGenerateSnapshots:
    def test_shape_and_determinism(self, scenario, geometry):
        x1 = sb.generate_snapshots(scenario, geometry)
        x2 = sb.generate_snapshots(scenario, geometry)
        assert x1.shape == (8, 100)
        assert x1.dtype == complex
        np.testing.assert_array_equal(x1, x2)

    def test_seed_changes_data(self, scenario, geometry):
        import dataclasses

        other = dataclasses.replace(scenario, rng_seed=scenario.rng_seed + 1)
        assert not np.array_equal(
            sb.generate_snapshots(scenario, geometry), sb.generate_snapshots(other, geometry)
        )

    def test_average_power_matches_scenario(self):
        geom = sb.ArrayGeometry(4, 0.5)
        scen = sb.Scenario(0.0, 10.0, ((40.0, 20.0),), num_snapshots=20000, rng_seed=3)
        x = sb.generate_snapshots(scen, geom)
        measured = np.mean(np.abs(x) ** 2)
        expected = 1.0 + 10.0 + 100.0
        assert abs(measured - expected) / expected < 0.05


@pytest.mark.parametrize("m, k, interferers", [
    (2, 1, ()),
    (8, 100, ((-30.0, 20.0), (30.0, 20.0), (70.0, 40.0))),
    (32, 1000, ((-20.0, 30.0), (40.0, 25.0))),
])
def test_snapshots_match_the_complex_product_draw_bit_for_bit(m, k, interferers):
    # The library sums every source into zeros, where the reference starts
    # from the SOI term; 0 + x is x exactly, so the values and the
    # generator's draw order must stay those of the reference.
    geometry = sb.ArrayGeometry(m)
    for seed in (0, 1, 12345, 2**40 + 7):
        scenario = sb.Scenario(5.0, 10.0, interferers, k, noise_power=0.5, rng_seed=seed)
        x = sb.generate_snapshots(scenario, geometry)
        expected = generate_snapshots_reference(scenario, geometry)
        assert x.tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", [8, 32])
def test_steering_vector_is_its_steering_matrix_column_bit_for_bit(m):
    # steering_vector once had its own copy of the formula, and 3,600
    # of these 7,202 columns differed from it in the sign of a zero.
    geometry = sb.ArrayGeometry(m)
    angles = np.linspace(-90.0, 90.0, 3601)
    matrix = sb.steering_matrix(geometry, angles)
    for i, theta in enumerate(angles):
        assert sb.steering_vector(geometry, theta).tobytes() == matrix[:, i].tobytes()
