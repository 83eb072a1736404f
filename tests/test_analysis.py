import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsebeam as sb
from sparsebeam import BeamPattern, DomainError, SolverError
from sparsebeam.analysis import _median_pattern, _pattern_steering

from _oracles import (null_depth_reference, pointing_error_reference, sidelobe_level_reference,
                      sidelobe_level_walk)

NULL_ANGLE = float(np.degrees(np.arcsin(0.25)))  # first uniform-taper null, M=8


@pytest.fixture(scope="module")
def taper_pattern(geometry, a0):
    return sb.beam_pattern(a0 / 8.0, geometry, 0.1)


class TestBeamPattern:
    def test_peak_normalized_to_zero_db(self, taper_pattern):
        assert taper_pattern.gain_db.max() == 0.0
        assert taper_pattern.raw_gain.max() == 1.0
        assert taper_pattern.peak_angle_deg == 0.0

    def test_grid_sizes(self, geometry, a0):
        assert sb.beam_pattern(a0, geometry, 0.1).angles_deg.size == 1801
        assert sb.beam_pattern(a0, geometry, 1.0).angles_deg.size == 181

    def test_accepts_weight_wrapper(self, sample_r, a0, geometry):
        result = sb.mvdr(sample_r, a0)
        direct = sb.beam_pattern(result.w, geometry)
        wrapped = sb.beam_pattern(result, geometry)
        np.testing.assert_array_equal(direct.raw_gain, wrapped.raw_gain)

    def test_exact_analytic_null(self, geometry, a0):
        # The uniform taper has Dirichlet-kernel zeros; the first pair
        # sits at +/-arcsin(2/M) and the response there is numerically
        # zero relative to the unit peak.
        w = a0 / 8.0
        for angle in (NULL_ANGLE, -NULL_ANGLE):
            raw = abs(w.conj() @ sb.steering_vector(geometry, angle)) ** 2
            assert raw < 1e-20

    def test_conjugate_mirrors_pattern(self, sample_r, a0, geometry):
        w = sb.mvdr(sample_r, a0).w
        direct = sb.beam_pattern(w, geometry, 0.1)
        mirrored = sb.beam_pattern(w.conj(), geometry, 0.1)
        np.testing.assert_allclose(mirrored.raw_gain, direct.raw_gain[::-1], atol=1e-12)

    def test_validation(self, geometry, a0):
        with pytest.raises(DomainError):
            sb.beam_pattern(np.zeros(8, dtype=complex), geometry)
        with pytest.raises(DomainError):
            sb.beam_pattern(a0, geometry, 0.0)
        with pytest.raises(DomainError):
            sb.beam_pattern(a0, geometry, 1.5)
        with pytest.raises(DomainError):
            sb.beam_pattern(np.ones(5, dtype=complex), geometry)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite_weights(self, bad):
        # A NaN entry once gave an all-NaN pattern, and pointing_error on
        # it failed with a bare ValueError; output_sinr returned NaN.
        w, geometry = np.array([bad, 1, 1, 1]), sb.ArrayGeometry(4)
        with pytest.raises(DomainError, match="finite"):
            sb.beam_pattern(w, geometry, 1.0)
        with pytest.raises(DomainError, match="finite"):
            sb.output_sinr(w, sb.Scenario(0.0, 10.0, ((40.0, 20.0),)), geometry)

    def test_cached_steering_matrix_matches_a_fresh_one(self):
        # Interleaved keys: every call must read the matrix of its own
        # geometry and resolution, bit for bit.
        rng = np.random.default_rng(3)
        keys = [(m, d, res) for m in (8, 32) for d in (0.5, 0.4) for res in (0.1, 0.5)]
        for m, spacing, res in keys + keys[::-1]:
            geom = sb.ArrayGeometry(m, spacing)
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            pattern = sb.beam_pattern(w, geom, res)
            fresh = sb.steering_matrix(geom, pattern.angles_deg)
            np.testing.assert_array_equal(pattern.raw_gain, np.abs(w.conj() @ fresh) ** 2)
            assert pattern.angles_deg.flags.writeable
            assert pattern.raw_gain.flags.writeable
            cached = _pattern_steering(geom, res)
            assert not cached.flags.writeable
            np.testing.assert_array_equal(cached, fresh)

    def test_underflowing_weights_give_a_zero_pattern(self, geometry):
        # Nonzero weights whose every |w^H a|^2 underflows.
        with pytest.raises(DomainError, match="identically zero"):
            sb.beam_pattern(np.full(8, 1e-170 + 0j), geometry, 1.0)

    def test_underflowing_median_pattern_collapses(self, geometry):
        with pytest.raises(SolverError, match="collapsed"):
            _median_pattern([np.full(8, 1e-170 + 0j)], geometry, 1.0)

    def test_overflowing_gains_are_rejected(self, geometry, a0):
        # Finite weights whose |w^H a|^2 overflows once gave NaN gain_db,
        # an inf raw peak and a RuntimeWarning.
        with pytest.raises(DomainError, match="overflows"):
            sb.beam_pattern(1e160 * a0, geometry)
        with pytest.raises(DomainError, match="overflows"):
            sb.beam_pattern(np.array([a0, 1e160 * a0]), geometry)
        with pytest.raises(DomainError, match="overflows"):
            _median_pattern([a0, 1e160 * a0], geometry, 1.0)


def _pattern_on(geometry, w, angles):
    raw = np.abs(w.conj() @ sb.steering_matrix(geometry, angles)) ** 2
    normalized = raw / raw.max()
    with np.errstate(divide="ignore"):
        db = np.maximum(10.0 * np.log10(normalized), sb.DB_FLOOR)
    return BeamPattern(angles, db, normalized)


class TestNullDepth:
    def test_analytic_null_on_matched_grid(self, geometry, a0):
        # A grid holding the exact null angle exposes the full depth.
        angles = np.union1d(np.linspace(-90.0, 90.0, 181), [NULL_ANGLE, -NULL_ANGLE])
        pattern = _pattern_on(geometry, a0 / 8.0, angles)
        assert sb.null_depth(pattern, 14.48, 1.0) <= -100.0
        assert sb.null_depth(pattern, -14.48, 1.0) <= -100.0

    def test_grid_limited_null(self, taper_pattern):
        depth = sb.null_depth(taper_pattern, 14.48, 1.0)
        assert -100.0 < depth <= -40.0

    def test_exact_zero_clamps_to_floor(self):
        geom = sb.ArrayGeometry(2, 0.5)
        pattern = sb.beam_pattern(sb.steering_vector(geom, 0.0) / 2.0, geom, 0.1)
        assert sb.null_depth(pattern, 90.0, 0.5) == -200.0

    def test_bounded_by_gain_at_center(self, taper_pattern):
        idx = 1234
        theta = float(taper_pattern.angles_deg[idx])
        assert sb.null_depth(taper_pattern, theta, 1.0) <= taper_pattern.gain_db[idx]

    def test_flat_pattern_has_no_null(self):
        geom = sb.ArrayGeometry(2, 0.5)
        w = np.array([1.0, 0.0], dtype=complex)  # single active element
        pattern = sb.beam_pattern(w, geom, 0.5)
        assert sb.null_depth(pattern, 30.0, 1.0) == 0.0

    def test_window_outside_grid(self, taper_pattern):
        with pytest.raises(DomainError):
            sb.null_depth(taper_pattern, 200.0, 1.0)
        with pytest.raises(DomainError):
            sb.null_depth(taper_pattern, 70.0, -1.0)


class TestSidelobeLevel:
    def test_uniform_taper_first_sidelobe(self, taper_pattern):
        result = sb.sidelobe_level(taper_pattern, 0.0)
        assert not result.no_sidelobes
        assert abs(result.level_db - (-12.8)) <= 0.3

    def test_never_above_peak(self, sample_r, a0, geometry):
        pattern = sb.beam_pattern(sb.mvdr(sample_r, a0).w, geometry, 0.1)
        result = sb.sidelobe_level(pattern, pattern.peak_angle_deg)
        assert result.level_db <= 0.0

    def test_two_element_quarter_wave_has_no_sidelobes(self):
        geom = sb.ArrayGeometry(2, 0.25)
        pattern = sb.beam_pattern(sb.steering_vector(geom, 0.0) / 2.0, geom, 0.1)
        result = sb.sidelobe_level(pattern, 0.0)
        assert result.no_sidelobes
        assert result.level_db == pytest.approx(-3.01, abs=0.05)

    def test_flat_pattern_flags_no_sidelobes(self):
        geom = sb.ArrayGeometry(2, 0.5)
        pattern = sb.beam_pattern(np.array([1.0, 0.0], dtype=complex), geom, 0.5)
        result = sb.sidelobe_level(pattern, 0.0)
        assert result.no_sidelobes
        assert result.level_db == 0.0

    def test_center_far_from_any_local_max(self, taper_pattern):
        # 10 deg sits on the mainlobe flank: the peak is 10 deg away and
        # the first sidelobe crest is past 17 deg.
        with pytest.raises(DomainError):
            sb.sidelobe_level(taper_pattern, 10.0)

    def test_center_may_be_a_sidelobe_crest(self, taper_pattern):
        # Any local maximum qualifies as a center; the rest of the
        # pattern (including the true mainlobe) then counts as sidelobe.
        # Locate the first sidelobe crest from the pattern itself.
        flank = (taper_pattern.angles_deg >= 15.0) & (taper_pattern.angles_deg <= 25.0)
        crest_deg = taper_pattern.angles_deg[flank][np.argmax(taper_pattern.gain_db[flank])]
        crest = sb.sidelobe_level(taper_pattern, crest_deg)
        assert crest.level_db == 0.0


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    m=st.integers(2, 16),
    resolution=st.sampled_from([0.1, 0.5, 1.0]),
    center=st.one_of(st.none(), st.floats(-90.0, 90.0)),
    seed=st.integers(0, 2**32 - 1),
    gains=st.sampled_from(["exact", "whole_db", "noise", "ramp"]),
)
def test_sidelobe_level_matches_sample_walk(m, resolution, center, seed, gains):
    # center None stands for the pattern peak, which is always a
    # mainlobe; a uniform center often has no local maximum within 2 deg.
    # Gains rounded to whole dB make runs of equal samples, where the
    # >= / <= tie rules decide the mainlobe's extent; integer noise puts
    # crests and troughs next to each other. A noisy ramp down from the
    # peak puts the highest sidelobe sample right beside a mainlobe edge;
    # a clean one has no sidelobes at all.
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    pattern = sb.beam_pattern(w, sb.ArrayGeometry(m, 0.5), resolution)
    if gains == "whole_db":
        pattern = pattern._replace(gain_db=np.round(pattern.gain_db))
    elif gains == "noise":
        pattern = pattern._replace(gain_db=rng.integers(-4, 1, pattern.gain_db.size) * 1.0)
    elif gains == "ramp":
        offsets = np.abs(np.arange(pattern.gain_db.size) - np.argmax(pattern.raw_gain))
        noise = rng.standard_normal(offsets.size) * rng.choice([0.0, 1.0])
        pattern = pattern._replace(gain_db=noise - 0.5 * offsets)
    if center is None:
        center = pattern.peak_angle_deg
    try:
        expected = sidelobe_level_walk(pattern, center)
    except DomainError:
        with pytest.raises(DomainError):
            sb.sidelobe_level(pattern, center)
        return
    assert sb.sidelobe_level(pattern, center) == expected


class TestPointingError:
    def test_matched_weights(self, taper_pattern):
        assert sb.pointing_error(taper_pattern, 0.0) == 0.0

    def test_missteered_taper(self, geometry):
        w = sb.steering_vector(geometry, 3.0) / 8.0
        pattern = sb.beam_pattern(w, geometry, 0.1)
        assert sb.pointing_error(pattern, 0.0) == pytest.approx(3.0, abs=0.1)

    def test_symmetric_tie_reports_smallest_magnitude(self):
        angles = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        raw = np.array([0.5, 1.0, 0.25, 1.0, 0.5])
        db = 10 * np.log10(raw)
        pattern = BeamPattern(angles, db, raw)
        assert abs(sb.pointing_error(pattern, 0.0)) == 1.0

    def test_asymmetric_tie(self):
        angles = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        raw = np.array([0.1, 1.0, 0.1, 0.1, 0.1, 1.0, 0.1])
        pattern = BeamPattern(angles, 10 * np.log10(raw), raw)
        # maxima at 1 and 5; true DOA 2 is closer to the left one
        assert sb.pointing_error(pattern, 2.0) == -1.0

    @pytest.mark.parametrize("true_doa", [np.nan, np.inf, 120.0])
    def test_rejects_a_true_direction_off_the_half_circle(self, taper_pattern, true_doa):
        # These once returned NaN, -inf and -120.0.
        with pytest.raises(DomainError, match=r"\[-90, 90\]"):
            sb.pointing_error(taper_pattern, true_doa)


def _bits(values) -> bytes:
    """The bytes of ``values``, with -0.0 read as 0.0.

    Rounded gains hold -0.0 beside 0.0, and a max or min over samples tied
    at +-0 may return either sign. beam_pattern gives no -0.0 gain.
    """
    return (np.asarray(values, dtype=float) + 0.0).tobytes()


def _row_gains(rng, kind, template):
    """(gain_db, raw_gain) of one row shaped as ``kind``, on ``template``'s grid.

    "beam" is a random beam pattern itself. Whole-dB rounding makes
    plateaus and ties for the peak; integer noise puts crests and
    troughs side by side, often at the grid edges; a ramp down from a
    random sample, noisy or clean, puts sidelobes beside the mainlobe or
    leaves none; "edge" peaks at either end of the grid, with no
    sidelobes; "flat" is one plateau at 0 dB.
    """
    size = template.angles_deg.size
    if kind == "beam":
        return template.gain_db, template.raw_gain
    if kind == "whole_db":
        gains = np.round(template.gain_db)
    elif kind == "noise":
        gains = rng.integers(-4, 1, size) * 1.0
    elif kind == "ramp":
        offsets = np.abs(np.arange(size) - rng.integers(size))
        gains = rng.standard_normal(size) * rng.choice([0.0, 1.0]) - 0.5 * offsets
    elif kind == "edge":
        gains = -0.25 * np.arange(size)[:: rng.choice([1, -1])]
    else:
        gains = np.zeros(size)
    return gains, 10.0 ** (gains / 10.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    m=st.integers(2, 16),
    resolution=st.sampled_from([0.1, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["beam", "whole_db", "noise", "ramp", "edge", "flat"]), min_size=1, max_size=5),
    centers=st.one_of(st.none(), st.floats(-90.0, 90.0), st.lists(st.floats(-90.0, 90.0), min_size=5, max_size=5)),
    theta=st.floats(-90.0, 90.0),
    window=st.sampled_from([0.0, 0.05, 1.0, 3.0]),
)
def test_run_axis_metrics_match_the_per_pattern_references(m, resolution, seed, kinds, centers, theta, window):
    # Each row of a stacked pattern, and each row alone as a 1-D pattern,
    # must score exactly as the per-pattern reference scores that row.
    # centers None stands for each row's peak, always a mainlobe; an
    # arbitrary center often has no local maximum within 2 deg of it.
    rng = np.random.default_rng(seed)
    geometry = sb.ArrayGeometry(m, 0.5)
    singles = []
    for kind in kinds:
        w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        template = sb.beam_pattern(w, geometry, resolution)
        singles.append(BeamPattern(template.angles_deg, *_row_gains(rng, kind, template)))
    stack = BeamPattern(singles[0].angles_deg, np.array([p.gain_db for p in singles]),
                        np.array([p.raw_gain for p in singles]))
    rows = len(singles)
    if centers is None:
        centers = [p.peak_angle_deg for p in singles]
    elif isinstance(centers, list):
        centers = centers[:rows]
    row_centers = np.broadcast_to(centers, rows)

    assert _bits(stack.peak_angle_deg) == _bits([p.peak_angle_deg for p in singles])
    assert _bits(sb.pointing_error(stack, theta)) == _bits([pointing_error_reference(p, theta) for p in singles])
    for p in singles:
        assert _bits(sb.pointing_error(p, theta)) == _bits(pointing_error_reference(p, theta))

    try:
        depths = [null_depth_reference(p, theta, window) for p in singles]
    except DomainError:
        with pytest.raises(DomainError):
            sb.null_depth(stack, theta, window)
    else:
        assert _bits(sb.null_depth(stack, theta, window)) == _bits(depths)
        for p, depth in zip(singles, depths):
            assert _bits(sb.null_depth(p, theta, window)) == _bits(depth)

    expected = []
    for p, center in zip(singles, row_centers):
        try:
            expected.append(sidelobe_level_reference(p, center))
        except DomainError:
            with pytest.raises(DomainError):
                sb.sidelobe_level(p, center)
            expected.append(None)
        else:
            level = sb.sidelobe_level(p, center)
            assert _bits(level.level_db) == _bits(expected[-1].level_db)
            assert level.no_sidelobes is expected[-1].no_sidelobes
    if None in expected:
        with pytest.raises(DomainError):
            sb.sidelobe_level(stack, centers)
        return
    levels = sb.sidelobe_level(stack, centers)
    assert _bits(levels.level_db) == _bits([e.level_db for e in expected])
    assert levels.no_sidelobes.tolist() == [e.no_sidelobes for e in expected]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(m=st.integers(2, 16), rows=st.integers(1, 6), resolution=st.sampled_from([0.1, 0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_beam_pattern_rows_are_the_single_patterns(m, rows, resolution, seed):
    rng = np.random.default_rng(seed)
    geometry = sb.ArrayGeometry(m, 0.5)
    w = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
    stack = sb.beam_pattern(w, geometry, resolution)
    assert stack.gain_db.shape == stack.raw_gain.shape == (rows, stack.angles_deg.size)
    for i in range(rows):
        single = sb.beam_pattern(w[i], geometry, resolution)
        assert single.angles_deg.tobytes() == stack.angles_deg.tobytes()
        assert single.gain_db.tobytes() == stack.gain_db[i].tobytes()
        assert single.raw_gain.tobytes() == stack.raw_gain[i].tobytes()


class TestStackedPatterns:
    def test_a_zero_row_makes_the_stack_identically_zero(self, geometry, a0):
        with pytest.raises(DomainError, match="identically zero"):
            sb.beam_pattern(np.array([a0, np.zeros(8)]), geometry)

    def test_stack_rows_must_match_the_array(self, geometry):
        with pytest.raises(DomainError, match="weight vector has shape"):
            sb.beam_pattern(np.ones((3, 5), dtype=complex), geometry)
        with pytest.raises(DomainError, match="weight vector has shape"):
            sb.beam_pattern(np.ones((0, 8), dtype=complex), geometry)
        with pytest.raises(DomainError, match="weight vector has shape"):
            sb.beam_pattern(np.ones((2, 2, 8), dtype=complex), geometry)

    def test_one_center_per_row_is_checked(self, geometry, a0):
        stack = sb.beam_pattern(np.array([a0, a0 / 2.0]), geometry)
        with pytest.raises(DomainError, match="mainlobe_center_deg has shape"):
            sb.sidelobe_level(stack, [0.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="mainlobe_center_deg must be finite"):
            sb.sidelobe_level(stack, [0.0, np.nan])
        with pytest.raises(DomainError, match="mainlobe_center_deg must be finite"):
            sb.sidelobe_level(stack, np.inf)
        with pytest.raises(DomainError, match="no local maximum within 2 deg of 10.0"):
            sb.sidelobe_level(stack, [0.0, 10.0])

    def test_single_pattern_metrics_stay_python_scalars(self, taper_pattern):
        assert type(sb.null_depth(taper_pattern, 30.0)) is float
        assert type(sb.pointing_error(taper_pattern, 0.0)) is float
        assert type(taper_pattern.peak_angle_deg) is float
        level = sb.sidelobe_level(taper_pattern, 0.0)
        assert type(level.level_db) is float and type(level.no_sidelobes) is bool


class TestOutputSinr:
    def test_white_noise_array_gain(self, geometry, a0):
        scen = sb.Scenario(0.0, 10.0, ())
        value = sb.output_sinr(a0 / 8.0, scen, geometry)
        assert value == pytest.approx(10.0 + 10.0 * np.log10(8.0), abs=1e-9)

    def test_orthogonal_weights_clamp(self, geometry):
        scen = sb.Scenario(0.0, 10.0, ())
        w = np.zeros(8, dtype=complex)
        w[0], w[1] = 1.0, -1.0
        assert sb.output_sinr(w, scen, geometry) == -200.0

    def test_scale_invariance(self, scenario, geometry, sample_r, a0):
        w = sb.mvdr(sample_r, a0).w
        base = sb.output_sinr(w, scenario, geometry)
        scaled = sb.output_sinr((2.0 - 3.0j) * w, scenario, geometry)
        assert abs(base - scaled) <= 1e-10

    def test_scale_free_at_the_float_limits(self, scenario, geometry, sample_r, a0):
        # |w^H a|^2 and ||w||^2 once read the -200 dB floor for weights
        # times 1e-170 and overflowed for weights times 1e160.
        w = sb.mvdr(sample_r, a0).w
        base = sb.output_sinr(w, scenario, geometry)
        for k in (-1000, -600, 600, 1000):  # exact scalings: the same bits
            assert sb.output_sinr(2.0**k * w, scenario, geometry) == base
        for factor in (1e-300, 1e-170, 1e160, 1e300):
            assert sb.output_sinr(factor * w, scenario, geometry) == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize("k", [-1030, -1060])
    def test_subnormal_weights_give_the_same_ratio(self, geometry, a0, k):
        # a(0)/8 is 1/8 in every entry, so these weights are exact
        # subnormals. Their scale factor, 2^1028 and up, once overflowed
        # math.ldexp with a bare OverflowError.
        scenario = sb.Scenario(0.0, 10.0, ((30.0, 20.0),))
        w = a0 / 8.0
        assert sb.output_sinr(2.0**k * w, scenario, geometry) == sb.output_sinr(w, scenario, geometry)

    def test_interference_lowers_sinr(self, scenario, geometry, a0):
        quiet = sb.Scenario(0.0, 10.0, ())
        assert sb.output_sinr(a0 / 8.0, scenario, geometry) < sb.output_sinr(
            a0 / 8.0, quiet, geometry
        )

    def test_dimension_validation(self, scenario, geometry):
        with pytest.raises(DomainError):
            sb.output_sinr(np.ones(5, dtype=complex), scenario, geometry)
