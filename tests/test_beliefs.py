import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from belieffit import (
    EnvConfig,
    GaussianBelief2,
    HoleBelief,
    HoleGroundTruth,
    Innovation,
    LearnedParams,
    PegType,
    PositionNoiseModel,
    PositionSensorSpec,
    SpiralParams,
    TypeBelief,
    World,
    derive_rng,
    fit_probability,
    init_beliefs,
    init_position_belief,
    rollout_low_level,
    vision_detect,
)
from belieffit.beliefs import (
    PSD_TOL, SUM_TOL, SYMMETRY_TOL, BeliefArrays, check_position, check_types, normalized,
)
from belieffit.errors import ConfigurationError, InvalidInputError


class TestInitPositionBelief:
    def test_detection_becomes_mean(self):
        b = init_position_belief((0.10, -0.05), 1e-4)
        assert np.allclose(b.mean, [0.10, -0.05])
        assert np.allclose(b.cov, 1e-4 * np.eye(2))

    def test_origin(self):
        b = init_position_belief((0.0, 0.0), 1e-4)
        assert np.allclose(b.mean, 0.0)
        assert np.allclose(b.cov, np.diag([1e-4, 1e-4]))

    def test_trace_is_twice_sigma(self):
        b = init_position_belief((0.02, 0.02), 4e-4)
        assert np.trace(b.cov) == pytest.approx(8e-4)

    def test_rejects_non_finite_detection(self):
        # `GaussianBelief2` checks the detection
        with pytest.raises(InvalidInputError, match="^belief mean must be a finite 2-vector$"):
            init_position_belief((np.nan, 0.0), 1e-4)
        with pytest.raises(InvalidInputError, match="belief mean must be a finite 2-vector"):
            init_position_belief((0.0, 0.0, 0.0), 1e-4)

    def test_rejects_nonpositive_sigma(self):
        # a zero variance would pass `GaussianBelief2`'s PSD check
        for sigma in (0.0, -1e-4, np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="^sigma_init must be finite and positive$"):
                init_position_belief((0.0, 0.0), sigma)


class TestTypeBeliefInit:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_uniform(self, n):
        tb = TypeBelief(np.full(n, 1 / n))
        assert np.allclose(tb.probs, 1.0 / n)
        assert tb.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_uniform_rejects_single_class(self):
        with pytest.raises(InvalidInputError):
            TypeBelief(np.full(1, 1.0))

    def test_normalize_is_divide_by_sum(self):
        assert np.allclose(normalized([1.0, 1.0, 2.0]), [0.25, 0.25, 0.5])
        assert np.allclose(normalized([0.2, 0.2, 0.6]), [0.2, 0.2, 0.6])


class TestFitProbability:
    def _belief(self, probs, fitted=False):
        """The arrays of one hole's belief; its score is entry 0."""
        return BeliefArrays.of([HoleBelief(
            position=init_position_belief((0.0, 0.0), 1e-4),
            type_belief=TypeBelief(np.asarray(probs, dtype=float)),
            fitted=fitted,
        )])

    def test_uniform_gives_alpha_over_c(self):
        b = self._belief([1 / 3, 1 / 3, 1 / 3])
        assert fit_probability(b, PegType(1), 0.34)[0] == pytest.approx(0.34 / 3)

    def test_certain_match_gives_alpha(self):
        b = self._belief([1.0, 0.0, 0.0])
        assert fit_probability(b, PegType(1), 0.34)[0] == pytest.approx(0.34)

    def test_zero_mass_gives_zero(self):
        b = self._belief([0.0, 1.0, 0.0])
        assert fit_probability(b, PegType(1), 0.34)[0] == 0.0

    def test_fitted_hole_scores_zero(self):
        b = self._belief([1.0, 0.0, 0.0], fitted=True)
        assert fit_probability(b, PegType(1), 0.34)[0] == 0.0

    def test_peg_type_beyond_the_belief_is_rejected(self):
        b = self._belief([0.5, 0.5])
        assert fit_probability(b, PegType(2), 0.34)[0] == pytest.approx(0.17)
        with pytest.raises(InvalidInputError, match="type 3 out of range 1..2"):
            fit_probability(b, PegType(3), 0.34)

    def test_monotone_in_peg_mass_and_linear_in_alpha(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p1, p2 = sorted(rng.uniform(0.0, 1.0, 2))
            rest1 = (1.0 - p1) / 2
            rest2 = (1.0 - p2) / 2
            lo = self._belief([p1, rest1, rest1])
            hi = self._belief([p2, rest2, rest2])
            alpha = rng.uniform(0.05, 1.0)
            assert fit_probability(lo, PegType(1), alpha)[0] <= fit_probability(
                hi, PegType(1), alpha
            )[0]
            assert fit_probability(hi, PegType(1), alpha)[0] == pytest.approx(
                alpha * fit_probability(hi, PegType(1), 1.0)[0]
            )


class TestValidation:
    def test_type_belief_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            TypeBelief(np.array([0.5, 0.6]))

    def test_type_belief_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            TypeBelief(np.array([-0.1, 1.1]))

    def test_gaussian_rejects_asymmetric_cov(self):
        with pytest.raises(InvalidInputError):
            GaussianBelief2(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_gaussian_rejects_indefinite_cov(self):
        with pytest.raises(InvalidInputError):
            GaussianBelief2(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_gaussian_accepts_singular_cov(self):
        GaussianBelief2(np.zeros(2), np.zeros((2, 2)))

    def test_env_config_bounds(self):
        with pytest.raises(ConfigurationError):
            EnvConfig(alpha=0.0)
        with pytest.raises(ConfigurationError):
            EnvConfig(detector_error_bound=-0.01)
        with pytest.raises(ConfigurationError):
            EnvConfig(horizon_high=0)
        with pytest.raises(ConfigurationError):
            EnvConfig(n_types=1)
        with pytest.raises(ConfigurationError):
            EnvConfig(workspace_min=(-0.25, -0.25, -0.25))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field",
        ["detector_error_bound", "alpha", "sigma_init", "capture_radius",
         "alignment_rate", "workspace_min", "workspace_max"],
    )
    def test_env_config_rejects_non_finite(self, field, bad):
        value = (bad, 0.0) if field.startswith("workspace") else bad
        with pytest.raises(ConfigurationError):
            EnvConfig(**{field: value})

    def test_env_config_rejects_overflowing_workspace_extent(self):
        # finite corners whose difference overflows, as a uniform draw across
        # the workspace would
        with pytest.raises(ConfigurationError, match="finite extent"):
            EnvConfig(workspace_min=(-1.7e308, 0.0), workspace_max=(1.7e308, 1.0))

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2", np.nan, np.inf])
    def test_hole_ground_truth_rejects_bad_types(self, bad):
        # the one check on a hole's type: the sensors take theirs from here
        with pytest.raises(InvalidInputError, match="^hole type must be a positive integer$"):
            HoleGroundTruth(bad, (0.0, 0.0))

    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "2", np.nan, np.inf])
    def test_peg_type_rejects_bad_types(self, bad):
        with pytest.raises(InvalidInputError, match="^peg type must be a positive integer$"):
            PegType(bad)

    def test_type_tags_accept_numpy_integers(self):
        hole, peg = HoleGroundTruth(np.int64(2), (0.0, 0.0)), PegType(np.int32(2))
        assert type(hole.hole_type) is int and type(peg.value) is int
        assert hole.hole_type == peg.value == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hole_ground_truth_rejects_non_finite_position(self, bad):
        for position in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(InvalidInputError, match="hole position must be a finite 2-vector"):
                HoleGroundTruth(1, position)

    def test_beliefs_are_immutable(self):
        b = init_position_belief((0.0, 0.0), 1e-4)
        with pytest.raises(ValueError):
            b.mean[0] = 1.0


def _rollout_from(start):
    return rollout_low_level(start, PegType(1), HoleGroundTruth(1, (0.0, 0.0)), SpiralParams(),
                             EnvConfig(), derive_rng(0, 0))


# each array a constructor checks through `frozen_array`: the constructor of
# a bad value, the array's name in the error, its kind, a valid value and
# the field that stores it (None for an argument that is not stored)
_FROZEN = [
    pytest.param(lambda v: GaussianBelief2(v, np.eye(2)), "belief mean", "2-vector",
                 np.zeros(2), "mean", id="GaussianBelief2.mean"),
    pytest.param(lambda v: GaussianBelief2(np.zeros(2), v), "belief covariance", "2x2 matrix",
                 np.eye(2), "cov", id="GaussianBelief2.cov"),
    pytest.param(TypeBelief, "type belief", "3-vector", np.full(3, 1 / 3), "probs",
                 id="TypeBelief.probs"),
    pytest.param(lambda v: HoleGroundTruth(1, v), "hole position", "2-vector", np.zeros(2),
                 "position", id="HoleGroundTruth.position"),
    pytest.param(PositionNoiseModel, "noise covariance", "2x2 matrix", 1e-4 * np.eye(2), "cov",
                 id="PositionNoiseModel.cov"),
    pytest.param(Innovation, "innovation", "2-vector", np.zeros(2), "value",
                 id="Innovation.value"),
    pytest.param(lambda v: PositionSensorSpec(cov=v), "sensor covariance", "2x2 matrix",
                 6.4e-5 * np.eye(2), "cov", id="PositionSensorSpec.cov"),
    pytest.param(lambda v: PositionSensorSpec(bias=v), "sensor bias", "2-vector", np.zeros(2),
                 "bias", id="PositionSensorSpec.bias"),
    pytest.param(LearnedParams, "theta", "5-vector", np.zeros(5), "theta",
                 id="LearnedParams.theta"),
    pytest.param(lambda v: LearnedParams.from_values(v, 0.8, 0.2), "noise covariance",
                 "2x2 matrix", 1e-4 * np.eye(2), None, id="LearnedParams.from_values"),
    pytest.param(_rollout_from, "start estimate", "2-vector", np.zeros(2), None,
                 id="rollout_low_level.start_estimate"),
]


@pytest.mark.parametrize("make, what, kind, good, field", _FROZEN)
def test_checked_arrays_are_frozen_through_frozen_array(make, what, kind, good, field):
    # a type belief's shape is its input's, so only its entries can be bad
    bads = [] if field == "probs" else [np.zeros(good.size + 1)]
    for entry in (np.nan, np.inf, -np.inf, "a"):
        bad = good.astype(object)
        bad.flat[-1] = entry
        bads.append(bad)
    for bad in bads:
        with pytest.raises(InvalidInputError, match=f"^{what} must be a finite {kind}$"):
            make(bad)
    if field is not None:
        stored = getattr(make(good), field)
        with pytest.raises(ValueError):
            stored[(0,) * stored.ndim] = 1.0


@pytest.mark.parametrize("make, message", [
    (lambda: TypeBelief([[0.5, 0.5], [1.0]]), "type belief must be a vector of at least two classes"),
    (lambda: Innovation({"x": 1}), "innovation must be a finite 2-vector"),
], ids=["ragged TypeBelief", "dict Innovation"])
def test_values_numpy_cannot_convert_raise_the_constructors_error(make, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        make()


# values that numpy cannot convert to a float array
_UNCONVERTIBLE = {"string": ("a", 0.0), "ragged": ((0.0, 1.0), 0.0), "dict": {"x": 0.0, "y": 0.0}}


@pytest.mark.parametrize("value", list(_UNCONVERTIBLE.values()), ids=list(_UNCONVERTIBLE))
def test_unconvertible_workspace_corner_is_a_configuration_error(value):
    for field in ("workspace_min", "workspace_max"):
        with pytest.raises(ConfigurationError, match="^workspace bounds must be 2-vectors"):
            EnvConfig(**{field: value})


@pytest.mark.parametrize("value", list(_UNCONVERTIBLE.values()), ids=list(_UNCONVERTIBLE))
def test_unconvertible_belief_row_is_invalid_input(value):
    rows = {"means": [(0.0, 0.0)], "covs": [((1.0, 0.0), (0.0, 1.0))], "xi": [[0.5, 0.5]],
            "fitted": [False]}
    for field, bad in (("means", [value]), ("covs", [(value, (0.0, 1.0))]), ("xi", [value])):
        with pytest.raises(InvalidInputError, match="^belief rows must be arrays of numbers$"):
            BeliefArrays(**{**rows, field: bad})


_ONE_HOLE = {"means": [(0.0, 0.0)], "covs": [((1.0, 0.0), (0.0, 1.0))], "xi": [[0.5, 0.5]],
             "fitted": [False]}
# rows that numpy converts but whose shapes are not (H, 2), (H, 2, 2), (H, C)
# with C >= 2 and bool (H,) for one H >= 1
_MISSHAPEN = {
    "dict_flags": {"fitted": {"a": 1}},
    "string_flags": {"fitted": ["a"]},
    "int_flags": {"fitted": [1]},
    "scalar_flag": {"fitted": False},
    "two_flags": {"fitted": [False, False]},
    "three_entry_mean": {"means": [(0.0, 0.0, 0.0)]},
    "flat_means": {"means": (0.0, 0.0)},
    "flat_cov": {"covs": [(1.0, 0.0, 0.0, 1.0)]},
    "one_class": {"xi": [[1.0]]},
    "flat_xi": {"xi": [0.5, 0.5]},
    "empty": {"means": [], "covs": [], "xi": [], "fitted": []},
    "empty_arrays": {"means": np.empty((0, 2)), "covs": np.empty((0, 2, 2)),
                     "xi": np.empty((0, 3)), "fitted": np.empty(0, bool)},
}


@pytest.mark.parametrize("change", list(_MISSHAPEN.values()), ids=list(_MISSHAPEN))
def test_misshapen_belief_rows_are_invalid_input(change):
    BeliefArrays(**_ONE_HOLE)
    with pytest.raises(InvalidInputError, match=r"^belief rows must have shapes \(H, 2\)"):
        BeliefArrays(**{**_ONE_HOLE, **change})


def test_belief_rows_of_no_hole_are_invalid_input_through_of():
    with pytest.raises(InvalidInputError, match=r"^belief rows must have shapes \(H, 2\)"):
        BeliefArrays.of([])


@pytest.mark.parametrize(
    "make, what",
    [(PositionNoiseModel, "noise covariance"), (lambda v: PositionSensorSpec(cov=v),
     "sensor covariance"), (lambda v: LearnedParams.from_values(v, 0.8, 0.2),
     "noise covariance")],
    ids=["PositionNoiseModel", "PositionSensorSpec", "LearnedParams.from_values"],
)
def test_covariances_are_symmetric_within_symmetry_tol(make, what):
    cov = 1e-4 * np.eye(2)
    cov[0, 1] = SYMMETRY_TOL
    make(cov)
    cov[0, 1] = 2 * SYMMETRY_TOL
    with pytest.raises(InvalidInputError, match=f"^{what} must be symmetric$"):
        make(cov)


_ENTRY = st.floats(-1e-3, 1e-3)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(a=_ENTRY, b=_ENTRY, d=_ENTRY, near=st.booleans())
def test_closed_form_psd_check_matches_eigvalsh(a, b, d, near):
    """check_position's closed-form eigenvalue accepts exactly what
    `eigvalsh` accepts, away from rounding at the tolerance itself."""
    if near:  # put the smallest eigenvalue close to the tolerance
        d = (b * b) / a + PSD_TOL if a > 1e-6 else d
    cov = np.array([[a, b], [b, d]])
    smallest = np.linalg.eigvalsh(cov).min()
    if abs(smallest - PSD_TOL) <= 1e-18:
        return
    if smallest < PSD_TOL:
        with pytest.raises(InvalidInputError, match="PSD"):
            check_position(np.zeros(2), cov)
    else:
        check_position(np.zeros(2), cov)


@pytest.mark.parametrize(
    "probs, message",
    [([0.5, float("nan")], "finite"), ([1.5, -0.5], r"\[0, 1\]"),
     ([0.5, 0.5 + 2 * SUM_TOL], "sum to 1")],
)
def test_check_types_names_the_broken_invariant(probs, message):
    with pytest.raises(InvalidInputError, match=message):
        check_types(probs)


class TestBeliefArrays:
    def test_init_beliefs_matches_the_object_constructors(self):
        config = EnvConfig(n_holes=2, n_types=3, sigma_init=2e-4)
        world = World((HoleGroundTruth(1, (0.01, 0.02)), HoleGroundTruth(3, (-0.1, 0.05))),
                      config)
        state = init_beliefs(world, derive_rng(4, 1))
        detections = vision_detect(np.array([(0.01, 0.02), (-0.1, 0.05)]),
                                   config.detector_error_bound, derive_rng(4, 1).random((2, 2)))
        for i, det in enumerate(detections):
            expected = init_position_belief(det, config.sigma_init)
            assert np.array_equal(state.means[i], expected.mean)
            assert np.array_equal(state.covs[i], expected.cov)
            assert np.array_equal(state.xi[i], TypeBelief(np.full(3, 1 / 3)).probs)
        assert state.fitted == [False, False]
        for i in range(2):
            floats = [*state.means[i], *state.covs[i][0], *state.covs[i][1], *state.xi[i]]
            assert all(type(x) is float for x in floats)
        assert all(type(flag) is bool for flag in state.fitted)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: HoleGroundTruth(1, (np.nan, 0.0)), id="non_finite_position"),
        pytest.param(lambda: World(holes=(), config=EnvConfig()), id="no_holes"),
        pytest.param(lambda: EnvConfig(sigma_init=0.0), id="zero_sigma_init"),
        pytest.param(lambda: EnvConfig(n_types=1), id="one_type"),
    ])
    def test_init_beliefs_inputs_are_checked_where_built(self, build):
        # init_beliefs itself checks nothing: every input it reads was
        # checked by the class that holds it
        with pytest.raises((InvalidInputError, ConfigurationError)):
            build()

    def test_of_rejects_mixed_type_counts(self):
        with pytest.raises(InvalidInputError):
            BeliefArrays.of([
                HoleBelief(init_position_belief((0, 0), 1e-4), TypeBelief([0.5, 0.5])),
                HoleBelief(init_position_belief((0, 0), 1e-4), TypeBelief(np.full(3, 1 / 3))),
            ])
