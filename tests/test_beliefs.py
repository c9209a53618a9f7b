import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from belieffit import (
    EnvConfig,
    GaussianBelief2,
    HoleBelief,
    HoleGroundTruth,
    PegType,
    TypeBelief,
    fit_probability,
    init_position_belief,
)
from belieffit.beliefs import (
    PSD_TOL, SUM_TOL, BeliefArrays, check_position, check_types, normalized,
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
        with pytest.raises(InvalidInputError):
            init_position_belief((np.nan, 0.0), 1e-4)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(InvalidInputError):
            init_position_belief((0.0, 0.0), 0.0)


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

    @pytest.mark.parametrize("bad", [0, -1])
    def test_hole_ground_truth_rejects_bad_types(self, bad):
        # the one check on a hole's type: the sensors take theirs from here
        with pytest.raises(InvalidInputError, match="hole type must be a positive integer"):
            HoleGroundTruth(bad, (0.0, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hole_ground_truth_rejects_non_finite_position(self, bad):
        for position in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(InvalidInputError, match="hole position must be finite"):
                HoleGroundTruth(1, position)

    def test_beliefs_are_immutable(self):
        b = init_position_belief((0.0, 0.0), 1e-4)
        with pytest.raises(ValueError):
            b.mean[0] = 1.0


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
    def test_detected_matches_the_object_constructors(self):
        state = BeliefArrays.detected([(0.01, 0.02), (-0.1, 0.05)], 1e-4, 3)
        for i, det in enumerate([(0.01, 0.02), (-0.1, 0.05)]):
            expected = init_position_belief(det, 1e-4)
            assert np.array_equal(state.means[i], expected.mean)
            assert np.array_equal(state.covs[i], expected.cov)
            assert np.array_equal(state.xi[i], TypeBelief(np.full(3, 1 / 3)).probs)
        assert not state.fitted.any()

    @pytest.mark.parametrize(
        "detections, sigma, n_types",
        [([(np.nan, 0.0)], 1e-4, 3), ([], 1e-4, 3), ([(0.0, 0.0)], 0.0, 3),
         ([(0.0, 0.0)], 1e-4, 1)],
    )
    def test_detected_rejects_bad_input(self, detections, sigma, n_types):
        with pytest.raises(InvalidInputError):
            BeliefArrays.detected(detections, sigma, n_types)

    def test_of_rejects_mixed_type_counts(self):
        with pytest.raises(InvalidInputError):
            BeliefArrays.of([
                HoleBelief(init_position_belief((0, 0), 1e-4), TypeBelief([0.5, 0.5])),
                HoleBelief(init_position_belief((0, 0), 1e-4), TypeBelief(np.full(3, 1 / 3))),
            ])
