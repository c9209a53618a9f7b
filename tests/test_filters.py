from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from belieffit import (
    GaussianBelief2,
    Innovation,
    MatchObservationModel,
    PegType,
    PositionNoiseModel,
    TypeBelief,
    histogram_update,
    kalman_update,
)
from belieffit.beliefs import PSD_TOL, SUM_TOL, normalized
from belieffit.errors import DegenerateEvidenceError, InvalidInputError
from belieffit.filters import kalman_correction, position_posterior, type_posterior
from belieffit.policy import INSERTION_NOISE


def brute_force_type_posterior(prior, o_match, beta, peg, alpha, tpr, fpr):
    """Independent oracle: enumerate classes, multiply factors, normalize."""
    post = []
    for k in range(len(prior)):
        match = (k + 1) == peg
        h = (tpr if match else fpr) if o_match else ((1 - tpr) if match else (1 - fpr))
        p_succ = alpha if match else 0.0
        t = p_succ if beta else 1.0 - p_succ
        post.append(h * t * prior[k])
    eta = sum(post)
    return [x / eta for x in post]


class TestKalmanUpdate:
    def test_equal_covariances_give_half_gain(self):
        prior = GaussianBelief2(np.zeros(2), 1e-4 * np.eye(2))
        post = kalman_update(
            prior, Innovation((0.002, -0.004)), PositionNoiseModel(1e-4 * np.eye(2))
        )
        assert np.allclose(post.mean, [0.001, -0.002])
        assert np.allclose(post.cov, 5e-5 * np.eye(2))

    def test_perfect_certainty_is_fixed_point(self):
        prior = GaussianBelief2(np.array([0.3, -0.2]), np.zeros((2, 2)))
        post = kalman_update(
            prior, Innovation((0.05, 0.05)), PositionNoiseModel(1e-4 * np.eye(2))
        )
        assert np.allclose(post.mean, prior.mean, atol=1e-12)
        assert np.allclose(post.cov, 0.0, atol=1e-12)

    def test_perfect_sensor_moves_mean_by_innovation(self):
        prior = GaussianBelief2(np.array([0.1, 0.1]), 1e-4 * np.eye(2))
        v = np.array([0.004, -0.007])
        post = kalman_update(prior, Innovation(v), PositionNoiseModel(1e-12 * np.eye(2)))
        assert np.allclose(post.mean, prior.mean + v, rtol=1e-6)

    def test_matches_direct_algebra_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            a = rng.normal(0.0, 0.01, (2, 2))
            sigma = a @ a.T
            b = rng.normal(0.0, 0.01, (2, 2))
            noise = b @ b.T + 1e-12 * np.eye(2)
            mean = rng.normal(0.0, 0.1, 2)
            h = rng.normal(0.0, 0.01, 2)
            post = kalman_update(
                GaussianBelief2(mean, sigma), Innovation(h), PositionNoiseModel(noise)
            )
            gain = sigma @ np.linalg.inv(noise + sigma)
            assert np.allclose(post.mean, mean + gain @ h, atol=1e-9)
            assert np.allclose(post.cov, (np.eye(2) - gain) @ sigma, atol=1e-9)

    def test_contraction_and_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.normal(0.0, 0.01, (2, 2))
            sigma = a @ a.T
            b = rng.normal(0.0, 0.01, (2, 2))
            noise = b @ b.T + 1e-12 * np.eye(2)
            post = kalman_update(
                GaussianBelief2(np.zeros(2), sigma),
                Innovation(rng.normal(0.0, 0.01, 2)),
                PositionNoiseModel(noise),
            )
            assert np.trace(post.cov) <= np.trace(sigma) + 1e-15
            assert np.min(np.linalg.eigvalsh(post.cov)) >= -1e-12

    def test_repeated_isotropic_updates_follow_closed_form(self):
        sigma0 = 1e-4
        r = 6.4e-5
        belief = GaussianBelief2(np.zeros(2), sigma0 * np.eye(2))
        noise = PositionNoiseModel(r * np.eye(2))
        rng = np.random.default_rng(0)
        for t in range(1, 21):
            belief = kalman_update(belief, Innovation(rng.normal(0, 0.01, 2)), noise)
            expected = sigma0 * r / (r + t * sigma0)
            assert abs(belief.cov[0, 0] - expected) <= 1e-9
            assert abs(belief.cov[1, 1] - expected) <= 1e-9

    def test_rejects_non_finite_innovation(self):
        with pytest.raises(InvalidInputError):
            Innovation((np.inf, 0.0))


class TestHistogramUpdate:
    def test_uninformative_sensor_failure_update(self):
        prior = TypeBelief(np.full(3, 1 / 3))
        post = histogram_update(
            prior, False, False, PegType(1), 0.34, MatchObservationModel(0.5, 0.5)
        )
        assert np.allclose(post.probs, [0.2481, 0.3759, 0.3759], atol=1e-4)

    def test_degenerate_prior_is_fixed_point(self):
        prior = TypeBelief(normalized([1.0, 0.0, 0.0]))
        post = histogram_update(
            prior, True, False, PegType(1), 0.34, MatchObservationModel(0.85, 0.15)
        )
        assert np.allclose(post.probs, [1.0, 0.0, 0.0], atol=1e-9)

    def test_success_collapses_to_peg_type(self):
        prior = TypeBelief(np.full(3, 1 / 3))
        post = histogram_update(
            prior, True, True, PegType(2), 0.34, MatchObservationModel(0.85, 0.15)
        )
        assert np.allclose(post.probs, [0.0, 1.0, 0.0], atol=1e-12)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n_types = int(rng.integers(2, 6))
            prior = rng.uniform(0.01, 1.0, n_types)
            prior = prior / prior.sum()
            peg = int(rng.integers(1, n_types + 1))
            alpha = float(rng.uniform(0.05, 0.95))
            tpr = float(rng.uniform(0.5, 0.99))
            fpr = float(rng.uniform(0.01, 0.5))
            o_match = bool(rng.integers(0, 2))
            beta = bool(rng.integers(0, 2))
            post = histogram_update(
                TypeBelief(prior), o_match, beta, PegType(peg), alpha,
                MatchObservationModel(tpr, fpr),
            )
            oracle = brute_force_type_posterior(
                prior, o_match, beta, peg, alpha, tpr, fpr
            )
            assert np.max(np.abs(post.probs - np.array(oracle))) <= 1e-12

    def test_posterior_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            prior = rng.uniform(0.01, 1.0, 4)
            post = histogram_update(
                TypeBelief(prior / prior.sum()), True, False, PegType(3), 0.4,
                MatchObservationModel(0.8, 0.2),
            )
            assert post.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_annihilating_evidence_raises(self):
        prior = TypeBelief(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DegenerateEvidenceError):
            histogram_update(
                prior, True, True, PegType(2), 0.34, MatchObservationModel(0.85, 0.15)
            )

    def test_pure_function(self):
        prior = TypeBelief(np.full(3, 1 / 3))
        args = (True, False, PegType(1), 0.4, MatchObservationModel(0.7, 0.2))
        first = histogram_update(prior, *args)
        second = histogram_update(prior, *args)
        assert np.array_equal(first.probs, second.probs)



# --------------------------------------------------------------------------
# property tests of the kernels the policy's step calls
# --------------------------------------------------------------------------

@st.composite
def covariances(draw, min_log=-12.0):
    """Symmetric PSD 2x2 matrices: eigenvalues 10^[min_log, -2] in a random frame."""
    lo, hi = 10.0 ** draw(st.floats(min_log, -2.0)), 10.0 ** draw(st.floats(min_log, -2.0))
    theta = draw(st.floats(0.0, np.pi))
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([lo, hi]) @ rot.T
    return 0.5 * (cov + cov.T)


_INNOVATION = st.tuples(st.floats(-0.05, 0.05), st.floats(-0.05, 0.05))
_NOISE = st.one_of(st.just(INSERTION_NOISE.cov), covariances(min_log=-11.0))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(prior=covariances(), noise=_NOISE, innovation=_INNOVATION)
def test_kalman_posterior_stays_symmetric_psd(prior, noise, innovation):
    post = kalman_update(
        GaussianBelief2(np.zeros(2), prior), Innovation(innovation), PositionNoiseModel(noise)
    )
    assert np.array_equal(post.cov, post.cov.T)
    assert np.linalg.eigvalsh(post.cov).min() >= PSD_TOL
    assert np.trace(post.cov) <= np.trace(prior) * (1 + 1e-12)


def _exact_posterior(prior, noise) -> np.ndarray:
    """P - P (P + R)^-1 P in rational arithmetic, rounded to floats once."""
    p = [[Fraction(x) for x in row] for row in prior.tolist()]
    s = [[p[i][j] + Fraction(noise[i, j]) for j in range(2)] for i in range(2)]
    det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
    inv = [[s[1][1] / det, -s[0][1] / det], [-s[1][0] / det, s[0][0] / det]]
    gain = [[sum(p[i][m] * inv[m][j] for m in range(2)) for j in range(2)] for i in range(2)]
    return np.array([
        [float(p[i][j] - sum(gain[i][m] * p[m][j] for m in range(2))) for j in range(2)]
        for i in range(2)
    ])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(prior=covariances())
def test_kalman_matches_joseph_form_at_insertion_noise(prior):
    """With R = 1e-12 I the gain is I - O(1e-8), where (I - K) S0 would
    cancel; the filter's K R has no subtraction.  It must stay PSD and agree
    with the Joseph form, and both with the exact posterior, far inside
    PSD_TOL."""
    r = INSERTION_NOISE.cov
    cov = np.array(position_posterior((0.0, 0.0), prior.tolist(), (0.0, 0.0), r.tolist())[1])
    gain = np.linalg.solve((prior + r).T, prior.T).T
    rest = np.eye(2) - gain
    joseph = rest @ prior @ rest.T + gain @ r @ gain.T
    exact = _exact_posterior(prior, r)
    assert np.linalg.eigvalsh(cov).min() >= PSD_TOL
    assert np.abs(cov - exact).max() <= 1e-17
    assert np.abs(joseph - exact).max() <= 1e-17


@settings(derandomize=True, max_examples=300, deadline=None)
@given(prior=covariances())
def test_kalman_correction_matches_exact_posterior(prior):
    """The kernel's Sigma1 against rational arithmetic at the insertion
    noise and at the informative sensor's, relative to the posterior's
    largest entry.  The priors reach condition numbers of 1e10, where
    |R + S0| is far below its products."""
    for noise in (INSERTION_NOISE.cov, 6.4e-5 * np.eye(2)):
        _, _, cov = kalman_correction(tuple(prior.ravel().tolist()), tuple(noise.ravel().tolist()))
        exact = _exact_posterior(prior, noise)
        assert np.abs(np.reshape(cov, (2, 2)) - exact).max() <= 1e-10 * np.abs(exact).max()


@pytest.mark.parametrize("prior_scale, noise_scale",
                         [(1e-150, 1e-150), (1e150, 1e150), (1e-4, 1e300), (1e300, 1e-4)])
def test_kalman_correction_holds_far_from_unit_scale(prior_scale, noise_scale):
    """Products of entries near 1e150 overflow and near 1e-150 underflow;
    the kernel's covariance still matches rational arithmetic there."""
    prior = prior_scale * np.array([[4.0, 1.0], [1.0, 3.0]])
    noise = noise_scale * np.array([[2.0, -0.5], [-0.5, 1.0]])
    _, _, cov = kalman_correction(tuple(prior.ravel().tolist()), tuple(noise.ravel().tolist()))
    exact = _exact_posterior(prior, noise)
    assert np.abs(np.reshape(cov, (2, 2)) - exact).max() <= 1e-10 * np.abs(exact).max()


_TYPE_COUNT = st.integers(2, 9)


@st.composite
def type_updates(draw, n_types):
    """Evidence of one attempt: (o_match, beta, peg, alpha, match model)."""
    return (
        draw(st.booleans()),
        draw(st.booleans()),
        PegType(draw(st.integers(1, n_types))),
        draw(st.floats(0.01, 1.0)),
        MatchObservationModel(draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99))),
    )


@st.composite
def type_priors(draw):
    n_types = draw(_TYPE_COUNT)
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n_types, max_size=n_types))
    weights = [w if w >= 1e-3 else 0.0 for w in weights]
    if not any(weights):
        weights[0] = 1.0
    return TypeBelief(normalized(weights)), n_types


def _posterior_or_none(prior, update):
    try:
        return histogram_update(prior, *update)
    except DegenerateEvidenceError:
        return None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_type_posterior_stays_on_simplex(data):
    prior, n_types = data.draw(type_priors())
    post = _posterior_or_none(prior, data.draw(type_updates(n_types)))
    if post is not None:
        assert np.all((post.probs >= 0.0) & (post.probs <= 1.0))
        assert abs(post.probs.sum() - 1.0) <= SUM_TOL


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_independent_type_updates_commute(data):
    prior, n_types = data.draw(type_priors())
    first, second = data.draw(type_updates(n_types)), data.draw(type_updates(n_types))
    a = _posterior_or_none(prior, first)
    a = a and _posterior_or_none(a, second)
    b = _posterior_or_none(prior, second)
    b = b and _posterior_or_none(b, first)
    assert (a is None) == (b is None)
    if a is not None:
        assert np.allclose(a.probs, b.probs, rtol=0.0, atol=1e-12)


def test_type_posterior_wrapper_is_the_kernel():
    prior = TypeBelief(np.array([0.2, 0.3, 0.5]))
    args = (True, False, PegType(2), 0.34, MatchObservationModel(0.85, 0.15))
    kernel = type_posterior(prior.probs.tolist(), *args)
    assert histogram_update(prior, *args).probs.tolist() == kernel
