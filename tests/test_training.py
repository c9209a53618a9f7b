import copy
import dataclasses
import gc
import itertools
import math
import os
import pickle
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from belieffit import (
    Dataset,
    EnvConfig,
    GaussianBelief2,
    Innovation,
    InteractionRecord,
    LearnedParams,
    MatchObservationModel,
    PegType,
    PositionNoiseModel,
    SensorModel,
    SpiralParams,
    TypeBelief,
    batch_nll,
    fit_parameters,
    generate_dataset,
    grad_nll,
    histogram_update,
    kalman_update,
    load_dataset,
    mle_confusion_oracle,
    mle_covariance_oracle,
    runfiles,
    save_dataset,
)
from belieffit.errors import (
    BeliefFitError,
    ConfigurationError,
    DegenerateEvidenceError,
    DegenerateOracleError,
    DegenerateOracleWarning,
    InvalidInputError,
    OptimizationFailureError,
)
from belieffit.filters import MATCH_PROB_EPS, kalman_correction
from belieffit.runfiles import CSV_BLOCK_ROWS, write_csv
from belieffit.seeding import derive_rng
from belieffit.training import (
    DATASET_COLUMNS,
    LOG_FLOOR,
    _inv,
    _precompute,
    _Precomputed,
    _Row,
    _sigmoid,
    _value_and_grad,
)

ALPHA = 0.34
SPIRAL = SpiralParams()


def make_record(
    rng,
    n_types=3,
    matched=True,
    sigma0_scale=1e-4,
    r_true=None,
    xi0=None,
    beta=False,
):
    r_true = 6.4e-5 * np.eye(2) if r_true is None else r_true
    p = rng.uniform(-0.1, 0.1, 2)
    mu0 = p - np.sqrt(sigma0_scale) * rng.standard_normal(2)
    hole_type = int(rng.integers(1, n_types + 1))
    if matched:
        peg_type = hole_type
    else:
        others = [t for t in range(1, n_types + 1) if t != hole_type]
        peg_type = int(others[rng.integers(0, len(others))])
    obs = p + np.linalg.cholesky(r_true) @ rng.standard_normal(2)
    o_match = bool(rng.random() < (0.85 if matched else 0.15))
    xi0 = np.full(n_types, 1.0 / n_types) if xi0 is None else xi0
    return InteractionRecord(
        peg_type=peg_type,
        hole_type=hole_type,
        position=p,
        mu0=mu0,
        sigma0=sigma0_scale * np.eye(2),
        xi0=xi0,
        obs=obs,
        o_match=o_match,
        beta=beta,
    )


RECORD_FIELDS = ("peg_type", "hole_type", "position", "mu0", "sigma0", "xi0", "obs",
                 "o_match", "beta")


def rebuilt(record, **changes):
    """The record built again by its constructor from its public fields,
    with `changes` in place of some of them."""
    return InteractionRecord(**{name: getattr(record, name) for name in RECORD_FIELDS} | changes)


def value_and_grad(theta, pre):
    """Batch-mean loss terms at theta, (position, type, match), and the
    gradient of each, one 5-vector per row: the fused pass's sums divided
    by the batch size."""
    losses, (g_pos, g_type, g_match) = _value_and_grad([float(x) for x in theta], pre)
    grads = np.zeros((3, 5))
    grads[0, :3], grads[1, 3:], grads[2, 3:] = g_pos, g_type, g_match
    return np.array(losses) / pre.n, grads / pre.n


EVERY_TERM = (True, True, True)


def selected_nll(theta, records, alpha, keep=EVERY_TERM):
    """Batch-mean loss and its gradient over the terms `keep` selects from
    (position, type, match), read from the rows of the fused pass."""
    losses, grads = value_and_grad(theta, _precompute(records, alpha))
    keep = np.array(keep, dtype=bool)
    return float(losses[keep].sum()), grads[keep].sum(axis=0)


def finite_difference_grad(params, records, alpha, step=1e-6, keep=EVERY_TERM):
    grad = np.zeros(5)
    for k in range(5):
        up = params.theta.copy()
        dn = params.theta.copy()
        up[k] += step
        dn[k] -= step
        grad[k] = (
            selected_nll(up, records, alpha, keep)[0]
            - selected_nll(dn, records, alpha, keep)[0]
        ) / (2 * step)
    return grad


def loop_position_nll(theta, records):
    """Mean position term record by record, with the pass's own Kalman
    kernel and inverse, the reference's 2x2 product and d = R A e + K f:
    the reference for the grouped moment sums."""
    r = LearnedParams(theta).position_cov.ravel().tolist()
    terms = []
    for record in records:
        s0 = record.sigma0.ravel().tolist()
        a, k, sigma1 = kalman_correction(s0, r)
        u = _mul(r, a)
        m, det1 = _inv(sigma1)
        e0, e1 = (record.position - record.mu0).tolist()
        f0, f1 = (record.position - record.obs).tolist()
        d0 = u[0] * e0 + u[1] * e1 + k[0] * f0 + k[1] * f1
        d1 = u[2] * e0 + u[3] * e1 + k[2] * f0 + k[3] * f1
        quad = d0 * (m[0] * d0 + m[1] * d1) + d1 * (m[2] * d0 + m[3] * d1)
        terms.append(0.5 * math.log(det1) + 0.5 * quad)
    return math.fsum(terms) / len(terms)


def posterior_nll(
    p, mu1, sigma1, xi1, hole_type: int, peg_type: int, o_match: bool,
    tpr: float, fpr: float,
    include_position: bool = True,
    include_type: bool = True,
    include_match: bool = True,
) -> float:
    """Loss terms evaluated directly on a one-step posterior, one record at a
    time: the oracle for the batched loss."""
    total = 0.0
    if include_position:
        sigma1 = np.asarray(sigma1, dtype=float)
        d = np.asarray(p, dtype=float) - np.asarray(mu1, dtype=float)
        det = float(np.linalg.det(sigma1))
        if not det > 0.0:
            raise DegenerateEvidenceError("posterior covariance is not positive definite")
        total += 0.5 * math.log(det) + 0.5 * float(d @ np.linalg.solve(sigma1, d))
    if include_type:
        total += -math.log(max(float(np.asarray(xi1)[hole_type - 1]), LOG_FLOOR))
    if include_match:
        if hole_type == peg_type:
            pm = tpr if o_match else 1.0 - tpr
        else:
            pm = fpr if o_match else 1.0 - fpr
        total += -math.log(max(pm, LOG_FLOOR))
    return total


def filter_run_nll(params, record, alpha, **include):
    """posterior_nll after one kalman_update and one histogram_update."""
    posterior_pos = kalman_update(
        GaussianBelief2(record.mu0, record.sigma0),
        Innovation(record.obs - record.mu0),
        PositionNoiseModel(params.position_cov),
    )
    posterior_type = histogram_update(
        TypeBelief(record.xi0), record.o_match, record.beta,
        PegType(record.peg_type), alpha,
        MatchObservationModel(params.tpr, params.fpr),
    )
    return posterior_nll(
        record.position, posterior_pos.mean, posterior_pos.cov,
        posterior_type.probs, record.hole_type, record.peg_type,
        record.o_match, params.tpr, params.fpr, **include,
    )


class TestPosteriorNll:
    def test_perfect_posterior_gives_zero_loss(self):
        loss = posterior_nll(
            p=(0.0, 0.0), mu1=(0.0, 0.0), sigma1=np.eye(2), xi1=(1.0, 0.0, 0.0),
            hole_type=1, peg_type=1, o_match=True, tpr=1.0, fpr=0.0,
        )
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_term_homogeneity(self):
        base = dict(
            sigma1=2.5e-5 * np.eye(2), xi1=(1, 0, 0), hole_type=1, peg_type=1,
            o_match=True, tpr=0.9, fpr=0.1, include_type=False, include_match=False,
        )
        l1 = posterior_nll(p=(0.002, 0.0), mu1=(0.0, 0.0), **base)
        l2 = posterior_nll(p=(0.004, 0.0), mu1=(0.0, 0.0), **base)
        log_det = 0.5 * np.log(np.linalg.det(2.5e-5 * np.eye(2)))
        assert (l2 - log_det) == pytest.approx(4.0 * (l1 - log_det))

    def test_floor_keeps_loss_finite(self):
        loss = posterior_nll(
            p=(0, 0), mu1=(0, 0), sigma1=np.eye(2), xi1=(0.0, 1.0, 0.0),
            hole_type=1, peg_type=2, o_match=False, tpr=0.9, fpr=0.1,
            include_position=False, include_match=False,
        )
        assert loss == pytest.approx(np.log(1e6))

    def test_nll_loss_equals_manual_filter_run(self):
        rng = derive_rng(0, 20)
        record = make_record(rng)
        params = LearnedParams.from_values(5e-5 * np.eye(2), 0.8, 0.2)
        expected = filter_run_nll(params, record, ALPHA)
        assert selected_nll(params.theta, [record], ALPHA)[0] == pytest.approx(expected, abs=1e-10)


class TestGradient:
    def test_matches_central_differences(self):
        rng = derive_rng(1, 20)
        records = [make_record(rng, matched=bool(i % 2)) for i in range(40)]
        for _ in range(25):
            theta = np.concatenate(
                [rng.uniform(-6.0, -3.0, 1), rng.uniform(-0.01, 0.01, 1),
                 rng.uniform(-6.0, -3.0, 1), rng.uniform(-2.0, 2.0, 2)]
            )
            params = LearnedParams(theta)
            analytic = grad_nll(params, records, ALPHA)
            numeric = finite_difference_grad(params, records, ALPHA)
            rel = np.abs(analytic - numeric) / (1.0 + np.abs(numeric))
            assert np.max(rel) <= 1e-4

    def test_stationary_at_closed_form_mle(self):
        # position: diffuse prior makes the optimum the uncentered second
        # moment; types: beta=1 freezes the type term; head: empirical rates.
        rng = derive_rng(2, 20)
        n = 4000
        r_true = np.array([[4e-5, 1e-5], [1e-5, 6e-5]])
        records = [
            make_record(
                rng, matched=bool(i % 2), sigma0_scale=1e2, r_true=r_true, beta=True
            )
            for i in range(n)
        ]
        residuals = np.array([r.obs - r.position for r in records])
        moment = residuals.T @ residuals / n
        matched_obs = [r.o_match for r in records if r.peg_type == r.hole_type]
        mismatched_obs = [r.o_match for r in records if r.peg_type != r.hole_type]
        params = LearnedParams.from_values(
            moment, np.mean(matched_obs), np.mean(mismatched_obs)
        )
        grad = grad_nll(params, records, ALPHA)
        assert np.linalg.norm(grad) <= 1e-3 * (1.0 + np.linalg.norm(params.theta))

    def test_masked_terms_have_zero_gradient(self):
        rng = derive_rng(3, 20)
        records = [make_record(rng) for _ in range(10)]
        params = LearnedParams.from_values(5e-5 * np.eye(2), 0.8, 0.2)
        g = selected_nll(params.theta, records, ALPHA, keep=(True, False, False))[1]
        assert g[3] == 0.0 and g[4] == 0.0
        g = selected_nll(params.theta, records, ALPHA, keep=(False, True, True))[1]
        assert np.all(g[:3] == 0.0)

    def test_batch_order_invariance(self):
        rng = derive_rng(4, 20)
        records = [make_record(rng, matched=bool(i % 2)) for i in range(30)]
        params = LearnedParams.from_values(5e-5 * np.eye(2), 0.8, 0.2)
        forward = batch_nll(params, records, ALPHA)
        backward = batch_nll(params, records[::-1], ALPHA)
        assert forward == pytest.approx(backward, abs=1e-12)


class TestLearnedParamsFromValues:
    @pytest.mark.parametrize("cov", [
        np.diag([1e-4, 2e-4, 3.0]),  # once read as its top-left block
        [1e-4, 1e-4],
        [[1e-4, 0.0], [0.0, float("nan")]],
        [[1e-4, 0.0], [0.0, float("inf")]],
    ])
    def test_covariance_must_be_a_finite_2x2_matrix(self, cov):
        with pytest.raises(InvalidInputError, match="must be a finite 2x2 matrix"):
            LearnedParams.from_values(cov, 0.8, 0.2)

    def test_covariance_must_be_symmetric(self):
        # Cholesky reads the lower triangle: this was once taken as 1e-4 I
        with pytest.raises(InvalidInputError, match="must be symmetric"):
            LearnedParams.from_values([[1e-4, 5.0], [0.0, 1e-4]], 0.8, 0.2)

    @pytest.mark.parametrize("name", ["tpr", "fpr"])
    @pytest.mark.parametrize("rate", [1.5, 1.0, 0.0, -0.1, float("nan"), float("inf")])
    def test_rates_must_lie_in_the_open_unit_interval(self, name, rate):
        rates = {"tpr": 0.8, "fpr": 0.2, name: rate}
        with pytest.raises(InvalidInputError, match=rf"{name}=.* outside \(0, 1\)"):
            LearnedParams.from_values(1e-4 * np.eye(2), **rates)


class TestFitParameters:
    def test_smoke_on_small_dataset(self):
        rng = derive_rng(5, 20)
        records = [make_record(rng, matched=bool(i % 2)) for i in range(10)]
        history: list = []
        params = fit_parameters(
            records, init=None, lr=0.02, epochs=60, alpha=ALPHA, history_out=history
        )
        assert len(history) == 60
        assert np.all(np.isfinite(params.theta))

    def test_loss_decreases_on_oracle_data(self):
        rng = derive_rng(6, 20)
        records = [make_record(rng, matched=bool(i % 2)) for i in range(400)]
        history: list = []
        fit_parameters(
            records, init=LearnedParams.from_values(4e-4 * np.eye(2), 0.6, 0.4),
            lr=0.05, epochs=300, alpha=ALPHA, history_out=history,
        )
        assert np.mean(history[-20:]) < history[0]

    def test_repeated_fits_are_bitwise_equal_and_leave_inputs_alone(self):
        # the steps update their lists in place: neither init.theta nor a
        # record's row may change, and a second fit must start where the
        # first did
        rng = derive_rng(6, 21)
        records = [make_record(rng, matched=bool(i % 2), sigma0_scale=scale)
                   for i, scale in enumerate([1e-4, 1e-2] * 20)]
        init = LearnedParams.from_values([[4e-4, 1e-5], [1e-5, 3e-4]], 0.6, 0.4)
        init_bytes = init.theta.tobytes()
        row_bytes = [r._row.tobytes() for r in records]
        outcomes = []
        for _ in range(2):
            history: list = []
            theta = fit_parameters(records, init=init, lr=0.05, epochs=40, alpha=ALPHA,
                                   history_out=history).theta
            outcomes.append((theta.tobytes(), np.array(history).tobytes()))
            assert init.theta.tobytes() == init_bytes
            assert [r._row.tobytes() for r in records] == row_bytes
        assert outcomes[0] == outcomes[1] and outcomes[0][0] != init_bytes

    def test_divergence_detected(self):
        rng = derive_rng(7, 20)
        records = [make_record(rng, matched=bool(i % 2)) for i in range(6)]
        with pytest.raises(OptimizationFailureError), np.errstate(all="ignore"):
            fit_parameters(records, init=None, lr=200.0, epochs=400, alpha=ALPHA)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_learning_rate_rejected(self, lr):
        records = [make_record(derive_rng(7, 20), matched=bool(i % 2)) for i in range(4)]
        with pytest.raises(InvalidInputError, match="learning rate"):
            fit_parameters(records, init=None, lr=lr, epochs=2, alpha=ALPHA)

    def test_epoch_count_follows_the_integer_rule(self):
        # a whole float fits as many epochs as its integer; a bool is not one
        records = [make_record(derive_rng(7, 20), matched=bool(i % 2)) for i in range(4)]
        three = fit_parameters(records, init=None, lr=0.05, epochs=3, alpha=ALPHA)
        whole = fit_parameters(records, init=None, lr=0.05, epochs=3.0, alpha=ALPHA)
        assert whole.theta.tobytes() == three.theta.tobytes()
        for bad in (True, 2.5):
            with pytest.raises(InvalidInputError) as raised:
                fit_parameters(records, init=None, lr=0.05, epochs=bad, alpha=ALPHA)
            assert str(raised.value) == f"epochs must be an integer, got {bad!r}"

    def test_impossible_outcome_is_degenerate_evidence(self):
        # a success on a peg whose type has no prior mass annihilates the
        # type belief, as in histogram_update
        record = rebuilt(
            make_record(derive_rng(8, 20)), peg_type=1, xi0=[0.0, 0.5, 0.5], beta=True
        )
        with pytest.raises(DegenerateEvidenceError, match="zero probability"):
            fit_parameters([record], init=None, epochs=2, alpha=ALPHA)

    def test_one_underflowing_group_is_degenerate_evidence(self):
        rng = derive_rng(8, 20)
        records = [make_record(rng, matched=bool(i % 2), sigma0_scale=scale)
                   for i, scale in enumerate([1e-4, 1e-2, 1e-200, 1e-4, 1e-6, 1e-2])]
        with pytest.raises(DegenerateEvidenceError, match="not positive definite"):
            batch_nll(LearnedParams.from_values(5e-5 * np.eye(2), 0.8, 0.2), records, ALPHA)
        batch_nll(LearnedParams.from_values(5e-5 * np.eye(2), 0.8, 0.2),
                  records[:2] + records[3:], ALPHA)

    def test_underflowing_prior_is_degenerate_evidence(self):
        # 1e-200 I is positive definite, but the posterior determinant
        # underflows to 0: an error about the evidence, not a divergence
        rng = derive_rng(8, 20)
        records = [make_record(rng, matched=bool(i % 2), sigma0_scale=1e-200)
                   for i in range(6)]
        with pytest.raises(DegenerateEvidenceError, match="not positive definite"):
            fit_parameters(records, init=None, epochs=2, alpha=ALPHA)
        with pytest.raises(DegenerateEvidenceError):
            posterior_nll((0.0, 0.0), (0.0, 0.0), np.zeros((2, 2)), (0.5, 0.5),
                          1, 1, True, 0.85, 0.15)


def draw_sigma0(draw):
    """A non-isotropic SPD prior covariance."""
    chol = np.array([[draw(st.floats(1e-3, 3e-2)), 0.0],
                     [draw(st.floats(-2e-2, 2e-2)), draw(st.floats(1e-3, 3e-2))]])
    return chol @ chol.T


def draw_xi0(draw, n_types, low_class=None):
    """A type prior on the simplex; half the time with a mass of 1e-12 on
    `low_class` (1-based; drawn when None)."""
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n_types, max_size=n_types)))
    if draw(st.booleans()):
        low_class = draw(st.integers(1, n_types)) if low_class is None else low_class
        weights[low_class - 1] = 1e-12
    return weights / weights.sum()


@st.composite
def fused_cases(draw, max_records=6, n_priors=None, n_type_priors=None, max_types=4):
    """Random theta, alpha and a small batch: non-isotropic SPD priors, type
    priors on the simplex, both verdicts and outcomes, and records whose true
    class ends below LOG_FLOOR (a success on another class, or a prior mass
    of 1e-12 on the true class).  With `n_priors`, the records share at most
    that many position priors, so that the loss groups several records;
    with `n_type_priors`, at most that many type priors, so that records
    repeat type columns.  The records have 2 to `max_types` classes."""
    n_types = draw(st.integers(2, max_types))
    priors = None
    if n_priors is not None:
        priors = [draw_sigma0(draw) for _ in range(draw(st.integers(1, n_priors)))]
    type_priors = None
    if n_type_priors is not None:
        type_priors = [draw_xi0(draw, n_types)
                       for _ in range(draw(st.integers(1, n_type_priors)))]
    records = []
    for _ in range(draw(st.integers(1, max_records))):
        sigma0 = draw_sigma0(draw) if priors is None else draw(st.sampled_from(priors))
        peg = draw(st.integers(1, n_types))
        hole = draw(st.integers(1, n_types))
        if type_priors is None:
            xi0 = draw_xi0(draw, n_types, low_class=hole)
        else:
            xi0 = type_priors[draw(st.integers(0, len(type_priors) - 1))]
        p = np.array(draw(st.tuples(*[st.floats(-0.1, 0.1)] * 2)))
        offsets = np.array(draw(st.tuples(*[st.floats(-0.02, 0.02)] * 4)))
        records.append(InteractionRecord(
            peg_type=peg, hole_type=hole, position=p, mu0=p + offsets[:2],
            sigma0=sigma0, xi0=xi0, obs=p + offsets[2:],
            o_match=draw(st.booleans()), beta=draw(st.booleans()),
        ))
    theta = [draw(st.floats(-6.0, -3.0)), draw(st.floats(-0.01, 0.01)),
             draw(st.floats(-6.0, -3.0)), draw(st.floats(-2.0, 2.0)),
             draw(st.floats(-2.0, 2.0))]
    return LearnedParams(theta), draw(st.floats(0.05, 1.0)), records


TERMS = ("include_position", "include_type", "include_match")


class TestFusedPass:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case=fused_cases())
    def test_per_record_terms_match_filter_run(self, case):
        params, alpha, records = case
        for record in records:
            losses, _ = value_and_grad(params.theta, _precompute([record], alpha))
            for row, term in enumerate(TERMS):
                only = {t: t == term for t in TERMS}
                expected = filter_run_nll(params, record, alpha, **only)
                assert losses[row] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(case=fused_cases(max_records=12, n_priors=3))
    def test_grouped_batch_terms_match_filter_run_mean(self, case):
        params, alpha, records = case
        losses, _ = value_and_grad(params.theta, _precompute(records, alpha))
        for row, term in enumerate(TERMS):
            only = {t: t == term for t in TERMS}
            expected = np.mean([filter_run_nll(params, r, alpha, **only) for r in records])
            assert losses[row] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=fused_cases(max_records=12, n_priors=3))
    def test_grouped_batch_gradient_matches_central_differences(self, case):
        params, alpha, records = case
        for flags in itertools.product((False, True), repeat=3):
            analytic = selected_nll(params.theta, records, alpha, flags)[1]
            numeric = finite_difference_grad(params, records, alpha, keep=flags)
            rel = np.abs(analytic - numeric) / (1.0 + np.abs(numeric))
            assert np.max(rel) <= 1e-5, (flags, analytic, numeric)

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1e2])
    def test_position_term_precise_at_extreme_priors(self, scale):
        # one group of 40 records, with the prior far tighter (K ~ 0) or far
        # looser (K ~ I) than the noise.  The filter oracle and the pass
        # share the Kalman kernel; the loop reference shares the pass's
        # Sigma1 too and bounds the moment sums alone.
        rng = derive_rng(30, 20)
        records = [make_record(rng, matched=bool(i % 2), sigma0_scale=scale)
                   for i in range(40)]
        params = LearnedParams.from_values(5e-5 * np.eye(2), 0.8, 0.2)
        got = selected_nll(params.theta, records, ALPHA, (True, False, False))[0]
        expected = np.mean([filter_run_nll(params, r, ALPHA, include_type=False,
                                           include_match=False) for r in records])
        assert got == pytest.approx(expected, rel=1e-10, abs=0.0)
        for _ in range(10):
            theta = np.concatenate([rng.uniform(-7.0, -4.0, 1), rng.uniform(-1e-3, 1e-3, 1),
                                    rng.uniform(-7.0, -4.0, 1), np.zeros(2)])
            got = selected_nll(theta, records, ALPHA, (True, False, False))[0]
            assert got == pytest.approx(loop_position_nll(theta, records), rel=1e-12, abs=0.0)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=fused_cases())
    def test_every_term_selection_matches_central_differences(self, case):
        params, alpha, records = case
        for flags in itertools.product((False, True), repeat=3):
            analytic = selected_nll(params.theta, records, alpha, flags)[1]
            numeric = finite_difference_grad(params, records, alpha, keep=flags)
            rel = np.abs(analytic - numeric) / (1.0 + np.abs(numeric))
            assert np.max(rel) <= 1e-5, (flags, analytic, numeric)

    @pytest.mark.parametrize(
        "cases",
        [fused_cases(max_records=24, n_type_priors=2),
         fused_cases(max_records=12),
         fused_cases(max_records=24, n_priors=3, n_type_priors=2)],
        ids=["repeated_type_columns", "distinct_type_columns", "prior_groups"],
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_is_sum_of_single_records_in_any_order(self, cases, data):
        # the batch folds equal type columns and groups equal priors; record
        # by record nothing is folded or grouped.  Relative to the sum of the
        # records' magnitudes, each at least 1: a record's type gradient can
        # cancel to ~1e-13 from two parts of order 1
        params, alpha, records = data.draw(cases)
        singles = [value_and_grad(params.theta, _precompute([r], alpha)) for r in records]
        for batch in (records, data.draw(st.permutations(records))):
            for got, parts in zip(value_and_grad(params.theta, _precompute(batch, alpha)),
                                  map(np.array, zip(*singles))):
                err = np.abs(len(batch) * got - parts.sum(axis=0))
                scale = np.maximum(np.abs(parts), 1.0).sum(axis=0)
                assert np.all(err <= 1e-12 * scale), (err, parts.sum(axis=0))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=fused_cases())
    def test_history_is_loss_of_returned_parameters(self, case):
        params, alpha, records = case
        history: list = []
        # Adam's first step moves each coordinate by about lr; at 1e-4 that
        # stays well inside the drawn Cholesky entries, so no case diverges
        result = fit_parameters(records, init=params, lr=1e-4, epochs=1,
                                alpha=alpha, history_out=history)
        assert history == [batch_nll(result, records, alpha)]


def exact_position_nll(params, records) -> float:
    """Mean position term in rational arithmetic: Sigma1 = S0 - K S0 and
    mu1 = mu0 + K (obs - mu0), exactly, from the records' float values; each
    log-determinant is rounded once, then taken."""
    r = [Fraction(x) for x in params.position_cov.ravel().tolist()]
    logs, quads = [], []
    for record in records:
        s0 = [Fraction(x) for x in record.sigma0.ravel().tolist()]
        s = [x + y for x, y in zip(s0, r)]
        det = s[0] * s[3] - s[1] * s[2]
        a = [s[3] / det, -s[1] / det, -s[2] / det, s[0] / det]
        k = [s0[0] * a[0] + s0[1] * a[2], s0[0] * a[1] + s0[1] * a[3],
             s0[2] * a[0] + s0[3] * a[2], s0[2] * a[1] + s0[3] * a[3]]
        sigma1 = [s0[0] - (k[0] * s0[0] + k[1] * s0[2]), s0[1] - (k[0] * s0[1] + k[1] * s0[3]),
                  s0[2] - (k[2] * s0[0] + k[3] * s0[2]), s0[3] - (k[2] * s0[1] + k[3] * s0[3])]
        p, mu0, obs = ([Fraction(x) for x in v.tolist()]
                       for v in (record.position, record.mu0, record.obs))
        h = [obs[0] - mu0[0], obs[1] - mu0[1]]
        d = [p[0] - mu0[0] - (k[0] * h[0] + k[1] * h[1]),
             p[1] - mu0[1] - (k[2] * h[0] + k[3] * h[1])]
        det1 = sigma1[0] * sigma1[3] - sigma1[1] * sigma1[2]
        quad = (sigma1[3] * d[0] * d[0] - (sigma1[1] + sigma1[2]) * d[0] * d[1]
                + sigma1[0] * d[1] * d[1]) / det1
        logs.append(math.log(float(det1)))
        quads.append(quad)
    return (0.5 * math.fsum(logs) + 0.5 * float(sum(quads))) / len(records)


def test_position_term_exact_at_loose_prior():
    # the prior 1e2 I is 2.4e7 times the noise: K is I - O(1e-8), where
    # Sigma1 = S0 - K S0 would cancel to about 5e-9 of the loss
    rng = derive_rng(30, 20)
    records = [make_record(rng, matched=bool(i % 2), sigma0_scale=1e2) for i in range(40)]
    params = LearnedParams.from_values(4.1e-6 * np.eye(2), 0.8, 0.2)
    got = selected_nll(params.theta, records, ALPHA, (True, False, False))[0]
    assert got == pytest.approx(exact_position_nll(params, records), rel=1e-12, abs=0.0)


# --------------------------------------------------------------------------
# the fit on numpy arrays, as written before the pass and the Adam loop ran
# on Python floats: the reference for their bits
# --------------------------------------------------------------------------


def reference_runs(keys):
    n = keys.shape[1]
    if (keys == keys[:, :1]).all():
        return slice(None), [0, n]
    order = np.lexsort(keys)
    ks = keys[:, order]
    return order, [0, *(np.flatnonzero((ks[:, 1:] != ks[:, :-1]).any(axis=0)) + 1).tolist(), n]


def reference_precompute(records, alpha):
    rows = np.array([r._row for r in records])
    n = len(rows)
    z = np.empty((n, 6))
    np.subtract(rows[:, _Row.p], rows[:, _Row.mu0], out=z[:, 0:2])
    np.subtract(rows[:, _Row.p], rows[:, _Row.obs], out=z[:, 2:4])
    np.subtract(rows[:, _Row.obs], rows[:, _Row.mu0], out=z[:, 4:6])
    order, cuts = reference_runs(rows[:, _Row.sigma0].T)
    s0, z = rows[:, _Row.sigma0][order], z[order]
    groups = []
    for lo, hi in zip(cuts, cuts[1:]):
        q = z[lo:hi].T @ z[lo:hi]
        m = q.reshape(3, 2, 3, 2).transpose(0, 2, 1, 3).reshape(3, 3, 4).tolist()
        groups.append((s0[lo].tolist(), hi - lo, m[0][0], m[0][1], m[1][1], m[0][2], m[1][2]))
    xi0 = rows[:, _Row.xi0]
    idx = np.arange(n)
    peg = rows[:, _Row.peg].astype(int) - 1
    true = rows[:, _Row.hole].astype(int) - 1
    beta = rows[:, _Row.beta] == 1.0
    on_peg = peg == true
    t_peg = np.where(beta, alpha, 1.0 - alpha)
    t_other = np.where(beta, 0.0, 1.0)
    keys = np.empty((4, n))
    keys[0] = np.where(on_peg, t_peg, t_other) * xi0[idx, true]
    keys[1] = t_other * np.where(peg[:, None] == np.arange(xi0.shape[1]), 0.0, xi0).sum(axis=1)
    keys[2] = t_peg * xi0[idx, peg]
    keys[3] = np.where(on_peg, 0, 2) + rows[:, _Row.o_match]
    order, cuts = reference_runs(keys)
    true_x, tx_other, tx_peg, cell = keys[:, order][:, cuts[:-1]]
    if not np.all(tx_peg + tx_other > 0.0):
        raise DegenerateEvidenceError(
            "a record's outcome has zero probability under its type prior"
        )
    cell = cell.astype(int)
    o_match = cell % 2
    col = np.arange(cell.size)
    tx = np.zeros((4, cell.size))
    tx[o_match, col] = tx_peg
    tx[2 + o_match, col] = tx_other
    tx_true = np.zeros((4, cell.size))
    tx_true[cell, col] = true_x
    cells = (cell == np.arange(4)[:, None]).astype(float)
    weight = np.diff(cuts).astype(float)
    return _Precomputed(n=n, groups=tuple(groups), tx=tx, tx_true=tx_true,
                        cells=cells, weight=weight, count=cells @ weight)


def _mul(x: tuple, y: tuple) -> tuple:
    """Product of two 2x2 matrices given as entry tuples."""
    x00, x01, x10, x11 = x
    y00, y01, y10, y11 = y
    return (x00 * y00 + x01 * y10, x00 * y01 + x01 * y11,
            x10 * y00 + x11 * y10, x10 * y01 + x11 * y11)


def _t(x: tuple) -> tuple:
    """Transpose of a 2x2 matrix given as an entry tuple."""
    return x[0], x[2], x[1], x[3]


def _add(*xs: tuple) -> tuple:
    """Sum of 2x2 matrices given as entry tuples."""
    return tuple(map(sum, zip(*xs)))


REFERENCE_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])


def reference_value_and_grad(theta, pre):
    params = LearnedParams(theta)
    grads = np.zeros((3, 5))
    r = tuple(params.position_cov.ravel().tolist())
    loss_pos = g00 = g11 = gx = 0.0
    for s0, count, see, sef, sff, seh, sfh in pre.groups:
        a, k, sigma1 = kalman_correction(s0, r)
        m, det1 = _inv(sigma1)
        u = _mul(r, a)
        cross = _mul(_mul(u, sef), _t(k))
        dd = _add(_mul(_mul(u, see), _t(u)), cross, _t(cross), _mul(_mul(k, sff), _t(k)))
        dh = _add(_mul(u, seh), _mul(k, sfh))
        p = _mul(a, s0)
        pm = _mul(p, m)
        g = [0.5 * count * x + y - 0.5 * w for x, y, w in zip(
            _mul(pm, _t(p)), _mul(_mul(pm, dh), _t(a)), _mul(_mul(pm, dd), _t(pm)))]
        loss_pos += 0.5 * count * math.log(det1) + 0.5 * (
            m[0] * dd[0] + m[1] * dd[2] + m[2] * dd[1] + m[3] * dd[3])
        g00 += g[0]
        g11 += g[3]
        gx += g[1] + g[2]
    (ea, _), (b, ec) = params.chol.tolist()
    grads[0, :3] = (2.0 * ea * ea * g00 + ea * b * gx, ea * gx + 2.0 * b * g11,
                    2.0 * ec * ec * g11)
    tpr, fpr = params.tpr, params.fpr
    h = np.array([1.0 - tpr, tpr, 1.0 - fpr, fpr])
    eta = h @ pre.tx
    xi1_true = h @ pre.tx_true
    xi1_true /= eta
    active = (xi1_true >= LOG_FLOOR) * pre.weight
    loss_type = -(pre.weight @ np.log(np.maximum(xi1_true, LOG_FLOOR)))
    loss_match = -(pre.count * np.log(np.maximum(h, LOG_FLOOR))).sum()
    dlog_h = REFERENCE_SIGN / h
    d_type = REFERENCE_SIGN * (pre.tx @ (active / eta)) - (pre.cells @ active) * dlog_h
    d_match = -pre.count * dlog_h
    scale = 1.0 - 2.0 * MATCH_PROB_EPS
    st, sf = _sigmoid(theta[3]), _sigmoid(theta[4])
    chain = np.array([scale * st * (1.0 - st), scale * sf * (1.0 - sf)])
    grads[1, 3:] = chain * d_type.reshape(2, 2).sum(axis=1)
    grads[2, 3:] = chain * d_match.reshape(2, 2).sum(axis=1)
    return np.array([loss_pos, loss_type, loss_match]) / pre.n, grads / pre.n


def reference_mean_loss_and_grad(theta, pre):
    losses, grads = reference_value_and_grad(theta, pre)
    return float(losses.sum()), grads.sum(axis=0)


def reference_fit(records, init, lr, epochs, alpha, history_out):
    pre = reference_precompute(records, alpha)
    theta = init.theta.copy()
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m = np.zeros(5)
    v = np.zeros(5)
    initial_loss, g = reference_mean_loss_and_grad(theta, pre)
    bound = 10.0 * max(abs(initial_loss), 1.0)
    for epoch in range(1, epochs + 1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** epoch)
        v_hat = v / (1 - beta2 ** epoch)
        step = lr * 0.5 * (1.0 + math.cos(math.pi * (epoch - 1) / epochs))
        theta = theta - step * m_hat / (np.sqrt(v_hat) + eps)
        if not np.all(np.isfinite(theta)) or np.max(np.abs(theta[:3])) > 150.0:
            raise OptimizationFailureError(
                f"parameters diverged at epoch {epoch} (|theta| too large)"
            )
        loss, g = reference_mean_loss_and_grad(theta, pre)
        history_out.append(loss)
        if not np.isfinite(loss) or loss > bound:
            raise OptimizationFailureError(
                f"loss diverged at epoch {epoch}: {loss:.3g} vs initial {initial_loss:.3g}"
            )
    return LearnedParams(theta)


def fit_outcome(fit, records, init, lr, epochs, alpha):
    """The bytes of the loss history, and those of the returned theta or
    the failure's type and message."""
    history: list = []
    try:
        with np.errstate(all="ignore"):
            theta = fit(records, init=init, lr=lr, epochs=epochs, alpha=alpha,
                        history_out=history).theta
    except BeliefFitError as exc:
        return np.array(history).tobytes(), type(exc), str(exc)
    return np.array(history).tobytes(), theta.tobytes()


class TestNumpyReference:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_fit_is_bitwise_the_numpy_loop(self, data):
        n_type_priors = data.draw(st.sampled_from([None, 2]))
        params, alpha, records = data.draw(fused_cases(
            max_records=24, n_priors=3, n_type_priors=n_type_priors, max_types=9))
        lr = data.draw(st.floats(1e-4, 0.05))
        epochs = data.draw(st.integers(1, 60))
        for got, expected in zip(value_and_grad(params.theta, _precompute(records, alpha)),
                                 reference_value_and_grad(params.theta,
                                                          reference_precompute(records, alpha))):
            assert got.tobytes() == expected.tobytes()
        assert (fit_outcome(fit_parameters, records, params, lr, epochs, alpha)
                == fit_outcome(reference_fit, records, params, lr, epochs, alpha))

    @pytest.mark.parametrize("lr, problem", [(200.0, "parameters diverged"),
                                             (3.0, "loss diverged")])
    def test_divergence_is_the_numpy_loop_s(self, lr, problem):
        rng = derive_rng(7, 20)
        records = [make_record(rng, matched=bool(i % 2)) for i in range(6)]
        init = LearnedParams.from_values(1e-4 * np.eye(2), tpr=0.75, fpr=0.25)
        got = fit_outcome(fit_parameters, records, init, lr, 400, ALPHA)
        assert got == fit_outcome(reference_fit, records, init, lr, 400, ALPHA)
        assert got[1] is OptimizationFailureError and problem in got[2]


class TestRecordValidation:
    @pytest.mark.parametrize(
        "sigma0",
        [
            [[1e-4, 1e-5], [0.0, 1e-4]],     # not symmetric
            [[1e-4, 0.0], [0.0, -1e-6]],     # negative eigenvalue
            [[1e-4, 1e-4], [1e-4, 1e-4]],    # singular
            np.zeros((2, 2)),
            [[np.nan, 0.0], [0.0, 1e-4]],
            [[np.inf, 0.0], [0.0, 1e-4]],
        ],
    )
    def test_sigma0_must_be_spd(self, sigma0):
        record = make_record(derive_rng(9, 20))
        with pytest.raises(InvalidInputError, match="symmetric positive definite"):
            rebuilt(record, sigma0=sigma0)

    @pytest.mark.parametrize(
        "xi0",
        [
            [0.5, 0.5, 0.5],     # sums to 1.5
            [0.2, 0.2, 0.2],     # sums to 0.6
            [1.2, -0.1, -0.1],   # sums to 1, leaves the simplex
            [np.nan, 0.5, 0.5],
        ],
    )
    def test_xi0_must_lie_on_simplex(self, xi0):
        record = make_record(derive_rng(9, 20))
        with pytest.raises(InvalidInputError, match="simplex"):
            rebuilt(record, xi0=xi0)

    @pytest.mark.parametrize("field", ["position", "mu0", "obs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_vectors_must_be_finite(self, field, bad):
        record = make_record(derive_rng(9, 20))
        for value in ([bad, 0.0], [0.0, bad]):
            with pytest.raises(InvalidInputError, match=f"{field} must be a finite 2-vector"):
                rebuilt(record, **{field: value})

    @pytest.mark.parametrize("field", ["position", "mu0", "obs"])
    def test_vectors_must_be_2_vectors(self, field):
        record = make_record(derive_rng(9, 20))
        for value in ([0.0, 0.0, 0.0], ("a", 0.0)):
            with pytest.raises(InvalidInputError, match=f"{field} must be a finite 2-vector"):
                rebuilt(record, **{field: value})

    @pytest.mark.parametrize("prior", [{"sigma0": [["a", 0.0], [0.0, 1e-4]]},
                                       {"xi0": [[0.5, 0.5], [1.0]]}])
    def test_initial_beliefs_must_be_numbers(self, prior):
        record = make_record(derive_rng(9, 20))
        with pytest.raises(InvalidInputError, match="^initial beliefs must be arrays of numbers$"):
            rebuilt(record, **prior)

    @pytest.mark.parametrize("types", [{"peg_type": 4}, {"peg_type": 0},
                                       {"hole_type": 4}, {"hole_type": 0}])
    def test_types_must_be_in_range(self, types):
        record = make_record(derive_rng(9, 20), n_types=3)
        with pytest.raises(InvalidInputError, match="types out of range"):
            rebuilt(record, **types)

    @pytest.mark.parametrize("types", [{"peg_type": 1.5}, {"hole_type": True},
                                       {"peg_type": 2.0}, {"hole_type": np.True_}])
    def test_types_must_be_integers(self, types):
        # a row would store 1.5 or 1.0 and read back as type 1
        record = make_record(derive_rng(9, 20), n_types=3)
        with pytest.raises(InvalidInputError, match="^types must be integers$"):
            rebuilt(record, **types)

    def test_numpy_integer_types_are_accepted(self):
        record = rebuilt(make_record(derive_rng(9, 20), n_types=3),
                         peg_type=np.int64(3), hole_type=np.int32(2))
        assert (record.peg_type, record.hole_type) == (3, 2)
        assert type(record.peg_type) is int and type(record.hole_type) is int

    @pytest.mark.parametrize("field", ["position", "mu0", "obs", "xi0", "sigma0"])
    def test_vectors_are_read_only(self, field):
        # an anisotropic prior, so that flipping it moves its entries
        record = rebuilt(make_record(derive_rng(9, 20)), sigma0=[[2e-4, 1e-5], [1e-5, 1e-4]])
        with pytest.raises(ValueError, match="read-only"):
            getattr(record, field)[0] = 0.5
        moved = rebuilt(record, **{field: np.flip(getattr(record, field))})
        assert np.array_equal(getattr(moved, field), np.flip(getattr(record, field)))

    @pytest.mark.parametrize("name", [*RECORD_FIELDS, "_row", "extra"])
    def test_attributes_cannot_be_set_or_deleted(self, name):
        record = make_record(derive_rng(9, 20))
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)

    def test_record_does_not_follow_the_callers_sigma0(self):
        # the loss reads the record's row, so its `sigma0` must not be an
        # array that the caller can still write into
        sigma0 = 1e-4 * np.eye(2)
        rng = derive_rng(9, 21)
        records = [rebuilt(make_record(rng, matched=bool(i % 2)), sigma0=sigma0) for i in range(4)]
        params = LearnedParams.from_values(5e-5 * np.eye(2), 0.8, 0.2)
        before = batch_nll(params, records, ALPHA)
        sigma0[0, 0] = 5.0
        for record in records:
            assert record.sigma0.tolist() == [[1e-4, 0.0], [0.0, 1e-4]]
        assert batch_nll(params, records, ALPHA) == before

    def test_pickled_and_copied_records_keep_a_read_only_row(self):
        record = make_record(derive_rng(9, 20))
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                     copy.deepcopy(record)):
            assert type(twin) is InteractionRecord
            assert twin._row.tobytes() == record._row.tobytes()
            assert not twin._row.flags.writeable
            assert np.shares_memory(twin.position, twin._row)

    def test_tiny_spd_prior_accepted(self):
        record = make_record(derive_rng(9, 20), sigma0_scale=1e-200)
        assert record.sigma0[0, 0] == 1e-200

    def test_comparison_returns_a_bool(self):
        # array fields have no single truth value, so records compare by identity
        record = make_record(derive_rng(9, 20))
        twin = rebuilt(record)
        assert (record == twin) is False and (record != twin) is True
        assert (record == record) is True


class TestOracles:
    def test_covariance_known_four_point_example(self):
        a = 0.003
        obs = np.array([[a, 0.0], [-a, 0.0], [0.0, a], [0.0, -a]])
        truth = np.zeros((4, 2))
        cov = mle_covariance_oracle(obs, truth)
        assert np.allclose(cov, np.diag([2 * a**2 / 3, 2 * a**2 / 3]))

    def test_covariance_recovers_noise_law(self):
        rng = derive_rng(8, 20)
        r_true = np.array([[6.4e-5, 1.5e-5], [1.5e-5, 4.0e-5]])
        chol = np.linalg.cholesky(r_true)
        truth = rng.uniform(-0.1, 0.1, (10_000, 2))
        obs = truth + (chol @ rng.standard_normal((2, 10_000))).T
        cov = mle_covariance_oracle(obs, truth)
        assert np.linalg.norm(cov - r_true) / np.linalg.norm(r_true) <= 0.10

    def test_covariance_zero_residuals_warns(self):
        obs = np.zeros((5, 2))
        with pytest.warns(DegenerateOracleWarning):
            cov = mle_covariance_oracle(obs, obs)
        assert np.allclose(cov, 0.0)

    def test_covariance_needs_three_samples(self):
        with pytest.raises(DegenerateOracleError):
            mle_covariance_oracle(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_confusion_counting(self):
        samples = [(True, True)] * 90 + [(True, False)] * 10 + [(False, False)] * 50
        tpr, fpr = mle_confusion_oracle(samples)
        assert tpr == pytest.approx(0.9)
        assert fpr == pytest.approx(1e-6)

    def test_confusion_perfect_sensor_clipped(self):
        samples = [(True, True)] * 10 + [(False, False)] * 10
        tpr, fpr = mle_confusion_oracle(samples)
        assert tpr == pytest.approx(1.0 - 1e-6)
        assert fpr == pytest.approx(1e-6)

    def test_confusion_missing_class(self):
        with pytest.raises(DegenerateOracleError):
            mle_confusion_oracle([(True, True)] * 5)


class TestDataset:
    CFG = EnvConfig()

    def test_class_balance(self):
        rng = derive_rng(9, 20)
        for n, expected in ((2, 1), (3, 2), (60, 30)):
            records = generate_dataset(self.CFG, SensorModel(), n, rng, SPIRAL)
            matched = sum(1 for r in records if r.peg_type == r.hole_type)
            assert matched == expected
            assert len(records) == n

    def test_count_follows_the_integer_rule(self):
        # a whole float is its integer; a fraction or a bool names the count
        four = generate_dataset(self.CFG, SensorModel(), 4, derive_rng(12, 20), SPIRAL)
        whole = generate_dataset(self.CFG, SensorModel(), 4.0, derive_rng(12, 20), SPIRAL)
        assert whole._rows.tobytes() == four._rows.tobytes()
        for bad in (2.5, True):
            with pytest.raises(InvalidInputError) as raised:
                generate_dataset(self.CFG, SensorModel(), bad, derive_rng(12, 20), SPIRAL)
            assert str(raised.value) == f"n_interactions must be an integer, got {bad!r}"
        with pytest.raises(InvalidInputError) as raised:
            generate_dataset(self.CFG, SensorModel(), 1, derive_rng(12, 20), SPIRAL)
        assert str(raised.value) == "n_interactions must be at least 2, got 1"

    def test_determinism(self):
        a = generate_dataset(self.CFG, SensorModel(), 10, derive_rng(10, 20), SPIRAL)
        b = generate_dataset(self.CFG, SensorModel(), 10, derive_rng(10, 20), SPIRAL)
        for ra, rb in zip(a, b):
            assert ra.peg_type == rb.peg_type and ra.beta == rb.beta
            assert np.array_equal(ra.obs, rb.obs)
            assert np.array_equal(ra.xi0, rb.xi0)

    @staticmethod
    def held_bytes(make):
        """What `make()` returns, and the bytes still allocated once it has
        returned, by tracemalloc."""
        gc.collect()
        tracemalloc.start()
        try:
            made = make()
            gc.collect()
            return made, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def test_records_hold_little_beyond_their_rows(self, tmp_path):
        # a record at C = 3 packs into a 17-entry row of 136 bytes, and a
        # generated or loaded dataset holds its block and little else
        assert self.CFG.n_types == 3
        generate_dataset(self.CFG, SensorModel(), 2, derive_rng(11, 20), SPIRAL)  # warm caches
        records, held = self.held_bytes(
            lambda: generate_dataset(self.CFG, SensorModel(), 2000, derive_rng(11, 21), SPIRAL))
        assert records[0]._row.nbytes == 136
        assert held <= 1.1 * 136 * len(records)

        path = tmp_path / "data.csv"
        save_dataset(records, path)
        load_dataset(path, self.CFG)  # warm caches
        loaded, held = self.held_bytes(lambda: load_dataset(path, self.CFG))
        assert len(loaded) == 2000 and loaded[-1]._row.nbytes == 136
        assert held <= 1.1 * 136 * len(loaded)

    def test_workspace_too_small_for_placement(self):
        cfg = dataclasses.replace(
            self.CFG, workspace_min=(-0.03, -0.03), workspace_max=(0.03, 0.03)
        )
        with pytest.raises(ConfigurationError, match="placement margin"):
            generate_dataset(cfg, SensorModel(), 4, derive_rng(0, 20), SPIRAL)

    def test_requires_two_interactions(self):
        with pytest.raises(InvalidInputError):
            generate_dataset(self.CFG, SensorModel(), 1, derive_rng(0, 20), SPIRAL)

    def test_csv_round_trip(self, tmp_path):
        rng = derive_rng(11, 20)
        records = generate_dataset(self.CFG, SensorModel(), 6, rng, SPIRAL)
        path = tmp_path / "data.csv"
        save_dataset(records, path)
        loaded = load_dataset(path, self.CFG)
        assert len(loaded) == len(records)
        for orig, back in zip(records, loaded):
            assert back.peg_type == orig.peg_type
            assert back.hole_type == orig.hole_type
            assert np.array_equal(back.position, orig.position)
            assert np.array_equal(back.obs, orig.obs)
            assert back.o_match == orig.o_match and back.beta == orig.beta
            # initial type prior is not serialized; the loader substitutes uniform
            assert np.allclose(back.xi0, 1.0 / self.CFG.n_types)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_csv_round_trip_is_bit_exact(self, tmp_path_factory, data):
        n_types = self.CFG.n_types
        finite = st.floats(allow_nan=False, allow_infinity=False)
        records = []
        for _ in range(data.draw(st.integers(1, 8))):
            position, mu0, obs = (np.array(data.draw(st.tuples(finite, finite)))
                                  for _ in range(3))
            records.append(InteractionRecord(
                peg_type=data.draw(st.integers(1, n_types)),
                hole_type=data.draw(st.integers(1, n_types)),
                position=position, mu0=mu0, sigma0=np.eye(2), xi0=np.full(n_types, 1 / n_types),
                obs=obs, o_match=data.draw(st.booleans()), beta=data.draw(st.booleans()),
            ))
        path = tmp_path_factory.mktemp("dataset") / "data.csv"
        save_dataset(records, path)
        loaded = load_dataset(path, self.CFG)
        assert len(loaded) == len(records)
        for orig, back in zip(records, loaded):
            for field in ("position", "mu0", "obs"):
                assert getattr(back, field).tobytes() == getattr(orig, field).tobytes()
            assert (back.peg_type, back.hole_type, back.o_match, back.beta) == (
                orig.peg_type, orig.hole_type, orig.o_match, orig.beta)

    @staticmethod
    def save_row_by_row(records, path):
        """`save_dataset` as it was written first, each record converted
        from its whole row: the reference for the column-wise writer."""
        peg, hole, vectors, match, beta = _Row.peg, _Row.hole, slice(6), _Row.o_match, _Row.beta
        write_csv(
            path, DATASET_COLUMNS,
            ([int(v[peg]), int(v[hole]), *v[vectors], int(v[match]), int(v[beta])]
             for v in (r._row.tolist() for r in records)),
        )

    def test_save_writes_what_the_row_by_row_writer_wrote(self, tmp_path):
        generated = generate_dataset(self.CFG, SensorModel(), 40, derive_rng(12, 20), SPIRAL)
        save_dataset(generated, tmp_path / "generated.csv")
        loaded = load_dataset(tmp_path / "generated.csv", self.CFG)
        rng = np.random.default_rng(12)
        made = [make_record(rng, n_types=3, matched=bool(c % 2), beta=c == 4)
                for c in (2, 5, 3, 8, 4)] + [*generated[:3], *loaded[-3:]]
        for name, records in (("generated", generated), ("loaded", loaded),
                              ("made", made), ("empty", [])):
            save_dataset(records, tmp_path / f"{name}.csv")
            self.save_row_by_row(records, tmp_path / f"{name}_ref.csv")
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}_ref.csv").read_bytes()), name
        # records of different type counts make no one block: the fit has
        # always refused them, and so does the writer
        mixed = [make_record(rng, n_types=c) for c in (2, 5, 3, 8, 4)]
        with pytest.raises(InvalidInputError, match="^records must share the same number"):
            save_dataset(mixed, tmp_path / "mixed.csv")
        assert not (tmp_path / "mixed.csv").exists()

    @pytest.fixture(scope="class")
    def datasets(self, tmp_path_factory):
        """A generated dataset of 60 records and the dataset loaded from
        its CSV."""
        generated = generate_dataset(self.CFG, SensorModel(), 60, derive_rng(13, 20), SPIRAL)
        path = tmp_path_factory.mktemp("dataset") / "data.csv"
        save_dataset(generated, path)
        return {"generated": generated, "loaded": load_dataset(path, self.CFG)}

    @pytest.mark.parametrize("source", ["generated", "loaded"])
    def test_dataset_fits_as_its_list_of_records(self, datasets, source):
        dataset = datasets[source]
        records = list(dataset)
        assert type(dataset) is Dataset and type(records[0]) is InteractionRecord
        init = LearnedParams.from_values(4e-4 * np.eye(2), tpr=0.6, fpr=0.4)
        for params in (init, LearnedParams(np.array([-4.0, 1e-3, -4.5, 1.0, -1.0]))):
            assert batch_nll(params, dataset, ALPHA) == batch_nll(params, records, ALPHA)
            assert (grad_nll(params, dataset, ALPHA).tobytes()
                    == grad_nll(params, records, ALPHA).tobytes())
        fits = []
        for batch in (dataset, records):
            history = []
            theta = fit_parameters(batch, init, lr=0.05, epochs=60, alpha=ALPHA,
                                   history_out=history).theta
            fits.append((theta.tobytes(), history))
        assert fits[0] == fits[1]

    # each function that takes a batch, as the bytes it makes of `records`
    BATCH_FUNCTIONS = {
        "fit_parameters": lambda records, path: fit_parameters(
            records, LearnedParams.from_values(4e-4 * np.eye(2), tpr=0.6, fpr=0.4), lr=0.05,
            epochs=20, alpha=ALPHA).theta.tobytes(),
        "batch_nll": lambda records, path: batch_nll(
            LearnedParams(np.array([-4.0, 1e-3, -4.5, 1.0, -1.0])), records, ALPHA).hex(),
        "grad_nll": lambda records, path: grad_nll(
            LearnedParams(np.array([-4.0, 1e-3, -4.5, 1.0, -1.0])), records, ALPHA).tobytes(),
        "save_dataset": lambda records, path: (save_dataset(records, path), path.read_bytes()),
    }

    @pytest.mark.parametrize("function", list(BATCH_FUNCTIONS))
    def test_batch_functions_read_records_through_dataset(self, datasets, function, tmp_path):
        # `Dataset(records)` is each function's one door: a dataset, its list
        # of records and the dataset of that list give the same bits, and
        # what the door refuses, each function refuses with its error
        call = self.BATCH_FUNCTIONS[function]
        dataset = datasets["loaded"]
        made = [call(batch, tmp_path / f"{i}.csv")
                for i, batch in enumerate((dataset, list(dataset), Dataset(list(dataset))))]
        assert made[0] == made[1] == made[2]
        rng = np.random.default_rng(36)
        zero_hole = dataset._rows[:4].copy()
        zero_hole[:, _Row.hole] = 0  # index -1 would read the last class
        for bad, message in (
                (np.zeros((3, _Row.xi0.start + 3)), "a dataset holds InteractionRecords only"),
                (zero_hole, "a dataset holds InteractionRecords only"),
                ([*dataset[:2], 1], "a dataset holds InteractionRecords only"),
                ([1, 2], "a dataset holds InteractionRecords only"),
                (7, "a dataset holds InteractionRecords only"),
                ([make_record(rng, n_types=2), make_record(rng, n_types=3)],
                 "records must share the same number of types")):
            for make in (Dataset, lambda records: call(records, tmp_path / "bad.csv")):
                with pytest.raises(InvalidInputError) as raised:
                    make(bad)
                assert str(raised.value) == message
        assert not (tmp_path / "bad.csv").exists()

    def test_dataset_of_a_dataset_is_that_dataset(self, datasets):
        dataset = datasets["generated"]
        assert Dataset(dataset) is dataset
        gathered = Dataset(iter(dataset))
        assert type(gathered) is Dataset and not gathered._rows.flags.writeable
        assert gathered._rows.tobytes() == dataset._rows.tobytes()
        assert Dataset([])._rows.shape == (0, _Row.xi0.start)

    @pytest.mark.parametrize("source", ["generated", "loaded"])
    def test_dataset_saves_as_its_list_of_records(self, datasets, source, tmp_path):
        save_dataset(datasets[source], tmp_path / "block.csv")
        save_dataset(list(datasets[source]), tmp_path / "list.csv")
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()

    @pytest.mark.parametrize("source", ["generated", "loaded"])
    def test_indexing_and_iteration_give_each_rows_record(self, datasets, source):
        dataset = datasets[source]
        rows = dataset._rows
        assert len(dataset) == len(rows) == 60 and not rows.flags.writeable
        iterated = list(dataset)
        for i in range(-len(dataset), len(dataset)):
            record = dataset[i]
            assert type(record) is InteractionRecord
            assert np.shares_memory(record._row, rows)
            assert record._row.tobytes() == rows[i].tobytes() == iterated[i]._row.tobytes()
        for index in (slice(None), slice(3, 9), slice(-5, None), slice(None, None, -7),
                      slice(50, 10)):
            part = dataset[index]
            assert type(part) is Dataset
            assert not len(part) or np.shares_memory(part._rows, rows)
            assert [r._row.tobytes() for r in part] == [r._row.tobytes() for r in iterated[index]]
        for index in (60, -61, 1.0, [0, 1]):
            with pytest.raises((IndexError, TypeError)):
                dataset[index]
        assert dataset[np.int64(2)]._row.tobytes() == rows[2].tobytes()

    @pytest.mark.parametrize("source", ["generated", "loaded"])
    def test_dataset_columns_are_the_records_fields(self, datasets, source):
        dataset = datasets[source]
        records = list(dataset)
        for name in ("position", "mu0", "obs", "xi0", "sigma0", "peg_type", "hole_type",
                     "o_match", "beta"):
            column = getattr(dataset, name)
            expected = np.array([getattr(r, name) for r in records])
            assert column.dtype == expected.dtype and np.array_equal(column, expected), name

    def test_pickled_and_copied_datasets_keep_a_read_only_block(self, datasets):
        dataset = datasets["generated"]
        for twin in (pickle.loads(pickle.dumps(dataset)), copy.copy(dataset),
                     copy.deepcopy(dataset)):
            assert type(twin) is Dataset
            assert twin._rows.tobytes() == dataset._rows.tobytes()
            assert not twin._rows.flags.writeable

    def test_header_only_file_loads_as_an_empty_dataset(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, DATASET_COLUMNS, [])
        loaded = load_dataset(path, self.CFG)
        assert type(loaded) is Dataset and len(loaded) == 0 and list(loaded) == []
        assert loaded._rows.shape == (0, _Row.xi0.start + self.CFG.n_types)
        with pytest.raises(InvalidInputError, match="non-empty"):
            batch_nll(LearnedParams(np.zeros(5)), loaded, ALPHA)

    def test_every_block_of_a_long_file_is_loaded(self, tmp_path):
        # lines are read CSV_BLOCK_ROWS at a time: the blocks join in order
        generated = generate_dataset(self.CFG, SensorModel(), 2 * CSV_BLOCK_ROWS + 3,
                                     derive_rng(14, 20), SPIRAL)
        save_dataset(generated, tmp_path / "data.csv")
        loaded = load_dataset(tmp_path / "data.csv", self.CFG)
        assert loaded._rows[:, :_Row.xi0.start].tobytes() == (
            generated._rows[:, :_Row.xi0.start].tobytes())
        assert np.array_equal(loaded.xi0, np.full((len(generated), 3), 1 / 3))

    @pytest.mark.parametrize("later", [b"1,1,0,0,0,0,0,0,1\n", b"1,1,0,\x00,0,0,0,0,1,1\n",
                                       b"1,1,0,0,0,0,0,0,1,2\n"],
                             ids=["short_row", "nul", "flag"])
    @pytest.mark.parametrize("bad", [CSV_BLOCK_ROWS + 1, CSV_BLOCK_ROWS + 2, 2 * CSV_BLOCK_ROWS])
    def test_a_long_file_names_its_first_bad_line(self, tmp_path, bad, later):
        # line `bad` holds a type out of range, a later line another fault;
        # the error names line `bad` whichever block either falls in
        generated = generate_dataset(self.CFG, SensorModel(), 2 * CSV_BLOCK_ROWS + 3,
                                     derive_rng(15, 20), SPIRAL)
        path = tmp_path / "data.csv"
        save_dataset(generated, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[bad - 1] = b"4" + lines[bad - 1][1:]
        lines[bad + 1] = later
        path.write_bytes(b"".join(lines))
        with pytest.raises(InvalidInputError) as exc:
            load_dataset(path, self.CFG)
        assert str(exc.value) == f"{path} line {bad}: types out of range"

    @pytest.mark.parametrize("bad", [None, 4])
    def test_a_pipe_loads_as_its_file_and_names_its_first_bad_line(self, tmp_path, bad):
        # a pipe can be read only once: it loads a line at a time, with the
        # file's rows and the file's error
        generated = generate_dataset(self.CFG, SensorModel(), 6, derive_rng(16, 20), SPIRAL)
        path, fifo = tmp_path / "data.csv", tmp_path / "pipe"
        save_dataset(generated, path)
        if bad:
            lines = path.read_bytes().splitlines(keepends=True)
            lines[bad - 1] = b"4" + lines[bad - 1][1:]
            path.write_bytes(b"".join(lines))
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        try:
            if bad:
                with pytest.raises(InvalidInputError) as exc:
                    load_dataset(fifo, self.CFG)
                assert str(exc.value) == f"{fifo} line {bad}: types out of range"
            else:
                loaded = load_dataset(fifo, self.CFG)
                assert type(loaded) is Dataset
                assert loaded._rows.tobytes() == load_dataset(path, self.CFG)._rows.tobytes()
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_a_rejected_file_is_opened_once(self, tmp_path, monkeypatch):
        # the error names the first bad line from the one read
        path = tmp_path / "data.csv"
        write_csv(path, DATASET_COLUMNS, [[1, 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1, 0],
                                          [4, 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1, 0]])
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(runfiles, "open", counting_open, raising=False)
        with pytest.raises(InvalidInputError) as exc:
            load_dataset(path, self.CFG)
        assert str(exc.value) == f"{path} line 3: types out of range"
        assert opened == [path]

    @pytest.mark.parametrize("source", ["file", "pipe"])
    @pytest.mark.parametrize("bad", [None, 6, CSV_BLOCK_ROWS + 6],
                             ids=["none", "same_block", "later_block"])
    def test_a_quoted_line_break_moves_the_named_line(self, tmp_path, pipe_of, source, bad):
        # row 2's p_x cell, quoted, holds "0.1\n", which float reads as 0.1:
        # the row ends a line lower, and so does each row after it, in its
        # block and in the next
        rows = [[1, 1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1, 0] for _ in range(CSV_BLOCK_ROWS + 9)]
        rows[1][2] = "0.1\n"
        if bad:
            rows[bad - 1][0] = 4
        path = tmp_path / "data.csv"
        write_csv(path, DATASET_COLUMNS, rows)
        assert b'"0.1\n"' in path.read_bytes()
        read = path if source == "file" else pipe_of(path.read_bytes())
        if bad:
            with pytest.raises(InvalidInputError) as exc:
                load_dataset(read, self.CFG)
            assert str(exc.value) == f"{read} line {bad + 2}: types out of range"
        else:
            loaded = load_dataset(read, self.CFG)
            assert len(loaded) == len(rows) and loaded.position[:3, 0].tolist() == [0.0, 0.1, 0.0]

    @pytest.mark.parametrize(
        "body, problem",
        [
            (b"", "line 0: unexpected dataset columns"),
            (b"peg_type,hole_type\n", "line 1: unexpected dataset columns"),
            (b"peg_type,hole_type,p_x,p_y,mu0_x,mu0_y,obs_x,obs_y,o_match,beta\n"
             b"1,1,0,0,0,0,0,0,1\n", "line 2: expected 10 cells, got 9"),
            (b"peg_type,hole_type,p_x,p_y,mu0_x,mu0_y,obs_x,obs_y,o_match,beta\n"
             b"1,1,0,\xff,0,0,0,0,1,1\n", "cannot decode"),
        ],
        ids=["empty", "header", "short_row", "not_text"],
    )
    def test_malformed_file_rejected(self, tmp_path, body, problem):
        path = tmp_path / "data.csv"
        path.write_bytes(body)
        with pytest.raises(InvalidInputError, match=problem):
            load_dataset(path, self.CFG)
