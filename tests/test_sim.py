import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from belieffit import (
    EnvConfig,
    HoleGroundTruth,
    PegType,
    RolloutOutcome,
    SpiralParams,
    calibrate_alpha,
    init_beliefs,
    rollout_low_level,
    rollout_random_actions,
    spawn_world,
    tune_capture_radius,
    vision_detect,
)
from belieffit.seeding import derive_rng
from belieffit.sim import (
    _drive_offsets,
    capture_radius_bound,
    min_hole_separation,
    placement_box,
    wiggle_rows,
)
from belieffit.errors import ConfigurationError, InvalidInputError


CFG = EnvConfig()
SPIRAL = SpiralParams()
WORKSPACE = (CFG.workspace_min, CFG.workspace_max)


class TestSpawnWorld:
    def test_counts_and_type_coverage(self):
        world = spawn_world(CFG, derive_rng(0, 1), SPIRAL)
        assert world.n_holes == 5
        types = {h.hole_type for h in world.holes}
        assert types == {1, 2, 3}

    def test_single_hole_world(self):
        cfg = dataclasses.replace(CFG, n_holes=1, n_types=2)
        world = spawn_world(cfg, derive_rng(0, 2), SPIRAL)
        assert world.n_holes == 1
        lo = np.asarray(cfg.workspace_min)
        hi = np.asarray(cfg.workspace_max)
        assert np.all(world.holes[0].position > lo)
        assert np.all(world.holes[0].position < hi)

    def test_determinism(self):
        w1 = spawn_world(CFG, derive_rng(123, 1), SPIRAL)
        w2 = spawn_world(CFG, derive_rng(123, 1), SPIRAL)
        for a, b in zip(w1.holes, w2.holes):
            assert a.hole_type == b.hole_type
            assert np.array_equal(a.position, b.position)

    def test_separation_invariant(self):
        sep = min_hole_separation(CFG, SPIRAL)
        for seed in range(10):
            world = spawn_world(CFG, derive_rng(seed, 1), SPIRAL)
            pos = [h.position for h in world.holes]
            for i in range(len(pos)):
                for j in range(i + 1, len(pos)):
                    assert np.linalg.norm(pos[i] - pos[j]) >= sep

    def test_infeasible_layout_raises(self):
        cfg = dataclasses.replace(
            CFG, n_holes=40, workspace_min=(-0.09, -0.09), workspace_max=(0.09, 0.09)
        )
        with pytest.raises(ConfigurationError):
            spawn_world(cfg, derive_rng(0, 1), SPIRAL)


    def test_placement_box_keeps_spirals_inside(self):
        lo, hi = placement_box(CFG, SPIRAL)
        margin = CFG.detector_error_bound + SPIRAL.r_max
        assert np.allclose(lo, np.asarray(CFG.workspace_min) + margin)
        assert np.allclose(hi, np.asarray(CFG.workspace_max) - margin)

    def test_workspace_too_small_for_placement(self):
        cfg = dataclasses.replace(
            CFG, workspace_min=(-0.03, -0.03), workspace_max=(0.03, 0.03)
        )
        with pytest.raises(ConfigurationError, match="placement margin"):
            spawn_world(cfg, derive_rng(0, 1), SPIRAL)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["r_max", "sigma_wiggle"])
def test_spiral_params_reject_non_finite(field, bad):
    with pytest.raises(ConfigurationError):
        SpiralParams(**{field: bad})


def detect(world, rng):
    """One pass of the detector over the world's holes, as a trial's initial
    beliefs take it."""
    return init_beliefs(world, rng).means


class TestVisionDetect:
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(n=st.integers(1, 8), bound=st.sampled_from([0.0, 0.004, 0.02, 1e3]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_detector_is_rng_uniform_per_hole(self, n, bound, seed):
        # the same values and the same stream as one rng.uniform(-b, b, 2) a hole
        positions = np.random.default_rng(seed + 1).uniform(-0.1, 0.1, (n, 2))
        rng, reference = derive_rng(seed, 2), derive_rng(seed, 2)
        got = vision_detect(positions, bound, rng.random((n, 2)))
        want = np.array([p + reference.uniform(-bound, bound, 2) for p in positions])
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_noiseless_detector(self):
        cfg = dataclasses.replace(CFG, detector_error_bound=0.0)
        world = spawn_world(cfg, derive_rng(5, 1), SPIRAL)
        detections = detect(world, derive_rng(5, 2))
        for det, hole in zip(detections, world.holes):
            assert np.array_equal(det, hole.position)

    def test_error_bound_respected(self):
        world = spawn_world(CFG, derive_rng(6, 1), SPIRAL)
        rng = derive_rng(6, 2)
        for _ in range(200):
            for det, hole in zip(detect(world, rng), world.holes):
                assert np.max(np.abs(det - hole.position)) <= CFG.detector_error_bound

    def test_detection_error_is_centered(self):
        cfg = dataclasses.replace(CFG, n_holes=1)
        world = spawn_world(cfg, derive_rng(7, 1), SPIRAL)
        rng = derive_rng(7, 2)
        n = 10_000
        errs = np.array(
            [detect(world, rng)[0] - world.holes[0].position for _ in range(n)]
        )
        bound = 3.0 * (cfg.detector_error_bound / np.sqrt(3.0)) / np.sqrt(n)
        assert np.all(np.abs(errs.mean(axis=0)) <= bound)


def _spiral_step(j: int, horizon: int, params: SpiralParams) -> np.ndarray:
    """The spiral law, written out apart from the kernel's table: step j's
    open-loop offset lies at radius j r_max / horizon and angle
    2 pi j n_rot / horizon."""
    radius = j * params.r_max / horizon
    angle = 2.0 * math.pi * j * params.n_rot / horizon
    return np.array([radius * math.cos(angle), radius * math.sin(angle)])


class TestSpiralCommand:
    def test_start_of_spiral(self):
        params = SpiralParams(sigma_wiggle=0.0)
        # without wiggle the first command is the bare offset: the tip stays
        # at the estimate
        out = rollout_low_level(
            (0.01, 0.02), PegType(1), HoleGroundTruth(2, (0.0, 0.0)), params, CFG,
            derive_rng(0, 3),
        )
        assert np.allclose(out.trace[0], [0.01, 0.02], atol=1e-15)

    def test_end_of_spiral_two_rotations(self):
        # n_rot turns out to r_max over the horizon: an unmatched rollout's
        # last tip lies one step short of (r_max, 0), ahead of the estimate
        params = SpiralParams(sigma_wiggle=0.0)
        h = CFG.horizon_low
        out = rollout_low_level(
            (0.01, 0.02), PegType(1), HoleGroundTruth(2, (0.0, 0.0)), params, CFG,
            derive_rng(0, 3),
        )
        angle = -2.0 * math.pi * params.n_rot / h
        last = params.r_max * (h - 1) / h * np.array([math.cos(angle), math.sin(angle)])
        assert len(out.trace) == h
        assert np.allclose(out.trace[-1], np.add((0.01, 0.02), last), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("horizon, r_max, n_rot", [
        (1, 0.015, 1), (7, 0.015, 2), (100, 0.015, 2), (150, 0.004, 5), (64, 2.5, 64)])
    def test_drive_table_is_the_law(self, horizon, r_max, n_rot):
        params = SpiralParams(r_max=r_max, n_rot=n_rot)
        table = _drive_offsets(horizon, params, True)
        law = np.array([_spiral_step(j, horizon, params) for j in range(horizon)]).T
        assert table.shape == (2, horizon)
        # np.cos and math.cos may round apart by an ulp
        assert np.allclose(table, law, rtol=0.0, atol=4 * np.finfo(float).eps * r_max)
        pressing = _drive_offsets(horizon, params, False)
        assert pressing.shape == (2, horizon) and not pressing.any()
        for offsets in (table, pressing):
            with pytest.raises(ValueError):
                offsets[0, 0] = 1.0


def _rollout(start, peg_type, hole, *, align=1.0, sigma=None, seed=0):
    params = SPIRAL if sigma is None else dataclasses.replace(SPIRAL, sigma_wiggle=sigma)
    env = dataclasses.replace(CFG, alignment_rate=align)
    return rollout_low_level(start, PegType(peg_type), hole, params, env, derive_rng(seed, 4))


def _reference_rollout(start, hole, params, horizon, rng, *, spiral, cr, align, matched):
    """Step-by-step rollout: each step builds its offset, scales its own
    wiggle and commands the pull back from the current tip to the estimate,
    and the tip is clipped to the workspace.  Returns the tips' xy and the
    insertion step (or None)."""
    aligned = rng.random() < align
    unit = rng.normal(0.0, 1.0, (horizon, 3))[:, :2]  # each step's z normal is unread
    rng.normal(0.0, 1.0, (horizon, 3))  # the discarded half of the rollout's block
    target = np.array(start, dtype=float)
    ee = target.copy()
    path = []
    for j in range(horizon):
        offset = _spiral_step(j, horizon, params) if spiral else np.zeros(2)
        u = offset + params.sigma_wiggle * unit[j] + (target - ee)
        ee = np.clip(ee + u, *WORKSPACE)
        path.append(ee.copy())
        if aligned and matched and np.linalg.norm(ee - hole.position) <= cr:
            return np.array(path), j
    return np.array(path), None


def _distances(trace, point):
    """Each tip's distance to a point, as the position sensor computes it."""
    return np.sqrt(((trace - np.asarray(point)) ** 2).sum(axis=1))


def _assert_matches_reference(out, ref):
    """Outcome and trace length exact; tips within 1e-16 m, the roundoff
    the step loop adds by re-anchoring on the previous tip."""
    path, insertion_step = ref
    assert out.success == (insertion_step is not None)
    assert out.trace.shape == path.shape
    assert np.allclose(out.trace, path, rtol=0.0, atol=1e-16)


class TestRollout:
    HOLE = HoleGroundTruth(hole_type=1, position=(0.0, 0.0))

    @pytest.mark.parametrize("spiral", [True, False])
    def test_matches_step_by_step_reference(self, spiral):
        rollout = rollout_low_level if spiral else rollout_random_actions
        env = dataclasses.replace(CFG, alignment_rate=0.5)
        successes = 0
        for seed in range(12):
            start = (0.004, -0.002) if seed % 2 else (0.0005, 0.001)
            out = rollout(start, PegType(1), self.HOLE, SPIRAL, env, derive_rng(seed, 6))
            ref = _reference_rollout(
                start, self.HOLE, SPIRAL, CFG.horizon_low, derive_rng(seed, 6),
                spiral=spiral, cr=CFG.capture_radius, align=0.5, matched=True,
            )
            _assert_matches_reference(out, ref)
            successes += out.success
        assert 0 < successes < 12

    def test_zero_error_inserts_immediately(self):
        out = _rollout((0.0, 0.0), 1, self.HOLE, sigma=0.0)
        assert out.success
        assert len(out.trace) == 1

    def test_mismatched_peg_never_succeeds(self):
        for seed in range(30):
            out = _rollout((0.0, 0.0), 2, self.HOLE, seed=seed)
            assert not out.success
            assert len(out.trace) == CFG.horizon_low

    def test_out_of_reach_start_fails(self):
        start = (SPIRAL.r_max + CFG.capture_radius + 0.002, 0.0)
        out = _rollout(start, 1, self.HOLE, sigma=0.0)
        assert not out.success

    def test_trace_length_contract(self):
        successes = 0
        for seed in range(20):
            out = _rollout((0.004, 0.003), 1, self.HOLE, align=0.5, seed=seed)
            if out.success:  # the trace ends at its first tip in the disk
                inside = _distances(out.trace, self.HOLE.position) <= CFG.capture_radius
                assert inside[-1] and not inside[:-1].any()
                successes += 1
            else:
                assert len(out.trace) == CFG.horizon_low
        assert 0 < successes < 20

    def test_spiral_radius_law_without_wiggle(self):
        out = _rollout((0.02, 0.02), 2, self.HOLE, sigma=0.0)
        xy = out.trace - np.array([0.02, 0.02])
        radii = np.linalg.norm(xy, axis=1)
        for j, r in enumerate(radii):
            assert r == pytest.approx(j * SPIRAL.r_max / CFG.horizon_low, abs=1e-12)

    def test_determinism(self):
        a = _rollout((0.01, -0.01), 1, self.HOLE, align=0.5, seed=9)
        b = _rollout((0.01, -0.01), 1, self.HOLE, align=0.5, seed=9)
        assert a.success == b.success
        assert len(a.trace) == len(b.trace)
        assert np.array_equal(a.trace, b.trace)

    def test_outcome_consistency_validation(self):
        trace = _rollout((0.0, 0.0), 1, self.HOLE, sigma=0.0).trace
        for bad in (-1e-3, np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                RolloutOutcome(True, trace, bad)

    def test_trace_is_read_only(self):
        out = _rollout((0.004, 0.003), 1, self.HOLE, seed=3)
        assert out.trace.shape[1:] == (2,) and not out.trace.flags.writeable

    def test_workspace_bounds_given_as_lists(self):
        env = dataclasses.replace(
            CFG, workspace_min=[-0.02, -0.02], workspace_max=[0.02, 0.02]
        )
        assert env.workspace_min == (-0.02, -0.02) and hash(env) == hash(
            dataclasses.replace(env, workspace_min=(-0.02, -0.02))
        )
        out = rollout_low_level(
            (0.015, 0.0), PegType(2), self.HOLE, SPIRAL, env, derive_rng(2, 4)
        )
        assert out.trace[:, 0].max() == 0.02  # the spiral reaches the clip


# Start coordinates anywhere, or within 1.5 cm of an edge up to 2 cm past it,
# exercise the clipping; holes within reach of the spiral vary the insertion.
_EDGE = CFG.workspace_max[0]
_COORD = st.one_of(
    st.floats(-_EDGE - 0.02, _EDGE + 0.02),
    st.floats(_EDGE - 0.015, _EDGE + 0.02),
    st.floats(-_EDGE - 0.02, -_EDGE + 0.015),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    spiral=st.booleans(),
    start=st.tuples(_COORD, _COORD),
    hole_offset=st.tuples(*[st.floats(-0.006, 0.006)] * 2),
    matched=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    sigma_wiggle=st.sampled_from([0.0, 1e-4, SPIRAL.sigma_wiggle, 0.005]),
    horizon=st.integers(1, 150),
    align=st.floats(0.05, 1.0),
)
def test_closed_form_matches_step_loop(
    spiral, start, hole_offset, matched, seed, sigma_wiggle, horizon, align
):
    params = dataclasses.replace(SPIRAL, sigma_wiggle=sigma_wiggle)
    env = dataclasses.replace(CFG, horizon_low=horizon, alignment_rate=align)
    hole = HoleGroundTruth(1, np.clip(start, *WORKSPACE) + hole_offset)
    rollout = rollout_low_level if spiral else rollout_random_actions
    out = rollout(
        start, PegType(1 if matched else 2), hole, params, env, derive_rng(seed, 6)
    )
    ref = _reference_rollout(
        start, hole, params, horizon, derive_rng(seed, 6), spiral=spiral,
        cr=CFG.capture_radius, align=align, matched=matched,
    )
    _assert_matches_reference(out, ref)
    # the kernel's closest approach is the one the position sensor finds in the trace
    assert out.closest_approach == _distances(out.trace, hole.position).min()


def _separate_kernel_rollout(start_estimate, peg, hole, spiral, env, rng, sweep):
    """The single rollout as it was written before it became a block of one
    of `rollout_block`: its own array pass on unbatched arrays, the tips in a
    fresh (2, horizon) array."""
    start_estimate = np.asarray(start_estimate, dtype=float)
    horizon = env.horizon_low
    aligned = rng.random() < env.alignment_rate
    normals = wiggle_rows(rng.standard_normal(6 * horizon), horizon)
    tips = np.empty((2, horizon))
    xy = np.multiply(normals, spiral.sigma_wiggle, out=tips)
    xy += _drive_offsets(horizon, spiral, sweep)
    xy += start_estimate[:, None]
    np.maximum(xy, np.array(env.workspace_min)[:, None], out=xy)
    np.minimum(xy, np.array(env.workspace_max)[:, None], out=xy)
    delta = np.subtract(xy, hole.position[:, None])
    delta *= delta
    dx, dy = delta[0, :], delta[1, :]
    distance = np.sqrt(np.add(dx, dy, out=dx), out=dx)
    success = False
    if aligned and peg.value == hole.hole_type:
        first = int((distance <= env.capture_radius).argmax())
        success = bool(distance[first] <= env.capture_radius)
    n = first + 1 if success else horizon
    return RolloutOutcome(success, tips.T[:n], float(distance[:n].min()))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    spiral=st.booleans(),
    start=st.tuples(_COORD, _COORD),
    hole_offset=st.tuples(*[st.floats(-0.006, 0.006)] * 2),
    matched=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    sigma_wiggle=st.sampled_from([0.0, 1e-4, SPIRAL.sigma_wiggle, 0.005]),
    horizon=st.integers(1, 150),
    align=st.floats(0.05, 1.0),
)
def test_block_of_one_matches_separate_kernel(
    spiral, start, hole_offset, matched, seed, sigma_wiggle, horizon, align
):
    params = dataclasses.replace(SPIRAL, sigma_wiggle=sigma_wiggle)
    env = dataclasses.replace(CFG, horizon_low=horizon, alignment_rate=align)
    hole = HoleGroundTruth(1, np.clip(start, *WORKSPACE) + hole_offset)
    peg = PegType(1 if matched else 2)
    rollout = rollout_low_level if spiral else rollout_random_actions
    rng, ref_rng = derive_rng(seed, 6), derive_rng(seed, 6)
    out = rollout(start, peg, hole, params, env, rng)
    ref = _separate_kernel_rollout(start, peg, hole, params, env, ref_rng, spiral)
    assert type(out.success) is bool and out.success == ref.success
    assert out.trace.shape == ref.trace.shape and out.trace.tobytes() == ref.trace.tobytes()
    assert not out.trace.flags.writeable
    assert type(out.closest_approach) is float and out.closest_approach == ref.closest_approach
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestCalibration:
    def test_tiny_capture_radius_never_succeeds(self):
        cfg = dataclasses.replace(CFG, alignment_rate=1.0, capture_radius=1e-7)
        rate = calibrate_alpha(cfg, SPIRAL, 200, derive_rng(1, 5))
        assert rate <= 0.01

    def test_full_coverage_radius_hits_alignment_ceiling(self):
        bound = capture_radius_bound(CFG, SPIRAL)
        cfg = dataclasses.replace(CFG, alignment_rate=1.0, capture_radius=bound)
        rate = calibrate_alpha(cfg, SPIRAL, 300, derive_rng(2, 5))
        assert rate >= 0.99

    def test_rate_monotone_in_capture_radius(self):
        rng = derive_rng(3, 5)
        rates = [
            calibrate_alpha(dataclasses.replace(CFG, capture_radius=cr), SPIRAL, 400, rng)
            for cr in (0.0005, 0.004, 0.02)
        ]
        assert rates[0] <= rates[1] <= rates[2]

    def test_unreachable_target_clamps_to_bound(self):
        result = tune_capture_radius(CFG, SPIRAL, 1.0, 150, derive_rng(4, 5))
        bound = capture_radius_bound(CFG, SPIRAL)
        assert not result.feasible
        assert result.capture_radius == pytest.approx(bound)
        # the bound is fixed before the batch is drawn, so the batch's own
        # rate there is the reported one
        at_bound = dataclasses.replace(CFG, capture_radius=bound)
        assert result.alpha_hat == calibrate_alpha(at_bound, SPIRAL, 150, derive_rng(4, 5))

    def test_invalid_target_rejected(self):
        with pytest.raises(InvalidInputError):
            tune_capture_radius(CFG, SPIRAL, 0.0, 10, derive_rng(0, 5))

    def test_trial_count_follows_the_integer_rule(self):
        # checked where each entry point takes it, before any draw
        for bad in (True, 10.5):
            with pytest.raises(InvalidInputError) as raised:
                calibrate_alpha(CFG, SPIRAL, bad, derive_rng(0, 5))
            assert str(raised.value) == f"trials must be an integer, got {bad!r}"
            with pytest.raises(InvalidInputError) as raised:
                tune_capture_radius(CFG, SPIRAL, 0.3, bad, derive_rng(0, 5))
            assert str(raised.value) == f"trials must be an integer, got {bad!r}"
        with pytest.raises(InvalidInputError, match="trials must be at least 1, got 0"):
            tune_capture_radius(CFG, SPIRAL, 0.3, 0, derive_rng(0, 5))
        result = tune_capture_radius(CFG, SPIRAL, 0.3, np.int64(40), derive_rng(0, 5))
        assert type(result.trials) is int and result.trials == 40
        assert result == tune_capture_radius(CFG, SPIRAL, 0.3, 40.0, derive_rng(0, 5))

    def test_detections_must_fit_the_workspace(self):
        # a detector error bound wider than the workspace leaves no center
        # whose detections and spirals stay unclipped
        cfg = dataclasses.replace(CFG, detector_error_bound=1.0)
        with pytest.raises(ConfigurationError, match="placement margin"):
            calibrate_alpha(cfg, SPIRAL, 10, derive_rng(0, 5))

    # 0.07 * 100 is 7.000000000000001, so ceil(target * trials) would pick
    # the 8th smallest critical radius rather than the 7th
    @pytest.mark.parametrize(
        "target, trials", [(0.34, 150), (0.55, 100), (0.81, 300), (0.5, 40), (0.07, 100)]
    )
    def test_tuned_rate_is_least_rate_reaching_target(self, target, trials):
        cfg = dataclasses.replace(CFG, alignment_rate=1.0)
        result = tune_capture_radius(cfg, SPIRAL, target, trials, derive_rng(6, 5))
        tuned = dataclasses.replace(cfg, capture_radius=result.capture_radius)
        least = min(k / trials for k in range(trials + 1) if k / trials >= target)
        assert result.feasible
        assert calibrate_alpha(tuned, SPIRAL, trials, derive_rng(6, 5)) == least

    def test_fresh_batch_measures_alpha_hat(self):
        result = tune_capture_radius(CFG, SPIRAL, 0.2, 120, derive_rng(8, 5))
        rng = derive_rng(8, 5)
        calibrate_alpha(CFG, SPIRAL, 120, rng)  # the tuning batch
        tuned = dataclasses.replace(CFG, capture_radius=result.capture_radius)
        assert result.alpha_hat == calibrate_alpha(tuned, SPIRAL, 120, rng)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    targets=st.tuples(*[st.floats(0.0, 1.0, exclude_min=True)] * 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_tuned_radius_does_not_decrease_as_target_rises(targets, seed):
    low, high = sorted(targets)
    low_radius, high_radius = (
        tune_capture_radius(CFG, SPIRAL, t, 60, derive_rng(seed, 5)).capture_radius
        for t in (low, high)
    )
    assert low_radius <= high_radius
