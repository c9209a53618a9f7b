"""Kinematic peg-in-hole simulator tour.

Shows a sampled world layout, noisy detections, a spiral-search rollout
trace, and the empirical success rate as a function of the capture radius
(the knob the `calibrate` command tunes).

Run: python demos/02_spiral_search_simulator.py
"""

import dataclasses

import numpy as np

from belieffit import (
    EnvConfig,
    PegType,
    SpiralParams,
    calibrate_alpha,
    derive_rng,
    rollout_low_level,
    spawn_world,
    tune_capture_radius,
    vision_detect,
)

config = EnvConfig()
spiral = SpiralParams()

world = spawn_world(config, derive_rng(7, 0), spiral)
detections = vision_detect(world, derive_rng(7, 1))
print("hole  type  true position [cm]      detection [cm]   error [cm]")
for i, (hole, det) in enumerate(zip(world.holes, detections)):
    err = np.linalg.norm(det - hole.position) * 100
    print(f"{i:4d}  {hole.hole_type:4d}  ({hole.position[0]*100:+6.2f}, "
          f"{hole.position[1]*100:+6.2f})      ({det[0]*100:+6.2f}, "
          f"{det[1]*100:+6.2f})   {err:6.2f}")

# --- one rollout, started from the noisy detection -------------------------
hole = world.holes[0]
outcome = rollout_low_level(
    detections[0], PegType(hole.hole_type), hole, spiral, config, derive_rng(7, 2)
)
print()
print(f"rollout on hole 0: success={outcome.success}, steps={len(outcome.trace)}")
print(f"closest approach to the hole: {outcome.closest_approach*100:.2f} cm")

# --- success rate vs capture radius ----------------------------------------
print()
print("matched-pair success rate vs capture radius (500 rollouts each):")
print("radius[mm]   success rate")
for cr_mm in (1.0, 2.5, 5.0, 10.0, 20.0):
    radius_config = dataclasses.replace(config, capture_radius=cr_mm / 1000)
    rate = calibrate_alpha(radius_config, spiral, 500, derive_rng(7, 3))
    print(f"{cr_mm:10.1f}   {rate:.3f}")

print()
print("Tuning the radius toward the reference matched-pair rate 0.34:")
result = tune_capture_radius(config, spiral, 0.34, 400, derive_rng(7, 4))
print(f"  tuned radius {result.capture_radius*1000:.1f} mm "
      f"-> measured rate {result.alpha_hat:.3f}")
print("  The tuned radius is the smallest at which the tuning batch reaches the")
print("  target.  Near the alignment ceiling the rate rises slowly with the")
print("  radius, so a fresh batch's rate there can miss the target by sampling")
print(f"  noise.  The task default stays {config.capture_radius*1000:.1f} mm; "
      "that small funnel is what makes position estimates matter.")
