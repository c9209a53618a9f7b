"""Belief filtering walkthrough.

A hole's position belief is a 2D Gaussian updated by measurement corrections;
its type belief is a discrete distribution updated by exact Bayes steps that
combine a binary match verdict with the attempt outcome.  This script runs
both filters by hand on a single hole and prints how the beliefs sharpen.

Run: python demos/01_belief_filtering.py
"""

import numpy as np

from belieffit import (
    Innovation,
    MatchObservationModel,
    PegType,
    PositionNoiseModel,
    TypeBelief,
    histogram_update,
    init_position_belief,
    kalman_update,
)

rng = np.random.default_rng(0)

# The true hole sits here; vision puts our initial estimate ~1.6 cm off.
true_position = np.array([0.050, -0.020])
detection = true_position + np.array([0.012, -0.010])

position = init_position_belief(detection, sigma_init=1e-4)
types = TypeBelief(np.full(3, 1 / 3))  # uninformative prior over 3 types

print("true position :", true_position)
print("detection     :", detection)
print(f"initial error : {np.linalg.norm(position.mean - true_position)*100:.2f} cm")
print()

# --- position: five noisy observations, each worth sigma = 0.8 cm ----------
noise = PositionNoiseModel(6.4e-5 * np.eye(2))
print("step   error[cm]   sigma[cm]")
for step in range(1, 6):
    observed = true_position + rng.normal(0.0, 0.008, 2)
    position = kalman_update(position, Innovation(observed - position.mean), noise)
    err = np.linalg.norm(position.mean - true_position) * 100
    sig = np.sqrt(position.cov[0, 0]) * 100
    print(f"{step:4d}   {err:9.3f}   {sig:9.3f}")

print()
print("Repeated corrections contract the covariance like 1/(1/s0 + t/r):")
sigma0, r = 1e-4, 6.4e-5
for t in (1, 3, 5):
    print(f"  t={t}: closed form {sigma0*r/(r + t*sigma0):.3e} m^2")

# --- types: failures against a mismatched peg drain its class --------------
print()
print("Attempting peg type 1 against a hole that is really type 2:")
model = MatchObservationModel(tpr=0.85, fpr=0.15)
peg = PegType(1)
for step in range(1, 7):
    o_match = bool(rng.random() < 0.15)  # mismatch: matches flagged rarely
    types = histogram_update(types, o_match, False, peg, alpha=0.34, model=model)
    probs = ", ".join(f"{p:.3f}" for p in types.probs)
    print(f"  after attempt {step}: xi = [{probs}]")

print()
print("Mass on type 1 collapses, telling the policy to try another hole.")
