"""Training the filter noise parameters from interaction data.

Generates a balanced exploration dataset in the simulator, fits the position
noise covariance and match confusion rates by gradient descent on the
one-step posterior NLL, and compares against the closed-form counting and
sample-covariance estimators.

Run: python demos/03_noise_calibration_training.py   (~30 s)
"""

import numpy as np

from belieffit import (
    EnvConfig,
    LearnedParams,
    SensorModel,
    SpiralParams,
    derive_rng,
    fit_parameters,
    generate_dataset,
    mle_confusion_oracle,
    mle_covariance_oracle,
)

config = EnvConfig()
sensors = SensorModel()

records = generate_dataset(config, sensors, 3000, derive_rng(21, 0), SpiralParams())
# a Dataset: one packed block of records, whose field names are its columns
is_match = records.peg_type == records.hole_type
matched = int(is_match.sum())
successes = int(records.beta.sum())
print(f"dataset: {len(records)} interactions, {matched} matched, "
      f"{successes} ended in insertion")

history: list = []
params = fit_parameters(
    records,
    init=LearnedParams.from_values(4e-4 * np.eye(2), tpr=0.6, fpr=0.4),
    lr=0.05, epochs=800, alpha=config.alpha, history_out=history,
)
print(f"mean NLL: {history[0]:.3f} -> {history[-1]:.3f} over {len(history)} epochs")
print()

cov_oracle = mle_covariance_oracle(records.obs, records.position)
tpr_oracle, fpr_oracle = mle_confusion_oracle(
    list(zip(is_match.tolist(), records.o_match.tolist()))
)

print("position noise covariance [m^2]:")
print("  sensor truth :", sensors.position.cov.tolist())
print("  learned      :", params.position_cov.tolist())
print("  sample-cov   :", cov_oracle.tolist())
print("  (sim data mixes informative and uninformative traces, so both "
      "estimators sit a bit above the informative-trace truth)")
print()
print("match confusion rates:")
print(f"  sensor truth : tpr={sensors.match.tpr}, fpr={sensors.match.fpr}")
print(f"  learned      : tpr={params.tpr:.3f}, fpr={params.fpr:.3f}")
print(f"  counting     : tpr={tpr_oracle:.3f}, fpr={fpr_oracle:.3f}")
print("  (gradient descent sees each record's random type prior through the")
print("  one-step posterior, so on sim data it tilts away from the plain")
print("  counting estimate; on prior-consistent data the two agree)")
print()
print("The learned values feed the filters via LearnedParams.to_filter_models().")
