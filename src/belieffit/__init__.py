"""belieffit: belief-space object fitting under type and position uncertainty.

A numpy library plus CLI implementing Gaussian position filtering, discrete
type filtering, greedy hole selection, a kinematic spiral-search simulator,
and maximum-likelihood calibration of the filter noise parameters.
"""

from .beliefs import (
    EnvConfig,
    GaussianBelief2,
    HoleBelief,
    HoleGroundTruth,
    PegType,
    TypeBelief,
    fit_probability,
    init_position_belief,
)
from .filters import (
    FilterModels,
    Innovation,
    MatchObservationModel,
    PositionNoiseModel,
    histogram_update,
    kalman_update,
    transition_prob,
)
from .policy import (
    AssemblyResult,
    EpisodeLog,
    PolicyModels,
    PolicyVariant,
    StepRecord,
    TerminalStatus,
    high_level_step,
    init_beliefs,
    run_assembly_task,
    run_episode,
    select_hole,
)
from .seeding import derive_rng
from .sensors import MatchSensorSpec, PositionSensorSpec, SensorModel, sense_match, sense_position
from .sim import (
    CalibrationResult,
    RolloutOutcome,
    SpiralParams,
    World,
    calibrate_alpha,
    rollout_low_level,
    rollout_random_actions,
    spawn_world,
    tune_capture_radius,
    vision_detect,
)
from .training import (
    Dataset,
    InteractionRecord,
    LearnedParams,
    batch_nll,
    fit_parameters,
    generate_dataset,
    grad_nll,
    load_dataset,
    mle_confusion_oracle,
    mle_covariance_oracle,
    save_dataset,
)

__version__ = "0.1.0"
