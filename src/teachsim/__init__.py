"""teachsim: machine-teaching protocols for noisy concepts and MDPs.

The package simulates teachers that pick maximally informative samples
for a learner: fixed-budget and stopping-rule teachers for coins, bandit
arms and DBN conditions in the supervised setting, and a greedy touring
teacher that demonstrates concepts inside an MDP.
"""

from .core import (
    AccuracyParams,
    LabelDistribution,
    RandomSource,
    Sample,
    TeachingCollection,
    UndefinedDistributionError,
    derive_stream,
    empirical_distribution,
    hoeffding_samples,
    tv_distance,
)
from .concepts import (
    BanditConcept,
    BernoulliConcept,
    DbnConcept,
    FactorEstimate,
    IncompleteTeachingError,
    InconsistentSampleError,
    MonotoneConjunction,
    VersionSpace,
    aggregate_model_error,
    bitflip_shift_concept,
    dbn_condition_estimates,
    mle_predict,
)
from .teachers import (
    StopRule,
    TeachingOutcome,
    UnteachablePlanError,
    check_shift_register,
    std_infer,
    teach_bandit_cell,
    teach_coin_cell,
    teach_conjunction_std,
    teach_conjunction_td,
    teach_dbn_cell,
    teach_dbn_deterministic,
)
from .environments import (
    BitflipEnv,
    GroundedInstance,
    Mdp,
    TaxiEnv,
    TeachingSequence,
    TruncationError,
    step,
)
from .mdp_teaching import (
    ExpectedStepsPlan,
    PlannerCache,
    StepLimitError,
    TeachingTarget,
    UnconvergedPlanError,
    UnreachableTargetError,
    UnteachableError,
    build_teaching_set_greedy,
    consistent_precondition_learner,
    expected_steps_planner,
    greedy_set_cover,
    nsstd_coin_direction,
    nsstd_coin_infer,
    std_precondition_learner,
    teach_in_mdp,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    ScalingFit,
    TrialStats,
    emit_csv,
    fit_scaling,
    run_experiment,
)

__version__ = "0.1.0"
