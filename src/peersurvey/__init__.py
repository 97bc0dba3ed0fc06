"""Simulator for a privacy-aware peer-prediction survey mechanism.

A surveyor wants an accurate estimate of how common a private binary
attribute is.  Respondents care about what participation reveals, so the
mechanism adds calibrated noise to the aggregate, pays each respondent by
how well their report predicts the (noisy, leave-one-out) peer consensus,
and scales the payments so that truthful participation beats lying or
staying out for everyone whose privacy cost is below an explicit threshold.

The package simulates that design end to end: prior and cost models
(:mod:`~peersurvey.priors`), the payment rule (:mod:`~peersurvey.scoring`),
the noisy release and a differential-privacy audit
(:mod:`~peersurvey.privacy`), a single survey round
(:mod:`~peersurvey.mechanism`), respondent strategies and utilities
(:mod:`~peersurvey.agents`), and the equilibrium / accuracy / cost-scaling
experiments (:mod:`~peersurvey.equilibrium`), all driven by the
``peersurvey`` command line (:mod:`~peersurvey.cli`).
"""

from .agents import (
    ABSTAIN,
    ACTIONS,
    LIE,
    TRUTH,
    AgentType,
    AlwaysAbstain,
    AlwaysLie,
    AlwaysTruth,
    ConstantBit,
    CostModel,
    StrategyProfile,
    Threshold,
    UtilityEstimate,
    expected_utility,
    privacy_cost_bound,
    strategy_from_dict,
)
from .equilibrium import (
    INCONCLUSIVE,
    AccuracyReport,
    CostRow,
    CostScalingReport,
    EquilibriumAuditReport,
    accuracy_experiment,
    accuracy_radius,
    best_response_audit,
    beta_rule,
    config_lint,
    cost_scaling_experiment,
    epsilon_rule,
    simulate_estimates,
    simulate_survey,
    total_payment_bound,
)
from .mechanism import (
    MechanismConfig,
    MechanismOutcome,
    estimate_observable,
    payment_observable,
    payment_pair,
    run,
)
from .priors import (
    CostSearchError,
    Exponential,
    PointMass,
    PriorSpec,
    TruncatedLogNormal,
    Uniform,
    cost_distribution_from_dict,
    cost_threshold,
    cost_threshold_parts,
    cost_threshold_parts_mc,
    posterior_bit_prob,
    posterior_clamped_mean,
    posterior_clamped_mean_mc,
)
from .privacy import (
    FAIL,
    PASS,
    AuditDataError,
    DpAuditReport,
    NoiseSpec,
    dp_audit,
    laplace_sample,
    max_log_count_ratio,
)
from .scoring import (
    ScoringParams,
    b_score,
    basic_brier,
    lipschitz_bound,
    scaled_score,
    scoring_params,
)

__version__ = "0.1.0"

__all__ = [
    "ABSTAIN",
    "ACTIONS",
    "FAIL",
    "INCONCLUSIVE",
    "LIE",
    "PASS",
    "TRUTH",
    "AccuracyReport",
    "AgentType",
    "AlwaysAbstain",
    "AlwaysLie",
    "AlwaysTruth",
    "AuditDataError",
    "ConstantBit",
    "CostModel",
    "CostRow",
    "CostScalingReport",
    "CostSearchError",
    "DpAuditReport",
    "EquilibriumAuditReport",
    "Exponential",
    "MechanismConfig",
    "MechanismOutcome",
    "NoiseSpec",
    "PointMass",
    "PriorSpec",
    "ScoringParams",
    "StrategyProfile",
    "Threshold",
    "TruncatedLogNormal",
    "Uniform",
    "UtilityEstimate",
    "accuracy_experiment",
    "accuracy_radius",
    "b_score",
    "basic_brier",
    "best_response_audit",
    "beta_rule",
    "config_lint",
    "cost_distribution_from_dict",
    "cost_scaling_experiment",
    "cost_threshold",
    "cost_threshold_parts",
    "cost_threshold_parts_mc",
    "dp_audit",
    "epsilon_rule",
    "estimate_observable",
    "expected_utility",
    "laplace_sample",
    "lipschitz_bound",
    "max_log_count_ratio",
    "payment_observable",
    "payment_pair",
    "posterior_bit_prob",
    "posterior_clamped_mean",
    "posterior_clamped_mean_mc",
    "privacy_cost_bound",
    "run",
    "scaled_score",
    "scoring_params",
    "simulate_estimates",
    "simulate_survey",
    "strategy_from_dict",
    "total_payment_bound",
]
