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
(:mod:`~peersurvey.privacy`), the estimate and payments as functions of
the noisy sum (:mod:`~peersurvey.mechanism`), respondent strategies and utilities
(:mod:`~peersurvey.agents`), and the equilibrium / accuracy / cost-scaling
experiments (:mod:`~peersurvey.equilibrium`), all driven by the
``peersurvey`` command line (:mod:`~peersurvey.cli`).
"""

from .agents import CostModel, Threshold
from .equilibrium import (
    accuracy_experiment,
    accuracy_radius,
    best_response_audit,
    cost_scaling_experiment,
    epsilon_rule,
)
from .mechanism import estimate_observable
from .priors import PriorSpec, cost_threshold
from .privacy import NoiseSpec, dp_audit, laplace_sample
from .scoring import b_score, basic_brier, lipschitz_bound, scaled_score, scoring_params

__version__ = "0.1.0"

__all__ = [
    "CostModel",
    "NoiseSpec",
    "PriorSpec",
    "Threshold",
    "accuracy_experiment",
    "accuracy_radius",
    "b_score",
    "basic_brier",
    "best_response_audit",
    "cost_scaling_experiment",
    "cost_threshold",
    "dp_audit",
    "epsilon_rule",
    "estimate_observable",
    "laplace_sample",
    "lipschitz_bound",
    "scaled_score",
    "scoring_params",
]
