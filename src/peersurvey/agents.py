"""Agent types, reporting strategies and expected-utility estimation.

An agent privately holds a bit and a unit privacy cost.  Utility from one
survey round is payment minus the privacy-loss value, which the analyzed
cost models bound by eta * epsilon * cost (linear regime) or by
eta * 4 * cost * epsilon**2 (quadratic regime, valid for epsilon <= 1).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._util import (CHUNK_TRIALS, check_seed, chunk_sizes, from_config, merge_moments,
                    report_dict, subseed_rng)
from .mechanism import payment_pair, peer_estimate
from .privacy import noise_draw

TRUTH = "truth"
LIE = "lie"
ABSTAIN = "abstain"
ACTIONS = (TRUTH, LIE, ABSTAIN)

OFF_BEHAVIORS = (ABSTAIN, LIE, TRUTH)

COST_MODEL_KINDS = ("linear", "chen")

# The fewest trials `expected_utility` accepts.
MIN_UTILITY_TRIALS = 1_000

# Coverage of the two-sided normal interval around a mean payment.
CI_LEVEL = 0.99


@dataclass(frozen=True)
class AgentType:
    bit: int
    cost: float

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit}")
        if self.cost < 0.0:
            raise ValueError(f"cost must be nonnegative, got {self.cost}")


@dataclass(frozen=True)
class CostModel:
    """Privacy-loss model: bound kind plus a realization fraction eta.

    eta = 1 prices the worst case; smaller values model agents whose
    realized loss sits below the bound.
    """

    kind: str
    eta: float = 1.0

    def __post_init__(self):
        if self.kind not in COST_MODEL_KINDS:
            raise ValueError(f"kind must be one of {COST_MODEL_KINDS}, got {self.kind!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")

    to_dict = report_dict

    @classmethod
    def from_dict(cls, d):
        return from_config(cls, d, "cost_model")


def privacy_cost_bound(model, cost, epsilon):
    """Upper bound on the utility lost to an epsilon-private release."""
    if cost < 0.0:
        raise ValueError(f"cost must be nonnegative, got {cost}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if model.kind == "linear":
        return model.eta * epsilon * cost
    if epsilon > 1.0:
        raise ValueError(
            f"the quadratic cost bound requires epsilon <= 1, got {epsilon}"
        )
    return model.eta * 4.0 * cost * epsilon**2


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Threshold:
    """Truthful when cost <= tau; otherwise apply `off`."""

    tau: float
    off: str = ABSTAIN

    def __post_init__(self):
        if self.tau < 0.0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        if self.off not in OFF_BEHAVIORS:
            raise ValueError(f"off must be one of {OFF_BEHAVIORS}, got {self.off!r}")


@dataclass(frozen=True)
class AlwaysTruth:
    """Always the own bit."""


@dataclass(frozen=True)
class AlwaysLie:
    """Always the flipped bit."""


@dataclass(frozen=True)
class AlwaysAbstain:
    """Never participate."""


@dataclass(frozen=True)
class ConstantBit:
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError(f"value must be 0 or 1, got {self.value}")


_STRATEGY_KINDS = {"threshold": Threshold, "always_truth": AlwaysTruth, "always_lie": AlwaysLie,
                   "always_abstain": AlwaysAbstain, "constant_bit": ConstantBit}


def strategy_from_dict(d):
    return from_config(_STRATEGY_KINDS, d, "strategy")


def strategy_arrays(strategy, bits, costs):
    """Reports of agents with these bits and costs under one strategy.

    A report is a (contributions, participation) pair of arrays shaped like
    `bits`: abstainers contribute 0 and do not participate.
    """
    bits = np.asarray(bits)
    costs = np.asarray(costs)
    if isinstance(strategy, AlwaysTruth):
        return bits.astype(np.int8), np.ones(bits.shape, dtype=bool)
    if isinstance(strategy, AlwaysLie):
        return (1 - bits).astype(np.int8), np.ones(bits.shape, dtype=bool)
    if isinstance(strategy, AlwaysAbstain):
        return np.zeros(bits.shape, dtype=np.int8), np.zeros(bits.shape, dtype=bool)
    if isinstance(strategy, ConstantBit):
        return (
            np.full(bits.shape, strategy.value, dtype=np.int8),
            np.ones(bits.shape, dtype=bool),
        )
    if isinstance(strategy, Threshold):
        truthful = costs <= strategy.tau
        if strategy.off == ABSTAIN:
            values = np.where(truthful, bits, 0).astype(np.int8)
            return values, truthful.copy()
        if strategy.off == LIE:
            values = np.where(truthful, bits, 1 - bits).astype(np.int8)
        else:
            values = bits.astype(np.int8)
        return values, np.ones(bits.shape, dtype=bool)
    raise TypeError(f"unknown strategy {strategy!r}")


@dataclass(frozen=True)
class StrategyProfile:
    """Symmetric play: every agent uses the one shared strategy."""

    shared: object

    @classmethod
    def symmetric(cls, strategy):
        return cls(shared=strategy)

    def report_arrays(self, bits, costs):
        """Contributions and participation for a (trials, n) type matrix.

        The dense reference for `sample_report_counts`; tests use it as an
        oracle.
        """
        return strategy_arrays(self.shared, np.atleast_2d(np.asarray(bits)),
                               np.atleast_2d(np.asarray(costs)))


# ---------------------------------------------------------------------------
# Sampling report counts.
# ---------------------------------------------------------------------------

# Bits of the four type cells: (0, cheap), (0, dear), (1, cheap), (1, dear),
# where cheap means cost <= the strategy's threshold.
_CELL_BITS = np.array([0, 0, 1, 1], dtype=np.int8)


def sample_report_counts(profile, prior, n, theta, rng):
    """Per-trial report counts of n agents drawn i.i.d. given theta.

    Each trial's reports depend on the agents only through how many fall in
    each type cell (bit, cost <= tau or > tau), so no per-agent arrays are
    built.  Per trial: the ones B ~ Bin(n, theta), the cheap ones
    Bin(B, F1(tau)) and the cheap zeros Bin(n - B, F0(tau)), where F0/F1 are
    the prior's cost CDFs.  `strategy_arrays` maps one agent per cell to its
    report, and the cell counts weight the result.  Strategies without a
    threshold ignore cost; all their agents land in the cheap cells.

    Returns int64 arrays (bit_ones, ones, participants, mismatches) shaped
    like theta: agents whose bit is 1, one-reports, non-abstainers, and
    agents whose contribution differs from their bit.
    """
    theta = np.asarray(theta, dtype=np.float64)
    tau = getattr(profile.shared, "tau", np.inf)
    b = rng.binomial(n, theta)
    cheap1 = rng.binomial(b, float(prior.cost1.cdf(tau)))
    cheap0 = rng.binomial(n - b, float(prior.cost0.cdf(tau)))
    cells = np.stack([cheap0, n - b - cheap0, cheap1, b - cheap1], axis=-1)
    values, mask = strategy_arrays(profile.shared, _CELL_BITS, np.array([tau, np.inf, tau, np.inf]))
    return (b, cells @ values.astype(np.int64), cells @ mask.astype(np.int64),
            cells @ (values != _CELL_BITS).astype(np.int64))


# ---------------------------------------------------------------------------
# Expected utility of one agent's deviation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UtilityEstimate:
    """Monte Carlo payment estimate and the privacy-cost lower bound on utility."""

    mean_payment: float
    payment_ci_halfwidth: float
    privacy_cost: float
    utility_lower_bound: float
    mean_peer_estimate: float = float("nan")


def expected_utility(
    agent,
    action,
    others,
    prior,
    config,
    cost_model,
    trials,
    seed,
):
    """Estimate one agent's expected payment and worst-case utility.

    Per trial, draws theta from the prior's posterior given the agent's own
    bit, samples the one-reports of the other n - 1 agents under `others`
    (a StrategyProfile or a single strategy) with `sample_report_counts`,
    runs the payment rule against the resulting noisy sum, and averages.
    Memory does not grow with n.  Abstaining earns exactly zero payment, so
    no sampling happens in that case.  utility_lower_bound subtracts the
    privacy-cost bound from the mean payment; payment_ci_halfwidth is the
    half width of the CI_LEVEL normal interval around it.
    """
    if action not in ACTIONS:
        raise ValueError(f"action must be one of {ACTIONS}, got {action!r}")
    trials = int(trials)
    if trials < MIN_UTILITY_TRIALS:
        raise ValueError(f"trials must be at least {MIN_UTILITY_TRIALS}, got {trials}")
    seed = check_seed(seed)
    if not isinstance(others, StrategyProfile):
        others = StrategyProfile.symmetric(others)

    pc = privacy_cost_bound(cost_model, agent.cost, config.epsilon)
    if action == ABSTAIN:
        return UtilityEstimate(
            mean_payment=0.0,
            payment_ci_halfwidth=0.0,
            privacy_cost=pc,
            utility_lower_bound=-pc,
        )

    own_value = agent.bit if action == TRUTH else 1 - agent.bit
    n = config.n
    total = 0.0
    total_pm = 0.0
    moments = (0, 0.0, 0.0)
    for chunk, size in chunk_sizes(trials, CHUNK_TRIALS):
        rng = subseed_rng(seed, chunk)
        theta = prior.posterior_theta_sample(agent.bit, rng, size)
        ones = sample_report_counts(others, prior, n - 1, theta, rng)[1]
        b_bar = ones + own_value + noise_draw(config.noise, rng, size)
        pay = payment_pair(config, b_bar)[1 - own_value]
        total += float(pay.sum())
        total_pm += float(peer_estimate(n, b_bar, own_value).sum())
        moments = merge_moments(moments, pay)

    mean = total / trials
    var = moments[2] / trials
    z = float(ndtri(0.5 + CI_LEVEL / 2.0))
    halfwidth = z * (var / trials) ** 0.5
    return UtilityEstimate(
        mean_payment=mean,
        payment_ci_halfwidth=halfwidth,
        privacy_cost=pc,
        utility_lower_bound=mean - pc,
        mean_peer_estimate=total_pm / trials,
    )
