"""Agent types, reporting strategies, report counts, the exact peer-report
law and expected utility.

An agent privately holds a bit and a unit privacy cost.  Utility from one
survey round is payment minus the privacy-loss value, which the analyzed
cost models bound by epsilon * cost (linear regime) or by
4 * cost * epsilon**2 (quadratic regime, valid for epsilon <= 1).
"""

from dataclasses import dataclass

import numpy as np

from ._util import CHUNK_TRIALS, chunk_sizes, from_config, merge_moments, report_dict, subseed_rng
from .mechanism import payment_at, peer_estimate
from .priors import clamped_mean, cost_cdfs
from .privacy import noise_draw

TRUTH = "truth"
LIE = "lie"
ABSTAIN = "abstain"
ACTIONS = (TRUTH, LIE, ABSTAIN)

OFF_BEHAVIORS = (ABSTAIN, LIE, TRUTH)

COST_MODEL_KINDS = ("linear", "chen")


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
    """Privacy-loss model: which bound prices an agent's privacy loss."""

    kind: str

    def __post_init__(self):
        if self.kind not in COST_MODEL_KINDS:
            raise ValueError(f"kind must be one of {COST_MODEL_KINDS}, got {self.kind!r}")

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
        return epsilon * cost
    if epsilon > 1.0:
        raise ValueError(
            f"the quadratic cost bound requires epsilon <= 1, got {epsilon}"
        )
    return 4.0 * cost * epsilon**2


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
    """Symmetric play: every agent uses the one shared strategy.

    Every caller in the package passes the strategy itself.  The wrapper
    stays only because `bench/test_bench.py` passes one to
    `simulate_survey`, and `equilibrium.simulate_estimates` unwraps it.
    """

    shared: object

    @classmethod
    def symmetric(cls, strategy):
        return cls(shared=strategy)


# ---------------------------------------------------------------------------
# Sampling report counts.
# ---------------------------------------------------------------------------

# Bits of the four type cells: (0, cheap), (0, dear), (1, cheap), (1, dear),
# where cheap means cost <= the strategy's threshold.
_CELL_BITS = np.array([0, 0, 1, 1], dtype=np.int8)


def _cell_reports(strategy, prior):
    """((F0(tau), F1(tau)), contributions, participation) of the four type cells.

    F0 and F1 are the prior's cost CDFs at the strategy's threshold, the
    chance that an agent holding a zero or a one is cheap; `strategy_arrays`
    maps one agent per cell to its report.  Strategies without a threshold
    ignore cost, and all their agents are cheap.
    """
    tau = getattr(strategy, "tau", np.inf)
    return cost_cdfs(prior, tau), *strategy_arrays(strategy, _CELL_BITS,
                                                   np.array([tau, np.inf, tau, np.inf]))


def sample_report_counts(strategy, prior, n, theta, rng):
    """Per-trial report counts of n agents playing `strategy`, drawn i.i.d. given theta.

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
    (f0, f1), values, mask = _cell_reports(strategy, prior)
    b = rng.binomial(n, theta)
    cheap1 = rng.binomial(b, f1)
    cheap0 = rng.binomial(n - b, f0)
    cells = np.stack([cheap0, n - b - cheap0, cheap1, b - cheap1], axis=-1)
    return (b, cells @ values.astype(np.int64), cells @ mask.astype(np.int64),
            cells @ (values != _CELL_BITS).astype(np.int64))


def one_report_chances(strategy, prior):
    """(g0, g1): the chance that an agent holding 0 or 1 reports 1.

    g_b is F_b(tau) times the report of the cheap cell plus 1 - F_b(tau)
    times that of the dear cell, from the cell mapping that
    `sample_report_counts` samples.  Given theta, a peer reports 1 with
    chance q(theta) = g0 + theta (g1 - g0) = (1 - theta) g0 + theta g1.
    Both are written so that a report that ignores cost gives exactly 0 or
    1, and q stays in [0, 1] in floating point.
    """
    (f0, f1), values, _ = _cell_reports(strategy, prior)
    cheap0, dear0, cheap1, dear1 = values.astype(np.float64)
    return dear0 + f0 * (cheap0 - dear0), dear1 + f1 * (cheap1 - dear1)


def peer_estimate_mc(prior, bit, n, noise, others, trials, seed):
    """Monte Carlo (mean, standard error) of the leave-one-out estimate of
    an agent holding `bit`, over rounds of the n - 1 peers playing `others`.

    The estimate reads a round only through b_bar, so only its sufficient
    statistic is drawn.  Chunk k draws from `subseed_rng(seed, k)`: theta
    from the prior given `bit`, the peers' one-report count
    Bin(n - 1, q(theta)) (`one_report_chances`), which has the law of
    `sample_report_counts`' ones, then one noise draw per trial.  b_bar
    leaves the agent out, so `peer_estimate(n, b_bar, 0)` is their estimate
    whatever they report; under truthful peers its mean is p0 or p1.  The
    moments merge chunk by chunk, so memory does not grow with `trials`.
    `peer_estimate_mean` is the exact value it estimates.
    """
    trials = int(trials)
    if n < 2 or trials < 1:
        raise ValueError(f"need n >= 2 and trials >= 1, got n={n}, trials={trials}")
    g0, g1 = one_report_chances(others, prior)
    moments = (0, 0.0, 0.0)
    for chunk, size in chunk_sizes(trials, CHUNK_TRIALS):
        rng = subseed_rng(seed, chunk)
        ones = rng.binomial(n - 1, g0 + prior.theta_sample(rng, size, bit) * (g1 - g0))
        moments = merge_moments(moments, peer_estimate(n, ones + noise_draw(noise, rng, size), 0))
    count, mean, m2 = moments
    return mean, m2**0.5 / count


def peer_estimate_mean(prior, bit, n, noise, others):
    """Exact mean of the leave-one-out estimate of an agent holding `bit`,
    over rounds of the n - 1 peers playing `others`: the value that
    `peer_estimate_mc` estimates.

    Given theta, a peer reports 1 with chance q(theta) = (1 - theta) g0 +
    theta g1 (`one_report_chances`).  So the one-reports are a binomial
    mixture over theta given `bit`, and `priors.clamped_mean` takes the
    mean exactly from their generating function.
    """
    g = one_report_chances(others, prior)
    return clamped_mean(prior, bit, n, noise.scale if noise.mode == "sample" else 0.0, g)


# ---------------------------------------------------------------------------
# Expected utility of one agent's deviation.
# ---------------------------------------------------------------------------


def expected_utility(agent, action, mean_peer_estimate, config, cost_model):
    """One agent's exact expected payment and worst-case utility.

    The payment is affine in the leave-one-out estimate, and that estimate
    does not depend on the agent's report, so the expected payment is the
    payment at `mean_peer_estimate`, the exact mean estimate of the other
    n - 1 agents (`peer_estimate_mean`): `mechanism.payment_at` for the
    bit the action reports.  Abstaining earns exactly zero payment.
    utility_lower_bound subtracts the privacy-cost bound from the mean
    payment.  Returns {"mean_payment", "utility_lower_bound"}.
    """
    if action not in ACTIONS:
        raise ValueError(f"action must be one of {ACTIONS}, got {action!r}")
    pc = privacy_cost_bound(cost_model, agent.cost, config.epsilon)
    pay = 0.0
    if action != ABSTAIN:
        report = agent.bit if action == TRUTH else 1 - agent.bit
        pay = payment_at(config, mean_peer_estimate, report)
    return {"mean_payment": pay, "utility_lower_bound": pay - pc}
