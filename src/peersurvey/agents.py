"""Agent types, reporting strategies, the survey-round sampler, the exact
peer-report law and expected utility.

An agent privately holds a bit and a unit privacy cost.  Utility from one
survey round is payment minus the privacy-loss value, which the analyzed
cost models bound by eta * epsilon * cost (linear regime) or by
eta * 4 * cost * epsilon**2 (quadratic regime, valid for epsilon <= 1).
"""

from dataclasses import dataclass

import numpy as np

from ._util import CHUNK_TRIALS, chunk_sizes, from_config, merge_moments, report_dict, subseed_rng
from .mechanism import peer_estimate
from .priors import clamped_mean
from .privacy import noise_draw
from .scoring import scaled_score

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
    """Symmetric play: every agent uses the one shared strategy.

    Every caller in the package passes the strategy itself.  The wrapper
    stays only because `bench/test_bench.py` passes one to
    `simulate_survey`, and `sample_rounds` unwraps it.
    """

    shared: object

    @classmethod
    def symmetric(cls, strategy):
        return cls(shared=strategy)


# ---------------------------------------------------------------------------
# Sampling report counts and survey rounds.
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
    cheap = (float(prior.cost0.cdf(tau)), float(prior.cost1.cdf(tau)))
    return cheap, *strategy_arrays(strategy, _CELL_BITS, np.array([tau, np.inf, tau, np.inf]))


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


def sample_rounds(prior, n, noise, strategy, trials, seed, bit=None):
    """Simulated rounds of n agents playing `strategy`: the one place that
    fixes a round's draw order.

    Chunk k draws from `subseed_rng(seed, k)`: theta from the prior (given
    an outside agent's `bit` when one is set), the n agents' report counts
    from `sample_report_counts`, then one noise draw per trial on their
    one-reports.  Yields ((bit_ones, ones, participants, mismatches), b_bar)
    per chunk, and drops its own references to a chunk before drawing the
    next, so a consumer that keeps nothing holds one chunk at a time.
    """
    if isinstance(strategy, StrategyProfile):
        strategy = strategy.shared
    for chunk, size in chunk_sizes(trials, CHUNK_TRIALS):
        rng = subseed_rng(seed, chunk)
        counts = sample_report_counts(strategy, prior, n,
                                      np.atleast_1d(prior.theta_sample(rng, size, bit)), rng)
        yield counts, counts[1] + noise_draw(noise, rng, size)
        del counts


def peer_estimate_mc(prior, bit, n, noise, others, trials, seed):
    """Monte Carlo (mean, standard error) of the leave-one-out estimate of
    an agent holding `bit`, over rounds of the n - 1 peers playing `others`.

    theta is drawn given `bit`.  b_bar leaves the agent out, so
    `peer_estimate(n, b_bar, 0)` is their estimate whatever they report;
    under truthful peers its mean is p0 or p1.  The moments merge chunk by
    chunk, so memory does not grow with `trials`.  `peer_estimate_mean` is
    the exact value it estimates.
    """
    trials = int(trials)
    if n < 2 or trials < 1:
        raise ValueError(f"need n >= 2 and trials >= 1, got n={n}, trials={trials}")
    moments = (0, 0.0, 0.0)
    for _, b_bar in sample_rounds(prior, n - 1, noise, others, trials, seed, bit):
        moments = merge_moments(moments, peer_estimate(n, b_bar, 0))
        del _, b_bar  # so that one chunk at a time is alive
    count, mean, m2 = moments
    return mean, m2**0.5 / count


def peer_estimate_mean(prior, bit, n, noise, others):
    """Exact mean of the leave-one-out estimate of an agent holding `bit`,
    over rounds of the n - 1 peers playing `others`: the value that
    `peer_estimate_mc` estimates.

    Given theta, a peer reports 1 with probability
    g(theta) = (1 - theta) g0 + theta g1, where g_b is the chance that an
    agent holding b reports 1: F_b(tau) times the report of the cheap cell
    plus 1 - F_b(tau) times that of the dear cell, from the same cell
    mapping that `sample_report_counts` samples.  So the one-reports are a
    binomial mixture over theta given `bit`, which `priors.clamped_mean`
    sums exactly.
    """
    (f0, f1), values, _ = _cell_reports(others, prior)
    cheap0, dear0, cheap1, dear1 = values.astype(np.float64)
    # Written so that a report that ignores cost gives g_b of exactly 0 or 1.
    g = (dear0 + f0 * (cheap0 - dear0), dear1 + f1 * (cheap1 - dear1))
    return clamped_mean(prior, bit, n, noise.scale if noise.mode == "sample" else 0.0, g)


# ---------------------------------------------------------------------------
# Expected utility of one agent's deviation.
# ---------------------------------------------------------------------------


def expected_utility(agent, action, mean_peer_estimate, config, cost_model):
    """One agent's exact expected payment and worst-case utility.

    The payment is affine in the leave-one-out estimate, and that estimate
    does not depend on the agent's report, so the expected payment is the
    payment at `mean_peer_estimate`, the exact mean estimate of the other
    n - 1 agents (`peer_estimate_mean`).  Abstaining earns exactly zero
    payment.  utility_lower_bound subtracts the privacy-cost bound from the
    mean payment.  Returns {"mean_payment", "utility_lower_bound"}.
    """
    if action not in ACTIONS:
        raise ValueError(f"action must be one of {ACTIONS}, got {action!r}")
    pc = privacy_cost_bound(cost_model, agent.cost, config.epsilon)
    pay = 0.0
    if action != ABSTAIN:
        target = (config.p0, config.p1)[agent.bit if action == TRUTH else 1 - agent.bit]
        pay = scaled_score(config.scoring, mean_peer_estimate, target)
    return {"mean_payment": pay, "utility_lower_bound": pay - pc}
