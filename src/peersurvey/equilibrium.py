"""Equilibrium, accuracy and cost-scaling experiments.

The survey design promises three things when beta is set from the
participation threshold: threshold agents cannot gain by lying or abstaining
(best-response audit), the published estimate tracks the true bit fraction
up to a noise-widened band (accuracy experiment), and the expected total
spend shrinks like 1/n under the quadratic privacy-cost model (cost-scaling
experiment).  Each driver here measures one of those claims on simulated
populations and returns a report with explicit verdicts.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._util import (CHUNK_TRIALS, check_seed, chunk_sizes, cross_check, derive_seed, report_dict,
                    subseed_rng)
from .agents import (
    ACTIONS,
    AgentType,
    CostModel,
    StrategyProfile,
    Threshold,
    expected_utility,
    peer_estimate_mc,
    peer_estimate_mean,
    privacy_cost_bound,
    sample_report_counts,
)
from .mechanism import MechanismConfig, payment_pair, peer_estimate, published_estimate
from .priors import cost_threshold, posterior_clamped_mean
from .privacy import FAIL, PASS, NoiseSpec, noise_draw

# The fewest trials of the Monte Carlo cross-check `best_response_audit` runs.
EQUILIBRIUM_MIN_TRIALS = 1_000
# The fewest trials `accuracy_experiment` accepts.
ACCURACY_MIN_TRIALS = 100
# The fewest trials `cost_scaling_experiment` accepts: a standard error
# needs two.
COST_SCALING_MIN_TRIALS = 2


# ---------------------------------------------------------------------------
# Parameter rules.
# ---------------------------------------------------------------------------


def beta_rule(kind, epsilon, tau):
    """Truthfulness premium: the privacy-cost bound of an agent whose cost is
    tau, under the cost model `kind`.

    Linear model: beta = epsilon * tau.  Quadratic ("chen") model:
    beta = 4 * epsilon**2 * tau, valid only for epsilon <= 1.  tau = 0 is
    rejected: it yields no premium and a degenerate payment scale.
    """
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return privacy_cost_bound(CostModel(kind), tau, epsilon)


def epsilon_rule(alpha, delta, n):
    """Privacy level ln(1/delta) / (alpha * n) sized for the accuracy target."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return math.log(1.0 / delta) / (alpha * n)


def exact_parameters(prior, alpha, delta, n, epsilon):
    """The mechanism's exact (tau, p0, p1) at (n, epsilon).

    tau is the participation threshold sized with delta / 2; p0 and p1 are
    the means of the clamped leave-one-out estimate given one's own bit.
    """
    return (cost_threshold(prior, alpha, delta / 2.0, n),
            posterior_clamped_mean(prior, 0, n, epsilon),
            posterior_clamped_mean(prior, 1, n, epsilon))


def accuracy_radius(alpha, delta, epsilon, n):
    """Error band alpha' = ln(2/delta) / (epsilon * n) + alpha."""
    return math.log(2.0 / delta) / (epsilon * n) + alpha


def config_lint(alpha, delta, epsilon, n):
    """Check whether the configured epsilon meets the 2*alpha error target."""
    alpha_prime = accuracy_radius(alpha, delta, epsilon, n)
    needed = math.log(2.0 / delta) / (alpha * n)
    return {
        "alpha_prime": alpha_prime,
        "two_alpha_target": 2.0 * alpha,
        "meets_two_alpha": alpha_prime <= 2.0 * alpha,
        "epsilon_for_two_alpha": needed,
    }


# ---------------------------------------------------------------------------
# Batched survey simulation shared by the experiment drivers and the CLI.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecords:
    """Per-trial survey statistics, one array entry per trial, in the order
    that `simulate_estimates` draws the trials."""

    p_hat: np.ndarray
    p_tilde: np.ndarray
    b_bar: np.ndarray
    ones: np.ndarray
    zeros: np.ndarray
    participants: np.ndarray
    mismatches: np.ndarray

    @property
    def trials(self):
        return self.p_hat.size

    @property
    def abs_error(self):
        return np.abs(self.p_hat - self.p_tilde)


@dataclass(frozen=True)
class PaymentRecords:
    """TrialRecords plus the two distinct participant payments per trial."""

    base: TrialRecords
    pay_one: np.ndarray
    pay_zero: np.ndarray
    total_payment: np.ndarray
    min_payment: np.ndarray
    max_payment: np.ndarray


def simulate_estimates(prior, n, noise, strategy, trials, seed):
    """TrialRecords of `trials` simulated survey rounds of n agents playing
    `strategy`: the one sampler of survey rounds.

    Chunk k draws from `subseed_rng(seed, k)`: theta from the prior, the n
    agents' report counts from `agents.sample_report_counts`, then one
    noise draw per trial on their one-reports.  No per-agent arrays are
    built, so memory is O(trials) for any n.  A `StrategyProfile` stands
    for its shared strategy.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    seed = check_seed(seed)
    if isinstance(strategy, StrategyProfile):
        strategy = strategy.shared
    chunks = []
    for chunk, size in chunk_sizes(trials, CHUNK_TRIALS):
        rng = subseed_rng(seed, chunk)
        bit_ones, ones, participants, mismatches = sample_report_counts(
            strategy, prior, n, prior.theta_sample(rng, size), rng)
        b_bar = ones + noise_draw(noise, rng, size)
        chunks.append((bit_ones / n, published_estimate(n, b_bar), b_bar, ones,
                       participants - ones, participants, mismatches))
    return TrialRecords(*map(np.concatenate, zip(*chunks)))


def simulate_survey(prior, config, strategy, trials, seed):
    """simulate_estimates plus payments under the mechanism's payment rule."""
    records = simulate_estimates(prior, config.n, config.noise, strategy, trials, seed)
    pay_one, pay_zero = payment_pair(config, records.b_bar)
    total = records.ones * pay_one + records.zeros * pay_zero

    # Each trial's least and greatest payment over the groups it has:
    # one-reporters, zero-reporters and abstainers, who are paid 0.
    pays = np.stack([pay_one, pay_zero, np.zeros_like(pay_one)])
    present = np.stack([records.ones > 0, records.zeros > 0, records.participants < config.n])
    return PaymentRecords(
        base=records,
        pay_one=pay_one,
        pay_zero=pay_zero,
        total_payment=total,
        min_payment=pays.min(axis=0, where=present, initial=np.inf),
        max_payment=pays.max(axis=0, where=present, initial=-np.inf),
    )


# ---------------------------------------------------------------------------
# Best-response (equilibrium) audit.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumAuditReport:
    """Worst-case (over the probe's bit value) best-response audit results.

    The payments are exact, so the CI half-widths `truth_payment_ci` and
    `lie_payment_ci` are 0: class attributes, outside `to_dict`.
    """

    beta: float
    tau: float
    epsilon: float
    p0: float
    p1: float
    probe_cost: float
    trials: int
    truth_payment_mean: float
    lie_payment_mean: float
    abstain_utility_bound: float
    verdicts: dict
    per_bit: dict = field(default_factory=dict, repr=False)
    detail: dict = field(default_factory=dict, repr=False)

    truth_payment_ci = lie_payment_ci = 0.0

    @property
    def overall(self):
        return self.verdicts["truth_dominates"]

    to_dict = report_dict


def best_response_audit(
    prior,
    n,
    alpha,
    delta,
    epsilon,
    cost_model,
    trials,
    seed,
    beta_override=None,
    others=None,
    parameters=None,
):
    """Audit whether truthful participation is a best response at threshold tau.

    The n - 1 peers play the strategy `others`, by default `Threshold(tau)`;
    a probe agent with cost just below tau tries truth, lie and abstain for
    both possible bit values.  `parameters` is (tau, p0, p1); by default
    `exact_parameters` derives them.  Payments and verdicts are exact:
    per_bit[bit] holds the bit's exact mean estimate (`peer_estimate_mean`)
    under "mean_peer_estimate", each action's `expected_utility` at that
    mean under the action's name, and under "cross_check" the
    `_util.cross_check` record of `trials` Monte Carlo rounds of the probe's
    leave-one-out estimate (`peer_estimate_mc`, on seed slot (3, bit, 0))
    against that exact mean.  The report carries the worst case over bits.
    beta_override exists to study misconfigured premia.  Only then do the
    verdicts include beta_covers_cost_bound, which fails a premium below
    the privacy-cost bound at tau: the derived beta is that bound.
    """
    seed = check_seed(seed)
    trials = int(trials)
    if trials < EQUILIBRIUM_MIN_TRIALS:
        raise ValueError(f"trials must be at least {EQUILIBRIUM_MIN_TRIALS}, got {trials}")
    if parameters is None:
        parameters = exact_parameters(prior, alpha, delta, n, epsilon)
    tau, p0, p1 = parameters
    beta = beta_rule(cost_model.kind, epsilon, tau) if beta_override is None else float(beta_override)
    config = MechanismConfig(n=n, alpha=alpha, beta=beta, epsilon=epsilon, p0=p0, p1=p1)
    others = Threshold(tau=tau) if others is None else others
    probe_cost = tau * (1.0 - 1e-6)

    sampled = [peer_estimate_mc(prior, bit, n, config.noise, others, trials,
                                derive_seed(seed, 3, bit, 0)) for bit in (0, 1)]
    per_bit = {}
    for bit in (0, 1):
        agent = AgentType(bit=bit, cost=probe_cost)
        mean = peer_estimate_mean(prior, bit, n, config.noise, others)
        mc, se = sampled[bit]
        per_bit[str(bit)] = {
            "mean_peer_estimate": mean,
            **{action: expected_utility(agent, action, mean, config, cost_model)
               for action in ACTIONS},
            "cross_check": cross_check(mean, mc, se, trials),
        }

    rows = per_bit.values()
    truth_pay = min(row["truth"]["mean_payment"] for row in rows)
    lie_pay = max(row["lie"]["mean_payment"] for row in rows)
    tau_cost_bound = privacy_cost_bound(cost_model, tau, epsilon)
    margin = beta - tau_cost_bound
    verdicts = {"truth_ge_beta": PASS if truth_pay >= beta else FAIL,
                "lie_le_zero": PASS if lie_pay <= 0.0 else FAIL}
    if beta_override is not None:
        verdicts["beta_covers_cost_bound"] = (PASS if margin >= -1e-12 * max(1.0, abs(beta))
                                              else FAIL)
    verdicts["truth_dominates"] = PASS if set(verdicts.values()) == {PASS} else FAIL
    return EquilibriumAuditReport(
        beta=beta,
        tau=tau,
        epsilon=epsilon,
        p0=p0,
        p1=p1,
        probe_cost=probe_cost,
        trials=trials,
        truth_payment_mean=truth_pay,
        lie_payment_mean=lie_pay,
        abstain_utility_bound=min(row["abstain"]["utility_lower_bound"] for row in rows),
        verdicts=verdicts,
        per_bit=per_bit,
        detail={
            "cost_model": cost_model.to_dict(),
            "privacy_cost_bound_at_tau": tau_cost_bound,
            "beta_margin_over_cost_bound": margin,
        },
    )


# ---------------------------------------------------------------------------
# Accuracy experiment.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccuracyReport:
    alpha_prime: float
    success_fraction: float
    trials: int
    delta: float
    verdict: str
    detail: dict = field(default_factory=dict, repr=False)
    table: dict = field(default_factory=dict, repr=False, compare=False)

    to_dict = report_dict


def accuracy_experiment(prior, n, alpha, delta, epsilon, strategy, trials, seed):
    """Fraction of trials whose estimate lands within alpha' of the truth.

    Passing requires success_fraction >= 1 - delta minus a three-sigma
    binomial allowance at sample size `trials`.  alpha_prime is the
    noise-widened radius ln(2/delta)/(epsilon*n) + alpha.  The report's
    `table`, outside to_dict, holds the CLI's CSV columns, one row per
    trial; within_alpha_prime is 1 for the trials success_fraction counts.
    """
    if int(trials) < ACCURACY_MIN_TRIALS:
        raise ValueError(f"need at least {ACCURACY_MIN_TRIALS} trials for a verdict, got {trials}")
    alpha_prime = accuracy_radius(alpha, delta, epsilon, n)
    records = simulate_estimates(prior, n, NoiseSpec(epsilon=epsilon), strategy, trials, seed)
    success = records.abs_error <= alpha_prime
    fraction = float(success.mean())
    allowance = 3.0 * math.sqrt(delta * (1.0 - delta) / records.trials)
    verdict = PASS if fraction >= 1.0 - delta - allowance else FAIL
    return AccuracyReport(
        alpha_prime=float(alpha_prime),
        success_fraction=fraction,
        trials=records.trials,
        delta=float(delta),
        verdict=verdict,
        detail={
            "alpha": alpha,
            "epsilon": epsilon,
            "n": n,
            "mean_abs_error": float(records.abs_error.mean()),
            "max_abs_error": float(records.abs_error.max()),
            "mean_mismatch_fraction": float(records.mismatches.mean() / n),
            "pass_floor": 1.0 - delta - allowance,
            "lint": config_lint(alpha, delta, epsilon, n),
        },
        table={
            "trial": np.arange(records.trials),
            "p_hat": records.p_hat,
            "p_tilde": records.p_tilde,
            "abs_error": records.abs_error,
            "within_alpha_prime": success.astype(np.int64),
            "participants": records.participants,
            "mismatches": records.mismatches,
        },
    )


# ---------------------------------------------------------------------------
# Cost-scaling experiment.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostRow:
    n: int
    total_payment_mean: float
    theorem_bound: float
    epsilon: float
    beta: float
    tau: float
    p0: float
    p1: float
    total_payment_sem: float
    mean_pay_one: float
    mean_pay_zero: float
    mean_pm_one: float
    mean_pm_zero: float
    records: object = field(default=None, repr=False, compare=False)

    to_dict = report_dict


@dataclass(frozen=True)
class CostScalingReport:
    """Cost rows per survey size, with a verdict and a log-log slope.

    Payments may be negative by design, but equilibrium play should never
    make the mean total negative: a negative or non-finite mean is a Fail.
    So is a mean more than three standard errors above its row's
    theorem_bound, the paper's bound on the expected total.  The slope of
    log(mean) on log(n) exists only when every mean is positive and
    finite; otherwise it is None.
    """

    rows: tuple

    @property
    def verdict(self):
        ok = all(math.isfinite(r.total_payment_mean) and 0.0 <= r.total_payment_mean
                 <= r.theorem_bound + 3.0 * r.total_payment_sem for r in self.rows)
        return PASS if ok else FAIL

    @property
    def slope(self):
        if not all(0.0 < row.total_payment_mean < math.inf for row in self.rows):
            return None
        log_n = np.log([r.n for r in self.rows])
        log_mean = np.log([r.total_payment_mean for r in self.rows])
        return float(np.polyfit(log_n, log_mean, 1)[0])

    def to_dict(self):
        return {"rows": [r.to_dict() for r in self.rows], "slope": self.slope,
                "verdict": self.verdict}


def total_payment_bound(params, n):
    """Expected-total upper bound n * (beta + 4 * rho * alpha * gap)."""
    return n * (params.beta + 4.0 * params.rho * params.alpha * params.gap)


def cost_scaling_experiment(
    prior,
    alpha,
    delta,
    ns,
    trials,
    seed,
    parameters=None,
):
    """Mean total payment per survey size under the quadratic cost model.

    For each n: epsilon follows epsilon_rule, `parameters[n]` is (tau, p0,
    p1) (by default `exact_parameters` derives them), beta follows the
    quadratic premium rule, and everyone plays the threshold strategy,
    abstaining above tau.  beta_rule rejects any n that drives epsilon
    above 1, because the quadratic bound is invalid there.  The report's
    log-log slope should approach -1.
    """
    ns = [int(n) for n in ns]
    if not len(set(ns)) == len(ns) >= 2:
        raise ValueError(f"need at least two population sizes, none repeated, got {ns}")
    trials = int(trials)
    if trials < COST_SCALING_MIN_TRIALS:
        raise ValueError(f"trials must be at least {COST_SCALING_MIN_TRIALS}, got {trials}")
    seed = check_seed(seed)

    rows = []
    for n in ns:
        epsilon = epsilon_rule(alpha, delta, n)
        tau, p0, p1 = (exact_parameters(prior, alpha, delta, n, epsilon) if parameters is None
                       else parameters[n])
        beta = beta_rule("chen", epsilon, tau)
        config = MechanismConfig(n=n, alpha=alpha, beta=beta, epsilon=epsilon, p0=p0, p1=p1)
        recs = simulate_survey(prior, config, Threshold(tau=tau), trials, derive_seed(seed, n, 3))
        totals, base = recs.total_payment, recs.base
        ones_total = max(float(base.ones.sum()), 1.0)
        zeros_total = max(float(base.zeros.sum()), 1.0)
        rows.append(CostRow(
            n=n,
            total_payment_mean=float(totals.mean()),
            theorem_bound=float(total_payment_bound(config.scoring, n)),
            epsilon=epsilon,
            beta=beta,
            tau=tau,
            p0=p0,
            p1=p1,
            total_payment_sem=float(totals.std(ddof=1) / math.sqrt(trials)),
            mean_pay_one=float((base.ones * recs.pay_one).sum() / ones_total),
            mean_pay_zero=float((base.zeros * recs.pay_zero).sum() / zeros_total),
            mean_pm_one=float((base.ones * peer_estimate(n, base.b_bar, 1.0)).sum() / ones_total),
            mean_pm_zero=float((base.zeros * peer_estimate(n, base.b_bar, 0.0)).sum() / zeros_total),
            records=recs,
        ))

    return CostScalingReport(rows=tuple(rows))
