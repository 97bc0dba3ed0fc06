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
from functools import partial

import numpy as np

from ._util import check_seed, derive_seed, report_dict
from .agents import (
    ABSTAIN,
    ACTIONS,
    AgentType,
    CostModel,
    Threshold,
    expected_utility,
    peer_estimate_mc,
    peer_estimate_mean,
    privacy_cost_bound,
    sample_rounds,
)
from .mechanism import MechanismConfig, payment_pair, peer_estimate, published_estimate
from .priors import cost_threshold, posterior_clamped_mean
from .privacy import FAIL, PASS, NoiseSpec

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
    tau, under the worst case (eta = 1) of the cost model `kind`.

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
    """Per-trial survey statistics, one array entry per trial."""

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
    pm_one: np.ndarray
    pm_zero: np.ndarray
    total_payment: np.ndarray
    min_payment: np.ndarray
    max_payment: np.ndarray


def simulate_estimates(prior, n, noise, strategy, trials, seed):
    """TrialRecords of the rounds `agents.sample_rounds` draws: surveys of n
    agents playing `strategy` and their noisy estimates.  No
    per-agent arrays are built, so memory is O(trials) for any n."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    chunks = [(bit_ones / n, published_estimate(n, b_bar), b_bar, ones, participants - ones,
               participants, mismatches)
              for (bit_ones, ones, participants, mismatches), b_bar
              in sample_rounds(prior, n, noise, strategy, trials, check_seed(seed))]
    return TrialRecords(*map(np.concatenate, zip(*chunks)))


def simulate_survey(prior, config, strategy, trials, seed):
    """simulate_estimates plus payments under the mechanism's payment rule."""
    records = simulate_estimates(prior, config.n, config.noise, strategy, trials, seed)
    pay_one, pay_zero = payment_pair(config, records.b_bar)
    pm_one = peer_estimate(config.n, records.b_bar, 1.0)
    pm_zero = peer_estimate(config.n, records.b_bar, 0.0)
    total = records.ones * pay_one + records.zeros * pay_zero

    abstainers = config.n - records.participants
    pos_inf = np.full_like(pay_one, np.inf)
    neg_inf = np.full_like(pay_one, -np.inf)
    mins = np.minimum.reduce([
        np.where(records.ones > 0, pay_one, pos_inf),
        np.where(records.zeros > 0, pay_zero, pos_inf),
        np.where(abstainers > 0, 0.0, pos_inf),
    ])
    maxs = np.maximum.reduce([
        np.where(records.ones > 0, pay_one, neg_inf),
        np.where(records.zeros > 0, pay_zero, neg_inf),
        np.where(abstainers > 0, 0.0, neg_inf),
    ])
    return PaymentRecords(
        base=records,
        pay_one=pay_one,
        pay_zero=pay_zero,
        pm_one=pm_one,
        pm_zero=pm_zero,
        total_payment=total,
        min_payment=mins,
        max_payment=maxs,
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

    def __post_init__(self):
        required = {"truth_ge_beta", "lie_le_zero", "beta_covers_cost_bound",
                    "truth_dominates"}
        if set(self.verdicts) != required:
            raise ValueError(f"verdicts must have keys {sorted(required)}")
        both = (self.verdicts["truth_ge_beta"], self.verdicts["lie_le_zero"])
        if self.verdicts["truth_dominates"] == PASS and any(v != PASS for v in both):
            raise ValueError(
                "truth_dominates can only Pass when truth_ge_beta and "
                "lie_le_zero both Pass"
            )

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
    off=ABSTAIN,
    derive=None,
):
    """Audit whether truthful participation is a best response at threshold tau.

    Everyone else plays the threshold strategy; a probe agent with cost just
    below tau tries truth, lie and abstain for both possible bit values.
    `derive(n, epsilon)` gives (tau, p0, p1); by default `exact_parameters`
    derives them.  Payments and verdicts are exact: per_bit[bit] holds the
    bit's exact mean estimate (`peer_estimate_mean`) under
    "mean_peer_estimate", each action's `expected_utility` at that mean under
    the action's name, and under "cross_check" {mc, se, samples, z}: `trials`
    Monte Carlo rounds of the probe's leave-one-out estimate
    (`peer_estimate_mc`, on seed slot (3, bit, 0)), z being
    (mc - exact) / se.  The report carries the worst case over bits.
    beta_override exists to study misconfigured premia; when used, the
    beta_covers_cost_bound diagnostic flags premia below the privacy-cost
    bound at tau.
    """
    seed = check_seed(seed)
    trials = int(trials)
    if trials < EQUILIBRIUM_MIN_TRIALS:
        raise ValueError(f"trials must be at least {EQUILIBRIUM_MIN_TRIALS}, got {trials}")
    if derive is None:
        derive = partial(exact_parameters, prior, alpha, delta)
    tau, p0, p1 = derive(n, epsilon)
    beta = beta_rule(cost_model.kind, epsilon, tau) if beta_override is None else float(beta_override)
    config = MechanismConfig(n=n, alpha=alpha, beta=beta, epsilon=epsilon, p0=p0, p1=p1)
    others = Threshold(tau=tau, off=off)
    probe_cost = tau * (1.0 - 1e-6)

    # The Monte Carlo runs come before the exact law: their chunks are freed
    # before the Gauss rule's eigensolver grows the resident set, so the
    # two do not add up in the peak.
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
            "cross_check": {"mc": mc, "se": se, "samples": trials, "z": (mc - mean) / se},
        }

    rows = per_bit.values()
    truth_pay = min(row["truth"]["mean_payment"] for row in rows)
    lie_pay = max(row["lie"]["mean_payment"] for row in rows)
    truth_v = PASS if truth_pay >= beta else FAIL
    lie_v = PASS if lie_pay <= 0.0 else FAIL
    tau_cost_bound = privacy_cost_bound(cost_model, tau, epsilon)
    margin = beta - tau_cost_bound
    cover_v = PASS if margin >= -1e-12 * max(1.0, abs(beta)) else FAIL
    dominates = PASS if truth_v == lie_v == cover_v == PASS else FAIL
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
        verdicts={
            "truth_ge_beta": truth_v,
            "lie_le_zero": lie_v,
            "beta_covers_cost_bound": cover_v,
            "truth_dominates": dominates,
        },
        per_bit=per_bit,
        detail={
            "cost_model": cost_model.to_dict(),
            "beta_rule_value": beta_rule(cost_model.kind, epsilon, tau),
            "privacy_cost_bound_at_tau": tau_cost_bound,
            "beta_margin_over_cost_bound": margin,
            "off_behavior": off,
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
    records: object = field(default=None, repr=False, compare=False)

    to_dict = report_dict


def accuracy_experiment(
    prior,
    n,
    alpha,
    delta,
    epsilon,
    strategy,
    trials,
    seed,
    alpha_prime=None,
):
    """Fraction of trials whose estimate lands within alpha' of the truth.

    Passing requires success_fraction >= 1 - delta minus a three-sigma
    binomial allowance at sample size `trials`.  alpha_prime defaults to
    the noise-widened radius ln(2/delta)/(epsilon*n) + alpha.  The report
    keeps the simulated TrialRecords on `records`, outside to_dict.
    """
    if int(trials) < ACCURACY_MIN_TRIALS:
        raise ValueError(f"need at least {ACCURACY_MIN_TRIALS} trials for a verdict, got {trials}")
    if alpha_prime is None:
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
        records=records,
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
    The slope of log(mean) on log(n) exists only when every mean is
    positive and finite; otherwise it is None.
    """

    rows: tuple

    @property
    def verdict(self):
        means = [row.total_payment_mean for row in self.rows]
        return PASS if all(math.isfinite(m) and m >= 0.0 for m in means) else FAIL

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
    derive=None,
):
    """Mean total payment per survey size under the quadratic cost model.

    For each n: epsilon follows epsilon_rule, `derive(n, epsilon)` gives
    (tau, p0, p1) (by default `exact_parameters`), beta follows the
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
    if derive is None:
        derive = partial(exact_parameters, prior, alpha, delta)

    rows = []
    for n in ns:
        epsilon = epsilon_rule(alpha, delta, n)
        tau, p0, p1 = derive(n, epsilon)
        beta = beta_rule("chen", epsilon, tau)
        config = MechanismConfig(n=n, alpha=alpha, beta=beta, epsilon=epsilon, p0=p0, p1=p1)
        recs = simulate_survey(prior, config, Threshold(tau=tau), trials, derive_seed(seed, n, 3))
        totals = recs.total_payment
        ones_total = float(recs.base.ones.sum())
        zeros_total = float(recs.base.zeros.sum())
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
            mean_pay_one=float((recs.base.ones * recs.pay_one).sum() / max(ones_total, 1.0)),
            mean_pay_zero=float((recs.base.zeros * recs.pay_zero).sum() / max(zeros_total, 1.0)),
            mean_pm_one=float((recs.base.ones * recs.pm_one).sum() / max(ones_total, 1.0)),
            mean_pm_zero=float((recs.base.zeros * recs.pm_zero).sum() / max(zeros_total, 1.0)),
            records=recs,
        ))

    return CostScalingReport(rows=tuple(rows))
