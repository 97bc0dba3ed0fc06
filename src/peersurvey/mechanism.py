"""The private survey mechanism: collect reports, perturb, estimate, pay.

One run takes n reports (zero, one, or abstain), adds a single Laplace draw
to the report sum, publishes the clamped noisy mean, and pays every
participant a rescaled quadratic score of their leave-one-out estimate
against the posterior prediction matching their report.  Abstainers are paid
exactly zero.  Payments may be negative by default; clamping them at zero is
available but deviates from the analyzed rule.
"""

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import as_generator
from .privacy import NoiseSpec, noise_draw
from .scoring import scaled_score, scoring_params


class Report(enum.Enum):
    """One agent's submission: a bit or an explicit abstention."""

    ZERO = "zero"
    ONE = "one"
    ABSTAIN = "abstain"

    @property
    def participates(self):
        return self is not Report.ABSTAIN

    @property
    def contribution(self):
        """Value added to the report sum; abstentions count as zero."""
        return 1 if self is Report.ONE else 0


@dataclass(frozen=True)
class MechanismConfig:
    """Static mechanism parameters.

    p0 and p1 are the posterior predictions paid against; they are computed
    once by the caller (see priors.posterior_clamped_mean) and injected here
    so that a run never recomputes them.  noise_mode "disabled" is a test
    hook and not the default.
    """

    n: int
    alpha: float
    beta: float
    epsilon: float
    p0: float
    p1: float
    clamp_payments: bool = False
    noise_mode: str = "sample"

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"n must be an integer of at least 2, got {self.n}")
        # Validates alpha/beta/p0/p1 jointly.
        scoring_params(self.p0, self.p1, self.alpha, self.beta)
        NoiseSpec(epsilon=self.epsilon, mode=self.noise_mode)

    @cached_property
    def noise(self):
        return NoiseSpec(epsilon=self.epsilon, mode=self.noise_mode)

    @cached_property
    def scoring(self):
        return scoring_params(self.p0, self.p1, self.alpha, self.beta)


@dataclass(frozen=True)
class MechanismOutcome:
    """Published estimate plus per-agent payments.

    b_bar and noise_draw are retained for audits only; they are not part of
    the mechanism's public output.
    """

    estimate: float
    payments: np.ndarray
    b_bar: float
    noise_draw: float

    def __post_init__(self):
        payments = np.asarray(self.payments, dtype=np.float64)
        payments.setflags(write=False)
        object.__setattr__(self, "payments", payments)


def run(config, reports, rng):
    """Execute one survey round; bit-reproducible given (config, reports, seed).

    The only randomness consumed is the single Laplace draw (none when the
    noise mode is disabled).  Participants are paid by `payment_pair`
    according to their contribution; abstainers get exactly zero.
    """
    if len(reports) != config.n:
        raise ValueError(f"expected {config.n} reports, got {len(reports)}")
    values = np.fromiter((r.contribution for r in reports), dtype=np.int8, count=config.n)
    mask = np.fromiter((r.participates for r in reports), dtype=bool, count=config.n)

    bhat_sum = int(values.sum())
    draw = noise_draw(config.noise, as_generator(rng))
    b_bar = float(bhat_sum + draw)

    pay_one, pay_zero = payment_pair(config, b_bar)
    return MechanismOutcome(
        estimate=float(np.clip(b_bar / config.n, 0.0, 1.0)),
        payments=np.where(mask, np.where(values == 1, pay_one, pay_zero), 0.0),
        b_bar=b_bar,
        noise_draw=float(draw),
    )


def observable_view(outcome, i):
    """What everyone but agent i can see: the estimate and others' payments."""
    n = outcome.payments.size
    if not 0 <= i < n:
        raise ValueError(f"agent index must lie in [0, {n}), got {i}")
    return outcome.estimate, np.delete(outcome.payments, i)


def true_statistic(population):
    """Fraction of ones among the realized bits."""
    if population.n == 0:
        raise ValueError("population is empty")
    return float(population.bits.mean())


def payment_pair(config, b_bar):
    """Payments earned by a one-reporter and a zero-reporter at a given b_bar.

    Payments depend on an agent's report only through its contribution, so a
    run has at most two distinct participant payments.  Vectorized over
    b_bar; `run`, the batched simulation drivers and the utility estimator
    all pay through it.
    """
    b_bar = np.asarray(b_bar, dtype=np.float64)
    pm_one = np.clip((b_bar - 1.0) / (config.n - 1), 0.0, 1.0)
    pm_zero = np.clip(b_bar / (config.n - 1), 0.0, 1.0)
    pay_one = scaled_score(config.scoring, pm_one, config.p1)
    pay_zero = scaled_score(config.scoring, pm_zero, config.p0)
    if config.clamp_payments:
        pay_one = np.maximum(pay_one, 0.0)
        pay_zero = np.maximum(pay_zero, 0.0)
    return pay_one, pay_zero


def estimate_observable(n, noise):
    """Audit observable: the published estimate as a vectorized callable.

    Returns mech(reports, rng, size) -> clamped noisy means, suitable for
    privacy.dp_audit.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")

    def mech(reports, rng, size):
        bhat = int(np.sum(reports))
        draws = noise_draw(noise, rng, size)
        return np.clip((bhat + draws) / n, 0.0, 1.0)

    return mech


def payment_observable(config, j):
    """Audit observable: agent j's payment, affinely mapped into [0, 1].

    The payment is an affine function of the clamped leave-one-out estimate,
    so rescaling by its achievable range preserves histogram bins one-to-one.
    """
    if not 0 <= j < config.n:
        raise ValueError(f"agent index must lie in [0, {config.n}), got {j}")

    def mech(reports, rng, size):
        reports = np.asarray(reports)
        bhat = int(np.sum(reports))
        target = config.p1 if reports[j] == 1 else config.p0
        draws = noise_draw(config.noise, rng, size)
        pm = np.clip((bhat + draws - reports[j]) / (config.n - 1), 0.0, 1.0)
        pay = scaled_score(config.scoring, pm, target)
        lo = min(
            scaled_score(config.scoring, 0.0, target),
            scaled_score(config.scoring, 1.0, target),
        )
        hi = max(
            scaled_score(config.scoring, 0.0, target),
            scaled_score(config.scoring, 1.0, target),
        )
        if hi == lo:
            return np.full(size, 0.5)
        return (pay - lo) / (hi - lo)

    return mech
