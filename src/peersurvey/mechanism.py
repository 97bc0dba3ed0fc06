"""The private survey mechanism: collect reports, perturb, estimate, pay.

One run takes n reports, each a contribution (0 or 1) and a participation
flag, adds a single Laplace draw to the report sum, publishes the clamped
noisy mean, and pays every participant a rescaled quadratic score of their
leave-one-out estimate against the posterior prediction matching their
report.  Abstainers contribute zero and are paid exactly zero.  Payments may
be negative by default; clamping them at zero is available but deviates
from the analyzed rule.

Everything published is a function of the one noisy sum b_bar: the estimate
is `published_estimate(n, b_bar)` and a payment depends on b_bar and the
agent's own contribution only, through `peer_estimate`.  Every consumer in
the package computes them through these two functions.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import as_generator
from .privacy import NoiseSpec, noise_draw
from .scoring import scaled_score, scoring_params


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


def published_estimate(n, b_bar):
    """The published estimate clip(b_bar / n, 0, 1); vectorized over b_bar."""
    return np.clip(b_bar / n, 0.0, 1.0)


def peer_estimate(n, b_bar, own):
    """Leave-one-out estimate clip((b_bar - own) / (n - 1), 0, 1).

    What an agent contributing `own` is scored on: the noisy share of ones
    among the other n - 1 reports.  Vectorized over b_bar and own.
    """
    return np.clip((b_bar - own) / (n - 1), 0.0, 1.0)


def run(config, values, participates, rng):
    """Execute one survey round; bit-reproducible given (config, reports, seed).

    The reports are the (contributions, participation) arrays that
    `agents.strategy_arrays` returns: one 0/1 contribution per agent, and
    zero for every abstainer.  The only randomness consumed is the single
    Laplace draw (none when the noise mode is disabled).  Participants are
    paid by `payment_pair` according to their contribution; abstainers get
    exactly zero.
    """
    values = np.asarray(values)
    participates = np.asarray(participates, dtype=bool)
    if values.shape != (config.n,) or participates.shape != (config.n,):
        raise ValueError(
            f"expected {config.n} contributions and participation flags, "
            f"got shapes {values.shape} and {participates.shape}"
        )
    if not np.all((values == 0) | (values == 1)):
        raise ValueError("contributions must be 0 or 1")
    if np.any(values[~participates] != 0):
        raise ValueError("an abstainer must contribute 0")

    draw = noise_draw(config.noise, as_generator(rng))
    b_bar = float(int(values.sum()) + draw)
    pay_one, pay_zero = payment_pair(config, b_bar)
    return MechanismOutcome(
        estimate=float(published_estimate(config.n, b_bar)),
        payments=np.where(participates, np.where(values == 1, pay_one, pay_zero), 0.0),
        b_bar=b_bar,
        noise_draw=float(draw),
    )


def payment_pair(config, b_bar):
    """Payments earned by a one-reporter and a zero-reporter at a given b_bar.

    Payments depend on an agent's report only through its contribution, so a
    run has at most two distinct participant payments.  Vectorized over
    b_bar; `run`, the batched simulation drivers, the utility estimator and
    the payment audit all pay through it.
    """
    b_bar = np.asarray(b_bar, dtype=np.float64)
    pay_one = scaled_score(config.scoring, peer_estimate(config.n, b_bar, 1.0), config.p1)
    pay_zero = scaled_score(config.scoring, peer_estimate(config.n, b_bar, 0.0), config.p0)
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
        return published_estimate(n, int(np.sum(reports)) + noise_draw(noise, rng, size))

    return mech


def payment_observable(config, j):
    """Audit observable: agent j's payment, affinely mapped into [0, 1].

    The payment is `payment_pair`'s, clamped when the config clamps, so the
    audit sees the payment the mechanism makes.  It is monotone in the
    leave-one-out estimate, so rescaling by its values at estimates 0 and 1
    maps it into [0, 1] in order.
    """
    if not 0 <= j < config.n:
        raise ValueError(f"agent index must lie in [0, {config.n}), got {j}")

    def mech(reports, rng, size):
        reports = np.asarray(reports)
        own = int(reports[j])
        b_bar = int(np.sum(reports)) + noise_draw(config.noise, rng, size)
        pay = payment_pair(config, b_bar)[1 - own]
        # b_bar = own and own + n - 1 put the leave-one-out estimate at 0 and 1.
        ends = payment_pair(config, [own, own + config.n - 1])[1 - own]
        lo, hi = ends.min(), ends.max()
        if hi == lo:
            return np.full(size, 0.5)
        return (pay - lo) / (hi - lo)

    return mech
