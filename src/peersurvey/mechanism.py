"""The private survey mechanism, written as functions of the noisy sum b_bar.

A round adds one Laplace(1/epsilon) draw, rounded to an integer, to the
number of one-reports, giving b_bar.  Everything the mechanism publishes
is a function of b_bar: the estimate `published_estimate(n, b_bar)`, and
for each participant an unclamped rescaled quadratic score of their
leave-one-out estimate `peer_estimate(n, b_bar, own)` against the
posterior prediction matching their report: `payment_at`, which
`payment_pair` applies at a round's b_bar.  The payment is affine in the
leave-one-out estimate.  Abstainers contribute zero and are paid zero.
Every consumer in the package computes these quantities through the
functions here; the privacy audit watches them as an `Observable`, the
noise plus a function of b_bar.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .privacy import NoiseSpec
from .scoring import scaled_score, scoring_params


@dataclass(frozen=True)
class MechanismConfig:
    """Static mechanism parameters.

    p0 and p1 are the posterior predictions paid against; they are computed
    once by the caller (see priors.posterior_clamped_mean) and injected here
    so that they are never recomputed.
    """

    n: int
    alpha: float
    beta: float
    epsilon: float
    p0: float
    p1: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValueError(f"n must be an integer of at least 2, got {self.n}")
        # Validates alpha/beta/p0/p1 jointly.
        scoring_params(self.p0, self.p1, self.alpha, self.beta)
        NoiseSpec(epsilon=self.epsilon)

    @cached_property
    def noise(self):
        return NoiseSpec(epsilon=self.epsilon)

    @cached_property
    def scoring(self):
        return scoring_params(self.p0, self.p1, self.alpha, self.beta)


def published_estimate(n, b_bar):
    """The published estimate clip(b_bar / n, 0, 1); vectorized over b_bar."""
    return np.clip(b_bar / n, 0.0, 1.0)


def peer_estimate(n, b_bar, own):
    """Leave-one-out estimate clip((b_bar - own) / (n - 1), 0, 1).

    What an agent contributing `own` is scored on: the noisy share of ones
    among the other n - 1 reports.  Vectorized over b_bar and own.
    """
    return np.clip((b_bar - own) / (n - 1), 0.0, 1.0)


def payment_at(config, estimate, report):
    """The payment for `report` (0 or 1) at the leave-one-out estimate
    `estimate`: its score against the posterior prediction matching the
    report, p1 or p0.  Vectorized over estimate."""
    return scaled_score(config.scoring, estimate, config.p1 if report else config.p0)


def payment_pair(config, b_bar):
    """Payments earned by a one-reporter and a zero-reporter at a given b_bar.

    Payments depend on an agent's report only through its contribution, so a
    round has at most two distinct participant payments: `payment_at` at
    each reporter's `peer_estimate`.  Vectorized over b_bar; the batched
    simulation drivers pay through it.
    """
    b_bar = np.asarray(b_bar, dtype=np.float64)
    return tuple(payment_at(config, peer_estimate(config.n, b_bar, own), own) for own in (1, 0))


@dataclass(frozen=True)
class Observable:
    """What a privacy audit watches: the noise added to the report sum, and
    the map of_b_bar(reports, b_bar) -> values in [0, 1] from a report
    vector and its noisy sum b_bar to the published value.  An observable
    draws no noise.  The map works elementwise and reads b_bar only through
    clip(b_bar, 0, n), n = len(reports): the noise is an integer, so
    privacy.dp_audit reads it at b_bar = 0..n, where each integer's mass
    is exact, and checks that it is the same at -1 as at 0 and at n + 1 as
    at n.  Each map built here raises ValueError on reports of another n."""

    noise: NoiseSpec
    of_b_bar: Callable


def _size(n, reports):
    """n, once `reports` is seen to hold n reports."""
    if len(reports) != n:
        raise ValueError(f"the observable was built for n={n} agents, got {len(reports)} reports")
    return n


def estimate_observable(n, noise):
    """Audit observable: the published estimate clip(b_bar / n, 0, 1)."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    return Observable(noise, lambda reports, b_bar: published_estimate(_size(n, reports), b_bar))


def payment_observable(config, j):
    """Audit observable: agent j's payment, affinely mapped onto [0, 1].

    The payment is affine in agent j's leave-one-out estimate with slope
    2 rho (p1 - p0) for a one-report and 2 rho (p0 - p1) for a
    zero-report, never 0.  Rescaled by its values at estimates 0 and 1, it
    is that estimate where it rises with it and 1 - estimate where it
    falls.  The estimate clips (b_bar - own) / (n - 1) with own in {0, 1},
    so it is 0 at b_bar <= 0 and 1 at b_bar >= n: it reads b_bar only
    through clip(b_bar, 0, n).
    """
    if not 0 <= j < config.n:
        raise ValueError(f"agent index must lie in [0, {config.n}), got {j}")
    rises = (config.p0 > config.p1, config.p1 > config.p0)  # by agent j's report

    def of_b_bar(reports, b_bar):
        n = _size(config.n, reports)
        own = int(reports[j])
        estimate = peer_estimate(n, b_bar, own)
        return estimate if rises[own] else 1.0 - estimate

    return Observable(config.noise, of_b_bar)
