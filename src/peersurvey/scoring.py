"""Quadratic (Brier-style) scoring rules and their shifted, rescaled form.

The mechanism pays each participant a rescaled quadratic score comparing the
noisy peer estimate against the posterior-predictive value attached to the
participant's own report.  The rescaling constants (c, d, rho) are chosen so
that, within an accuracy band around the predicted values, truthful reporting
earns at least `beta` while misreporting earns at most zero.
"""

from dataclasses import dataclass

import numpy as np


def basic_brier(outcome, q):
    """Quadratic score of forecast q against a binary outcome (0 or 1).

    Equals 2*I*q + 2*(1-I)*(1-q) - q**2 - (1-q)**2 for outcome I.
    """
    outcome = np.asarray(outcome)
    q = np.asarray(q)
    if not np.all((outcome == 0) | (outcome == 1)):
        raise ValueError("outcome must be 0 or 1")
    if np.any(q < 0.0) or np.any(q > 1.0):
        raise ValueError("forecast q must lie in [0, 1]")
    val = 2.0 * outcome * q + 2.0 * (1.0 - outcome) * (1.0 - q) - q**2 - (1.0 - q) ** 2
    return float(val) if val.ndim == 0 else val


def b_score(p, q):
    """Expected quadratic score 1 - 2*(p - 2*p*q + q**2).

    Linear in p, uniquely maximized over q at q = p.  Accepts any reals;
    range validation belongs to callers that require probabilities.
    """
    val = 1.0 - 2.0 * (p - 2.0 * p * q + q**2)
    return float(val) if np.ndim(val) == 0 else val


@dataclass(frozen=True)
class ScoringParams:
    """Shift/rescale constants together with the inputs that produced them.

    The constants are recomputable bit-exactly from (p0, p1, alpha, beta);
    `scoring_params` is the only constructor that should be used.
    """

    c: float
    d: float
    rho: float
    p0: float
    p1: float
    alpha: float
    beta: float

    @property
    def gap(self):
        """Absolute prediction gap |p1 - p0|."""
        return abs(self.p1 - self.p0)


def scoring_params(p0, p1, alpha, beta):
    """Derive the shift c, offset d and scale rho for the payment rule.

    Requires p0 != p1, beta > 0 and 0 < alpha < |p1 - p0| / 2; the last
    condition keeps the scale positive and finite.
    """
    p0 = float(p0)
    p1 = float(p1)
    alpha = float(alpha)
    beta = float(beta)
    for name, v in (("p0", p0), ("p1", p1)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    if p0 == p1:
        raise ValueError("predictions p0 and p1 must differ")
    gap = abs(p1 - p0)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if alpha >= gap / 2.0:
        raise ValueError(
            f"alpha must be smaller than |p1 - p0| / 2 = {gap / 2.0}, got {alpha}"
        )
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    c = (p0 + p1 - 1.0) / 2.0
    d = 0.5 - 1.5 * (p1 - p0) ** 2 + 2.0 * alpha * gap
    rho = beta / (2.0 * (p1 - p0) ** 2 - 4.0 * alpha * gap)
    return ScoringParams(c=c, d=d, rho=rho, p0=p0, p1=p1, alpha=alpha, beta=beta)


def scaled_score(params, p, q):
    """Payment rho * (b_score(p - c, q - c) - d) for estimate p and target q."""
    val = params.rho * (b_score(p - params.c, q - params.c) - params.d)
    return float(val) if np.ndim(val) == 0 else val


def lipschitz_bound(params, q):
    """Slope magnitude |rho * (2 - 4*(q - c))| of p -> scaled_score(p, q)."""
    return abs(params.rho * (2.0 - 4.0 * (q - params.c)))
