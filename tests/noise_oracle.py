"""Oracles for the integer noise R = rint(X), X ~ Laplace(0, scale), that
the mechanism adds to the report sum.  They take R's law from scipy.stats'
Laplace and sum over it directly, apart from the package's closed forms."""

import numpy as np
from scipy import stats


def rounded_laplace_pmf(z, scale):
    """P(R = z), X's mass on [z - 1/2, z + 1/2): a difference of survival
    functions right of 0 and of CDFs left of it, so that no tail cancels."""
    z = np.asarray(z, dtype=np.float64)
    law = stats.laplace(scale=scale)
    return np.where(z > 0, law.sf(z - 0.5) - law.sf(z + 0.5), law.cdf(z + 0.5) - law.cdf(z - 0.5))


def clipped_sums(m, scale):
    """E[clip(k + R, 0, m)] for k = 0..m.

    That is k, plus the sum over j >= 1 of j P(R = -k - j), the draws
    clipped at 0, less the sum of j P(R = m - k + j), those clipped at m.
    R is symmetric, so both are c(t) = sum_j j P(R = t + j), at t = k and at
    t = m - k.  P(R = t + j) falls as e^(-(t + j)/scale), so the sums stop
    at j = 50 scale + 50, and c(t) is taken as 0 past t = 50 scale + 50.
    """
    span = int(50 * scale) + 50
    t = np.arange(min(m, span) + 1)[:, None]
    j = np.arange(1, span + 1)
    c = np.zeros(m + 1)
    c[:t.size] = (j * rounded_laplace_pmf(t + j, scale)).sum(axis=1)
    k = np.arange(m + 1)
    return k + c - c[::-1]
