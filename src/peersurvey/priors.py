"""Population priors: exchangeable bit/cost generation and derived quantities.

A prior couples three ingredients: a mixing distribution over a latent
Bernoulli parameter theta, conditional on which agents' bits are i.i.d., and
one cost distribution per bit value.  From it we derive, exactly, the
posterior predictive bit probabilities, their noisy clamped counterparts
p0/p1 used by the payment rule, the mean clamped estimate of peers whose
reports follow any affine function of theta (`clamped_mean`, from two
values of the peer count's generating function, with no pmf), and the
participation cost threshold tau used to size the truthfulness premium,
searched on one 1e-4 cost grid (`cost_threshold_parts`).
`group_prob_mc` cross-checks tau by sampling the chance that defines it, at
the exact tau; the p0/p1 cross-check is `agents.peer_estimate_mc` under
truthful peers.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, betaln, ndtr, ndtri, xlog1py

from ._util import CHUNK_TRIALS, chunk_sizes, cross_check, from_config, is_number, subseed_rng

FAMILIES = ("conditional_iid",)

# Resolution of the cost-axis grid searched for tau, and the quantile used to
# cap the search range.
COST_GRID = 1e-4
COST_SEARCH_QUANTILE = 1.0 - 1e-6


class CostSearchError(ValueError):
    """The threshold condition is not met anywhere within the search cap."""


# ---------------------------------------------------------------------------
# Cost distributions.  Each family gives its CDF, which the tau search and
# the report-count law read, and its quantile function, which caps the search.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 <= self.lo < self.hi:
            raise ValueError(f"uniform needs 0 <= lo < hi, got [{self.lo}, {self.hi}]")

    def cdf(self, x):
        return np.clip((np.asarray(x, dtype=np.float64) - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def quantile(self, q):
        return self.lo + np.asarray(q, dtype=np.float64) * (self.hi - self.lo)


@dataclass(frozen=True)
class PointMass:
    value: float

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError(f"cost point mass must be nonnegative, got {self.value}")

    def cdf(self, x):
        return np.where(np.asarray(x, dtype=np.float64) >= self.value, 1.0, 0.0)

    def quantile(self, q):
        return np.full_like(np.asarray(q, dtype=np.float64), self.value)


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        if not self.rate > 0.0:
            raise ValueError(f"exponential rate must be positive, got {self.rate}")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 0.0, -np.expm1(-self.rate * x), 0.0)

    def quantile(self, q):
        return -np.log1p(-np.asarray(q, dtype=np.float64)) / self.rate


@dataclass(frozen=True)
class TruncatedLogNormal:
    """Log-normal conditioned on not exceeding `cap`."""

    mu: float
    sigma: float
    cap: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not self.cap > 0.0:
            raise ValueError(f"cap must be positive, got {self.cap}")
        if not ndtr(self._z_cap()) > 0.0:
            raise ValueError(f"log-normal with mu {self.mu} and sigma {self.sigma} has no "
                             f"mass below cap {self.cap}")

    def _z_cap(self):
        return (math.log(self.cap) - self.mu) / self.sigma

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        mass = ndtr(self._z_cap())
        with np.errstate(divide="ignore"):
            z = (np.log(np.maximum(x, np.finfo(np.float64).tiny)) - self.mu) / self.sigma
        val = np.where(x <= 0.0, 0.0, np.where(x >= self.cap, 1.0, ndtr(z) / mass))
        return val

    def quantile(self, q):
        mass = ndtr(self._z_cap())
        q = np.asarray(q, dtype=np.float64)
        return np.exp(self.mu + self.sigma * ndtri(np.clip(q, 0.0, 1.0) * mass))


_COST_KINDS = {"uniform": Uniform, "point_mass": PointMass, "exponential": Exponential,
               "log_normal": TruncatedLogNormal}


# ---------------------------------------------------------------------------
# Mixing distributions over the latent Bernoulli parameter.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaMixing:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError(f"beta parameters must be positive, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class AtomMixing:
    """Finite mixture of point masses: ((weight, theta), ...)."""

    atoms: tuple

    def __post_init__(self):
        if not isinstance(self.atoms, (list, tuple)) or not all(
                isinstance(atom, (list, tuple)) and len(atom) == 2 and all(map(is_number, atom))
                for atom in self.atoms):
            raise ValueError(f"atoms must be [weight, theta] pairs of finite numbers, "
                             f"got {self.atoms!r}")
        atoms = tuple((float(w), float(t)) for w, t in self.atoms)
        if not atoms:
            raise ValueError("atom mixture needs at least one atom")
        total = sum(w for w, _ in atoms)
        if any(w <= 0.0 for w, _ in atoms):
            raise ValueError("atom weights must be positive")
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"atom weights must sum to 1, got {total}")
        if any(not 0.0 <= t <= 1.0 for _, t in atoms):
            raise ValueError("atom locations must lie in [0, 1]")
        object.__setattr__(self, "atoms", atoms)


@dataclass(frozen=True)
class PointMixing:
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")


_MIXING_KINDS = {"beta": BetaMixing, "atoms": AtomMixing, "point": PointMixing}


# ---------------------------------------------------------------------------
# Prior specification and populations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PriorSpec:
    """Joint prior over agent types (bit, cost).

    family "conditional_iid", the only one, draws theta from the mixing
    distribution once per population; point mixing fixes it to a constant.
    Costs are drawn independently per agent from cost0 or cost1 according
    to the agent's bit.
    """

    family: str
    mixing: object = field(metadata={"kinds": _MIXING_KINDS})
    cost0: object = field(metadata={"kinds": _COST_KINDS})
    cost1: object = field(metadata={"kinds": _COST_KINDS})

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")

    @classmethod
    def from_dict(cls, d):
        return from_config(cls, d, "prior")

    def theta_sample(self, rng, size, bit=None):
        """`size` draws of theta from the mixing distribution, given one agent's `bit` if set."""
        if bit not in (None, 0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        m = self.mixing
        if isinstance(m, BetaMixing):
            return rng.beta(m.a + (bit == 1), m.b + (bit == 0), size)
        if isinstance(m, PointMixing):
            return np.full(size, m.theta)
        weights, values = _atoms(m) if bit is None else _posterior_atoms(m, bit)
        return values[rng.choice(len(values), size=size, p=weights)]


# ---------------------------------------------------------------------------
# Posterior predictive bit probabilities.
# ---------------------------------------------------------------------------


def _atoms(mixing):
    """(weights, thetas) of a point or atom mixing; point mixing is one atom."""
    if isinstance(mixing, PointMixing):
        return np.ones(1), np.array([mixing.theta])
    return np.array([w for w, _ in mixing.atoms]), np.array([t for _, t in mixing.atoms])


def _posterior_atoms(mixing, bit):
    """(weights, thetas) with the weights reweighted by the likelihood of one's own bit."""
    weights, thetas = _atoms(mixing)
    post = weights * (thetas if bit == 1 else 1.0 - thetas)
    total = post.sum()
    if total <= 0.0:
        raise ValueError(f"conditioning on bit={bit} has zero prior probability")
    return post / total, thetas


def posterior_bit_prob(prior, bit):
    """Closed-form Pr[peer's bit = 1 | own bit = `bit`].

    With Beta(a, b) mixing this is (a + 1) / (a + b + 1) conditioned on a
    one and a / (a + b + 1) conditioned on a zero.  For atom mixtures (and
    point mixing, one atom) the posterior reweights atoms by their
    likelihood.  Conditioning on a bit of zero prior probability raises
    ValueError.
    """
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    m = prior.mixing
    if isinstance(m, BetaMixing):
        if bit == 1:
            return (m.a + 1.0) / (m.a + m.b + 1.0)
        return m.a / (m.a + m.b + 1.0)
    weights, thetas = _posterior_atoms(m, bit)
    return float(weights @ thetas)


def _pgf_gap(prior, bit, m, g, w):
    """E[z^K] - E[z^(m-K)], w = 1 - z, for the one-reports K of m peers
    given one's own bit, each peer reporting 1 with chance
    q(theta) = g[0] + theta (g[1] - g[0]).

    Given theta, K ~ Bin(m, q) and E[z^K] - 1 = expm1(m log1p(-q w)); m - K
    is the same with 1 - q.  Atom and point mixing sum that over the
    posterior atoms.  Beta mixing sums exactly over the peers' ones B,
    beta-binomial given the bit: the B holders of a one report 1 with
    chance g[1] and the others with chance g[0], so
    E[z^K | B] = (1 - g[1] w)^B (1 - g[0] w)^(m - B).  The beta-binomial
    pmf is divided by its sum, which cancels most of the rounding error
    that its log terms carry at large m.  `xlog1py` keeps q w = 1, where w
    rounds to 1, finite and free of warnings.
    """
    g0, g1 = g
    mixing = prior.mixing
    if isinstance(mixing, BetaMixing):
        a, b = mixing.a + bit, mixing.b + (1 - bit)
        ones = np.arange(m + 1)
        rest = m - ones
        # scipy.stats' beta-binomial log-pmf, with log C(m, B) from betaln.
        pmf = np.exp(betaln(ones + a, rest + b) - betaln(a, b)
                     - np.log(m + 1.0) - betaln(rest + 1, ones + 1))

        def less_one(u0, u1):
            return np.expm1(xlog1py(ones, -u1 * w) + xlog1py(rest, -u0 * w))

        return float(np.sum(pmf * (less_one(g0, g1) - less_one(1.0 - g0, 1.0 - g1)))
                     / np.sum(pmf))
    weights, thetas = _posterior_atoms(mixing, bit)
    q = g0 + thetas * (g1 - g0)
    return float(np.sum(weights * (np.expm1(xlog1py(m, -q * w))
                                   - np.expm1(xlog1py(m, -(1.0 - q) * w)))))


def clamped_mean(prior, bit, n, scale, g=(0.0, 1.0)):
    """Exact mean of the clamped noisy leave-one-out estimate.

    Computes E[clip((K + X) / m, 0, 1)], m = n - 1, where K counts the
    one-reports of the m peers given one's own bit, each peer reporting 1
    with probability (1 - theta) g[0] + theta g[1], and X is Laplace noise
    of scale s rounded to an integer, as `privacy.NoiseSpec` draws it;
    s = 0 means no noise.  X = j with chance e^{-|j|/s} sinh(1/(2s)) for
    j != 0, so for each integer k in [0, m]
    E[clip(k + X, 0, m)] = k + c (z^k - z^(m-k)) with z = e^{-1/s} and
    c = 1 / (4 sinh(1/(2s))) = e^{-h} / (2 (1 - e^{-2h})), h = 1/(2s): the
    two terms are the noise mass clipped at 0 and at m, summed as
    geometric series.  Averaged over K, the mean is
    E[K]/m + c (E[z^K] - E[z^(m-K)]) / m: E[K]/m is g[0] + (g[1] - g[0])
    times `posterior_bit_prob`, and the generating-function gap comes from
    `_pgf_gap`.
    """
    if bit not in (0, 1) or n < 2 or not scale >= 0.0:
        raise ValueError(f"need bit 0 or 1, n >= 2 and scale >= 0, got {bit}, {n}, {scale}")
    m = n - 1
    g0, g1 = g
    mean = g0 + (g1 - g0) * posterior_bit_prob(prior, bit)
    if scale == 0.0:
        return mean
    h = 0.5 / scale
    c = -0.5 * math.exp(-h) / math.expm1(-2.0 * h)
    w = -math.expm1(-1.0 / scale)
    return mean + c * _pgf_gap(prior, bit, m, g, w) / m


def posterior_clamped_mean(prior, bit, n, epsilon):
    """`clamped_mean` under truthful peers and Laplace noise of scale 1/epsilon.

    This is the prediction target actually paid against, and differs from
    `posterior_bit_prob` by the noise and clamping bias; callers should
    treat the two as distinct quantities.
    """
    if not epsilon > 0.0:
        raise ValueError(f"need epsilon > 0, got {epsilon}")
    return clamped_mean(prior, bit, n, 1.0 / epsilon)


# ---------------------------------------------------------------------------
# Participation cost threshold.
# ---------------------------------------------------------------------------


def _beta_mixed_tail(mixing, f0, f1, need, n):
    """E[P(Bin(n, theta f1 + (1 - theta) f0) >= need)], theta ~ Beta(a, b), by quadrature.

    The binomial tail steps from 0 to 1 around the theta at which the mean
    cheap fraction equals need / n, so the integral is split there, and
    QUADPACK's algebraic weight (QAWS) takes the Beta density's power at
    each outer end: a density infinite at 0 or 1 then raises no divergence
    warning.  Only Beta mixing with unequal cost laws comes here, so
    scipy.integrate is imported here rather than with the module.
    """
    from scipy.integrate import quad

    a, b = mixing.a, mixing.b

    def tail(theta):
        return _binomial_tail(need, n, theta * f1 + (1.0 - theta) * f0)

    step = (need / n - f0) / (f1 - f0)
    if 0.0 < step < 1.0:
        value = (quad(lambda t: tail(t) * (1.0 - t) ** (b - 1.0), 0.0, step,
                      weight="alg", wvar=(a - 1.0, 0.0), limit=200)[0]
                 + quad(lambda t: tail(t) * t ** (a - 1.0), step, 1.0,
                        weight="alg", wvar=(0.0, b - 1.0), limit=200)[0])
    else:
        value = quad(tail, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0), limit=200)[0]
    return min(max(value * math.exp(-betaln(a, b)), 0.0), 1.0)


def cost_cdfs(prior, tau):
    """(F0(tau), F1(tau)): the cost CDFs of an agent holding a zero and a one."""
    return float(np.asarray(prior.cost0.cdf(tau))), float(np.asarray(prior.cost1.cdf(tau)))


def _binomial_tail(need, n, g):
    """P(Bin(n, g) >= need), 1 <= need <= n, as the regularized incomplete
    beta I_g(need, n - need + 1); scipy.stats' binom.sf gives the same values."""
    return betainc(need, n - need + 1, g)


def _group_prob(prior, n, need, tau):
    """Exact P(at least `need` of n agents have cost <= tau).

    Given theta, each agent is cheap with probability
    g = theta F1(tau) + (1 - theta) F0(tau), so the count is Bin(n, g); the
    mixing over theta is a weighted sum over the atoms, or for Beta mixing a
    quadrature.  When F0(tau) = F1(tau), g does not depend on theta.
    """
    f0, f1 = cost_cdfs(prior, tau)
    if f0 == f1:
        return float(_binomial_tail(need, n, f0))
    if isinstance(prior.mixing, BetaMixing):
        return _beta_mixed_tail(prior.mixing, f0, f1, need, n)
    weights, thetas = _atoms(prior.mixing)
    return float(weights @ _binomial_tail(need, n, thetas * f1 + (1.0 - thetas) * f0))


def _least_grid_cost(reached, cap):
    """The least grid cost k / 10000 in [0, cap], so that decimal costs land
    exactly, at which the monotone condition `reached` holds, else cap where
    only cap does.  `bisect_left` never probes the grid's top point, which
    is checked to pass first."""
    per_unit = round(1.0 / COST_GRID)
    grid_hi = int(math.floor(cap * per_unit + 1e-9))
    grid_max = grid_hi / per_unit
    search_top = cap if cap > grid_max else grid_max
    if not reached(search_top):
        raise CostSearchError("participation threshold not reachable within the cost "
                              f"search cap {cap}")
    if not reached(grid_max):
        return search_top
    return bisect.bisect_left(range(grid_hi), True,
                              key=lambda k: reached(k / per_unit)) / per_unit


def cost_threshold_parts(prior, alpha, delta, n):
    """Compute (tau, tau_group, tau_marginal) exactly, on one cost grid.

    Each part is the least grid cost, or the search cap, at which its
    condition holds (`_least_grid_cost`).  tau_group: with probability at
    least 1 - delta, at least (1 - alpha) n agents cost at most it
    (`_group_prob`).  tau_marginal: given each own bit b, a peer's cost CDF
    p_b F1 + (1 - p_b) F0 (p_b from `posterior_bit_prob`; F0 alone for
    equal laws) reaches 1 - alpha.  tau, their maximum, is less than one
    grid step above the least cost meeting both, so it stays an upper bound.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")

    cap = float(max(np.asarray(prior.cost0.quantile(COST_SEARCH_QUANTILE)),
                    np.asarray(prior.cost1.quantile(COST_SEARCH_QUANTILE))))
    # p_b = 0 reads F0 alone, exactly, where the laws are equal.
    p_bits = ((0.0,) if prior.cost0 == prior.cost1
              else (posterior_bit_prob(prior, 0), posterior_bit_prob(prior, 1)))
    # Count threshold: at least (1 - alpha) * n agents must participate.
    need = math.ceil((1.0 - alpha) * n)
    tau_group = _least_grid_cost(lambda tau: _group_prob(prior, n, need, tau) >= 1.0 - delta,
                                 cap)

    def marginal_reached(tau):
        f0, f1 = cost_cdfs(prior, tau)
        return min(p * f1 + (1.0 - p) * f0 for p in p_bits) >= 1.0 - alpha

    tau_marginal = _least_grid_cost(marginal_reached, cap)
    return max(tau_group, tau_marginal), tau_group, tau_marginal


def cost_threshold(prior, alpha, delta, n):
    """Participation cost threshold tau: see `cost_threshold_parts`."""
    return cost_threshold_parts(prior, alpha, delta, n)[0]


def group_prob_mc(prior, alpha, n, tau, trials, seed):
    """Monte Carlo cross-check of the chance that defines tau, at `tau`: the
    `_util.cross_check` record {exact, mc, se, samples, z}.

    Chunk k draws from `subseed_rng(seed, k)`: per trial, theta from the
    prior, then the count of agents with cost at most tau,
    Bin(n, theta F1(tau) + (1 - theta) F0(tau)).  A trial hits when that
    count reaches ceil((1 - alpha) n), and mc is the fraction that hit.
    exact is the same chance from `_group_prob`; at the tau that
    `cost_threshold_parts` gives for delta it is at least 1 - delta.  se
    is sqrt(p (1 - p) / trials) at the exact p, so a sample in which every
    trial hits a chance of 1 has se 0 and z 0.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    need = math.ceil((1.0 - alpha) * n)
    f0, f1 = cost_cdfs(prior, tau)
    hits = 0
    for chunk, size in chunk_sizes(trials, CHUNK_TRIALS):
        rng = subseed_rng(seed, chunk)
        cheap = rng.binomial(n, f0 + prior.theta_sample(rng, size) * (f1 - f0))
        hits += int(np.count_nonzero(cheap >= need))
    exact = _group_prob(prior, n, need, tau)
    return cross_check(exact, hits / trials, math.sqrt(exact * (1.0 - exact) / trials), trials)
