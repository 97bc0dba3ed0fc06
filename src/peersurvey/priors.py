"""Population priors: exchangeable bit/cost generation and derived quantities.

A prior couples three ingredients: a mixing distribution over a latent
Bernoulli parameter theta, conditional on which agents' bits are i.i.d., and
one cost distribution per bit value.  From it we derive, exactly, the
posterior predictive bit probabilities, their noisy clamped counterparts
p0/p1 used by the payment rule, the mean clamped estimate of peers whose
reports follow any affine function of theta (`clamped_mean`), and the
participation cost threshold tau used to size the truthfulness premium.
`cost_threshold_parts_mc` estimates tau by Monte Carlo as a cross-check of
the exact value; the p0/p1 cross-check is `agents.peer_estimate_mc` under
truthful peers.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import betainc, betaln, ndtr, ndtri, xlog1py, xlogy

from ._util import check_seed, from_config, is_number, subseed_rng

FAMILIES = ("conditional_iid",)

# Resolution of the cost-axis grid searched for tau, and the quantile used to
# cap the search range.
COST_GRID = 1e-4
COST_SEARCH_QUANTILE = 1.0 - 1e-6

# Gauss nodes that mix binomial laws over Beta mixing.  A binomial pmf whose
# success probability is affine in theta is a polynomial of degree m in
# theta, so the rule is exact up to m = 2 * QUADRATURE_NODES - 1 peers, and
# converged well beyond.
QUADRATURE_NODES = 128
# Cells in one block of binomial pmf rows; rows are folded a block at a
# time, so memory stays O(m) for any node count.
PMF_BLOCK_CELLS = 1 << 18
# Terms in one BLAS dot of an exact mean.  The OpenBLAS that numpy wheels
# bundle (scipy-openblas, 0.3.31 on x86-64) splits a ddot of more than
# 10,000 terms across threads (the `n <= 10000` test in
# kernel/x86_64/ddot.c), and its rounding then depends on their count; a
# shorter dot runs in one thread, so summing block dots keeps outputs the
# same at any thread count under that BLAS.  Another BLAS (MKL,
# Accelerate, another OpenBLAS kernel) may split shorter dots.
DOT_BLOCK = 1 << 13


class CostSearchError(ValueError):
    """The threshold condition is not met anywhere within the search cap."""


# ---------------------------------------------------------------------------
# Cost distributions.  Each family gives its CDF and its quantile function;
# the report-count sampler and the tau search use them.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not 0.0 <= self.lo <= self.hi:
            raise ValueError(f"uniform needs 0 <= lo <= hi, got [{self.lo}, {self.hi}]")

    def cdf(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.hi == self.lo:
            return np.where(x >= self.lo, 1.0, 0.0)
        return np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)

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

    def theta_sample(self, rng, size=None, bit=None):
        """Draw theta from the mixing distribution, given one agent's `bit` if set."""
        if bit not in (None, 0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        m = self.mixing
        if isinstance(m, BetaMixing):
            return rng.beta(m.a + (bit == 1), m.b + (bit == 0), size)
        if isinstance(m, PointMixing):
            return m.theta if size is None else np.full(size, m.theta)
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


@lru_cache(maxsize=64)
def _beta_nodes(a, b, count):
    """(weights, thetas) of the count-point Gauss rule for Beta(a, b).

    Golub & Welsch (Math. Comp. 1969): the nodes are the eigenvalues of the
    Jacobi matrix of the monic polynomials orthogonal under Beta(a, b), and
    each weight is the squared first component of its eigenvector.  The
    matrix holds the three-term recurrence of the Jacobi polynomials with
    exponents (b - 1, a - 1), mapped from [-1, 1] onto theta = (1 + x) / 2;
    its first entries are the Beta mean and variance.  The arrays are
    cached, so they are read-only.
    """
    j = np.arange(1, count, dtype=np.float64)
    s = 2.0 * j + a + b - 2.0
    diag = np.empty(count)
    diag[0] = a / (a + b)
    diag[1:] = 0.5 + 0.5 * (a - b) * (a + b - 2.0) / (s * (s + 2.0))
    # Squared off-diagonal; the first is written apart, where the general
    # form is 0/0 at a + b = 1.
    off = np.empty(count - 1)
    off[:1] = a * b / ((a + b) ** 2 * (a + b + 1.0))
    j, s = j[1:], s[1:]
    off[1:] = j * (j + a - 1.0) * (j + b - 1.0) * (j + a + b - 2.0) / (s**2 * (s + 1.0) * (s - 1.0))
    off = np.sqrt(off)
    thetas, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = vectors[0] ** 2
    weights /= weights.sum()
    thetas = np.clip(thetas, 0.0, 1.0)
    weights.flags.writeable = thetas.flags.writeable = False
    return weights, thetas


def _log_choose(m):
    """(k, log C(m, k)), k = 0..m, with log C(m, k) = -log(m + 1) - betaln(m - k + 1, k + 1)."""
    k = np.arange(m + 1)
    return k, -np.log(m + 1.0) - betaln(m - k + 1, k + 1)


def _binomial_mixture_pmf(weights, g, m):
    """Sum over j of weights[j] times the Bin(m, g[j]) pmf, k = 0..m.

    Each binomial row is exp of its log-pmf, divided by its sum, which
    cancels the rounding error that the log-choose term carries at large m.
    Rows are folded PMF_BLOCK_CELLS at a time.
    """
    k, log_choose = _log_choose(m)
    rest = m - k
    pmf = np.zeros(m + 1)
    step = max(1, PMF_BLOCK_CELLS // (m + 1))
    for lo in range(0, len(g), step):
        theta = g[lo:lo + step, None]
        rows = xlogy(k, theta)
        rows += log_choose
        rows += xlog1py(rest, -theta)
        np.exp(rows, out=rows)
        rows /= rows.sum(axis=1, keepdims=True)
        pmf += weights[lo:lo + step] @ rows
    return pmf


def _peer_count_pmf(prior, bit, m, g=(0.0, 1.0)):
    """P(K = k), k = 0..m, for the one-reports K among m peers given one's own bit.

    Given theta, each peer reports 1 with probability
    (1 - theta) g[0] + theta g[1], by default their own bit, so K is a
    binomial mixture over the posterior of theta.  Atom and point mixing
    sum over the reweighted atoms.  Beta mixing integrates with the Gauss
    rule of `_beta_nodes`, except for the default g, where K is
    beta-binomial: exp of scipy.stats' own log-pmf formula.
    """
    g0, g1 = g
    mixing = prior.mixing
    if isinstance(mixing, BetaMixing):
        a, b = mixing.a + bit, mixing.b + (1 - bit)
        if (g0, g1) == (0.0, 1.0):
            k, log_choose = _log_choose(m)
            return np.exp(log_choose + betaln(k + a, m - k + b) - betaln(a, b))
        weights, thetas = _beta_nodes(a, b, QUADRATURE_NODES)
    else:
        weights, thetas = _posterior_atoms(mixing, bit)
    return _binomial_mixture_pmf(weights, thetas * g1 + (1.0 - thetas) * g0, m)


def clamped_mean(prior, bit, n, scale, g=(0.0, 1.0)):
    """Exact mean of the clamped noisy leave-one-out estimate.

    Computes E[clip((K + X) / m, 0, 1)], m = n - 1, where K counts the
    one-reports of the m peers given one's own bit, each peer reporting 1
    with probability (1 - theta) g[0] + theta g[1] (see `_peer_count_pmf`),
    and X is Laplace noise of scale s; s = 0 means no noise.  For each k,
    E[clip(k + X, 0, m)] = k + (s/2)(e^{-k/s} - e^{-(m-k)/s}): the two terms
    are the noise mass clipped at 0 and at m.
    """
    if bit not in (0, 1) or n < 2 or not scale >= 0.0:
        raise ValueError(f"need bit 0 or 1, n >= 2 and scale >= 0, got {bit}, {n}, {scale}")
    m = n - 1
    sums = np.arange(m + 1, dtype=np.float64)
    if scale > 0.0:
        sums += 0.5 * scale * (np.expm1(-sums / scale) - np.expm1(-(m - sums) / scale))
    pmf = _peer_count_pmf(prior, bit, m, g)
    total = sum(float(pmf[lo:lo + DOT_BLOCK] @ sums[lo:lo + DOT_BLOCK])
                for lo in range(0, m + 1, DOT_BLOCK))
    return total / m


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


def _mixture_quantile(prior, bit, q, cap):
    """Generalized inverse at level q of a peer's cost CDF given one's own bit."""
    if prior.cost0 == prior.cost1:
        return float(np.asarray(prior.cost0.quantile(q)))
    p_b = posterior_bit_prob(prior, bit)

    def cdf(tau):
        return p_b * prior.cost1.cdf(tau) + (1.0 - p_b) * prior.cost0.cdf(tau)

    lo, hi = 0.0, float(cap)
    if cdf(hi) < q:
        raise CostSearchError(
            f"cost quantile at level {q} exceeds the search cap {cap}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) >= q:
            hi = mid
        else:
            lo = mid
    # Snap to a point-mass atom when bisection lands next to one.
    for dist in (prior.cost0, prior.cost1):
        if isinstance(dist, PointMass) and abs(dist.value - hi) <= 1e-9:
            if cdf(dist.value) >= q:
                return dist.value
    return hi


def _beta_mixed_tail(mixing, f0, f1, need, n):
    """E[P(Bin(n, theta f1 + (1 - theta) f0) >= need)], theta ~ Beta(a, b), by quadrature.

    The binomial tail steps from 0 to 1 around the theta at which the mean
    cheap fraction equals need / n; quad gets that theta as a breakpoint.
    Only Beta mixing with unequal cost laws comes here, so scipy.integrate
    is imported here rather than with the module.
    """
    from scipy.integrate import quad

    a, b = mixing.a, mixing.b
    log_norm = betaln(a, b)

    def integrand(theta):
        density = math.exp(xlogy(a - 1.0, theta) + xlog1py(b - 1.0, -theta) - log_norm)
        return density * _binomial_tail(need, n, theta * f1 + (1.0 - theta) * f0)

    step = (need / n - f0) / (f1 - f0)
    value, _ = quad(integrand, 0.0, 1.0, points=[step] if 0.0 < step < 1.0 else None,
                    limit=200)
    return min(max(value, 0.0), 1.0)


def _cost_cdfs(prior, tau):
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
    f0, f1 = _cost_cdfs(prior, tau)
    if f0 == f1:
        return float(_binomial_tail(need, n, f0))
    if isinstance(prior.mixing, BetaMixing):
        return _beta_mixed_tail(prior.mixing, f0, f1, need, n)
    weights, thetas = _atoms(prior.mixing)
    return float(weights @ _binomial_tail(need, n, thetas * f1 + (1.0 - thetas) * f0))


def _cost_threshold(prior, alpha, delta, n, group_prob):
    """(tau, tau_group, tau_marginal) with `group_prob(tau, need)` giving
    P(at least `need` agents have cost <= tau); see `cost_threshold_parts`."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")

    cap = float(
        max(
            np.asarray(prior.cost0.quantile(COST_SEARCH_QUANTILE)),
            np.asarray(prior.cost1.quantile(COST_SEARCH_QUANTILE)),
        )
    )

    tau_marginal = max(
        _mixture_quantile(prior, 0, 1.0 - alpha, cap),
        _mixture_quantile(prior, 1, 1.0 - alpha, cap),
    )

    # Count threshold: at least (1 - alpha) * n agents must participate.
    need = math.ceil((1.0 - alpha) * n)

    # Grid points are k / 10000 so decimal costs land on exact grid values.
    per_unit = round(1.0 / COST_GRID)
    grid_hi = int(math.floor(cap * per_unit + 1e-9))
    grid_max = grid_hi / per_unit
    search_top = cap if cap > grid_max else grid_max
    if group_prob(search_top, need) < 1.0 - delta:
        raise CostSearchError(
            "participation threshold not reachable within the cost search cap "
            f"{cap}; the (1 - alpha) group quantile appears unbounded"
        )
    if group_prob(grid_max, need) < 1.0 - delta:
        tau_group = search_top
    else:
        lo, hi = -1, grid_hi  # grid index of the smallest passing tau
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if group_prob(mid / per_unit, need) >= 1.0 - delta:
                hi = mid
            else:
                lo = mid
        tau_group = hi / per_unit

    return max(tau_group, tau_marginal), tau_group, tau_marginal


def cost_threshold_parts(prior, alpha, delta, n):
    """Compute (tau, tau_group, tau_marginal) exactly.

    tau_group is the smallest grid cost level such that, with probability at
    least 1 - delta over populations, at least (1 - alpha) * n agents have
    cost at or below it.  tau_marginal makes each bit-conditional marginal
    cost CDF reach 1 - alpha.  The threshold is their maximum.
    """
    return _cost_threshold(prior, alpha, delta, n,
                           lambda tau, need: _group_prob(prior, n, need, tau))


def cost_threshold(prior, alpha, delta, n):
    """Participation cost threshold tau: see `cost_threshold_parts`."""
    return cost_threshold_parts(prior, alpha, delta, n)[0]


def cost_threshold_parts_mc(prior, alpha, delta, n, trials, seed):
    """Monte Carlo cross-check of `cost_threshold_parts`: (parts, standard error of tau).

    The group probability is averaged over `trials` sampled theta instead of
    integrated; the search is the same.  The standard error is the delta
    method's: that of the sampled group probability at tau_group over its
    slope across the grid step below.  It is 0 when tau_marginal binds, and
    when the cost laws are equal: the group probability is then a binomial
    tail that does not depend on theta, so nothing is sampled.
    """
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    if prior.cost0 == prior.cost1:
        return cost_threshold_parts(prior, alpha, delta, n), 0.0
    # One shared theta sample keeps the search predicate monotone in tau.
    thetas = prior.theta_sample(subseed_rng(check_seed(seed), 0), trials)

    def tails(tau, need):
        f0, f1 = _cost_cdfs(prior, tau)
        return _binomial_tail(need, n, thetas * f1 + (1.0 - thetas) * f0)

    parts = _cost_threshold(prior, alpha, delta, n,
                            lambda tau, need: float(np.mean(tails(tau, need))))
    tau, tau_group, _ = parts
    se = 0.0
    if tau == tau_group:
        need = math.ceil((1.0 - alpha) * n)
        at = tails(tau_group, need)
        slope = (at.mean() - tails(tau_group - COST_GRID, need).mean()) / COST_GRID
        if slope > 0.0:
            se = float(at.std() / math.sqrt(trials) / slope)
    return parts, se
