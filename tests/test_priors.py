import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import betaln, roots_jacobi

from peersurvey.agents import AlwaysTruth, peer_estimate_mc
from peersurvey.priors import (
    COST_GRID,
    AtomMixing,
    BetaMixing,
    CostSearchError,
    Exponential,
    PointMass,
    PriorSpec,
    TruncatedLogNormal,
    Uniform,
    _beta_nodes,
    _binomial_mixture_pmf,
    _group_prob,
    _peer_count_pmf,
    clamped_mean,
    cost_threshold,
    cost_threshold_parts,
    cost_threshold_parts_mc,
    posterior_bit_prob,
    posterior_clamped_mean,
)
from peersurvey.privacy import NoiseSpec


def cost0_law(spec):
    """The cost law `spec` describes, built by `PriorSpec.from_dict` as cost0."""
    return PriorSpec.from_dict({"family": "conditional_iid",
                                "mixing": {"kind": "point", "theta": 0.5}, "cost0": spec,
                                "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0}}).cost0


class TestCostDistributions:
    def test_uniform_quantiles(self):
        d = Uniform(lo=0.0, hi=1.0)
        assert d.quantile(0.3) == pytest.approx(0.3)
        assert d.cdf(0.25) == 0.25
        wide = Uniform(lo=2.0, hi=5.0)
        assert wide.quantile(0.5) == pytest.approx(3.5)

    def test_exponential_quantile(self):
        d = Exponential(rate=2.0)
        assert d.quantile(0.9) == pytest.approx(math.log(10.0) / 2.0)
        assert d.cdf(d.quantile(0.37)) == pytest.approx(0.37)

    def test_point_mass_step(self):
        d = PointMass(value=0.7)
        assert d.quantile(0.01) == 0.7
        assert d.quantile(0.99) == 0.7
        assert d.cdf(0.6999) == 0.0
        assert d.cdf(0.7) == 1.0

    def test_log_normal_median_and_cap(self):
        d = TruncatedLogNormal(mu=0.0, sigma=0.5, cap=100.0)
        assert d.quantile(0.5) == pytest.approx(1.0, rel=1e-4)
        assert d.cdf(100.0) == pytest.approx(1.0)
        tight = TruncatedLogNormal(mu=0.0, sigma=1.0, cap=2.0)
        assert tight.quantile(0.999999) <= 2.0 + 1e-9

    @pytest.mark.parametrize("spec, dist", [
        ({"kind": "uniform", "lo": 0.0, "hi": 2.0}, Uniform(lo=0.0, hi=2.0)),
        ({"kind": "point_mass", "value": 0.4}, PointMass(value=0.4)),
        ({"kind": "exponential", "rate": 1.5}, Exponential(rate=1.5)),
        ({"kind": "log_normal", "mu": -1.0, "sigma": 0.3, "cap": 10.0},
         TruncatedLogNormal(mu=-1.0, sigma=0.3, cap=10.0)),
    ])
    def test_from_dict(self, spec, dist):
        assert cost0_law(spec) == dist
        with pytest.raises(ValueError, match=r"prior\.cost0 has no key 'extra'"):
            cost0_law(dict(spec, extra=1.0))
        for key in set(spec) - {"kind"}:
            for bad in (True, "1", math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=rf"prior\.cost0\.{key} must be"):
                    cost0_law(dict(spec, **{key: bad}))

    def test_cdf_quantile_consistency(self):
        us = np.linspace(0.01, 0.99, 25)
        for dist in (Uniform(0.0, 3.0), Exponential(0.7),
                     TruncatedLogNormal(0.2, 0.8, 50.0)):
            np.testing.assert_allclose(dist.cdf(dist.quantile(us)), us, atol=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match=r"prior\.cost0 needs a 'kind'"):
            cost0_law({"kind": "gamma", "shape": 2.0})

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Uniform(lo=1.0, hi=0.5)
        with pytest.raises(ValueError):
            Exponential(rate=0.0)
        with pytest.raises(ValueError):
            PointMass(value=-0.1)
        with pytest.raises(ValueError):
            TruncatedLogNormal(mu=0.0, sigma=-1.0, cap=10.0)

    def test_log_normal_needs_mass_below_its_cap(self):
        # ndtr of the capped z-score underflows to 0: cdf would divide by it.
        with pytest.raises(ValueError, match="no mass below cap 1e\\+300"):
            TruncatedLogNormal(mu=800.0, sigma=1.0, cap=1e300)
        with pytest.raises(ValueError, match=r"^prior\.cost0: log-normal"):
            cost0_law({"kind": "log_normal", "mu": 800.0, "sigma": 1.0, "cap": 1e300})
        # A cap far in the lower tail still leaves a proper law below it.
        far = TruncatedLogNormal(mu=30.0, sigma=1.0, cap=1e6)
        us = np.linspace(0.01, 0.99, 25)
        xs = far.quantile(us)
        assert np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0.0)
        assert 0.0 < xs[0] and xs[-1] <= 1e6
        np.testing.assert_allclose(far.cdf(xs), us, atol=1e-9)
        assert far.cdf(1e6) == 1.0 and far.cdf(0.0) == 0.0


class TestPriorSpec:
    def test_from_dict(self, uniform_prior):
        spec = {
            "family": "conditional_iid",
            "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
            "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        }
        assert PriorSpec.from_dict(spec) == uniform_prior == PriorSpec(
            family="conditional_iid", mixing=BetaMixing(a=1.0, b=1.0),
            cost0=Uniform(lo=0.0, hi=1.0), cost1=Uniform(lo=0.0, hi=1.0),
        )
        with pytest.raises(ValueError, match="prior has no key 'extra'"):
            PriorSpec.from_dict(dict(spec, extra=1.0))
        for part in ("mixing", "cost0", "cost1"):
            with pytest.raises(ValueError, match=f"prior.{part} has no key 'extra'"):
                PriorSpec.from_dict(dict(spec, **{part: dict(spec[part], extra=1.0)}))
        for bad in (True, math.nan, math.inf):
            with pytest.raises(ValueError, match="prior.mixing.b must be a finite number"):
                PriorSpec.from_dict(dict(spec, mixing=dict(spec["mixing"], b=bad)))
        for atoms in ([[math.nan, 0.2], [0.5, 0.8]], [[0.5, 0.2], [0.5, True]],
                      [[0.5, 0.2, 0.3], [0.5, 0.8]], [0.5, 0.5], 5):
            with pytest.raises(ValueError, match="pairs of finite numbers"):
                PriorSpec.from_dict(dict(spec, mixing={"kind": "atoms", "atoms": atoms}))

    def test_atom_from_dict(self, atom_prior):
        assert atom_prior == PriorSpec(
            family="conditional_iid", mixing=AtomMixing(atoms=((0.5, 0.2), (0.5, 0.8))),
            cost0=Uniform(lo=0.0, hi=1.0), cost1=Uniform(lo=0.0, hi=2.0),
        )

    def test_missing_key_named(self):
        with pytest.raises((KeyError, ValueError), match="cost1"):
            PriorSpec.from_dict({
                "family": "conditional_iid",
                "mixing": {"kind": "point", "theta": 0.5},
                "cost0": {"kind": "point_mass", "value": 0.1},
            })

    def test_bad_family_rejected(self):
        for family in ("correlated_pairs", "independent_bits"):
            with pytest.raises(ValueError):
                PriorSpec.from_dict({
                    "family": family,
                    "mixing": {"kind": "point", "theta": 0.5},
                    "cost0": {"kind": "point_mass", "value": 0.1},
                    "cost1": {"kind": "point_mass", "value": 0.1},
                })

    def test_atom_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PriorSpec.from_dict({
                "family": "conditional_iid",
                "mixing": {"kind": "atoms", "atoms": [[0.5, 0.2], [0.4, 0.8]]},
                "cost0": {"kind": "point_mass", "value": 0.1},
                "cost1": {"kind": "point_mass", "value": 0.1},
            })


class TestPosteriorBitProb:
    def test_flat_mixing(self, uniform_prior):
        assert posterior_bit_prob(uniform_prior, 1) == pytest.approx(2.0 / 3.0)
        assert posterior_bit_prob(uniform_prior, 0) == pytest.approx(1.0 / 3.0)

    def test_beta22_mixing(self):
        prior = PriorSpec.from_dict({
            "family": "conditional_iid",
            "mixing": {"kind": "beta", "a": 2.0, "b": 2.0},
            "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        })
        assert posterior_bit_prob(prior, 1) == pytest.approx(3.0 / 5.0)
        assert posterior_bit_prob(prior, 0) == pytest.approx(2.0 / 5.0)

    def test_point_mixing_is_uninformative(self, point_prior):
        assert posterior_bit_prob(point_prior, 1) == 0.5
        assert posterior_bit_prob(point_prior, 0) == 0.5

    def test_atom_reweighting(self, atom_prior):
        # E[theta^2]/E[theta] and E[theta(1-theta)]/E[1-theta] for the
        # half/half mixture over {0.2, 0.8}.
        assert posterior_bit_prob(atom_prior, 1) == pytest.approx(0.68)
        assert posterior_bit_prob(atom_prior, 0) == pytest.approx(0.32)

    def test_posterior_gap_positive_for_beta(self):
        for a, b in ((1.0, 1.0), (2.0, 5.0), (0.5, 0.5), (3.0, 1.0)):
            prior = PriorSpec.from_dict({
                "family": "conditional_iid",
                "mixing": {"kind": "beta", "a": a, "b": b},
                "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            })
            assert posterior_bit_prob(prior, 1) > posterior_bit_prob(prior, 0)

    def test_sampled_frequency_matches_closed_form(self, uniform_prior):
        # Pairs of bits drawn through the latent rate: the conditional
        # frequency of a peer one must match the closed form.
        rng = np.random.default_rng(99)
        m = 400_000
        theta = uniform_prior.theta_sample(rng, m)
        first = rng.random(m) < theta
        second = rng.random(m) < theta
        freq = second[first].mean()
        p1 = posterior_bit_prob(uniform_prior, 1)
        sigma = math.sqrt(p1 * (1 - p1) / first.sum())
        assert abs(freq - p1) <= 3 * sigma


class TestThetaSample:
    def test_point_mixing_draws_its_rate(self, point_prior):
        rng = np.random.default_rng(0)
        assert point_prior.theta_sample(rng) == 0.5
        assert point_prior.theta_sample(rng, 3).tolist() == [0.5, 0.5, 0.5]
        for bit in (0, 1):
            assert point_prior.theta_sample(rng, 2, bit=bit).tolist() == [0.5, 0.5]

    def test_deterministic_given_seed(self, atom_prior):
        for draw in (lambda rng: atom_prior.theta_sample(rng, 50),
                     lambda rng: atom_prior.theta_sample(rng, 50, bit=1)):
            a = draw(np.random.default_rng(123))
            b = draw(np.random.default_rng(123))
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_beta_posterior_mean(self, bit):
        # Beta(a, b) updated on one bit is Beta(a + bit, b + 1 - bit).
        a, b = 2.0, 3.0
        prior = PriorSpec.from_dict({
            "family": "conditional_iid",
            "mixing": {"kind": "beta", "a": a, "b": b},
            "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        })
        m = 100_000
        theta = prior.theta_sample(np.random.default_rng(7), m, bit=bit)
        post = stats.beta(a + bit, b + 1 - bit)
        assert abs(theta.mean() - post.mean()) <= 3 * post.std() / math.sqrt(m)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_atom_posterior_reweights_atoms(self, atom_prior, bit):
        # Atoms 0.2 and 0.8 with weight 1/2 each: P(theta = 0.8 | bit = 1)
        # is 0.8 and P(theta = 0.8 | bit = 0) is 0.2.
        m = 100_000
        theta = atom_prior.theta_sample(np.random.default_rng(8), m, bit=bit)
        assert set(np.unique(theta).tolist()) <= {0.2, 0.8}
        p_high = 0.8 if bit == 1 else 0.2
        sigma = math.sqrt(p_high * (1 - p_high) / m)
        assert abs(np.mean(theta == 0.8) - p_high) <= 3 * sigma

    def test_posterior_rejects_non_bit(self, uniform_prior):
        with pytest.raises(ValueError):
            uniform_prior.theta_sample(np.random.default_rng(0), bit=2)


MIXINGS = {
    "uniform": {"kind": "beta", "a": 1.0, "b": 1.0},
    "beta": {"kind": "beta", "a": 2.5, "b": 0.7},
    "atoms": {"kind": "atoms", "atoms": [[0.5, 0.2], [0.3, 0.7], [0.2, 1.0]]},
    "point": {"kind": "point", "theta": 0.3},
}


def _prior(mixing, cost0=None, cost1=None):
    uniform = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
    return PriorSpec.from_dict({
        "family": "conditional_iid", "mixing": mixing,
        "cost0": cost0 or uniform, "cost1": cost1 or uniform,
    })


class TestPosteriorClampedMeanExact:
    @pytest.mark.parametrize("n", [2, 20, 50_000])
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("name", list(MIXINGS))
    def test_matches_binomial_sum_oracle(self, name, bit, n):
        prior = _prior(MIXINGS[name])
        exact = posterior_clamped_mean(prior, bit, n, 0.3)
        oracle = _binomial_sum_oracle(MIXINGS[name], bit, n, 0.3)
        assert exact == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.5, 0.7)])
    @pytest.mark.parametrize("n", [2, 20])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_matches_quadrature_oracle(self, a, b, n, bit):
        prior = _prior({"kind": "beta", "a": a, "b": b})
        exact = posterior_clamped_mean(prior, bit, n, 0.2)
        assert exact == pytest.approx(_clamped_mean_oracle(a, b, bit=bit, n=n, eps=0.2), abs=1e-9)

    def test_vanishing_epsilon_pulls_both_to_one_half(self, uniform_prior):
        for bit in (0, 1):
            assert posterior_clamped_mean(uniform_prior, bit, 200, 1e-9) == pytest.approx(
                0.5, abs=1e-6)

    @pytest.mark.parametrize("mixing, bit", [
        ({"kind": "atoms", "atoms": [[1.0, 0.0]]}, 1),
        ({"kind": "atoms", "atoms": [[0.4, 1.0], [0.6, 1.0]]}, 0),
        ({"kind": "point", "theta": 0.0}, 1),
        ({"kind": "point", "theta": 1.0}, 0),
    ])
    def test_zero_probability_bit_rejected(self, mixing, bit):
        prior = _prior(mixing)
        with pytest.raises(ValueError, match="zero prior probability"):
            posterior_clamped_mean(prior, bit, 20, 0.5)
        with pytest.raises(ValueError, match="zero prior probability"):
            posterior_bit_prob(prior, bit)
        assert 0.0 <= posterior_clamped_mean(prior, 1 - bit, 20, 0.5) <= 1.0


def clamped_mean_mc(prior, bit, n, eps, samples, seed):
    """The Monte Carlo cross-check of p0/p1: the leave-one-out estimate's
    mean under truthful peers, (mean, standard error)."""
    return peer_estimate_mc(prior, bit, n, NoiseSpec(eps), AlwaysTruth(), samples, seed)


class TestPosteriorClampedMean:
    """The Monte Carlo cross-check."""

    def test_against_quadrature_oracle(self, uniform_prior):
        # Independent oracle: exact beta-binomial mixture of the clamped
        # Laplace location family, integrated by quadrature.
        n, eps = 20, 0.2
        oracle = _clamped_mean_oracle(1.0, 1.0, bit=1, n=n, eps=eps)
        est, _ = clamped_mean_mc(uniform_prior, 1, n, eps, samples=400_000, seed=11)
        assert est == pytest.approx(oracle, abs=0.0025)
        oracle0 = _clamped_mean_oracle(1.0, 1.0, bit=0, n=n, eps=eps)
        est0, _ = clamped_mean_mc(uniform_prior, 0, n, eps, samples=400_000, seed=12)
        assert est0 == pytest.approx(oracle0, abs=0.0025)

    def test_noise_free_limit(self, uniform_prior):
        est, _ = clamped_mean_mc(uniform_prior, 1, 10_000, 1e6, samples=20_000, seed=4)
        assert abs(est - 2.0 / 3.0) < 0.01

    def test_deterministic_given_seed(self, uniform_prior):
        a = clamped_mean_mc(uniform_prior, 1, 50, 0.5, samples=10_000, seed=7)
        b = clamped_mean_mc(uniform_prior, 1, 50, 0.5, samples=10_000, seed=7)
        assert a == b

    @pytest.mark.parametrize("name", list(MIXINGS))
    @pytest.mark.parametrize("bit", [0, 1])
    def test_within_five_standard_errors_of_exact(self, name, bit):
        prior = _prior(MIXINGS[name])
        est, se = clamped_mean_mc(prior, bit, 40, 0.3, samples=200_000, seed=5 + bit)
        assert 0.0 < se < 1e-3
        assert abs(est - posterior_clamped_mean(prior, bit, 40, 0.3)) <= 5.0 * se


class TestCostThreshold:
    def test_zero_costs(self):
        prior = _equal_cost_prior({"kind": "point_mass", "value": 0.0})
        assert cost_threshold(prior, 0.1, 0.1, 100) == 0.0

    def test_point_mass_costs_exact(self):
        prior = _equal_cost_prior({"kind": "point_mass", "value": 0.7})
        assert cost_threshold(prior, 0.1, 0.1, 50) == 0.7

    def test_uniform_costs_against_binomial_oracle(self, uniform_prior):
        n, alpha, delta = 100, 0.1, 0.1
        tau, tau_group, tau_marginal = cost_threshold_parts(uniform_prior, alpha, delta, n)
        assert tau_marginal == pytest.approx(0.9)
        # Oracle: smallest grid multiple of 1e-4 where at least 90 of 100
        # uniform costs land below it with probability >= 0.9.
        need = math.ceil((1 - alpha) * n)
        k = next(
            k for k in range(1, 10001)
            if stats.binom.sf(need - 1, n, k / 10000.0) >= 1 - delta
        )
        assert tau_group == pytest.approx(k / 10000.0, abs=1e-12)
        assert tau == max(tau_group, tau_marginal)

    def test_degenerate_rate_mixed_costs_exact(self):
        # With a degenerate latent rate the participation probability is an
        # exact binomial in the half/half cost mixture: the exact search and
        # the Monte Carlo one must both land on the directly computed grid
        # point.
        prior = PriorSpec.from_dict({
            "family": "conditional_iid",
            "mixing": {"kind": "point", "theta": 0.5},
            "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "cost1": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
        })
        n, alpha, delta = 60, 0.1, 0.1
        (_, sampled, _), se = cost_threshold_parts_mc(prior, alpha, delta, n,
                                                      trials=20_000, seed=3)
        _, tau_group, _ = cost_threshold_parts(prior, alpha, delta, n)
        need = math.ceil((1 - alpha) * n)

        def mixture_cdf(t):
            return 0.5 * min(t, 1.0) + 0.5 * min(t / 2.0, 1.0)

        k = next(
            k for k in range(1, 20001)
            if stats.binom.sf(need - 1, n, mixture_cdf(k / 10000.0)) >= 1 - delta
        )
        assert tau_group == pytest.approx(k / 10000.0, abs=1e-12)
        assert sampled == pytest.approx(k / 10000.0, abs=1e-12)
        assert se < 1e-15  # every sampled theta is the same

    def test_atom_rate_close_to_exact_mixture(self, atom_prior):
        n, alpha, delta = 50, 0.1, 0.1
        (_, sampled, _), _ = cost_threshold_parts_mc(atom_prior, alpha, delta, n,
                                                     trials=100_000, seed=9)
        _, tau_group, _ = cost_threshold_parts(atom_prior, alpha, delta, n)
        need = math.ceil((1 - alpha) * n)

        def group_prob(t):
            total = 0.0
            for w, theta in ((0.5, 0.2), (0.5, 0.8)):
                g = theta * min(t / 2.0, 1.0) + (1 - theta) * min(t, 1.0)
                total += w * stats.binom.sf(need - 1, n, g)
            return total

        k = next(
            k for k in range(1, 20001)
            if group_prob(k / 10000.0) >= 1 - delta
        )
        assert abs(sampled - k / 10000.0) <= 0.01
        assert tau_group == pytest.approx(k / 10000.0, abs=1e-12)

    def test_beta_rate_unequal_costs_against_oracles(self):
        # Beta mixing with unequal cost laws integrates over theta by
        # quadrature.  Oracle: the same grid search on the mixture summed
        # over a fine partition of theta, each cell weighted by its exact
        # Beta mass.  A million sampled theta must agree within their noise.
        a, b = 2.0, 5.0
        prior = _prior({"kind": "beta", "a": a, "b": b},
                       cost1={"kind": "uniform", "lo": 0.0, "hi": 2.0})
        n, alpha, delta = 500, 0.1, 0.05
        tau, tau_group, tau_marginal = cost_threshold_parts(prior, alpha, delta, n)
        need = math.ceil((1 - alpha) * n)
        edges = np.linspace(0.0, 1.0, 20_001)
        mass = np.diff(stats.beta.cdf(edges, a, b))
        theta = 0.5 * (edges[1:] + edges[:-1])

        def group_prob(k):
            t = k / 10000.0
            g = theta * min(t / 2.0, 1.0) + (1 - theta) * min(t, 1.0)
            return mass @ stats.binom.sf(need - 1, n, g)

        lo, hi = 0, 20_000
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if group_prob(mid) >= 1 - delta else (mid, hi)
        assert tau == tau_group > tau_marginal
        assert abs(tau_group - hi / 10000.0) <= COST_GRID + 1e-12

        (sampled, _, sampled_marginal), se = cost_threshold_parts_mc(
            prior, alpha, delta, n, trials=1_000_000, seed=4)
        assert sampled_marginal == tau_marginal
        assert 0.0 < se < 1e-3
        assert abs(sampled - tau) <= 5.0 * se + COST_GRID

    def test_beta_rate_unequal_costs_at_large_n(self):
        # At n = 50,000 the binomial tail steps from 0 to 1 across a narrow
        # band of theta.  Adaptive quadrature, with the step as a breakpoint,
        # puts tau on the oracle's grid point; a fixed 128-node Gauss rule
        # misses the band and gives 1.397.  Oracle as above: 20,000 cells of
        # theta, each weighted by its exact Beta mass.
        prior = _prior({"kind": "beta", "a": 0.5, "b": 5.0},
                       cost1={"kind": "uniform", "lo": 0.0, "hi": 2.0})
        n, alpha, delta = 50_000, 0.1, 0.05
        tau, tau_group, _ = cost_threshold_parts(prior, alpha, delta, n)
        assert tau == tau_group == 1.3972
        need = math.ceil((1 - alpha) * n)
        edges = np.linspace(0.0, 1.0, 20_001)
        mass = np.diff(stats.beta.cdf(edges, 0.5, 5.0))
        theta = 0.5 * (edges[1:] + edges[:-1])

        def group_prob(t):
            return mass @ stats.binom.sf(need - 1, n, theta * t / 2.0 + (1 - theta) * min(t, 1.0))

        assert group_prob(tau) >= 1 - delta > group_prob(tau - COST_GRID)

    @pytest.mark.parametrize("mixing", [
        {"kind": "beta", "a": 0.5, "b": 0.5},
        {"kind": "atoms", "atoms": [[0.5, 0.2], [0.5, 0.8]]},
        {"kind": "point", "theta": 0.4},
    ])
    def test_sampled_within_five_standard_errors_of_exact(self, mixing):
        prior = _prior(mixing, cost1={"kind": "exponential", "rate": 2.0})
        tau = cost_threshold(prior, 0.2, 0.1, 80)
        (sampled, _, _), se = cost_threshold_parts_mc(prior, 0.2, 0.1, 80, trials=50_000, seed=1)
        assert abs(sampled - tau) <= 5.0 * se + COST_GRID

    def test_zero_probability_bit_rejected_with_unequal_costs(self):
        prior = _prior({"kind": "atoms", "atoms": [[1.0, 0.0]]},
                       cost1={"kind": "uniform", "lo": 0.0, "hi": 2.0})
        with pytest.raises(ValueError, match="zero prior probability"):
            cost_threshold_parts(prior, 0.1, 0.1, 50)

    def test_monotone_in_alpha_and_delta(self, uniform_prior):
        taus_alpha = [
            cost_threshold(uniform_prior, a, 0.1, 100)
            for a in (0.05, 0.1, 0.2)
        ]
        assert taus_alpha == sorted(taus_alpha, reverse=True)
        taus_delta = [
            cost_threshold(uniform_prior, 0.1, d, 100)
            for d in (0.01, 0.05, 0.2)
        ]
        assert taus_delta == sorted(taus_delta, reverse=True)

    def test_unreachable_participation_level(self):
        prior = _equal_cost_prior({"kind": "exponential", "rate": 1.0})
        with pytest.raises(CostSearchError):
            cost_threshold(prior, 1e-9, 0.001, 20_000)
        with pytest.raises(CostSearchError):
            cost_threshold_parts_mc(prior, 1e-9, 0.001, 20_000, trials=1000, seed=0)


PEER_COUNTS = [1, 199, 4999, 49999]


def _clipped_means(m, eps):
    """E[clip((k + X) / m, 0, 1)] for k = 0..m, X ~ Laplace(1 / eps)."""
    k = np.arange(m + 1, dtype=np.float64)
    s = 1.0 / eps
    return (k + 0.5 * s * (np.expm1(-k / s) - np.expm1(-(m - k) / s))) / m


class TestPeerCountLaw:
    """The pmfs and the binomial tail are built from scipy.special;
    scipy.stats serves as their oracle."""

    @pytest.mark.parametrize("m", PEER_COUNTS)
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.5, 0.7), (2.0, 0.1)])
    def test_beta_binomial_is_scipy_stats_bit_for_bit(self, a, b, bit, m):
        # A one leaves b as it is: (b + 1) - 1 is not b for every b.
        prior = _prior({"kind": "beta", "a": a, "b": b})
        expected = stats.betabinom.pmf(np.arange(m + 1), m, a + bit, b + (1 - bit))
        assert np.array_equal(_peer_count_pmf(prior, bit, m), expected)

    @pytest.mark.parametrize("m", PEER_COUNTS)
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("atoms", [
        [[0.5, 0.2], [0.5, 0.8]],
        [[0.3, 0.0], [0.2, 1.0], [0.5, 0.37]],
    ])
    def test_binomial_mixture_against_scipy_stats(self, atoms, bit, m):
        prior = _prior({"kind": "atoms", "atoms": atoms})
        weights, thetas = (np.array(column) for column in zip(*atoms))
        post = weights * (thetas if bit == 1 else 1.0 - thetas)
        expected = post / post.sum() @ stats.binom.pmf(np.arange(m + 1), m, thetas[:, None])
        pmf = _peer_count_pmf(prior, bit, m)
        np.testing.assert_allclose(pmf, expected, rtol=0.0, atol=1e-12)
        # p0 / p1 without noise, and with it.
        k = np.arange(m + 1)
        assert pmf @ k / m == pytest.approx(expected @ k / m, rel=1e-13)
        exact = posterior_clamped_mean(prior, bit, m + 1, 0.3)
        assert exact == pytest.approx(expected @ _clipped_means(m, 0.3), rel=1e-13)

    @pytest.mark.parametrize("m", PEER_COUNTS)
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("name", list(MIXINGS))
    def test_mean_is_the_posterior_bit_prob(self, name, bit, m):
        # E[K | own bit] / m, the noiseless clamped mean, is the closed form.
        prior = _prior(MIXINGS[name])
        mean = _peer_count_pmf(prior, bit, m) @ np.arange(m + 1) / m
        assert mean == pytest.approx(posterior_bit_prob(prior, bit), abs=1e-9)

    @pytest.mark.parametrize("m", PEER_COUNTS)
    @pytest.mark.parametrize("theta, bit", [(0.0, 0), (1.0, 1), (0.37, 0), (0.37, 1)])
    def test_each_binomial_row_sums_to_one(self, theta, bit, m):
        # Point mixing is one atom, so its pmf is one row; the atoms at 0
        # and 1 put all mass on k = 0 and k = m.
        pmf = _peer_count_pmf(_prior({"kind": "point", "theta": theta}), bit, m)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-15)
        if theta in (0.0, 1.0):
            assert pmf[0 if theta == 0.0 else m] == 1.0

    @pytest.mark.parametrize("n", [2, 60, 5000, 50000])
    @pytest.mark.parametrize("atoms", [
        None,
        [[0.5, 0.2], [0.5, 0.8]],
        [[0.3, 0.0], [0.2, 1.0], [0.5, 0.37]],
    ], ids=["equal-costs", "atoms", "edge-atoms"])
    def test_group_prob_against_scipy_stats(self, atoms, n):
        # Equal uniform costs on [0, 1] under Beta(1, 1), or atoms with
        # cost1 uniform on [0, 2]: F0(tau) = min(tau, 1), F1(tau) = tau / 2.
        if atoms is None:
            prior = _prior(MIXINGS["uniform"])
        else:
            prior = _prior({"kind": "atoms", "atoms": atoms},
                           cost1={"kind": "uniform", "lo": 0.0, "hi": 2.0})
        for alpha in (0.1, 0.5):
            need = math.ceil((1.0 - alpha) * n)
            for tau in (0.05, 0.5, 0.9, 0.95, 1.0, 1.7):
                f0 = min(tau, 1.0)
                if atoms is None:
                    expected = stats.binom.sf(need - 1, n, f0)
                else:
                    weights, thetas = (np.array(column) for column in zip(*atoms))
                    g = thetas * tau / 2.0 + (1.0 - thetas) * f0
                    expected = weights @ stats.binom.sf(need - 1, n, g)
                assert _group_prob(prior, n, need, tau) == pytest.approx(expected, abs=1e-11)


class TestGaussNodes:
    """The Golub-Welsch rule for Beta mixing, built with numpy.linalg."""

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.5, 3.0), (6.0, 0.5), (2.5, 0.7)])
    @pytest.mark.parametrize("count", [128, 512])
    def test_matches_scipy_roots_jacobi(self, a, b, count):
        weights, thetas = _beta_nodes(a, b, count)
        x, w = roots_jacobi(count, b - 1.0, a - 1.0)
        np.testing.assert_allclose(thetas, (1.0 + x) / 2.0, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(weights, w / w.sum(), rtol=0.0, atol=1e-10)
        assert not weights.flags.writeable and not thetas.flags.writeable

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (0.5, 3.0), (6.0, 0.5), (2.0, 0.1),
                                      (0.3, 0.7)])
    def test_integrates_beta_moments(self, a, b):
        # 128 nodes integrate every polynomial of degree <= 255 exactly:
        # E[theta^i (1 - theta)^j] = B(a + i, b + j) / B(a, b).
        weights, thetas = _beta_nodes(a, b, 128)
        for i, j in [(0, 0), (1, 0), (0, 1), (3, 9), (128, 127), (255, 0), (0, 255), (40, 200)]:
            exact = math.exp(betaln(a + i, b + j) - betaln(a, b))
            assert weights @ (thetas**i * (1.0 - thetas) ** j) == pytest.approx(
                exact, rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("a, b", [(2.0, 1.0), (0.5, 3.0), (6.0, 0.5)])
    @pytest.mark.parametrize("m", [49, 255])
    def test_exact_for_the_beta_binomial(self, a, b, m):
        # At g(theta) = theta the mixture is the beta-binomial.
        pmf = _binomial_mixture_pmf(*_beta_nodes(a, b, 128), m)
        closed = stats.betabinom.pmf(np.arange(m + 1), m, a, b)
        np.testing.assert_allclose(pmf, closed, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("a, b", [(0.5, 2.0), (0.3, 0.7)])
    def test_package_rule_is_exact_at_255_peers(self, a, b, bit, monkeypatch):
        # Up to m = 255 peers the package's node count integrates the
        # binomial mixture exactly, so four times as many nodes agree.
        from peersurvey import priors

        prior = _prior({"kind": "beta", "a": a, "b": b})
        exact = clamped_mean(prior, bit, 256, 0.5, (0.0, 0.9))
        monkeypatch.setattr(priors, "QUADRATURE_NODES", 4 * priors.QUADRATURE_NODES)
        assert exact == pytest.approx(clamped_mean(prior, bit, 256, 0.5, (0.0, 0.9)),
                                      rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.5, 3.0), (6.0, 0.5)])
    def test_converged_far_past_exactness(self, a, b):
        # At m = 49,999 the clamped mean's integrand has degree far above
        # 255, but it is smooth in theta: 128 and 512 nodes agree.
        m = 49_999
        clipped = _clipped_means(m, 0.5)
        means = [_binomial_mixture_pmf(weights, 0.15 + 0.65 * thetas, m) @ clipped
                 for weights, thetas in (_beta_nodes(a, b, count) for count in (128, 512))]
        assert means[0] == pytest.approx(means[1], rel=0.0, abs=1e-10)


def _equal_cost_prior(cost_spec):
    return PriorSpec.from_dict({
        "family": "conditional_iid",
        "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
        "cost0": cost_spec,
        "cost1": cost_spec,
    })


def _clamped_mean_oracle(a, b, bit, n, eps):
    m = n - 1
    aa = a + (1 if bit == 1 else 0)
    bb = b + (1 if bit == 0 else 0)
    scale = 1.0 / eps
    total = 0.0
    for k in range(m + 1):
        w = stats.betabinom.pmf(k, m, aa, bb)
        upper = stats.laplace.sf(m - k, scale=scale)
        integral, _ = stats.laplace.expect(
            lambda x: (k + x) / m, scale=scale, lb=-k, ub=m - k
        ), None
        total += w * (upper + integral)
    return total


def _binomial_sum_oracle(mixing, bit, n, eps):
    """Sum over k of P(K = k | own bit) times E[clip((k + X) / m, 0, 1)], in
    plain floats: beta-binomial or binomial-mixture weights from lgamma, and
    the clipped Laplace mean k + (s/2)(e^{-k/s} - e^{-(m-k)/s})."""
    m = n - 1

    def log_choose(k):
        return math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)

    def binomial_pmf(k, t):
        if t in (0.0, 1.0):
            return float(k == (m if t == 1.0 else 0))
        return math.exp(log_choose(k) + k * math.log(t) + (m - k) * math.log1p(-t))

    if mixing["kind"] == "beta":
        a, b = mixing["a"] + bit, mixing["b"] + (1 - bit)
        weights = [math.exp(log_choose(k) + math.lgamma(k + a) + math.lgamma(m - k + b)
                            - math.lgamma(m + a + b) + math.lgamma(a + b) - math.lgamma(a)
                            - math.lgamma(b))
                   for k in range(m + 1)]
    else:
        atoms = mixing["atoms"] if mixing["kind"] == "atoms" else [[1.0, mixing["theta"]]]
        post = [(w * (t if bit else 1.0 - t), t) for w, t in atoms]
        total = sum(w for w, _ in post)
        weights = [sum(w / total * binomial_pmf(k, t) for w, t in post) for k in range(m + 1)]
    s = 1.0 / eps
    total = 0.0
    for k, w in enumerate(weights):
        total += w * (k + 0.5 * s * (math.exp(-k / s) - math.exp(-(m - k) / s))) / m
    return total
