import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import betaln

from noise_oracle import clipped_sums, rounded_laplace_pmf
from peersurvey.agents import AlwaysTruth, peer_estimate_mc
from peersurvey.priors import (
    COST_GRID,
    COST_SEARCH_QUANTILE,
    AtomMixing,
    BetaMixing,
    CostSearchError,
    Exponential,
    PointMass,
    PointMixing,
    PriorSpec,
    TruncatedLogNormal,
    Uniform,
    _group_prob,
    cost_cdfs,
    clamped_mean,
    cost_threshold,
    cost_threshold_parts,
    group_prob_mc,
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
            uniform_prior.theta_sample(np.random.default_rng(0), 1, bit=2)


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
        # exact binomial in the half/half cost mixture: the exact search
        # must land on the directly computed grid point, and the sampled
        # chance there must agree with that binomial tail.
        prior = PriorSpec.from_dict({
            "family": "conditional_iid",
            "mixing": {"kind": "point", "theta": 0.5},
            "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "cost1": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
        })
        n, alpha, delta = 60, 0.1, 0.1
        _, tau_group, _ = cost_threshold_parts(prior, alpha, delta, n)
        check = group_prob_mc(prior, alpha, n, tau_group, trials=20_000, seed=3)
        need = math.ceil((1 - alpha) * n)

        def mixture_cdf(t):
            return 0.5 * min(t, 1.0) + 0.5 * min(t / 2.0, 1.0)

        k = next(
            k for k in range(1, 20001)
            if stats.binom.sf(need - 1, n, mixture_cdf(k / 10000.0)) >= 1 - delta
        )
        assert tau_group == pytest.approx(k / 10000.0, abs=1e-12)
        chance = stats.binom.sf(need - 1, n, mixture_cdf(tau_group))
        assert check["exact"] == pytest.approx(chance, rel=1e-12)
        assert check["exact"] >= 1 - delta
        assert check["se"] > 0.0 and abs(check["z"]) < 5.0

    def test_atom_rate_close_to_exact_mixture(self, atom_prior):
        n, alpha, delta = 50, 0.1, 0.1
        _, tau_group, _ = cost_threshold_parts(atom_prior, alpha, delta, n)
        check = group_prob_mc(atom_prior, alpha, n, tau_group, trials=100_000, seed=9)
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
        assert tau_group == pytest.approx(k / 10000.0, abs=1e-12)
        assert check["exact"] == pytest.approx(group_prob(tau_group), rel=1e-12)
        assert abs(check["z"]) < 5.0

    def test_beta_rate_unequal_costs_against_oracles(self):
        # Beta mixing with unequal cost laws integrates over theta by
        # quadrature.  Oracle: the same grid search on the mixture summed
        # over a fine partition of theta, each cell weighted by its exact
        # Beta mass.  A million trials of the chance at tau must agree with
        # the exact chance within their noise.
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

        check = group_prob_mc(prior, alpha, n, tau, trials=1_000_000, seed=4)
        assert check["exact"] == pytest.approx(group_prob(round(tau * 10000)), abs=1e-6)
        assert check["exact"] >= 1 - delta
        assert 0.0 < check["se"] < 1e-3
        assert abs(check["z"]) < 5.0

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

    @pytest.mark.parametrize("mixing, cost1", [
        ({"kind": "atoms", "atoms": [[0.5, 0.2], [0.5, 0.8]]},
         {"kind": "uniform", "lo": 0.0, "hi": 0.1}),
        ({"kind": "beta", "a": 2.0, "b": 5.0}, {"kind": "exponential", "rate": 100.0}),
        ({"kind": "beta", "a": 1.0, "b": 1.0}, {"kind": "uniform", "lo": 0.0, "hi": 0.05}),
    ], ids=["atoms", "beta_quadrature", "equal_costs"])
    def test_grid_search_matches_a_linear_scan(self, mixing, cost1):
        # Small cost laws keep the scan short: the bisection must land on
        # the least grid point k / 10**4 whose chance reaches 1 - delta.
        prior = _prior(mixing, cost0={"kind": "uniform", "lo": 0.0, "hi": 0.05}, cost1=cost1)
        n, alpha, delta = 40, 0.1, 0.1
        need = math.ceil((1 - alpha) * n)
        k = next(k for k in range(10_000) if _group_prob(prior, n, need, k / 10_000) >= 1 - delta)
        assert cost_threshold_parts(prior, alpha, delta, n)[1] == k / 10_000

    @pytest.mark.parametrize("mixing", [
        {"kind": "beta", "a": 0.5, "b": 0.5},
        {"kind": "atoms", "atoms": [[0.5, 0.2], [0.5, 0.8]]},
        {"kind": "point", "theta": 0.4},
    ])
    def test_sampled_within_five_standard_errors_of_exact(self, mixing):
        prior = _prior(mixing, cost1={"kind": "exponential", "rate": 2.0})
        tau = cost_threshold(prior, 0.2, 0.1, 80)
        check = group_prob_mc(prior, 0.2, 80, tau, trials=50_000, seed=1)
        assert check["exact"] == _group_prob(prior, 80, 64, tau) >= 0.9
        assert check["se"] > 0.0 and abs(check["z"]) < 5.0

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
        # Every one of 20,000 costs must lie below the search cap; the
        # sampled chance of that agrees with the exact one, short of 0.999.
        cap = float(prior.cost0.quantile(COST_SEARCH_QUANTILE))
        check = group_prob_mc(prior, 1e-9, 20_000, cap, trials=1000, seed=0)
        assert check["exact"] == pytest.approx((1.0 - 1e-6) ** 20_000, rel=1e-9)
        assert check["exact"] < 0.999 and abs(check["z"]) < 5.0


# A zero-holder's costs sit below 1e-100, so a peer's cost reaches its 0.9
# quantile hundreds of halvings below the search cap of 1, and below the
# first grid cost.
TINY_COST0_PRIOR = {"family": "conditional_iid", "mixing": {"kind": "point", "theta": 0.01},
                    "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1e-100},
                    "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0}}

UNIFORM_COST = {"kind": "uniform", "lo": 0.0, "hi": 1.0}
WIDE_UNIFORM_COST = {"kind": "uniform", "lo": 0.0, "hi": 2.0}
EXPONENTIAL_COST = {"kind": "exponential", "rate": 2.0}

# Peers share your bit: a one-holder's peer is a one, whose cost is
# exponential, so the marginal part of tau wins.
SHARED_BIT_PRIOR = {"family": "conditional_iid",
                    "mixing": {"kind": "atoms", "atoms": [[0.96, 0.0], [0.04, 1.0]]},
                    "cost0": UNIFORM_COST, "cost1": EXPONENTIAL_COST}

GRID_PRIORS = {
    "uniform": {"family": "conditional_iid", "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
                "cost0": UNIFORM_COST, "cost1": UNIFORM_COST},
    "point-mass-cost1": {"family": "conditional_iid",
                         "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
                         "cost0": UNIFORM_COST,
                         "cost1": {"kind": "point_mass", "value": 0.3}},
    "tiny-cost0": TINY_COST0_PRIOR,
    "bench-atoms": {"family": "conditional_iid",
                    "mixing": {"kind": "atoms", "atoms": [[0.5, 0.2], [0.5, 0.8]]},
                    "cost0": UNIFORM_COST, "cost1": WIDE_UNIFORM_COST},
    "shared-bit": SHARED_BIT_PRIOR,
}


class TestOneCostGrid:
    """Both parts of tau are least costs on the 1e-4 grid (or the search
    cap), each checked against its condition computed here."""

    @pytest.mark.parametrize("name", list(GRID_PRIORS))
    def test_each_part_is_the_least_grid_cost_meeting_its_condition(self, name):
        prior = PriorSpec.from_dict(GRID_PRIORS[name])
        n, alpha, delta = 60, 0.1, 0.1
        need = math.ceil((1 - alpha) * n)
        cap = max(float(np.asarray(prior.cost0.quantile(COST_SEARCH_QUANTILE))),
                  float(np.asarray(prior.cost1.quantile(COST_SEARCH_QUANTILE))))

        def marginal(t):
            f0, f1 = cost_cdfs(prior, t)
            if prior.cost0 == prior.cost1:
                return f0 >= 1 - alpha
            return all(p * f1 + (1 - p) * f0 >= 1 - alpha
                       for p in (posterior_bit_prob(prior, bit) for bit in (0, 1)))

        def group(t):
            return _group_prob(prior, n, need, t) >= 1 - delta

        tau, tau_group, tau_marginal = cost_threshold_parts(prior, alpha, delta, n)
        assert tau == max(tau_group, tau_marginal)
        per_unit = round(1 / COST_GRID)
        for t, condition in ((tau_group, group), (tau_marginal, marginal)):
            k = round(t * per_unit)
            if k / per_unit != t:
                assert t == cap
                k = math.floor(cap * per_unit) + 1
            assert condition(t)
            if k > 0:
                assert not condition((k - 1) / per_unit)

    def test_marginal_part_wins_rounded_up_to_the_grid(self):
        # The least real cost meeting the marginal condition is
        # 1.1512925464970227; tau rounds it up by less than one grid step,
        # so it stays an upper bound.
        prior = PriorSpec.from_dict(SHARED_BIT_PRIOR)
        tau, tau_group, tau_marginal = cost_threshold_parts(prior, 0.1, 0.1, 60)
        assert tau == tau_marginal == 1.1513 > tau_group
        assert 0.0 < tau - 1.1512925464970227 < COST_GRID


class TestBetaQuadrature:
    """The group chance under Beta mixing with unequal cost laws, which
    QUADPACK's algebraic weight integrates."""

    @pytest.mark.parametrize("a, b, cost0, cost1, tau", [
        (5.0, 0.5, WIDE_UNIFORM_COST, EXPONENTIAL_COST, 2.0143),
        (0.5, 0.5, WIDE_UNIFORM_COST, EXPONENTIAL_COST, 1.9843),
        (0.5, 0.5, EXPONENTIAL_COST, WIDE_UNIFORM_COST, 1.9843),
        (0.3, 2.0, EXPONENTIAL_COST, WIDE_UNIFORM_COST, 2.0157),
    ], ids=["beta5-half", "beta-half", "beta-half-swapped", "beta0.3-2-swapped"])
    def test_end_point_singularities_do_not_warn(self, a, b, cost0, cost1, tau):
        # Each Beta density is infinite at 0 or 1 (a or b below 1); the
        # quadrature must not warn that the integral is probably divergent.
        prior = _prior({"kind": "beta", "a": a, "b": b}, cost0=cost0, cost1=cost1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parts = cost_threshold_parts(prior, 0.02, 0.05, 5000)
        assert parts[:2] == (tau, tau)

    @pytest.mark.parametrize("n", [200, 5000, 50_000])
    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (5.0, 0.5), (2.0, 5.0), (1.0, 1.0)])
    def test_group_prob_against_an_arcsine_substitution(self, a, b, n):
        # Oracle: theta = sin^2 phi turns the Beta(a, b) density into
        # 2 sin^(2a - 1) phi cos^(2b - 1) phi / B(a, b), bounded for
        # a, b >= 1/2, and plain quad gets the step as a breakpoint.
        prior = _prior({"kind": "beta", "a": a, "b": b},
                       cost0=WIDE_UNIFORM_COST, cost1=EXPONENTIAL_COST)
        need = math.ceil(0.98 * n)

        def oracle(t):
            f0, f1 = cost_cdfs(prior, t)

            def integrand(phi):
                s, c = math.sin(phi), math.cos(phi)
                g = s * s * f1 + c * c * f0
                return 2.0 * s ** (2 * a - 1) * c ** (2 * b - 1) * stats.binom.sf(need - 1, n, g)

            step = (need / n - f0) / (f1 - f0)
            points = [math.asin(math.sqrt(step))] if 0.0 < step < 1.0 else None
            value, _ = quad(integrand, 0.0, 0.5 * math.pi, points=points, limit=200,
                            epsabs=1e-13, epsrel=1e-13)
            return value * math.exp(-betaln(a, b))

        for t in np.arange(0.5, 2.45, 0.1):
            assert _group_prob(prior, n, need, t) == pytest.approx(oracle(t), abs=1e-8)


PEER_COUNTS = [1, 199, 4999, 49999]


def _clipped_means(m, eps):
    """E[clip((k + R) / m, 0, 1)] for k = 0..m, R ~ Laplace(1 / eps) rounded."""
    return clipped_sums(m, 1.0 / eps) / m


class TestPeerCountLaw:
    """The exact means and the binomial tail come from scipy.special;
    scipy.stats' pmfs serve as their oracle."""

    @pytest.mark.parametrize("m", PEER_COUNTS)
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("atoms", [
        [[0.5, 0.2], [0.5, 0.8]],
        [[0.3, 0.0], [0.2, 1.0], [0.5, 0.37]],
    ])
    def test_binomial_mixture_against_scipy_stats(self, atoms, bit, m):
        # p0 / p1 against the posterior binomial mixture's pmf.
        prior = _prior({"kind": "atoms", "atoms": atoms})
        weights, thetas = (np.array(column) for column in zip(*atoms))
        post = weights * (thetas if bit == 1 else 1.0 - thetas)
        expected = post / post.sum() @ stats.binom.pmf(np.arange(m + 1), m, thetas[:, None])
        exact = posterior_clamped_mean(prior, bit, m + 1, 0.3)
        assert exact == pytest.approx(expected @ _clipped_means(m, 0.3), rel=1e-13)

    @pytest.mark.parametrize("m", PEER_COUNTS)
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("name", list(MIXINGS))
    @pytest.mark.parametrize("g", [(0.0, 1.0), (0.15, 0.8)])
    def test_noiseless_mean_against_scipy_stats(self, g, name, bit, m):
        # Given the peers' ones B, E[K | B] = B g1 + (m - B) g0.  B is
        # beta-binomial under Beta mixing, else a mixture of binomials over
        # the atoms reweighted by the own bit.
        mixing = MIXINGS[name]
        ones = np.arange(m + 1)
        if mixing["kind"] == "beta":
            law = stats.betabinom.pmf(ones, m, mixing["a"] + bit, mixing["b"] + (1 - bit))
        else:
            atoms = mixing["atoms"] if mixing["kind"] == "atoms" else [[1.0, mixing["theta"]]]
            weights, thetas = (np.array(column) for column in zip(*atoms))
            post = weights * (thetas if bit == 1 else 1.0 - thetas)
            law = post / post.sum() @ stats.binom.pmf(ones, m, thetas[:, None])
        expected = law @ (ones * g[1] + (m - ones) * g[0]) / m
        mean = clamped_mean(_prior(mixing), bit, m + 1, 0.0, g)
        assert mean == pytest.approx(expected, abs=1e-9)

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


class TestGeneratingFunctionAccuracy:
    """The clamped mean against oracles exact to rounding, at up to 500,000
    agents."""

    @pytest.mark.parametrize("eps", [math.log(10.0) / 20.0, 0.3, 0.02303])
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("n", [200, 5000, 50_000, 500_000])
    def test_uniform_prior_against_its_rational_pmf(self, n, bit, eps):
        # Under Beta(1, 1), P(K = k | 1) = 2 (k + 1) / ((m + 1)(m + 2)),
        # with m - k + 1 in place of k + 1 given a zero, and
        # E[clip(k + X, 0, m)] = k + c (e^(-k/s) - e^(-(m-k)/s)): every
        # term is positive, and math.fsum adds them.
        m, scale = n - 1, 1.0 / eps
        c = 0.25 / math.sinh(0.5 / scale)
        oracle = math.fsum(
            2.0 * ((k if bit else m - k) + 1) / ((m + 1) * (m + 2))
            * (k + c * (math.exp(-k / scale) - math.exp(-(m - k) / scale))) / m
            for k in range(m + 1))
        exact = posterior_clamped_mean(_prior(MIXINGS["uniform"]), bit, n, eps)
        assert exact == pytest.approx(oracle, rel=0.0, abs=1e-14)

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("scale", [0.5, 1.0 / 0.3])
    @pytest.mark.parametrize("g", [(1.0, 0.0), (0.0, 0.9), (0.15, 0.8)])
    @pytest.mark.parametrize("a, b", [(5.0, 0.5), (0.5, 0.5), (2.5, 0.7)])
    def test_beta_mixing_against_quadrature(self, a, b, g, scale, bit):
        # Given theta, K ~ Bin(m, q) with q = g0 + theta (g1 - g0), so
        # E[z^K] - 1 = E[expm1(m log1p(-q w))], w = 1 - e^(-1/s), and
        # E[z^(m-K)] the same with 1 - q.  QUADPACK's algebraic weight
        # takes the posterior Beta density's powers at the ends.
        m, (g0, g1) = 49_999, g
        pa, pb = a + bit, b + (1 - bit)
        w = -math.expm1(-1.0 / scale)
        c = 0.25 / math.sinh(0.5 / scale)

        def pgf_less_one(q0, q1):
            value, _ = quad(lambda t: math.expm1(m * math.log1p(-(q0 + t * (q1 - q0)) * w)),
                            0.0, 1.0, weight="alg", wvar=(pa - 1.0, pb - 1.0), limit=200,
                            epsabs=1e-13, epsrel=1e-13)
            return value * math.exp(-betaln(pa, pb))

        oracle = (g0 + (g1 - g0) * pa / (pa + pb)
                  + c * (pgf_less_one(g0, g1) - pgf_less_one(1.0 - g0, 1.0 - g1)) / m)
        exact = clamped_mean(_prior({"kind": "beta", "a": a, "b": b}), bit, m + 1, scale, g)
        assert exact == pytest.approx(oracle, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("scale", [0.01, 0.001])
    @pytest.mark.parametrize("mixing, expected", [
        ({"kind": "beta", "a": 2.0, "b": 1.0}, [0.75, 0.25, 0.675]),
        ({"kind": "atoms", "atoms": [[0.5, 1.0], [0.5, 0.3]]},
         [0.8384615384615384, 0.1615384615384615, 0.7546153846153846]),
    ], ids=["beta", "atoms"])
    def test_large_epsilon_is_finite_and_silent(self, mixing, expected, scale):
        # At s <= 1/37, w = 1 - e^(-1/s) rounds to 1, so a peer who surely
        # reports 1 (theta = 1 under g = (0, 1), theta = 0 under (1, 0))
        # puts log1p(-1) = -inf into E[z^K]; the mean must stay finite and
        # raise no warning.
        prior = _prior(mixing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            means = [clamped_mean(prior, 1, 50, scale, g)
                     for g in ((0.0, 1.0), (1.0, 0.0), (0.0, 0.9))]
        assert means == pytest.approx(expected, rel=0.0, abs=1e-12)


def _equal_cost_prior(cost_spec):
    return PriorSpec.from_dict({
        "family": "conditional_iid",
        "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
        "cost0": cost_spec,
        "cost1": cost_spec,
    })


def _clamped_mean_oracle(a, b, bit, n, eps):
    """Sum over k of the beta-binomial P(K = k | own bit) (scipy.stats)
    times E[clip((k + R) / m, 0, 1)], summed term by term over the integers
    z the rounded noise R takes, out to 60 scales past [-m, m]; the mass
    past either end counts as its clip does, m above and 0 below."""
    m = n - 1
    aa = a + (1 if bit == 1 else 0)
    bb = b + (1 if bit == 0 else 0)
    scale = 1.0 / eps
    reach = m + int(60 * scale)
    z = np.arange(-reach, reach + 1)
    pmf = rounded_laplace_pmf(z, scale)
    above = stats.laplace.sf(reach + 0.5, scale=scale)
    total = 0.0
    for k in range(m + 1):
        w = stats.betabinom.pmf(k, m, aa, bb)
        total += w * (np.clip(k + z, 0, m) @ pmf + m * above) / m
    return total


def _binomial_sum_oracle(mixing, bit, n, eps):
    """Sum over k of P(K = k | own bit) times E[clip((k + R) / m, 0, 1)]:
    beta-binomial or binomial-mixture weights from lgamma in plain floats,
    and the rounded noise R's clipped means from `noise_oracle.clipped_sums`."""
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
    return math.fsum(w * c / m for w, c in zip(weights, clipped_sums(m, 1.0 / eps)))


POINT = PriorSpec.from_dict({"family": "conditional_iid", "mixing": {"kind": "point", "theta": 0.5},
                             "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                             "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0}})


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: TruncatedLogNormal(mu=0.0, sigma=1.0, cap=0.0), ValueError,
     "cap must be positive, got 0.0"),
    (lambda: AtomMixing(()), ValueError, "atom mixture needs at least one atom"),
    (lambda: AtomMixing(((-0.5, 0.2), (1.5, 0.8))), ValueError, "atom weights must be positive"),
    (lambda: AtomMixing(((0.5, 1.5), (0.5, 0.5))), ValueError,
     r"atom locations must lie in \[0, 1\]"),
    (lambda: PointMixing(1.5), ValueError, r"theta must lie in \[0, 1\], got 1.5"),
    (lambda: posterior_bit_prob(POINT, 2), ValueError, "bit must be 0 or 1, got 2"),
    (lambda: clamped_mean(POINT, 0, 1, 2.0), ValueError,
     "need bit 0 or 1, n >= 2 and scale >= 0, got 0, 1, 2.0"),
    (lambda: posterior_clamped_mean(POINT, 0, 10, 0.0), ValueError, "need epsilon > 0, got 0.0"),
    (lambda: cost_threshold_parts(POINT, 1.0, 0.1, 10), ValueError,
     r"alpha must lie in \(0, 1\), got 1.0"),
    (lambda: cost_threshold_parts(POINT, 0.1, 0.0, 10), ValueError,
     r"delta must lie in \(0, 1\), got 0.0"),
    (lambda: cost_threshold_parts(POINT, 0.1, 0.1, 1), ValueError, "n must be at least 2, got 1"),
    (lambda: group_prob_mc(POINT, 0.1, 10, 0.5, 0, 3), ValueError, "trials must be positive"),
], ids=["log-normal-cap", "no-atoms", "atom-weight", "atom-location", "point-theta",
        "posterior-bit", "clamped-mean-n", "clamped-mean-epsilon", "tau-alpha", "tau-delta",
        "tau-n", "group-prob-trials"])
def test_input_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
