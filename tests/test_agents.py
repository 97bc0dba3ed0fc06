import itertools
import math

import numpy as np
import pytest
from scipy.special import betaln
from scipy.stats import binom

from noise_oracle import clipped_sums
from peersurvey._util import merge_moments
from peersurvey.agents import (
    ABSTAIN,
    ACTIONS,
    LIE,
    OFF_BEHAVIORS,
    TRUTH,
    AgentType,
    AlwaysAbstain,
    AlwaysLie,
    AlwaysTruth,
    ConstantBit,
    CostModel,
    Threshold,
    expected_utility,
    one_report_chances,
    peer_estimate_mc,
    peer_estimate_mean,
    privacy_cost_bound,
    sample_report_counts,
    strategy_arrays,
    strategy_from_dict,
)
from peersurvey.equilibrium import beta_rule, epsilon_rule
from peersurvey.mechanism import MechanismConfig, payment_at, payment_pair, peer_estimate
from peersurvey.priors import PriorSpec, cost_threshold, posterior_clamped_mean
from peersurvey.privacy import NoiseSpec
from peersurvey.scoring import scaled_score

POINT_PRIOR = PriorSpec.from_dict({
    "family": "conditional_iid",
    "mixing": {"kind": "point", "theta": 0.5},
    "cost0": {"kind": "point_mass", "value": 0.3},
    "cost1": {"kind": "point_mass", "value": 0.3},
})

# One agent's report as (contribution, participates).
ONE, ZERO, ABSTAINED = (1, True), (0, True), (0, False)


def scalar_report(strategy, agent):
    """Scalar oracle for `strategy_arrays`: one agent's report, branch by branch."""
    if isinstance(strategy, AlwaysTruth):
        return (agent.bit, True)
    if isinstance(strategy, AlwaysLie):
        return (1 - agent.bit, True)
    if isinstance(strategy, AlwaysAbstain):
        return ABSTAINED
    if isinstance(strategy, ConstantBit):
        return (strategy.value, True)
    if isinstance(strategy, Threshold):
        if agent.cost <= strategy.tau:
            return (agent.bit, True)
        if strategy.off == ABSTAIN:
            return ABSTAINED
        if strategy.off == LIE:
            return (1 - agent.bit, True)
        return (agent.bit, True)
    raise TypeError(f"unknown strategy {strategy!r}")


def report_of(strategy, agent):
    """`strategy_arrays` applied to a single agent."""
    values, participates = strategy_arrays(strategy, np.array([agent.bit]), np.array([agent.cost]))
    return (int(values[0]), bool(participates[0]))


class TestAgentType:
    def test_fields(self):
        agent = AgentType(bit=1, cost=0.25)
        assert agent.bit == 1
        assert agent.cost == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            AgentType(bit=2, cost=0.1)
        with pytest.raises(ValueError):
            AgentType(bit=0, cost=-0.1)


class TestCostModel:
    def test_round_trip(self):
        model = CostModel(kind="chen")
        assert model.to_dict() == {"kind": "chen"}
        assert CostModel.from_dict(model.to_dict()) == model
        with pytest.raises(ValueError, match="cost_model has no key 'etaa'"):
            CostModel.from_dict({"kind": "linear", "etaa": 0.3})

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(kind="cubic")
        with pytest.raises(ValueError, match="cost_model is missing key 'kind'"):
            CostModel.from_dict({})

    def test_privacy_cost_bound_values(self):
        assert privacy_cost_bound(CostModel("linear"), 2.0, 0.1) == pytest.approx(0.2)
        assert privacy_cost_bound(CostModel("chen"), 2.0, 0.1) == pytest.approx(0.08)
        assert privacy_cost_bound(CostModel("chen"), 1.0, 1.0) == pytest.approx(4.0)

    def test_quadratic_bound_needs_small_epsilon(self):
        with pytest.raises(ValueError):
            privacy_cost_bound(CostModel("chen"), 1.0, 1.5)

    def test_bound_monotone(self):
        model = CostModel("linear")
        assert privacy_cost_bound(model, 2.0, 0.2) > privacy_cost_bound(model, 2.0, 0.1)
        assert privacy_cost_bound(model, 3.0, 0.1) > privacy_cost_bound(model, 2.0, 0.1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            privacy_cost_bound(CostModel("linear"), -1.0, 0.1)
        with pytest.raises(ValueError):
            privacy_cost_bound(CostModel("linear"), 1.0, 0.0)


class TestSingleAgentReports:
    def test_threshold_participation_split(self):
        strategy = Threshold(tau=0.5, off=ABSTAIN)
        assert report_of(strategy, AgentType(1, 0.3)) == ONE
        assert report_of(strategy, AgentType(1, 0.7)) == ABSTAINED
        assert report_of(strategy, AgentType(0, 0.5)) == ZERO

    def test_threshold_off_variants(self):
        pricey = AgentType(1, 0.9)
        assert report_of(Threshold(0.5, off=LIE), pricey) == ZERO
        assert report_of(Threshold(0.5, off=TRUTH), pricey) == ONE

    def test_fixed_strategies(self):
        agent = AgentType(0, 0.4)
        assert report_of(AlwaysTruth(), agent) == ZERO
        assert report_of(AlwaysLie(), agent) == ONE
        assert report_of(AlwaysAbstain(), agent) == ABSTAINED
        assert report_of(ConstantBit(1), agent) == ONE
        assert report_of(ConstantBit(0), AgentType(1, 0.0)) == ZERO

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            Threshold(tau=-0.1)
        with pytest.raises(ValueError):
            Threshold(tau=0.5, off="defect")
        with pytest.raises(ValueError):
            ConstantBit(2)


class TestStrategySerialization:
    @pytest.mark.parametrize(
        "spec, strategy",
        [
            ({"kind": "threshold", "tau": 0.75, "off": "lie"}, Threshold(tau=0.75, off=LIE)),
            ({"kind": "threshold", "tau": 1}, Threshold(tau=1.0, off=ABSTAIN)),
            ({"kind": "always_truth"}, AlwaysTruth()),
            ({"kind": "always_lie"}, AlwaysLie()),
            ({"kind": "always_abstain"}, AlwaysAbstain()),
            ({"kind": "constant_bit", "value": 0}, ConstantBit(0)),
        ],
    )
    def test_from_dict(self, spec, strategy):
        assert strategy_from_dict(spec) == strategy
        with pytest.raises(ValueError, match="strategy has no key 'extra'"):
            strategy_from_dict(dict(spec, extra=1.0))
        for key in set(spec) - {"kind", "off"}:
            for bad in (True, "1", math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"strategy.{key} must be"):
                    strategy_from_dict(dict(spec, **{key: bad}))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            strategy_from_dict({"kind": "mirror"})
        with pytest.raises(ValueError):
            strategy_from_dict(["threshold"])


class TestStrategyArrays:
    @pytest.mark.parametrize(
        "strategy",
        [
            Threshold(tau=0.5, off=ABSTAIN),
            Threshold(tau=0.5, off=LIE),
            Threshold(tau=0.5, off=TRUTH),
            AlwaysTruth(),
            AlwaysLie(),
            AlwaysAbstain(),
            ConstantBit(1),
        ],
    )
    def test_matches_scalar_version(self, strategy):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, size=40)
        costs = rng.random(40)
        values, participates = strategy_arrays(strategy, bits, costs)
        for j in range(40):
            agent = AgentType(int(bits[j]), float(costs[j]))
            assert (values[j], participates[j]) == scalar_report(strategy, agent)


def truthful_config(prior, n=200, alpha=0.1, delta=0.1):
    """Mechanism tuned by the design rules, with exact tau and posteriors."""
    epsilon = epsilon_rule(alpha, delta, n)
    tau = cost_threshold(prior, alpha, delta / 2.0, n)
    beta = beta_rule("linear", epsilon, tau)
    p0 = posterior_clamped_mean(prior, 0, n, epsilon)
    p1 = posterior_clamped_mean(prior, 1, n, epsilon)
    return MechanismConfig(n=n, alpha=alpha, beta=beta, epsilon=epsilon, p0=p0, p1=p1), tau


def utility(agent, action, others, prior, config, model):
    """expected_utility at the exact mean estimate of peers playing `others`."""
    mean = peer_estimate_mean(prior, agent.bit, config.n, config.noise, others)
    return expected_utility(agent, action, mean, config, model)


class TestExpectedUtility:
    def test_abstain_is_exact(self, uniform_prior):
        config, tau = truthful_config(uniform_prior)
        model = CostModel("linear")
        agent = AgentType(bit=1, cost=0.4)
        est = utility(agent, ABSTAIN, AlwaysTruth(), uniform_prior, config, model)
        assert est == {"mean_payment": 0.0,
                       "utility_lower_bound": -privacy_cost_bound(model, 0.4, config.epsilon)}
        assert est["utility_lower_bound"] <= 0.0

    def test_given_mean_estimate_is_used(self, uniform_prior):
        # The payment is the score at the given mean, against the posterior
        # of the reported bit; abstaining ignores it.
        config, _ = truthful_config(uniform_prior)
        agent, model = AgentType(bit=0, cost=0.1), CostModel("linear")
        lie = expected_utility(agent, LIE, 0.5, config, model)
        assert lie["mean_payment"] == scaled_score(config.scoring, 0.5, config.p1)
        truth = expected_utility(agent, TRUTH, 0.5, config, model)
        assert truth["mean_payment"] == scaled_score(config.scoring, 0.5, config.p0)
        assert expected_utility(agent, ABSTAIN, 0.5, config, model)["mean_payment"] == 0.0

    def test_utility_subtracts_the_privacy_cost_bound(self, uniform_prior):
        config, _ = truthful_config(uniform_prior)
        agent, model = AgentType(bit=1, cost=0.3), CostModel("chen")
        est = expected_utility(agent, TRUTH, 0.6, config, model)
        assert est["utility_lower_bound"] == (
            est["mean_payment"] - privacy_cost_bound(model, 0.3, config.epsilon))

    def test_truth_beats_subsidy_lie_earns_nothing(self, uniform_prior):
        # Against truthful peers, an honest report earns at least the
        # participation subsidy and a flipped report at most zero.
        config, tau = truthful_config(uniform_prior)
        model = CostModel("linear")
        for bit in (0, 1):
            agent = AgentType(bit=bit, cost=tau)
            truth = utility(agent, TRUTH, AlwaysTruth(), uniform_prior, config, model)
            lie = utility(agent, LIE, AlwaysTruth(), uniform_prior, config, model)
            assert truth["mean_payment"] >= config.beta
            assert lie["mean_payment"] <= 0.0

    def test_peer_estimate_tracks_posterior(self, uniform_prior):
        # Under truthful peers the mean leave-one-out estimate is p1 itself:
        # the same closed form, to the bit.
        config, _ = truthful_config(uniform_prior)
        mean = peer_estimate_mean(uniform_prior, 1, config.n, config.noise, AlwaysTruth())
        assert mean == config.p1
        assert abs(mean - 2.0 / 3.0) < config.alpha

    def test_validation(self, uniform_prior):
        config, _ = truthful_config(uniform_prior)
        with pytest.raises(ValueError, match="action"):
            expected_utility(AgentType(bit=1, cost=0.1), "hedge", config.p1, config,
                             CostModel("linear"))

    def test_bit_symmetry_for_symmetric_prior(self, uniform_prior):
        # Beta(1,1) with equal cost laws treats the two bits the same, so
        # the two truthful payments agree up to rounding.
        config, _ = truthful_config(uniform_prior)
        args = (uniform_prior, config, CostModel("linear"))
        one = utility(AgentType(bit=1, cost=0.0), TRUTH, AlwaysTruth(), *args)
        zero = utility(AgentType(bit=0, cost=0.0), TRUTH, AlwaysTruth(), *args)
        assert one["mean_payment"] == pytest.approx(zero["mean_payment"], rel=1e-12)

    @pytest.mark.parametrize("off", OFF_BEHAVIORS)
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("action", [TRUTH, LIE])
    def test_matches_exact_payment(self, atom_prior, off, bit, action):
        # Oracle: K, the one-reports of the n - 1 threshold peers, is a
        # mixture over the atoms reweighted by the own bit of Bin(n - 1, g),
        # where g is the chance that a peer reports 1, and each k's clipped
        # mean sums over the rounded noise's law.  The payment is
        # affine in the leave-one-out estimate, so its mean is the payment
        # at the estimate's exact mean.
        n, eps, tau = 40, 0.5, 0.7
        p0, p1 = (posterior_clamped_mean(atom_prior, b, n, eps) for b in (0, 1))
        config = MechanismConfig(n=n, alpha=0.1, beta=1.0, epsilon=eps, p0=p0, p1=p1)
        f0, f1 = 0.7, 0.35  # costs U[0, 1] and U[0, 2] at tau
        m = n - 1
        k = np.arange(m + 1)
        clip_mean = clipped_sums(m, 1.0 / eps) / m
        weights = np.array([0.2, 0.8]) if bit == 1 else np.array([0.8, 0.2])
        mean_estimate = 0.0
        for w, theta in zip(weights, (0.2, 0.8)):
            g = {TRUTH: theta, ABSTAIN: theta * f1,
                 LIE: theta * f1 + (1.0 - theta) * (1.0 - f0)}[off]
            mean_estimate += w * binom.pmf(k, m, g) @ clip_mean
        own = bit if action == TRUTH else 1 - bit
        exact = scaled_score(config.scoring, mean_estimate, p1 if own == 1 else p0)

        mean = peer_estimate_mean(atom_prior, bit, n, config.noise, Threshold(tau, off))
        assert mean == pytest.approx(mean_estimate, rel=1e-13)
        pay = expected_utility(AgentType(bit=bit, cost=0.0), action, mean, config,
                               CostModel("linear"))["mean_payment"]
        assert pay == pytest.approx(exact, abs=1e-12)
        assert pay == pytest.approx(payment_pair(config, mean * m + own)[1 - own], rel=1e-12)


    def test_actions_constant(self):
        assert ACTIONS == (TRUTH, LIE, ABSTAIN)


# Costs U[0, 1] for a zero and U[0, 2] for a one: at tau = 0.7 a peer
# holding a zero is cheap with chance 0.7, one holding a one with 0.35.
UNEQUAL_COSTS = {"cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
                 "cost1": {"kind": "uniform", "lo": 0.0, "hi": 2.0}}
LAW_MIXINGS = {
    "beta": {"kind": "beta", "a": 2.5, "b": 0.7},
    "beta-small-a": {"kind": "beta", "a": 0.5, "b": 3.0},
    "atoms": {"kind": "atoms", "atoms": [[0.3, 0.0], [0.2, 1.0], [0.5, 0.37]]},
    "point": {"kind": "point", "theta": 0.37},
}
ALL_STRATEGIES = [Threshold(0.7, ABSTAIN), Threshold(0.7, LIE), Threshold(0.7, TRUTH),
                  AlwaysTruth(), AlwaysLie(), AlwaysAbstain(), ConstantBit(0), ConstantBit(1)]


def law_prior(mixing):
    return PriorSpec.from_dict({"family": "conditional_iid", "mixing": mixing, **UNEQUAL_COSTS})


def brute_force_peer_estimate(mixing, strategy, bit, n, noise):
    """Mean leave-one-out estimate by enumerating every bit and cost cell of
    each of the m = n - 1 peers.

    Each peer is a one or a zero, cheap (cost tau, or 0.7 for a strategy
    without a threshold) or dear (cost tau + 1), and reports as
    `scalar_report` says.  A cell vector with i ones weighs
    E[theta^i (1 - theta)^(m - i) | own bit] times its cost chances: for
    Beta mixing the moment B(a + i, b + m - i) / B(a, b) of the posterior
    Beta, for atoms a sum over the reweighted atoms.  Each cell's k
    one-reports give the clipped mean E[clip(k + R, 0, m)] of the rounded
    noise R, a direct sum over its law (`noise_oracle.clipped_sums`).
    """
    m = n - 1
    tau = getattr(strategy, "tau", 0.7)
    cheap = np.array([0.7, 0.35])  # UNEQUAL_COSTS at 0.7
    reports = np.array([scalar_report(strategy, AgentType(c // 2, tau if c % 2 == 0 else tau + 1.0))[0]
                        for c in range(4)])
    cells = np.array(list(itertools.product(range(4), repeat=m)))
    bits = cells // 2
    cost_chance = np.where(cells % 2 == 0, cheap[bits], 1.0 - cheap[bits]).prod(axis=1)
    ones = bits.sum(axis=1)
    if mixing["kind"] == "beta":
        a, b = mixing["a"] + bit, mixing["b"] + 1 - bit
        moment = np.exp(betaln(a + ones, b + m - ones) - betaln(a, b))
    else:
        atoms = mixing["atoms"] if mixing["kind"] == "atoms" else [[1.0, mixing["theta"]]]
        post = [(w * (t if bit else 1.0 - t), t) for w, t in atoms]
        total = sum(w for w, _ in post)
        moment = sum(w / total * t**ones * (1.0 - t) ** (m - ones) for w, t in post)
    k = reports[cells].sum(axis=1)
    if noise.mode == "sample":
        k = clipped_sums(m, noise.scale)[k]
    return float((moment * cost_chance * k).sum() / m)


class TestPeerEstimateLaw:
    @pytest.mark.parametrize("n, noise", [(2, NoiseSpec(0.5)), (8, NoiseSpec(0.5)),
                                          (8, NoiseSpec(0.5, "disabled"))],
                             ids=["n2", "n8", "n8-noiseless"])
    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    @pytest.mark.parametrize("name", list(LAW_MIXINGS))
    def test_matches_brute_force(self, name, strategy, bit, n, noise):
        mixing = LAW_MIXINGS[name]
        exact = peer_estimate_mean(law_prior(mixing), bit, n, noise, strategy)
        assert exact == pytest.approx(brute_force_peer_estimate(mixing, strategy, bit, n, noise),
                                      rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("off", OFF_BEHAVIORS)
    def test_monte_carlo_within_five_standard_errors(self, off, bit):
        prior = law_prior({"kind": "beta", "a": 0.5, "b": 2.0})
        others = Threshold(0.7, off)
        exact = peer_estimate_mean(prior, bit, 50, NoiseSpec(0.5), others)
        mc, se = peer_estimate_mc(prior, bit, 50, NoiseSpec(0.5), others, 100_000, 21 + bit)
        assert 0.0 < se < 2e-3
        assert abs(mc - exact) <= 5.0 * se

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    @pytest.mark.parametrize("name", list(LAW_MIXINGS))
    def test_monte_carlo_within_five_standard_errors_every_law(self, name, strategy, bit):
        # The point prior and the 0/1 atoms put q(theta) at 0 or 1.
        prior = law_prior(LAW_MIXINGS[name])
        exact = peer_estimate_mean(prior, bit, 50, NoiseSpec(0.5), strategy)
        mc, se = peer_estimate_mc(prior, bit, 50, NoiseSpec(0.5), strategy, 100_000, 21 + bit)
        assert 0.0 < se < 2e-3
        assert abs(mc - exact) <= 5.0 * se

    @pytest.mark.parametrize("theta", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES, ids=repr)
    def test_one_report_chance_is_the_cell_samplers_law(self, strategy, theta):
        # peer_estimate_mc draws the one-reports as Bin(n, q(theta)); the
        # cell sampler of the survey simulators must give that count the
        # same law.  Oracle for q: each bit's cheap and dear agent reports
        # as `scalar_report` says, cheap with chance 0.7 or 0.35 at tau 0.7.
        n, trials = 30, 50_000
        prior = law_prior(LAW_MIXINGS["beta"])
        tau = getattr(strategy, "tau", 0.7)
        cheap = (0.7, 0.35)
        g_oracle = [cheap[b] * scalar_report(strategy, AgentType(b, tau))[0]
                    + (1.0 - cheap[b]) * scalar_report(strategy, AgentType(b, tau + 1.0))[0]
                    for b in (0, 1)]
        g0, g1 = one_report_chances(strategy, prior)
        q = g0 + theta * (g1 - g0)
        assert q == pytest.approx((1.0 - theta) * g_oracle[0] + theta * g_oracle[1],
                                  rel=0.0, abs=1e-15)
        assert 0.0 <= q <= 1.0
        _, ones, _, _ = sample_report_counts(strategy, prior, n, np.full(trials, theta),
                                             np.random.default_rng(17))
        se = (n * q * (1.0 - q) / trials) ** 0.5
        assert abs(ones.mean() - n * q) <= 5.0 * se

    def test_chunked_variance_matches_pooled(self, uniform_prior, monkeypatch):
        # Over several chunks, the merged mean and variance are those of all
        # the sampled estimates.
        from peersurvey import agents

        estimates = []

        def recording(n, b_bar, own):
            value = peer_estimate(n, b_bar, own)
            estimates.append(value)
            return value

        monkeypatch.setattr(agents, "CHUNK_TRIALS", 1_000)
        monkeypatch.setattr(agents, "peer_estimate", recording)
        mean, se = peer_estimate_mc(uniform_prior, 1, 200, NoiseSpec(0.1), AlwaysTruth(), 4_500, 5)
        pooled = np.concatenate(estimates)
        assert pooled.size == 4_500 and len(estimates) == 5
        assert mean == pytest.approx(pooled.mean(), rel=1e-12)
        assert se == pytest.approx((pooled.var() / 4_500) ** 0.5, rel=1e-9)

    def test_constant_payments_have_zero_ci(self):
        # Every trial gives the same value, so the variance that
        # peer_estimate_mc folds in chunk by chunk must come out zero up to
        # rounding, without the cancellation of E[x^2] - E[x]^2.
        pay = 1.2196969696969697
        moments = (0, 0.0, 0.0)
        for size in (1_000, 7, 4_096):
            moments = merge_moments(moments, np.full(size, pay))
        count, mean, m2 = moments
        assert count == 5_103
        assert mean == pytest.approx(pay, rel=1e-15)
        assert m2 / count <= 1e-24


@pytest.mark.parametrize("bit", [0, 1])
@pytest.mark.parametrize("p0, p1", [(1.0 / 3.0, 2.0 / 3.0), (0.8, 0.3)])
def test_expected_payment_is_payment_at_the_mean_estimate(bit, p0, p1):
    # The expected payment goes through the mechanism's one payment rule:
    # truth pays for the own bit, a lie for the other, to the bit.
    config = MechanismConfig(n=50, alpha=0.1, beta=0.7, epsilon=0.5, p0=p0, p1=p1)
    agent, model = AgentType(bit=bit, cost=0.2), CostModel("linear")
    for mean in (0.0, 0.123456789, 1.0 / 3.0, 0.5, 0.9, 1.0):
        truth = expected_utility(agent, TRUTH, mean, config, model)["mean_payment"]
        lie = expected_utility(agent, LIE, mean, config, model)["mean_payment"]
        assert (truth, lie) == (payment_at(config, mean, bit), payment_at(config, mean, 1 - bit))
        assert type(truth) is type(payment_at(config, mean, bit))


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: strategy_arrays(object(), [0, 1], [0.1, 0.2]), TypeError, "unknown strategy"),
    (lambda: peer_estimate_mc(POINT_PRIOR, 0, 1, NoiseSpec(0.5), AlwaysTruth(), 10, 0),
     ValueError, "need n >= 2 and trials >= 1, got n=1, trials=10"),
    (lambda: peer_estimate_mc(POINT_PRIOR, 0, 10, NoiseSpec(0.5), AlwaysTruth(), 0, 0),
     ValueError, "need n >= 2 and trials >= 1, got n=10, trials=0"),
], ids=["strategy-kind", "peer-estimate-n", "peer-estimate-trials"])
def test_input_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
