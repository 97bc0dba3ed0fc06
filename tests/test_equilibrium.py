import dataclasses
import itertools
import math

import numpy as np
import pytest

from peersurvey._util import CHUNK_TRIALS, chunk_sizes, cross_check, derive_seed, subseed_rng
from peersurvey.agents import (AlwaysLie, AlwaysTruth, ConstantBit, CostModel, Threshold,
                               peer_estimate_mean, sample_report_counts)
from peersurvey.equilibrium import (
    CostRow,
    CostScalingReport,
    accuracy_experiment,
    accuracy_radius,
    best_response_audit,
    beta_rule,
    config_lint,
    cost_scaling_experiment,
    epsilon_rule,
    exact_parameters,
    simulate_estimates,
    simulate_survey,
    total_payment_bound,
)
from peersurvey.mechanism import MechanismConfig, payment_pair, published_estimate
from peersurvey.priors import CostSearchError, PriorSpec
from peersurvey.privacy import FAIL, PASS, NoiseSpec, noise_draw
from peersurvey.scoring import scoring_params


class TestCrossCheckRecord:
    def test_keys_in_order_and_z(self):
        record = cross_check(0.5, 0.53, 0.01, 400)
        assert list(record) == ["exact", "mc", "se", "samples", "z"]
        assert record["z"] == pytest.approx(3.0)
        assert (record["exact"], record["mc"], record["se"], record["samples"]) == (
            0.5, 0.53, 0.01, 400)

    @pytest.mark.parametrize("se", [0.0, 0.01])
    def test_z_is_zero_where_mc_equals_exact(self, se):
        # A chance of 1 that every trial hit has se 0, and no division.
        assert cross_check(1.0, 1.0, se, 100)["z"] == 0.0


class TestParameterRules:
    def test_beta_rule_values(self):
        assert beta_rule("linear", 0.1, 0.9) == pytest.approx(0.09)
        assert beta_rule("chen", 0.1, 0.9) == pytest.approx(0.036)
        assert beta_rule("chen", 1.0, 2.0) == pytest.approx(8.0)

    def test_beta_rule_validation(self):
        with pytest.raises(ValueError):
            beta_rule("chen", 2.0, 0.5)
        with pytest.raises(ValueError, match="tau must be positive"):
            beta_rule("linear", 0.1, 0.0)
        with pytest.raises(ValueError):
            beta_rule("affine", 0.1, 0.5)
        with pytest.raises(ValueError):
            beta_rule("linear", 0.0, 0.5)

    def test_epsilon_rule_values(self):
        assert epsilon_rule(0.1, math.exp(-1.0), 100) == pytest.approx(0.1)
        assert epsilon_rule(0.1, 0.01, 1000) == pytest.approx(math.log(100.0) / 100.0)
        assert epsilon_rule(0.5, 0.5, 2) == pytest.approx(math.log(2.0))

    def test_epsilon_rule_validation(self):
        with pytest.raises(ValueError):
            epsilon_rule(0.0, 0.1, 100)
        with pytest.raises(ValueError):
            epsilon_rule(0.1, 1.0, 100)
        with pytest.raises(ValueError):
            epsilon_rule(0.1, 0.1, 0)

    def test_accuracy_radius(self):
        eps = math.log(10.0) / 100.0
        assert accuracy_radius(0.1, 0.1, eps, 1000) == pytest.approx(
            math.log(20.0) / (eps * 1000.0) + 0.1
        )
        assert accuracy_radius(0.1, 0.1, eps, 1000) == pytest.approx(0.230103, abs=1e-6)

    def test_config_lint(self):
        n = 1000
        lint = config_lint(0.1, 0.1, epsilon_rule(0.1, 0.1, n), n)
        assert not lint["meets_two_alpha"]
        assert lint["epsilon_for_two_alpha"] == pytest.approx(math.log(20.0) / 100.0)
        generous = config_lint(0.1, 0.1, 0.03, n)
        assert generous["meets_two_alpha"]
        assert generous["alpha_prime"] <= 0.2


class TestTotalPaymentBound:
    def test_reference_value(self):
        params = scoring_params(1.0 / 3.0, 2.0 / 3.0, 0.1, 1.0)
        assert total_payment_bound(params, 100) == pytest.approx(250.0, rel=1e-12)

    @pytest.mark.parametrize("delta", [0.1, 0.01])
    @pytest.mark.parametrize("alpha", [0.05, 0.1])
    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("tau", [0.3, 0.9])
    @pytest.mark.parametrize("posteriors", [(1.0 / 3.0, 2.0 / 3.0), (0.25, 0.7)])
    def test_quadratic_rule_scaling_identity(self, delta, alpha, n, tau, posteriors):
        # When epsilon follows the design rule and beta the quadratic
        # premium rule, the payment bound collapses to a closed form whose
        # only n dependence is 1/n.
        p0, p1 = posteriors
        epsilon = epsilon_rule(alpha, delta, n)
        assert epsilon <= 1.0
        beta = beta_rule("chen", epsilon, tau)
        params = scoring_params(p0, p1, alpha, beta)
        gap = abs(p1 - p0)
        factor = 1.0 + 4.0 * alpha * gap / (2.0 * gap**2 - 4.0 * alpha * gap)
        closed_form = 4.0 * math.log(1.0 / delta) ** 2 * tau / (alpha**2 * n) * factor
        assert total_payment_bound(params, n) == pytest.approx(closed_form, rel=1e-12)


class TestSimulateEstimates:
    def test_truthful_noiseless_estimates_are_exact(self, uniform_prior):
        noise = NoiseSpec(epsilon=1.0, mode="disabled")
        records = simulate_estimates(
            uniform_prior, 50, noise, AlwaysTruth(), trials=200, seed=8
        )
        np.testing.assert_array_equal(records.p_tilde, records.p_hat)
        assert np.all(records.mismatches == 0)
        assert np.all(records.participants == 50)
        assert np.all(records.ones + records.zeros == 50)

    def test_lying_mirrors_the_estimate(self, uniform_prior):
        noise = NoiseSpec(epsilon=1.0, mode="disabled")
        records = simulate_estimates(
            uniform_prior, 50, noise, AlwaysLie(), trials=200, seed=8
        )
        np.testing.assert_allclose(
            records.p_tilde, 1.0 - records.p_hat, rtol=0.0, atol=1e-15
        )
        assert np.all(records.mismatches == 50)

    def test_deterministic_in_seed(self, uniform_prior):
        noise = NoiseSpec(epsilon=0.5)
        a = simulate_estimates(uniform_prior, 30, noise, AlwaysTruth(), 100, seed=1)
        b = simulate_estimates(uniform_prior, 30, noise, AlwaysTruth(), 100, seed=1)
        c = simulate_estimates(uniform_prior, 30, noise, AlwaysTruth(), 100, seed=2)
        np.testing.assert_array_equal(a.b_bar, b.b_bar)
        assert not np.array_equal(a.b_bar, c.b_bar)

    @pytest.mark.parametrize("strategy", [Threshold(tau=0.5, off="abstain"), AlwaysLie()],
                             ids=["threshold-abstain", "always-lie"])
    def test_draw_order_chunk_by_chunk(self, uniform_prior, strategy):
        # Chunk k draws from subseed_rng(seed, k): theta, the report counts,
        # then one noise draw per trial.  Three chunks, the last a short one.
        n, trials, seed = 30, 2 * CHUNK_TRIALS + 123, 6
        noise = NoiseSpec(epsilon=0.5)
        records = simulate_estimates(uniform_prior, n, noise, strategy, trials, seed)
        columns = {name: [] for name in ("p_hat", "p_tilde", "b_bar", "ones", "zeros",
                                         "participants", "mismatches")}
        for chunk, start in enumerate(range(0, trials, CHUNK_TRIALS)):
            size = min(CHUNK_TRIALS, trials - start)
            rng = subseed_rng(seed, chunk)
            theta = uniform_prior.theta_sample(rng, size)
            bit_ones, ones, participants, mismatches = sample_report_counts(
                strategy, uniform_prior, n, theta, rng)
            b_bar = ones + noise_draw(noise, rng, size)
            for name, value in (("p_hat", bit_ones / n), ("p_tilde", published_estimate(n, b_bar)),
                                ("b_bar", b_bar), ("ones", ones), ("zeros", participants - ones),
                                ("participants", participants), ("mismatches", mismatches)):
                columns[name].append(value)
        assert records.trials == trials
        for name, parts in columns.items():
            np.testing.assert_array_equal(getattr(records, name), np.concatenate(parts))

    def test_validation(self, uniform_prior):
        noise = NoiseSpec(epsilon=1.0)
        with pytest.raises(ValueError):
            simulate_estimates(uniform_prior, 1, noise, AlwaysTruth(), 10, seed=0)
        with pytest.raises(ValueError):
            simulate_estimates(uniform_prior, 10, noise, AlwaysTruth(), 0, seed=0)


class TestSimulateSurvey:
    def test_payments_consistent_with_payment_rule(self, uniform_prior):
        config = MechanismConfig(
            n=40, alpha=0.1, beta=0.5, epsilon=0.5, p0=1.0 / 3.0, p1=2.0 / 3.0
        )
        recs = simulate_survey(
            uniform_prior, config, Threshold(tau=0.5), trials=300, seed=9
        )
        pay_one, pay_zero = payment_pair(config, recs.base.b_bar)
        np.testing.assert_array_equal(recs.pay_one, pay_one)
        np.testing.assert_array_equal(recs.pay_zero, pay_zero)
        np.testing.assert_allclose(
            recs.total_payment,
            recs.base.ones * pay_one + recs.base.zeros * pay_zero,
            rtol=1e-12,
        )

    def test_extremes_bracket_abstainers(self, uniform_prior):
        config = MechanismConfig(
            n=40, alpha=0.1, beta=0.5, epsilon=0.5, p0=1.0 / 3.0, p1=2.0 / 3.0
        )
        recs = simulate_survey(
            uniform_prior, config, Threshold(tau=0.5), trials=300, seed=9
        )
        assert np.all(recs.min_payment <= recs.max_payment)
        has_abstainer = recs.base.participants < config.n
        assert has_abstainer.any()
        assert np.all(recs.min_payment[has_abstainer] <= 0.0)
        assert np.all(recs.max_payment[has_abstainer] >= 0.0)

    def test_extremes_are_over_the_groups_present(self, uniform_prior):
        # At n = 4 some trials lack one-reporters, some zero-reporters and
        # some abstainers; each trial's extremes span only the groups it has.
        config = MechanismConfig(
            n=4, alpha=0.1, beta=0.5, epsilon=0.5, p0=1.0 / 3.0, p1=2.0 / 3.0
        )
        recs = simulate_survey(
            uniform_prior, config, Threshold(tau=0.5), trials=2_000, seed=13
        )
        base = recs.base
        absent = {"ones": 0, "zeros": 0, "abstainers": 0}
        for t in range(base.trials):
            groups = {"ones": (base.ones[t], recs.pay_one[t]),
                      "zeros": (base.zeros[t], recs.pay_zero[t]),
                      "abstainers": (config.n - base.participants[t], 0.0)}
            present = []
            for name, (count, pay) in groups.items():
                if count > 0:
                    present.append(pay)
                else:
                    absent[name] += 1
            assert recs.min_payment[t] == min(present)
            assert recs.max_payment[t] == max(present)
        assert all(absent.values()), absent


class TestAccuracyExperiment:
    def test_matches_brute_force_count(self, uniform_prior):
        # Same seed, same driver: the reported fraction must equal a hand
        # count of |estimate - truth| <= alpha' (the derived radius, 0.2498)
        # over the identical trials.
        report = accuracy_experiment(
            uniform_prior, 100, 0.1, 0.1, 0.2, AlwaysLie(), trials=400, seed=12,
        )
        assert round(report.alpha_prime, 4) == 0.2498
        records = simulate_estimates(
            uniform_prior, 100, NoiseSpec(epsilon=0.2), AlwaysLie(), trials=400, seed=12,
        )
        expected = float((np.abs(records.p_hat - records.p_tilde) <= report.alpha_prime).mean())
        assert report.success_fraction == expected
        # Universal lying keeps the estimate near 1 - p_hat, so accuracy
        # collapses except when p_hat happens to sit near one half.
        assert report.verdict == FAIL

    def test_default_radius_with_noise(self, uniform_prior):
        n = 200
        epsilon = epsilon_rule(0.1, 0.1, n)
        report = accuracy_experiment(
            uniform_prior, n, 0.1, 0.1, epsilon, AlwaysTruth(), trials=500, seed=6
        )
        assert report.alpha_prime == pytest.approx(accuracy_radius(0.1, 0.1, epsilon, n))
        assert report.verdict == PASS
        assert report.detail["pass_floor"] < 1.0 - 0.1

    def test_too_few_trials_rejected(self, uniform_prior):
        with pytest.raises(ValueError):
            accuracy_experiment(
                uniform_prior, 100, 0.1, 0.1, 0.2, AlwaysTruth(), trials=50, seed=0
            )


class TestBestResponseAudit:
    def test_well_configured_mechanism_passes(self, uniform_prior):
        report = best_response_audit(
            uniform_prior, n=200, alpha=0.1, delta=0.1,
            epsilon=epsilon_rule(0.1, 0.1, 200),
            cost_model=CostModel("linear"),
            trials=20_000, seed=3,
        )
        assert report.overall == PASS
        assert report.verdicts["truth_ge_beta"] == PASS
        assert report.verdicts["lie_le_zero"] == PASS
        # A derived beta is the privacy-cost bound at tau, so the check that
        # beta covers it is left out: it could not fail.
        assert "beta_covers_cost_bound" not in report.verdicts
        assert report.detail["beta_margin_over_cost_bound"] == 0.0
        assert report.truth_payment_mean >= report.beta
        assert report.lie_payment_mean <= 0.0
        assert report.truth_payment_ci == report.lie_payment_ci == 0.0
        assert report.abstain_utility_bound <= 0.0
        assert report.beta == pytest.approx(report.epsilon * report.tau)

    def test_underfunded_premium_fails_the_cover_check(self, uniform_prior):
        report = best_response_audit(
            uniform_prior, n=200, alpha=0.1, delta=0.1,
            epsilon=epsilon_rule(0.1, 0.1, 200),
            cost_model=CostModel("linear"),
            trials=2_000, seed=3,
            beta_override=1e-6,
        )
        assert report.verdicts["beta_covers_cost_bound"] == FAIL
        assert report.verdicts["truth_dominates"] == FAIL
        assert report.overall == FAIL

    def test_cross_check_runs_once_per_bit(self, uniform_prior, monkeypatch):
        # Monte Carlo runs once per bit, on the truth slot (3, bit, 0), and
        # is measured against the exact mean estimate.
        from peersurvey import equilibrium

        calls = []
        original = equilibrium.peer_estimate_mc

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(equilibrium, "peer_estimate_mc", counted)
        report = best_response_audit(
            uniform_prior, n=200, alpha=0.1, delta=0.1, epsilon=epsilon_rule(0.1, 0.1, 200),
            cost_model=CostModel("linear"), trials=5_000, seed=3,
        )
        assert [(args[1], args[5], args[6]) for args in calls] == [
            (bit, 5_000, derive_seed(3, 3, bit, 0)) for bit in (0, 1)]
        for bit in (0, 1):
            stats = report.per_bit[str(bit)]
            check = stats["cross_check"]
            assert list(check) == ["exact", "mc", "se", "samples", "z"]
            assert (check["mc"], check["se"]) == original(*calls[bit])
            assert check["exact"] == stats["mean_peer_estimate"]
            assert check["z"] == (check["mc"] - check["exact"]) / check["se"]
            assert abs(check["z"]) < 5.0

    def test_exact_mean_computed_once_per_bit(self, uniform_prior, monkeypatch):
        # The mean estimate does not depend on the probe's action: one exact
        # law per bit serves truth, lie and abstain, and the bit's block
        # prints it once, next to the three exact action rows.
        from peersurvey import agents, equilibrium

        calls = []
        original = agents.peer_estimate_mean

        def counted(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(agents, "peer_estimate_mean", counted)
        monkeypatch.setattr(equilibrium, "peer_estimate_mean", counted)
        report = best_response_audit(
            uniform_prior, n=200, alpha=0.1, delta=0.1, epsilon=epsilon_rule(0.1, 0.1, 200),
            cost_model=CostModel("linear"), trials=1_000, seed=3,
        )
        assert calls == [0, 1]
        for bit in (0, 1):
            stats = report.per_bit[str(bit)]
            assert list(stats) == ["mean_peer_estimate", "truth", "lie", "abstain", "cross_check"]
            assert math.isfinite(stats["mean_peer_estimate"])
            assert all(set(stats[action]) == {"mean_payment", "utility_lower_bound"}
                       for action in ("truth", "lie", "abstain"))

    def test_cross_check_trial_floor(self, uniform_prior):
        with pytest.raises(ValueError, match="trials must be at least 1000"):
            best_response_audit(
                uniform_prior, n=100, alpha=0.1, delta=0.1, epsilon=0.25,
                cost_model=CostModel("linear"), trials=999, seed=5,
            )

    @pytest.mark.parametrize("beta_override, keys", [
        (None, ["truth_ge_beta", "lie_le_zero", "truth_dominates"]),
        (0.5, ["truth_ge_beta", "lie_le_zero", "beta_covers_cost_bound", "truth_dominates"]),
    ], ids=["derived-beta", "pinned-beta"])
    def test_report_serializes(self, uniform_prior, beta_override, keys):
        # beta_covers_cost_bound is decided only for a pinned beta.
        report = best_response_audit(
            uniform_prior, n=100, alpha=0.1, delta=0.1, epsilon=0.25,
            cost_model=CostModel("chen"), trials=1_000, seed=5, beta_override=beta_override,
        )
        d = report.to_dict()
        assert list(d["verdicts"]) == keys
        assert set(d["per_bit"]) == {"0", "1"}
        assert d["detail"]["cost_model"] == {"kind": "chen"}


# Criterion 5's config: Beta(1, 1), U[0, 1] costs, n = 200, alpha = delta =
# 0.1, the linear cost model; beta is derived, 0.106909.
CRITERION_5 = dict(n=200, alpha=0.1, delta=0.1, epsilon=epsilon_rule(0.1, 0.1, 200),
                   cost_model=CostModel("linear"), trials=1_000, seed=1)
# (config, derived beta, derived tau) at n = 200 and at n = 1,000, where
# epsilon_rule gives epsilon = 0.02303.
CRITERION_5_AT = {
    200: (CRITERION_5, 0.106909, 0.9286),
    1000: (dict(CRITERION_5, n=1000, epsilon=epsilon_rule(0.1, 0.1, 1000)), 0.021053, 0.9143),
}


class TestOtherPeerProfiles:
    """The exact audit with the n - 1 peers playing other profiles.

    Truth is an equilibrium of the threshold profile, as the paper claims,
    whether the peers above tau abstain, lie or tell the truth, at n = 200
    and at n = 1,000.  It is not the only one: against peers who all report
    1, all report 0 or all lie, the probe's best reply copies them, at a
    payment above truth's under the threshold profile."""

    @pytest.mark.parametrize("n", CRITERION_5_AT)
    @pytest.mark.parametrize("others, payments, verdict", [
        (lambda tau: Threshold(tau, "lie"), {200: ((0.1709, 0.1709), (-0.0640, -0.0640)),
                                             1000: ((0.0329, 0.0329), (-0.0118, -0.0118))}, PASS),
        (lambda tau: Threshold(tau, "truth"), {200: ((0.1893, 0.1893), (-0.0824, -0.0824)),
                                               1000: ((0.0373, 0.0373), (-0.0162, -0.0162))}, PASS),
        (lambda tau: None, {200: ((0.2088, 0.1513), (-0.1019, -0.0444)),
                            1000: ((0.0419, 0.0283), (-0.0208, -0.0072))}, PASS),
        (lambda tau: ConstantBit(1), {200: ((-0.3407, 0.4476), (0.4476, -0.3407)),
                                      1000: ((-0.0670, 0.0881), (0.0881, -0.0670))}, FAIL),
        (lambda tau: AlwaysLie(), {200: ((-0.0824, -0.0824), (0.1893, 0.1893)),
                                   1000: ((-0.0162, -0.0162), (0.0373, 0.0373))}, FAIL),
    ], ids=["threshold-lie", "threshold-truth", "threshold", "all-1", "all-lie"])
    def test_payments_per_bit(self, uniform_prior, n, others, payments, verdict):
        # Per bit 0 and 1, the exact mean payment for truth and for a lie.
        config, beta, tau = CRITERION_5_AT[n]
        report = best_response_audit(uniform_prior, **config, others=others(tau))
        assert report.beta == pytest.approx(beta, abs=1e-6)
        assert report.tau == pytest.approx(tau, abs=1e-12)
        truth, lie = payments[n]
        for bit in (0, 1):
            stats = report.per_bit[str(bit)]
            assert stats["truth"]["mean_payment"] == pytest.approx(truth[bit], abs=1e-4)
            assert stats["lie"]["mean_payment"] == pytest.approx(lie[bit], abs=1e-4)
        assert report.overall == verdict

    @pytest.mark.parametrize("n", CRITERION_5_AT)
    def test_all_0_mirrors_all_1(self, uniform_prior, n):
        # Beta(1, 1) and equal cost laws are symmetric in the bit.
        config = CRITERION_5_AT[n][0]
        ones, zeros = (best_response_audit(uniform_prior, **config, others=ConstantBit(value))
                       for value in (1, 0))
        for bit in (0, 1):
            for action in ("truth", "lie"):
                assert zeros.per_bit[str(bit)][action]["mean_payment"] == pytest.approx(
                    ones.per_bit[str(1 - bit)][action]["mean_payment"], abs=1e-12)

    def test_default_is_the_threshold_profile(self, uniform_prior):
        # None stands for Threshold(tau), every payment and record bit for bit.
        default = best_response_audit(uniform_prior, **CRITERION_5)
        assert best_response_audit(uniform_prior, **CRITERION_5,
                                   others=Threshold(default.tau)) == default

    def test_predictions_matching_the_threshold_profile_widen_the_margin(self, uniform_prior):
        # p0 and p1 as the mean estimates under Threshold(tau), where the dear
        # peers abstain, in place of their truthful values.
        truthful = best_response_audit(uniform_prior, **CRITERION_5)
        noise = NoiseSpec(CRITERION_5["epsilon"])
        means = [peer_estimate_mean(uniform_prior, bit, 200, noise, Threshold(truthful.tau))
                 for bit in (0, 1)]
        assert means == pytest.approx([0.311564630511077, 0.6187409551402563], abs=1e-15)
        matched = best_response_audit(uniform_prior, **CRITERION_5,
                                      parameters=(truthful.tau, *means))
        assert truthful.truth_payment_mean - truthful.beta == pytest.approx(0.04443, abs=1e-5)
        assert matched.truth_payment_mean - matched.beta == pytest.approx(0.09975, abs=1e-5)
        assert matched.lie_payment_mean == pytest.approx(
            -(matched.truth_payment_mean - matched.beta), abs=1e-12)


def _uniform(hi):
    return {"kind": "uniform", "lo": 0.0, "hi": hi}


_EXP1, _EXP3 = {"kind": "exponential", "rate": 1.0}, {"kind": "exponential", "rate": 3.0}
_LOG_NORMAL = {"kind": "log_normal", "mu": 0.0, "sigma": 1.0, "cap": 5.0}
# (mixing, cost0, cost1, ns, alphas) per prior.  Beta(a, b) mixing, a, b in
# {0.5, 1, 2, 5}, U[0, 1] costs for bit 0 and U[0, 1] or U[0, 2] for bit 1,
# at three sizes and three accuracy targets: 1,152 configs with the cost
# models and off-behaviours.  Then atom and point mixing under exponential
# and truncated log-normal costs, equal and unequal: 216 more.  Point mixing
# is never kept: an own bit says nothing about the peers, so p0 = p1.
SWEEP_GRID = [
    *(({"kind": "beta", "a": a, "b": b}, _uniform(1.0), _uniform(hi), (50, 200, 1000),
       (0.02, 0.05, 0.1))
      for a, b in itertools.product((0.5, 1.0, 2.0, 5.0), repeat=2) for hi in (1.0, 2.0)),
    *((mixing, cost0, cost1, (50, 200, 1000), (0.05, 0.1))
      for mixing in ({"kind": "atoms", "atoms": [[0.5, 0.2], [0.5, 0.8]]},
                     {"kind": "atoms", "atoms": [[0.3, 0.05], [0.4, 0.5], [0.3, 0.9]]},
                     {"kind": "point", "theta": 0.4})
      for cost0, cost1 in ((_EXP1, _EXP3), (_LOG_NORMAL, _LOG_NORMAL), (_EXP1, _LOG_NORMAL))),
]


class TestTheoremSweep:
    def test_truth_is_a_best_response_on_every_accepted_config(self):
        # The paper's theorem, exactly, on every config of SWEEP_GRID that the
        # CLI's resolver accepts (the chen model needs epsilon <= 1, the tau
        # search must reach, tau > 0 and alpha < |p1 - p0| / 2), at delta
        # 0.1, for both cost models and both off-behaviours: truth pays at
        # least beta and lying at most 0.  beta is derived, the cost bound at
        # tau, so the audit decides no beta_covers_cost_bound.
        delta, kept, violations = 0.1, 0, []
        for mixing, cost0, cost1, ns, alphas in SWEEP_GRID:
            prior = PriorSpec.from_dict({"family": "conditional_iid", "mixing": mixing,
                                         "cost0": cost0, "cost1": cost1})
            for n, alpha in itertools.product(ns, alphas):
                epsilon = epsilon_rule(alpha, delta, n)
                try:
                    parameters = exact_parameters(prior, alpha, delta, n, epsilon)
                except CostSearchError:
                    continue
                tau, p0, p1 = parameters
                if not (tau > 0.0 and alpha < abs(p1 - p0) / 2.0):
                    continue
                for kind, off in itertools.product(("linear", "chen"), ("abstain", "lie")):
                    if kind == "chen" and epsilon > 1.0:
                        continue
                    kept += 1
                    report = best_response_audit(prior, n, alpha, delta, epsilon, CostModel(kind),
                                                 1_000, 1, others=Threshold(tau, off),
                                                 parameters=parameters)
                    if report.verdicts != dict.fromkeys(
                            ("truth_ge_beta", "lie_le_zero", "truth_dominates"), PASS):
                        violations.append((prior, n, alpha, kind, off, report.verdicts))
        assert kept >= 400
        assert violations == []


class TestReportInvariants:
    def test_cost_report_negative_mean_fails(self):
        row = CostRow(
            n=100, total_payment_mean=-0.5, theorem_bound=10.0, epsilon=0.2,
            beta=0.1, tau=0.9, p0=0.3, p1=0.7, total_payment_sem=0.01,
            mean_pay_one=0.1, mean_pay_zero=0.1, mean_pm_one=0.5,
            mean_pm_zero=0.5,
        )
        report = CostScalingReport(rows=(row, dataclasses.replace(row, n=200)))
        assert report.verdict == FAIL
        assert report.slope is None
        assert report.to_dict()["verdict"] == FAIL

    @pytest.mark.parametrize("mean, sem, verdict", [(11.0, 0.5, PASS), (12.0, 0.5, FAIL),
                                                    (math.inf, math.inf, FAIL)],
                             ids=["2-sems-above", "4-sems-above", "infinite"])
    def test_cost_report_checks_the_theorem_bound(self, mean, sem, verdict):
        # The mean total may exceed the paper's bound of 10 by sampling
        # noise, up to three standard errors.
        row = CostRow(
            n=100, total_payment_mean=mean, theorem_bound=10.0, epsilon=0.2,
            beta=0.1, tau=0.9, p0=0.3, p1=0.7, total_payment_sem=sem,
            mean_pay_one=0.1, mean_pay_zero=0.1, mean_pm_one=0.5,
            mean_pm_zero=0.5,
        )
        within = dataclasses.replace(row, n=200, total_payment_mean=1.0)
        assert CostScalingReport(rows=(within, row)).verdict == verdict


class TestCostScaling:
    def test_small_run_structure(self, uniform_prior):
        report = cost_scaling_experiment(
            uniform_prior, alpha=0.1, delta=0.1, ns=(100, 400), trials=100,
            seed=2,
        )
        assert [r.n for r in report.rows] == [100, 400]
        assert report.slope < 0.0
        for row in report.rows:
            assert 0.0 <= row.total_payment_mean <= row.theorem_bound
            assert row.epsilon == pytest.approx(epsilon_rule(0.1, 0.1, row.n))
            assert row.beta == pytest.approx(beta_rule("chen", row.epsilon, row.tau))
            assert row.records is not None
            assert "records" not in row.to_dict()

    def test_given_parameters_are_used(self, uniform_prior):
        # Each size's (tau, p0, p1) as given; by default the exact ones.
        ns, epsilons = (100, 400), [epsilon_rule(0.1, 0.1, n) for n in (100, 400)]
        exact = {n: exact_parameters(uniform_prior, 0.1, 0.1, n, e) for n, e in zip(ns, epsilons)}
        run = dict(alpha=0.1, delta=0.1, ns=ns, trials=20, seed=2)
        default = cost_scaling_experiment(uniform_prior, **run)
        assert cost_scaling_experiment(uniform_prior, **run, parameters=exact) == default
        given = {**exact, 400: (0.5, 0.3, 0.7)}
        row = cost_scaling_experiment(uniform_prior, **run, parameters=given).rows[1]
        assert (row.tau, row.p0, row.p1) == (0.5, 0.3, 0.7)

    def test_rejects_epsilon_above_one(self, uniform_prior):
        with pytest.raises(ValueError, match="quadratic"):
            cost_scaling_experiment(
                uniform_prior, alpha=0.1, delta=0.1, ns=(5, 100), trials=10,
                seed=0,
            )

    def test_rejects_free_participation(self):
        free = PriorSpec.from_dict({
            "family": "conditional_iid",
            "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
            "cost0": {"kind": "point_mass", "value": 0.0},
            "cost1": {"kind": "point_mass", "value": 0.0},
        })
        with pytest.raises(ValueError, match="tau must be positive"):
            cost_scaling_experiment(
                free, alpha=0.1, delta=0.1, ns=(100, 400), trials=10,
                seed=0,
            )

    def test_needs_two_sizes(self, uniform_prior):
        # A repeated size would be simulated twice and counted twice by the fit.
        for ns in ((100,), (100, 100, 200)):
            with pytest.raises(ValueError, match="none repeated"):
                cost_scaling_experiment(
                    uniform_prior, alpha=0.1, delta=0.1, ns=ns, trials=10, seed=0
                )


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: list(chunk_sizes(-1, 10)), ValueError, "total must be nonnegative"),
    (lambda: cost_scaling_experiment(
        PriorSpec.from_dict({"family": "conditional_iid", "mixing": {"kind": "point", "theta": 0.5},
                             "cost0": {"kind": "point_mass", "value": 0.3},
                             "cost1": {"kind": "point_mass", "value": 0.3}}),
        0.1, 0.1, [100, 200], 1, 0),
     ValueError, "trials must be at least 2, got 1"),
], ids=["chunk-total", "cost-scaling-trials"])
def test_input_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
