import dataclasses
import math

import numpy as np
import pytest

from peersurvey._util import derive_seed
from peersurvey.agents import AlwaysLie, AlwaysTruth, CostModel, Threshold
from peersurvey.equilibrium import (
    CostRow,
    CostScalingReport,
    EquilibriumAuditReport,
    accuracy_experiment,
    accuracy_radius,
    best_response_audit,
    beta_rule,
    config_lint,
    cost_scaling_experiment,
    epsilon_rule,
    simulate_estimates,
    simulate_survey,
    total_payment_bound,
)
from peersurvey.mechanism import MechanismConfig, payment_pair
from peersurvey.priors import PriorSpec
from peersurvey.privacy import FAIL, PASS, NoiseSpec
from peersurvey.scoring import scoring_params


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


class TestAccuracyExperiment:
    def test_matches_brute_force_count(self, uniform_prior):
        # Same seed, same driver: the reported fraction must equal a hand
        # count of |estimate - truth| <= alpha' over the identical trials.
        alpha_prime = 0.1
        report = accuracy_experiment(
            uniform_prior, 100, 0.1, 0.1, 0.2, AlwaysLie(),
            trials=400, seed=12, alpha_prime=alpha_prime,
        )
        records = simulate_estimates(
            uniform_prior, 100, NoiseSpec(epsilon=0.2), AlwaysLie(), trials=400, seed=12,
        )
        expected = float((np.abs(records.p_hat - records.p_tilde) <= alpha_prime).mean())
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
        assert report.verdicts["beta_covers_cost_bound"] == PASS
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
            assert set(check) == {"mc", "se", "samples", "z"}
            assert (check["mc"], check["se"]) == original(*calls[bit])
            exact = stats["mean_peer_estimate"]
            assert check["z"] == (check["mc"] - exact) / check["se"]
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

    def test_report_serializes(self, uniform_prior):
        report = best_response_audit(
            uniform_prior, n=100, alpha=0.1, delta=0.1, epsilon=0.25,
            cost_model=CostModel("chen"), trials=1_000, seed=5,
        )
        d = report.to_dict()
        assert set(d["verdicts"]) == {
            "truth_ge_beta", "lie_le_zero", "beta_covers_cost_bound",
            "truth_dominates",
        }
        assert set(d["per_bit"]) == {"0", "1"}
        assert d["detail"]["cost_model"] == {"kind": "chen", "eta": 1.0}


def _report_kwargs(**verdicts):
    return dict(
        beta=0.1, tau=0.9, epsilon=0.1, p0=0.3, p1=0.7, probe_cost=0.9,
        trials=1000, truth_payment_mean=0.15, lie_payment_mean=-0.05,
        abstain_utility_bound=-0.09, verdicts=verdicts,
    )


class TestReportInvariants:
    def test_dominance_requires_both_legs(self):
        with pytest.raises(ValueError):
            EquilibriumAuditReport(**_report_kwargs(
                truth_ge_beta=FAIL, lie_le_zero=PASS,
                beta_covers_cost_bound=PASS, truth_dominates=PASS,
            ))

    def test_verdict_keys_checked(self):
        with pytest.raises(ValueError):
            EquilibriumAuditReport(**_report_kwargs(truth_ge_beta=PASS))

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
