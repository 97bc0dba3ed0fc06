import itertools

import numpy as np
import pytest

from peersurvey.mechanism import (
    MechanismConfig,
    estimate_observable,
    payment_at,
    payment_observable,
    payment_pair,
    peer_estimate,
    published_estimate,
)
from peersurvey.privacy import NoiseSpec, dp_audit, noise_draw
from peersurvey.scoring import scaled_score

REFERENCE = dict(n=100, alpha=0.1, beta=1.0, epsilon=0.5, p0=1.0 / 3.0, p1=2.0 / 3.0)


def reference_config(**overrides):
    return MechanismConfig(**{**REFERENCE, **overrides})


class TestMechanismConfig:
    def test_scoring_derived_from_fields(self):
        config = reference_config()
        assert config.scoring.d == pytest.approx(0.4)
        assert config.scoring.rho == pytest.approx(11.25, rel=1e-12)

    def test_invalid_scoring_rejected(self):
        with pytest.raises(ValueError):
            reference_config(alpha=0.2)  # not below half the posterior gap
        with pytest.raises(ValueError):
            reference_config(p0=0.5, p1=0.5)

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            reference_config(epsilon=0.0)


class TestPayments:
    def test_reference_payments(self):
        # 60 ones among 100 reports, at the noiseless sum: every quantity is
        # a ratio of small integers, worked out by hand.
        config = reference_config()
        assert published_estimate(config.n, 60.0) == 0.6
        pay_one, pay_zero = payment_pair(config, 60.0)
        one_payment = 11.25 * ((151.0 / 297.0) - 0.4)
        zero_payment = 11.25 * ((37.0 / 99.0) - 0.4)
        assert pay_one == pytest.approx(one_payment, rel=1e-12)
        assert pay_zero == pytest.approx(zero_payment, rel=1e-12)
        assert one_payment == pytest.approx(1.2196969696969697)
        assert zero_payment == pytest.approx(-0.29545454545454547)

    def test_all_ones_payment(self):
        config = reference_config()
        assert published_estimate(config.n, 100.0) == 1.0
        pay_one, _ = payment_pair(config, 100.0)
        assert pay_one == pytest.approx(scaled_score(config.scoring, 1.0, config.p1), rel=1e-12)

    def test_estimate_stays_in_unit_interval(self):
        # Tiny epsilon gives wild noise; the published estimate must clamp.
        b_bar = 60.0 + NoiseSpec(epsilon=0.01).scale * np.linspace(-50.0, 50.0, 101)
        estimate = published_estimate(100, b_bar)
        assert np.all((estimate >= 0.0) & (estimate <= 1.0))
        assert estimate[0] == 0.0 and estimate[-1] == 1.0

    def test_monotone_in_single_flip(self):
        # One more one-report moves b_bar, and with it the estimate, by 1 / n.
        step = published_estimate(100, 61.0) - published_estimate(100, 60.0)
        assert step == pytest.approx(0.01, abs=1e-15)


def test_sensitivity_of_report_sum_is_one():
    # Exhaustive over all report vectors of three agents and all
    # single-agent substitutions: with noise off, the published estimate,
    # and so the sum b_bar behind it, moves by at most one report.
    observable = estimate_observable(3, NoiseSpec(epsilon=0.5, mode="disabled"))

    def published(reports):
        x = noise_draw(observable.noise, np.random.default_rng(0), 1)
        return observable.of_b_bar(reports, sum(reports) + x)[0]

    forms = (0, 1)  # an abstainer contributes 0, like a zero-reporter
    for reports in itertools.product(forms, repeat=3):
        b_bar = 3 * published(reports)
        for i, replacement in itertools.product(range(3), forms):
            neighbor = reports[:i] + (replacement,) + reports[i + 1:]
            moved = 3 * published(neighbor)
            assert abs(moved - b_bar) <= 1


class TestBillboardStructure:
    @pytest.mark.parametrize("b_bar", [-3.0, 0.0, 37.5, 60.0, 98.25, 120.0])
    def test_payment_recomputable_from_own_report_and_shared_sum(self, b_bar):
        # Each payment must be a function of the agent's own contribution
        # and the single published noisy sum - nothing else.  Noisy sums
        # outside [0, n] clamp both leave-one-out estimates.
        config = reference_config()
        paid = payment_pair(config, b_bar)
        for own, target, pay in ((1, config.p1, paid[0]), (0, config.p0, paid[1])):
            p_minus = min(max((b_bar - own) / (config.n - 1), 0.0), 1.0)
            assert pay == scaled_score(config.scoring, p_minus, target)


class TestObservables:
    @staticmethod
    def observe(observable, reports, rng, size):
        x = noise_draw(observable.noise, rng, size)
        return observable.of_b_bar(reports, sum(reports) + x)

    def test_estimate_observable_disabled_noise(self):
        observable = estimate_observable(10, NoiseSpec(epsilon=1.0, mode="disabled"))
        out = self.observe(observable, [1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
                           np.random.default_rng(0), 5)
        np.testing.assert_allclose(out, 0.3)

    def test_payment_observable_unit_interval(self):
        config = reference_config()
        observable = payment_observable(config, 3)
        assert observable.noise == config.noise
        out = self.observe(observable, [1] * 60 + [0] * 40, np.random.default_rng(2), 1000)
        assert out.shape == (1000,)
        assert np.all((out >= 0.0) & (out <= 1.0))

    @pytest.mark.parametrize("p0, p1", [(1.0 / 3.0, 2.0 / 3.0), (0.8, 0.3)])
    @pytest.mark.parametrize("own", [0, 1])
    def test_payment_observable_is_monotone_rescaled_payment(self, p0, p1, own):
        # Agent 3's payment rescaled by its values at estimates 0 and 1, as
        # the observable once computed it; the observable is monotone in
        # b_bar to the last bit, whichever way the payment slopes.
        config = reference_config(n=10, p0=p0, p1=p1)
        reports = np.zeros(10, dtype=np.int64)
        reports[3] = own
        b_bar = np.linspace(-20.0, 30.0, 100_000)
        out = payment_observable(config, 3).of_b_bar(reports, b_bar)
        pay = payment_pair(config, b_bar)[1 - own]
        ends = payment_pair(config, [own, own + config.n - 1])[1 - own]
        rescaled = (pay - ends.min()) / (ends.max() - ends.min())
        np.testing.assert_allclose(out, rescaled, rtol=0.0, atol=1e-12)
        steps = np.diff(out)
        assert np.all(steps >= 0.0) or np.all(steps <= 0.0)
        assert out.min() == 0.0 and out.max() == 1.0


@pytest.mark.parametrize("config", [
    reference_config(),
    reference_config(n=2, p0=0.9, p1=0.1, alpha=0.3),
    reference_config(n=7, p0=0.25, p1=0.8, beta=0.01, alpha=1e-6),
], ids=["reference", "n2-falling", "n7"])
def test_payment_pair_is_payment_at_each_leave_one_out_estimate(config):
    # b_bar on and off the integers, inside and past [0, n], as an array and
    # as one number: each reporter's payment is payment_at at its own
    # leave-one-out estimate, to the bit.
    grid = np.concatenate([np.arange(-3.0, config.n + 4.0), np.linspace(-2.5, config.n + 2.5, 97)])
    for b_bar in (grid, *grid[::13].tolist()):
        pay_one, pay_zero = payment_pair(config, b_bar)
        for own, pay in ((1, pay_one), (0, pay_zero)):
            at = payment_at(config, peer_estimate(config.n, np.asarray(b_bar, float), own), own)
            assert np.asarray(pay).tobytes() == np.asarray(at).tobytes()
            assert type(pay) is type(at)


@pytest.mark.parametrize("build, n", [
    (lambda n: estimate_observable(n, NoiseSpec(epsilon=0.5)), 10),
    (lambda n: estimate_observable(n, NoiseSpec(epsilon=0.5)), 20),
    (lambda n: payment_observable(reference_config(n=n), 3), 10),
    (lambda n: payment_observable(reference_config(n=n), 3), 20),
], ids=["estimate-10", "estimate-20", "payment-10", "payment-20"])
def test_observable_rejects_reports_of_another_size(build, n):
    # An observable built for 10 agents audited on 20 reports, and one built
    # for 20 on 10: the map names both sizes, not the clip rule.
    reports = [1] * ((30 - n) // 2) + [0] * ((30 - n) // 2)
    message = f"built for n={n} agents, got {30 - n} reports"
    with pytest.raises(ValueError, match=message):
        build(n).of_b_bar(reports, np.arange(3.0))
    with pytest.raises(ValueError, match=message):
        dp_audit(build(n), reports, 0, 0.5, 100_000, 20, seed=7)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: reference_config(n=1), ValueError, "n must be an integer of at least 2, got 1"),
    (lambda: reference_config(n=2.5), ValueError, "n must be an integer of at least 2, got 2.5"),
    (lambda: estimate_observable(1, NoiseSpec(epsilon=0.5)), ValueError,
     "n must be at least 2, got 1"),
    (lambda: payment_observable(reference_config(n=10), 10), ValueError,
     r"agent index must lie in \[0, 10\), got 10"),
    (lambda: payment_observable(reference_config(n=10), -1), ValueError,
     r"agent index must lie in \[0, 10\), got -1"),
], ids=["config-n-1", "config-n-float", "estimate-n-1", "payment-j-n", "payment-j-negative"])
def test_input_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
