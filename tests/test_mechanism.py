import dataclasses
import itertools

import numpy as np
import pytest

from peersurvey.mechanism import (
    MechanismConfig,
    estimate_observable,
    payment_observable,
    payment_pair,
    run,
)
from peersurvey.privacy import NoiseSpec, laplace_sample, noise_draw
from peersurvey.scoring import scaled_score

REFERENCE = dict(n=100, alpha=0.1, beta=1.0, epsilon=0.5,
                 p0=1.0 / 3.0, p1=2.0 / 3.0, noise_mode="disabled")


def reference_config(**overrides):
    return MechanismConfig(**{**REFERENCE, **overrides})


def mixed_reports(ones, zeros, abstains=0):
    """(contributions, participation): ones, then zeros, then abstainers."""
    values = np.array([1] * ones + [0] * (zeros + abstains), dtype=np.int8)
    participates = np.arange(ones + zeros + abstains) < ones + zeros
    return values, participates


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
        with pytest.raises(ValueError):
            reference_config(noise_mode="loud")


class TestRun:
    def test_reference_payments(self):
        # 60 ones / 40 zeros with noise off: every quantity is a ratio of
        # small integers, worked out by hand.
        config = reference_config()
        outcome = run(config, *mixed_reports(60, 40), np.random.default_rng(0))
        assert outcome.estimate == 0.6
        assert outcome.b_bar == 60.0
        assert outcome.noise_draw == 0.0
        one_payment = 11.25 * ((151.0 / 297.0) - 0.4)
        zero_payment = 11.25 * ((37.0 / 99.0) - 0.4)
        np.testing.assert_allclose(outcome.payments[:60], one_payment, rtol=1e-12)
        np.testing.assert_allclose(outcome.payments[60:], zero_payment, rtol=1e-12)
        assert one_payment == pytest.approx(1.2196969696969697)
        assert zero_payment == pytest.approx(-0.29545454545454547)

    def test_all_abstain(self):
        config = reference_config()
        outcome = run(config, *mixed_reports(0, 0, 100), np.random.default_rng(0))
        assert outcome.estimate == 0.0
        assert np.all(outcome.payments == 0.0)

    def test_all_ones_payments_equal(self):
        config = reference_config()
        outcome = run(config, *mixed_reports(100, 0), np.random.default_rng(0))
        assert outcome.estimate == 1.0
        expected = scaled_score(config.scoring, 1.0, config.p1)
        np.testing.assert_allclose(outcome.payments, expected, rtol=1e-12)

    def test_abstainers_unpaid_and_uncounted(self):
        config = reference_config()
        outcome = run(config, *mixed_reports(60, 30, 10), np.random.default_rng(0))
        assert outcome.b_bar == 60.0
        assert outcome.estimate == 0.6
        assert np.all(outcome.payments[90:] == 0.0)
        assert np.all(outcome.payments[:60] != 0.0)

    def test_single_noise_draw_consumed(self):
        config = reference_config(noise_mode="sample")
        outcome = run(config, *mixed_reports(60, 40), np.random.default_rng(99))
        expected = laplace_sample(config.noise.scale, np.random.default_rng(99))
        assert outcome.noise_draw == expected
        assert outcome.b_bar == 60.0 + expected

    def test_payment_anonymity_under_noise(self):
        config = reference_config(noise_mode="sample")
        outcome = run(config, *mixed_reports(55, 45), np.random.default_rng(5))
        assert np.unique(outcome.payments[:55]).size == 1
        assert np.unique(outcome.payments[55:]).size == 1

    @pytest.mark.parametrize("values, participates", [
        ([1] * 5 + [0] * 5, [True] * 10),  # wrong length
        ([2] + [0] * 99, [True] * 100),  # a contribution of 2
        ([1] + [0] * 99, [False] + [True] * 99),  # an abstainer contributing 1
    ])
    def test_malformed_reports_rejected(self, values, participates):
        with pytest.raises(ValueError):
            run(reference_config(), np.array(values), np.array(participates),
                np.random.default_rng(0))

    def test_payment_clamp_flag(self):
        config = reference_config(clamp_payments=True)
        outcome = run(config, *mixed_reports(60, 40), np.random.default_rng(0))
        assert np.all(outcome.payments >= 0.0)
        assert np.all(outcome.payments[60:] == 0.0)

    def test_estimate_stays_in_unit_interval(self):
        # Tiny epsilon gives wild noise; the published estimate must clamp.
        config = reference_config(noise_mode="sample", epsilon=0.01)
        for seed in range(30):
            outcome = run(config, *mixed_reports(60, 40), np.random.default_rng(seed))
            assert 0.0 <= outcome.estimate <= 1.0

    def test_monotone_in_single_flip(self):
        config = reference_config()
        base = run(config, *mixed_reports(60, 40), np.random.default_rng(0))
        flipped = run(config, *mixed_reports(61, 39), np.random.default_rng(0))
        assert flipped.b_bar - base.b_bar == 1.0
        assert flipped.estimate - base.estimate == pytest.approx(0.01, abs=1e-15)

    def test_payments_outcome_read_only(self):
        config = reference_config()
        outcome = run(config, *mixed_reports(60, 40), np.random.default_rng(0))
        with pytest.raises(ValueError):
            outcome.payments[0] = 99.0


def test_sensitivity_of_report_sum_is_one():
    # Exhaustive over all report vectors of three agents and all
    # single-agent substitutions: with noise off, the noisy sum b_bar moves
    # by at most one.
    config = reference_config(n=3)
    forms = ((0, True), (1, True), (0, False))  # zero, one, abstain
    for reports in itertools.product(forms, repeat=3):
        b_bar = run(config, *zip(*reports), np.random.default_rng(0)).b_bar
        for i, replacement in itertools.product(range(3), forms):
            neighbor = reports[:i] + (replacement,) + reports[i + 1:]
            moved = run(config, *zip(*neighbor), np.random.default_rng(0)).b_bar
            assert abs(moved - b_bar) <= 1


class TestBillboardStructure:
    def test_payment_recomputable_from_own_report_and_shared_sum(self):
        # Each payment must be a function of the agent's own contribution
        # and the single published noisy sum - nothing else.
        config = reference_config(noise_mode="sample")
        values, participates = mixed_reports(48, 42, 10)
        outcome = run(config, values, participates, np.random.default_rng(17))
        n = config.n
        for i, (own, participant) in enumerate(zip(values, participates)):
            if not participant:
                assert outcome.payments[i] == 0.0
                continue
            p_minus = min(max((outcome.b_bar - own) / (n - 1), 0.0), 1.0)
            target = config.p1 if own == 1 else config.p0
            expected = scaled_score(config.scoring, p_minus, target)
            assert outcome.payments[i] == expected

    def test_payment_pair_matches_run(self):
        config = reference_config(noise_mode="sample")
        values, participates = mixed_reports(48, 42, 10)
        outcome = run(config, values, participates, np.random.default_rng(17))
        pay_one, pay_zero = payment_pair(config, outcome.b_bar)
        np.testing.assert_array_equal(outcome.payments[:48], pay_one)
        np.testing.assert_array_equal(outcome.payments[48:90], pay_zero)
        # Noisy sums outside [0, n] clamp both leave-one-out estimates.
        for b_bar, p_minus in ((-3.0, 0.0), (120.0, 1.0)):
            assert payment_pair(config, b_bar) == (
                scaled_score(config.scoring, p_minus, config.p1),
                scaled_score(config.scoring, p_minus, config.p0),
            )


class TestObservables:
    def test_estimate_observable_disabled_noise(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=1.0, mode="disabled"))
        out = mech([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], np.random.default_rng(0), 5)
        np.testing.assert_allclose(out, 0.3)

    def test_payment_observable_unit_interval(self):
        config = reference_config(noise_mode="sample")
        mech = payment_observable(config, 3)
        out = mech([1] * 60 + [0] * 40, np.random.default_rng(2), 1000)
        assert out.shape == (1000,)
        assert np.all((out >= 0.0) & (out <= 1.0))

    @pytest.mark.parametrize("j", [3, 80])  # a one-reporter and a zero-reporter
    def test_payment_observable_audits_the_clamped_payment(self, j):
        # Wide noise drives both payments below zero at times, so clamping
        # changes what the audit must see.
        config = reference_config(noise_mode="sample", epsilon=0.05, clamp_payments=True)
        assert payment_pair(dataclasses.replace(config, clamp_payments=False), 0.0)[0] < 0.0
        reports = [1] * 50 + [0] * 50
        out = payment_observable(config, j)(reports, np.random.default_rng(2), 5_000)
        b_bar = 50 + noise_draw(config.noise, np.random.default_rng(2), 5_000)
        own = reports[j]
        target = config.p1 if own == 1 else config.p0

        def paid(pm):
            return np.maximum(scaled_score(config.scoring, pm, target), 0.0)

        pay = paid(np.clip((b_bar - own) / (config.n - 1), 0.0, 1.0))
        lo, hi = sorted((paid(0.0), paid(1.0)))
        np.testing.assert_allclose(out, (pay - lo) / (hi - lo), rtol=0, atol=1e-12)
        assert np.any(pay == 0.0) and np.any(pay > 0.0)
