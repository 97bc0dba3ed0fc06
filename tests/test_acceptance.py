"""End-to-end verification of the design guarantees at experiment scale.

One test per guarantee, each printing a single pass line and enforcing its
runtime budget.  Tolerances and sample sizes are fixed here on purpose:
they are the contract, not tuning knobs.
"""

import json
import math
import time

import numpy as np
import pytest

from peersurvey import (
    CostModel,
    NoiseSpec,
    PriorSpec,
    accuracy_experiment,
    accuracy_radius,
    b_score,
    basic_brier,
    best_response_audit,
    cost_scaling_experiment,
    cost_threshold,
    dp_audit,
    epsilon_rule,
    estimate_observable,
    laplace_sample,
    lipschitz_bound,
    scaled_score,
    scoring_params,
    Threshold,
)
from peersurvey.cli import dispatch

GRID = np.linspace(0.0, 1.0, 101)

# Symmetric tuples (p0 + p1 = 1) keep the score's intermediates at unit
# scale, so the identity checks below measure algorithm error rather than
# cancellation noise.
SCORING_PARAMS = [
    (0.25, 0.75, 0.125, 1.0),
    (0.3, 0.7, 0.1, 1.0),
    (0.2, 0.8, 0.1, 0.5),
    (0.35, 0.65, 0.05, 1.5),
]

UNIFORM_PRIOR = PriorSpec.from_dict({
    "family": "conditional_iid",
    "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
    "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
})


def ulps_apart(lhs, rhs, anchor):
    spacing = np.spacing(np.maximum(anchor, np.finfo(float).tiny))
    return float(np.max(np.abs(lhs - rhs) / spacing))


def finish(number, budget_s, started, description):
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"criterion {number} overran: {elapsed:.2f}s"
    print(f"[criterion {number}] PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_scoring_identities():
    started = time.perf_counter()
    p, q = np.meshgrid(GRID, GRID, indexing="ij")

    mixed = p * basic_brier(1, q) + (1.0 - p) * basic_brier(0, q)
    assert ulps_apart(mixed, b_score(p, q), 1.0) <= 4.0

    for p0, p1, alpha, beta in SCORING_PARAMS:
        params = scoring_params(p0, p1, alpha, beta)
        s_pp = scaled_score(params, p, p)
        s_pq = scaled_score(params, p, q)
        anchor = np.maximum(np.maximum(np.abs(s_pp), np.abs(s_pq)), params.rho)
        assert ulps_apart(s_pp - s_pq, 2.0 * params.rho * (p - q) ** 2, anchor) <= 4.0

        s_flip = scaled_score(params, 1.0 - p, q)
        anchor = np.maximum(np.maximum(np.abs(s_pq), np.abs(s_flip)), params.rho)
        moved = lipschitz_bound(params, q) * np.abs(p - (1.0 - p))
        assert ulps_apart(np.abs(s_pq - s_flip), moved, anchor) <= 4.0

    finish(1, 1.0, started, "scoring identities within 4 ulps on the unit grid")


def test_criterion_2_payoff_inequalities():
    started = time.perf_counter()
    rng = np.random.default_rng(42)
    checked = 0
    offsets = np.linspace(-0.999, 0.999, 21)
    while checked < 60:
        p0, p1 = rng.uniform(0.0, 1.0, 2)
        if abs(p1 - p0) < 0.05:
            continue
        alpha = rng.uniform(0.05, 0.45) * abs(p1 - p0)
        beta = rng.uniform(0.1, 2.0)
        alpha_prime = rng.uniform(0.05, 0.5)
        params = scoring_params(p0, p1, alpha, beta)
        gap = abs(p1 - p0)
        ceiling = beta + 2.0 * params.rho * (alpha + alpha_prime) * gap
        for mine, other in ((p1, p0), (p0, p1)):
            near = np.clip(mine + alpha * offsets, 0.0, 1.0)
            assert np.all(scaled_score(params, near, other) <= 1e-9)
            assert np.all(scaled_score(params, near, mine) >= beta - 1e-9)
            wide = np.clip(mine + alpha_prime * offsets, 0.0, 1.0)
            assert np.all(scaled_score(params, wide, mine) <= ceiling + 1e-9)
        checked += 1

    finish(2, 10.0, started,
           f"payoff bounds within 1e-9 on {checked} sampled parameter tuples")


def test_criterion_3_laplace_tails():
    started = time.perf_counter()
    draws = laplace_sample(1.0, np.random.default_rng(2024), 1_000_000)
    for t in (1.0, 2.0, 3.0):
        expected = math.exp(-t)
        observed = float(np.mean(np.abs(draws) >= t))
        sigma = math.sqrt(expected * (1.0 - expected) / draws.size)
        assert abs(observed - expected) <= 3.0 * sigma

    finish(3, 5.0, started, "1e6-sample tail mass matches exp(-t) within 3 sigma")


def test_criterion_4_dp_audit():
    started = time.perf_counter()
    n = 10
    reports = [1] * 5 + [0] * 5

    noisy = estimate_observable(n, NoiseSpec(epsilon=0.5))
    report = dp_audit(noisy, reports, 0, 0.5, 1_000_000, 20, seed=7)
    assert report.verdict == "Pass"
    assert report.max_log_ratio <= 0.55

    silent = estimate_observable(n, NoiseSpec(epsilon=0.5, mode="disabled"))
    leaky = dp_audit(silent, reports, 0, 0.5, 1_000_000, 20, seed=7)
    assert leaky.verdict == "Fail"

    finish(4, 30.0, started,
           f"noisy estimate ratio {report.max_log_ratio:.3f} <= 0.55; "
           "noiseless variant flagged")


def _equilibrium_report(kind, seed):
    return best_response_audit(
        UNIFORM_PRIOR, n=200, alpha=0.1, delta=0.1,
        epsilon=epsilon_rule(0.1, 0.1, 200),
        cost_model=CostModel(kind),
        trials=100_000, seed=seed,
    )


def test_criterion_5_truthful_equilibrium():
    started = time.perf_counter()
    report = _equilibrium_report("linear", seed=11)
    assert report.beta == pytest.approx(report.epsilon * report.tau)
    assert report.truth_payment_mean >= report.beta - report.truth_payment_ci
    assert report.lie_payment_mean <= report.lie_payment_ci
    assert report.abstain_utility_bound <= 0.0
    assert report.overall == "Pass"

    finish(5, 120.0, started,
           f"truth pays {report.truth_payment_mean:.4f} >= premium "
           f"{report.beta:.4f}; lying pays {report.lie_payment_mean:.4f}")


def test_criterion_6_quadratic_cost_variant():
    started = time.perf_counter()
    report = _equilibrium_report("chen", seed=11)
    assert report.epsilon <= 1.0
    assert report.beta == pytest.approx(4.0 * report.epsilon**2 * report.tau)
    assert report.verdicts["truth_ge_beta"] == "Pass"
    assert report.verdicts["lie_le_zero"] == "Pass"
    assert report.overall == "Pass"

    finish(6, 120.0, started,
           "quadratic-cost premium still makes truthful play dominant")


def test_criterion_7_estimate_accuracy():
    started = time.perf_counter()
    n = 1000
    alpha = delta = 0.1
    epsilon = epsilon_rule(alpha, delta, n)
    tau = cost_threshold(UNIFORM_PRIOR, alpha, delta / 2.0, n)
    report = accuracy_experiment(
        UNIFORM_PRIOR, n, alpha, delta, epsilon,
        Threshold(tau=tau), trials=1000, seed=5,
    )
    assert report.alpha_prime == pytest.approx(accuracy_radius(alpha, delta, epsilon, n))
    floor = 1.0 - delta - 3.0 * math.sqrt(delta * (1.0 - delta) / 1000.0)
    assert report.success_fraction >= floor
    assert report.verdict == "Pass"

    finish(7, 120.0, started,
           f"{report.success_fraction:.3f} of estimates landed within "
           f"{report.alpha_prime:.4f} of the truth (floor {floor:.3f})")


def test_criterion_8_cost_scaling():
    started = time.perf_counter()
    report = cost_scaling_experiment(
        UNIFORM_PRIOR, alpha=0.1, delta=0.1, ns=(500, 5000), trials=400, seed=9
    )
    small, large = report.rows
    ratio = small.total_payment_mean / large.total_payment_mean
    assert 5.0 <= ratio <= 20.0
    for row in report.rows:
        assert row.total_payment_mean <= row.theorem_bound + 3.0 * row.total_payment_sem
    assert -1.2 <= report.slope <= -0.8

    finish(8, 300.0, started,
           f"10x the agents cost {ratio:.1f}x less in total; "
           f"log-log slope {report.slope:.2f}")


def test_criterion_9_byte_identical_reruns(tmp_path, capsys):
    started = time.perf_counter()
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "prior": {
            "family": "conditional_iid",
            "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
            "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
            "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        },
        "n": 80, "alpha": 0.1, "delta": 0.1, "epsilon": "auto",
        "beta": "auto", "trials": 60, "seed": 31,
        "threshold_trials": 20_000, "posterior_samples": 20_000,
    }))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"

    assert dispatch(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
    json_a = capsys.readouterr().out
    assert dispatch(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
    json_b = capsys.readouterr().out

    assert json_a == json_b
    assert out_a.read_bytes() == out_b.read_bytes()
    assert len(out_a.read_bytes()) > 0

    with capsys.disabled():
        finish(9, 60.0, started, "identical config and seed reproduce CSV and "
               "JSON byte for byte")
