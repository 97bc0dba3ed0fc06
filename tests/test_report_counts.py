"""The per-trial count sampler against the dense per-agent oracle.

`sample_report_counts` draws type-cell counts instead of n bits and n costs.
These tests check that it reproduces the distribution of the dense
computation (`strategy_arrays` on sampled bit and cost matrices), and
that simulation memory no longer grows with n.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from peersurvey.agents import (
    ABSTAIN,
    LIE,
    TRUTH,
    AgentType,
    AlwaysAbstain,
    AlwaysLie,
    AlwaysTruth,
    ConstantBit,
    CostModel,
    Threshold,
    expected_utility,
    peer_estimate_mean,
    sample_report_counts,
    strategy_arrays,
)
from peersurvey.equilibrium import simulate_estimates
from peersurvey.mechanism import MechanismConfig
from peersurvey.priors import PriorSpec
from peersurvey.privacy import NoiseSpec

N = 12
TRIALS = 20_000
MIN_P_VALUE = 1e-3

# Zeros cost exactly tau, so `cost <= tau` decides their report.
EDGE_PRIOR = {
    "family": "conditional_iid",
    "mixing": {"kind": "beta", "a": 2.0, "b": 3.0},
    "cost0": {"kind": "point_mass", "value": 0.5},
    "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
}


def dense_counts(strategy, prior, n, trials, rng):
    """(ones, participants, mismatches) from explicit (trials, n) populations,
    each agent's report from `strategy_arrays`."""
    theta = prior.theta_sample(rng, trials)
    bits = (rng.random((trials, n)) < theta[:, None]).astype(np.int8)
    u = rng.random((trials, n))
    costs = np.where(bits == 1, prior.cost1.quantile(u), prior.cost0.quantile(u))
    values, mask = strategy_arrays(strategy, bits, costs)
    return values.sum(axis=1), mask.sum(axis=1), (values != bits).sum(axis=1)


def sampled_counts(strategy, prior, n, trials, rng):
    theta = prior.theta_sample(rng, trials)
    _, ones, participants, mismatches = sample_report_counts(strategy, prior, n, theta, rng)
    return ones, participants, mismatches


def homogeneity_p_value(a, b, min_column=10):
    """Chi-square p-value that two integer samples share one distribution.

    Adjacent values are pooled until every column holds at least
    `min_column` observations, so no expected cell count is tiny.
    """
    values = np.union1d(a, b)
    table = np.array([[np.sum(a == v) for v in values], [np.sum(b == v) for v in values]])
    columns, current = [], np.zeros(2, dtype=np.int64)
    for col in table.T:
        current = current + col
        if current.sum() >= min_column:
            columns.append(current)
            current = np.zeros(2, dtype=np.int64)
    if current.sum():
        if columns:
            columns[-1] = columns[-1] + current
        else:
            columns.append(current)
    if len(columns) == 1:
        return 1.0  # one pooled column: both samples sit on the same values
    return chi2_contingency(np.array(columns).T)[1]


CASES = [
    ("uniform", AlwaysTruth()),
    ("uniform", AlwaysLie()),
    ("uniform", AlwaysAbstain()),
    ("uniform", ConstantBit(0)),
    ("uniform", ConstantBit(1)),
    ("uniform", Threshold(0.4, off=ABSTAIN)),
    ("uniform", Threshold(0.4, off=LIE)),
    ("uniform", Threshold(0.4, off=TRUTH)),
    ("atom", Threshold(0.8, off=ABSTAIN)),
    ("atom", Threshold(0.8, off=LIE)),
    ("edge", Threshold(0.5, off=LIE)),
    ("edge", Threshold(0.5, off=ABSTAIN)),
]


@pytest.fixture
def priors(uniform_prior, atom_prior):
    return {"uniform": uniform_prior, "atom": atom_prior,
            "edge": PriorSpec.from_dict(EDGE_PRIOR)}


@pytest.mark.parametrize("prior_name,profile", CASES)
def test_counts_match_dense_oracle(priors, prior_name, profile):
    # `profile`: the one strategy every agent plays.
    prior = priors[prior_name]
    dense = dense_counts(profile, prior, N, TRIALS, np.random.default_rng(101))
    sampled = sampled_counts(profile, prior, N, TRIALS, np.random.default_rng(202))
    for name, a, b in zip(("ones", "participants", "mismatches"), dense, sampled):
        assert a.min() >= 0 and b.min() >= 0 and b.max() <= N
        p = homogeneity_p_value(a, b)
        assert p > MIN_P_VALUE, f"{name}: p = {p:.3g}"


def test_cost_at_tau_counts_as_cheap(priors):
    # Every zero costs exactly tau: none of them may lie or abstain.
    rng = np.random.default_rng(5)
    theta = np.full(1_000, 0.0)
    for off in (LIE, ABSTAIN):
        bit_ones, ones, participants, mismatches = sample_report_counts(
            Threshold(0.5, off=off), priors["edge"], N, theta, rng
        )
        assert np.all(bit_ones == 0)
        assert np.all(ones == 0)
        assert np.all(participants == N)
        assert np.all(mismatches == 0)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    N = 200_000
    LIMIT = 16 * 2**20

    def test_simulate_estimates(self, uniform_prior):
        peak = _traced_peak(lambda: simulate_estimates(
            uniform_prior, self.N, NoiseSpec(epsilon=0.01), Threshold(0.5), 64, seed=1
        ))
        assert peak < self.LIMIT

    def test_expected_utility(self, uniform_prior):
        config = MechanismConfig(
            n=self.N, alpha=0.1, beta=0.5, epsilon=0.01, p0=1.0 / 3.0, p1=2.0 / 3.0
        )
        peak = _traced_peak(lambda: expected_utility(
            AgentType(bit=1, cost=0.2), TRUTH,
            peer_estimate_mean(uniform_prior, 1, self.N, config.noise, Threshold(0.5)),
            config, CostModel("linear"),
        ))
        assert peak < self.LIMIT
