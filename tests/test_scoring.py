import numpy as np
import pytest

from peersurvey.scoring import b_score, basic_brier, lipschitz_bound, scaled_score, scoring_params

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

GRID = np.linspace(0.0, 1.0, 101)

# Symmetric parameter tuples (p0 + p1 = 1, so the shift c is exactly zero)
# keep every intermediate at unit scale, which is what makes the tight
# ulp-level identity checks meaningful.
WELL_CONDITIONED = [
    (0.25, 0.75, 0.125, 1.0),
    (0.3, 0.7, 0.1, 1.0),
    (0.2, 0.8, 0.1, 0.5),
    (0.35, 0.65, 0.05, 1.5),
]


def ulps_apart(lhs, rhs, anchor):
    """|lhs - rhs| measured in units of the floating-point spacing at anchor."""
    spacing = np.spacing(np.maximum(anchor, np.finfo(float).tiny))
    return np.max(np.abs(lhs - rhs) / spacing)


class TestBasicBrier:
    def test_endpoint_values(self):
        assert basic_brier(1, 1.0) == 1.0
        assert basic_brier(1, 0.0) == -1.0
        assert basic_brier(0, 1.0) == -1.0
        assert basic_brier(1, 0.5) == 0.5
        assert basic_brier(0, 0.5) == 0.5

    def test_vectorized(self):
        out = basic_brier(np.array([0, 1, 1]), np.array([0.5, 0.5, 1.0]))
        np.testing.assert_allclose(out, [0.5, 0.5, 1.0])

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            basic_brier(1, 1.2)
        with pytest.raises(ValueError):
            basic_brier(0, -0.1)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            basic_brier(2, 0.5)


class TestBScore:
    def test_known_values(self):
        assert b_score(0.5, 0.5) == 0.5
        assert b_score(0.3, 0.3) == pytest.approx(0.58, abs=1e-15)
        assert b_score(0.3, 0.7) == pytest.approx(0.26, abs=1e-15)

    def test_expectation_identity_on_grid(self):
        # Mixing the two outcome scores with weight p reproduces b_score.
        p, q = np.meshgrid(GRID, GRID, indexing="ij")
        lhs = p * basic_brier(1, q) + (1.0 - p) * basic_brier(0, q)
        assert ulps_apart(lhs, b_score(p, q), 1.0) <= 4.0

    def test_point_symmetry_about_half(self):
        t, s = np.meshgrid(GRID - 0.5, GRID - 0.5, indexing="ij")
        lhs = b_score(0.5 + t, 0.5 + s)
        rhs = b_score(0.5 - t, 0.5 - s)
        assert ulps_apart(lhs, rhs, 1.0) <= 4.0

    def test_maximized_on_diagonal(self):
        p, q = np.meshgrid(GRID, GRID, indexing="ij")
        diag = b_score(p, p)
        off = b_score(p, q)
        gap = diag - off
        assert np.all(gap >= -1e-15)
        # Strictly positive away from the diagonal.
        assert np.all(gap[np.abs(p - q) > 1e-9] > 0)

    if HAVE_HYPOTHESIS:

        @given(
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
        )
        def test_linear_in_first_argument(self, p1, p2, q, lam):
            mixed = b_score(lam * p1 + (1 - lam) * p2, q)
            split = lam * b_score(p1, q) + (1 - lam) * b_score(p2, q)
            assert mixed == pytest.approx(split, abs=1e-12)


class TestScoringParams:
    def test_reference_parameters(self):
        params = scoring_params(0.3, 0.7, 0.1, 1.0)
        assert params.c == 0.0
        assert params.d == pytest.approx(0.34, abs=1e-15)
        assert params.rho == pytest.approx(6.25, rel=1e-12)

    def test_small_alpha_limit(self):
        # As alpha shrinks the scale approaches beta / (2 * gap^2).
        params = scoring_params(0.3, 0.7, 1e-9, 2.0)
        assert params.rho == pytest.approx(2.0 / 0.32, rel=1e-6)

    def test_rejects_equal_posteriors(self):
        with pytest.raises(ValueError):
            scoring_params(0.5, 0.5, 0.1, 1.0)

    def test_rejects_wide_tolerance(self):
        # alpha must stay below half the posterior gap.
        with pytest.raises(ValueError):
            scoring_params(0.3, 0.7, 0.2, 1.0)
        with pytest.raises(ValueError):
            scoring_params(0.3, 0.7, 0.25, 1.0)

    def test_rejects_nonpositive_beta_and_alpha(self):
        with pytest.raises(ValueError):
            scoring_params(0.3, 0.7, 0.1, 0.0)
        with pytest.raises(ValueError):
            scoring_params(0.3, 0.7, 0.0, 1.0)

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValueError):
            scoring_params(-0.1, 0.7, 0.1, 1.0)
        with pytest.raises(ValueError):
            scoring_params(0.3, 1.1, 0.1, 1.0)


class TestScaledScore:
    def test_reference_values(self):
        params = scoring_params(0.3, 0.7, 0.1, 1.0)
        assert scaled_score(params, 0.7, 0.7) == pytest.approx(1.5, rel=1e-12)
        assert scaled_score(params, 0.7, 0.3) == pytest.approx(-0.5, rel=1e-12)

    @pytest.mark.parametrize("p0,p1,alpha,beta", WELL_CONDITIONED)
    def test_truth_and_lie_payoffs(self, p0, p1, alpha, beta):
        params = scoring_params(p0, p1, alpha, beta)
        gap = abs(p1 - p0)
        truth = beta + 2.0 * params.rho * alpha * gap
        lie = -2.0 * params.rho * alpha * gap
        for mine, other in ((p1, p0), (p0, p1)):
            assert scaled_score(params, mine, mine) == pytest.approx(truth, rel=1e-12)
            assert scaled_score(params, mine, other) == pytest.approx(lie, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p0,p1,alpha,beta", WELL_CONDITIONED)
    def test_diagonal_gap_identity(self, p0, p1, alpha, beta):
        params = scoring_params(p0, p1, alpha, beta)
        p, q = np.meshgrid(GRID, GRID, indexing="ij")
        s_pp = scaled_score(params, p, p)
        s_pq = scaled_score(params, p, q)
        anchor = np.maximum(np.maximum(np.abs(s_pp), np.abs(s_pq)), params.rho)
        rhs = 2.0 * params.rho * (p - q) ** 2
        assert ulps_apart(s_pp - s_pq, rhs, anchor) <= 4.0

    @pytest.mark.parametrize("p0,p1,alpha,beta", WELL_CONDITIONED)
    def test_lipschitz_identity(self, p0, p1, alpha, beta):
        params = scoring_params(p0, p1, alpha, beta)
        p, q = np.meshgrid(GRID, GRID, indexing="ij")
        p_other = 1.0 - p
        s1 = scaled_score(params, p, q)
        s2 = scaled_score(params, p_other, q)
        anchor = np.maximum(np.maximum(np.abs(s1), np.abs(s2)), params.rho)
        rhs = lipschitz_bound(params, q) * np.abs(p - p_other)
        assert ulps_apart(np.abs(s1 - s2), rhs, anchor) <= 4.0

    def test_unique_maximizer_per_row(self):
        params = scoring_params(0.3, 0.7, 0.1, 1.0)
        for p in GRID[::10]:
            diag = scaled_score(params, p, p)
            others = scaled_score(params, p, GRID[np.abs(GRID - p) > 1e-9])
            assert np.all(diag > others)


class TestBandInequalities:
    """Payoff bounds for estimates landing near the posterior means."""

    def _sample_params(self, count, seed):
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < count:
            p0, p1 = rng.uniform(0.0, 1.0, 2)
            if abs(p1 - p0) < 0.05:
                continue
            alpha = rng.uniform(0.05, 0.45) * abs(p1 - p0)
            beta = rng.uniform(0.1, 2.0)
            out.append((p0, p1, alpha, beta))
        return out

    def test_sampled_tuples_respect_bounds(self):
        for p0, p1, alpha, beta in self._sample_params(15, seed=42):
            params = scoring_params(p0, p1, alpha, beta)
            gap = abs(p1 - p0)
            alpha_prime = 0.3
            bound = beta + 2.0 * params.rho * (alpha + alpha_prime) * gap
            for mine, other in ((p1, p0), (p0, p1)):
                band = alpha * np.linspace(-0.999, 0.999, 21)
                near = np.clip(mine + band, 0.0, 1.0)
                assert np.all(scaled_score(params, near, other) <= 1e-9)
                assert np.all(scaled_score(params, near, mine) >= beta - 1e-9)
                wide = np.clip(mine + alpha_prime * np.linspace(-0.999, 0.999, 21), 0.0, 1.0)
                assert np.all(scaled_score(params, wide, mine) <= bound + 1e-9)
