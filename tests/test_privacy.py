import math

import numpy as np
import pytest
from scipy import stats

try:
    from hypothesis import given
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

from peersurvey import privacy
from peersurvey._util import subseed_rng
from peersurvey.mechanism import (
    MechanismConfig,
    Observable,
    estimate_observable,
    payment_observable,
    published_estimate,
)
from peersurvey.privacy import (
    AUDIT_SLACK,
    DEFAULT_BIN_FLOOR,
    DpAuditReport,
    NoiseSpec,
    bin_index,
    cut_points,
    dp_audit,
    laplace_inverse_cdf,
    laplace_log_mass,
    laplace_sample,
    noise_draw,
    uniform_thresholds,
)


class TestLaplaceSampling:
    def test_inverse_cdf_reference_points(self):
        assert laplace_inverse_cdf(0.5, 2.0) == 0.0
        assert laplace_inverse_cdf(0.25, 1.0) == pytest.approx(math.log(0.5))
        assert laplace_inverse_cdf(0.75, 1.0) == pytest.approx(-math.log(0.5))

    def test_inverse_cdf_matches_two_branch_formula_bit_for_bit(self):
        def two_branch(u, scale):
            with np.errstate(divide="ignore"):
                return np.where(u < 0.5, scale * np.log(2.0 * u), -scale * np.log(2.0 - 2.0 * u))

        edges = np.array([0.0, 5e-324, np.finfo(np.float64).tiny, 0.25, 0.5 - 2.0**-54, 0.5,
                          0.5 + 2.0**-53, 0.75, 1.0 - 2.0**-53, 1.0])
        us = np.concatenate([edges, np.random.default_rng(8).random(1_000_000)])
        for scale in (1e-3, 0.5, 1.0, 2.0, 1.0 / 0.7, 1e6):
            got = laplace_inverse_cdf(us, scale)
            np.testing.assert_array_equal(got.view(np.int64), two_branch(us, scale).view(np.int64))
            for u in edges:  # a 0-d input gives a Python float, -0.0 at u = 1/2 included
                value = laplace_inverse_cdf(u, scale)
                assert type(value) is float
                assert np.float64(value).view(np.int64) == two_branch(u, scale).view(np.int64)

    def test_inverse_cdf_antisymmetric(self):
        us = np.linspace(0.01, 0.49, 20)
        left = laplace_inverse_cdf(us, 3.0)
        right = laplace_inverse_cdf(1.0 - us, 3.0)
        np.testing.assert_allclose(left, -right, rtol=1e-12)

    def test_moments(self):
        rng = np.random.default_rng(0)
        x = laplace_sample(1.0, rng, 1_000_000)
        assert abs(x.mean()) <= 3 * math.sqrt(2.0 / x.size)
        assert x.var() == pytest.approx(2.0, rel=0.02)

    def test_tail_mass(self):
        rng = np.random.default_rng(1)
        x = laplace_sample(1.0, rng, 200_000)
        for t in (1.0, 2.0, 3.0):
            target = math.exp(-t)
            hit = np.mean(np.abs(x) >= t)
            sigma = math.sqrt(target * (1 - target) / x.size)
            assert abs(hit - target) <= 3 * sigma

    def test_scale_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            laplace_sample(0.0, rng)
        with pytest.raises(ValueError):
            laplace_sample(-1.0, rng)


class TestNoiseSpec:
    def test_scale(self):
        assert NoiseSpec(epsilon=0.5).scale == 2.0
        assert NoiseSpec(epsilon=4.0).scale == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(epsilon=0.0)
        with pytest.raises(ValueError):
            NoiseSpec(epsilon=1.0, mode="quiet")

    def test_disabled_mode_draws_zero(self):
        # ... and draws nothing from the stream.
        spec = NoiseSpec(epsilon=0.5, mode="disabled")
        rng = np.random.default_rng(0)
        assert np.all(noise_draw(spec, rng, 100) == 0.0)
        assert noise_draw(spec, rng) == 0.0
        assert rng.random() == np.random.default_rng(0).random()
        assert np.all(spec.from_uniform(np.array([0.0, 0.3, 0.9])) == 0.0)

    @pytest.mark.parametrize("epsilon", [0.05, 0.5, 1.0 / 0.7])
    def test_draws_are_the_uniform_map_of_one_random_each(self, epsilon):
        # The sampler and the audit share one map from rng.random() to noise,
        # u = 0 included, bit for bit.
        spec = NoiseSpec(epsilon=epsilon)
        u = np.concatenate([[0.0, 0.5, 1.0 - 2.0**-53], np.random.default_rng(1).random(1000)])
        noise = spec.from_uniform(u)
        assert np.all(np.isfinite(noise))
        for draw in (noise_draw(spec, np.random.default_rng(1), 1000),
                     laplace_sample(spec.scale, np.random.default_rng(1), 1000)):
            assert draw.view(np.int64).tolist() == noise[3:].view(np.int64).tolist()
        assert noise_draw(spec, np.random.default_rng(1)) == noise[3]


def test_interval_mass_ratio_bounded_by_epsilon():
    # The noisy sum itself satisfies the privacy bound analytically: for
    # any interval, neighboring input sums give probability masses within
    # a factor e^eps of each other.
    eps = 0.5
    scale = 1.0 / eps
    edges = np.linspace(-10.0, 20.0, 121)
    for b in (4.0, 5.0):
        b_next = b + 1.0
        mass = np.diff(stats.laplace.cdf(edges, loc=b, scale=scale))
        mass_next = np.diff(stats.laplace.cdf(edges, loc=b_next, scale=scale))
        keep = (mass > 1e-300) & (mass_next > 1e-300)
        ratios = np.abs(np.log(mass[keep] / mass_next[keep]))
        assert np.max(ratios) <= eps + 1e-9


def histogram_counts(values, bins):
    return np.histogram(values, bins, range=(0.0, 1.0))[0].tolist()


def index_counts(values, bins):
    """np.bincount of bin_index's in-range results."""
    k = bin_index(values, np.linspace(0.0, 1.0, bins + 1))
    return np.bincount(k[(k >= 0) & (k < bins)], minlength=bins).tolist()


class TestBinIndex:
    BINS = (2, 3, 7, 20, 49, 1000, 20_000)

    @pytest.mark.parametrize("bins", BINS)
    def test_matches_np_histogram_at_and_around_every_edge(self, bins):
        edges = np.linspace(0.0, 1.0, bins + 1)
        values = np.concatenate([
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            # Other roundings of k / bins, an ulp off linspace's edges.
            np.arange(bins + 1) / bins,
            np.arange(bins + 1) * (1.0 / bins),
            [0.0, -0.0, 1.0, -5e-324, 1.0 + 2.0**-52, np.inf, -np.inf, np.nan],
            np.random.default_rng(bins).random(10_000),
        ])
        assert index_counts(values, bins) == histogram_counts(values, bins)

    @pytest.mark.parametrize("bins", BINS)
    def test_out_of_range_values_sit_past_either_end(self, bins):
        # -1 below 0, bins above 1 and for NaN: the index stays monotone in
        # the value, and np.histogram drops both.
        values = np.array([-np.inf, -1e300, -1.0, -5e-324, -0.0, 0.0, 1.0, 1.0 + 2.0**-52, 2.0,
                           np.inf, np.nan])
        k = bin_index(values, np.linspace(0.0, 1.0, bins + 1))
        assert k.tolist() == [-1, -1, -1, -1, 0, 0, bins - 1, bins, bins, bins, bins]
        ordered = np.sort(np.random.default_rng(bins).uniform(-0.5, 1.5, 10_000))
        assert np.all(np.diff(bin_index(ordered, np.linspace(0.0, 1.0, bins + 1))) >= 0)

    if HAVE_HYPOTHESIS:

        @given(
            st.sampled_from(BINS),
            arrays(np.float64, st.integers(0, 200),
                   elements=st.one_of(st.floats(), st.floats(0.0, 1.0))),
        )
        def test_matches_np_histogram_on_any_floats(self, bins, values):
            assert index_counts(values, bins) == histogram_counts(values, bins)


MAX = np.finfo(np.float64).max


class TestCutPoints:
    def test_rising_step_function(self):
        # Steps at 0, 2.5 and 7; the step at 2.5 skips a value.
        f = lambda x: (x >= 0.0).astype(np.intp) + 2 * (x >= 2.5) + (x >= 7.0)
        assert cut_points(f, -MAX, MAX).tolist() == [0.0, 2.5, 7.0]

    def test_falling_step_function_and_extreme_cuts(self):
        tiny, big = 5e-324, np.finfo(np.float64).max
        f = lambda x: 3 - (x >= -big / 2) - (x >= -tiny) - (x >= big)
        assert cut_points(f, -big, big).tolist() == [-big / 2, -tiny, big]

    def test_cuts_within_a_span(self):
        # Only cuts in (lo, hi]: a cut at lo itself is not one.
        f = lambda x: (x >= 0.0).astype(np.intp) + 2 * (x >= 2.5) + (x >= 7.0)
        assert cut_points(f, -1.0, 7.0).tolist() == [0.0, 2.5, 7.0]
        assert cut_points(f, 0.0, 6.9).tolist() == [2.5]
        assert cut_points(f, -0.0, 0.0).size == 0
        assert cut_points(f, -5e-324, 2.5).tolist() == [0.0, 2.5]

    def test_constant_function_has_none(self):
        assert cut_points(lambda x: np.zeros(x.shape, dtype=np.intp), -MAX, MAX).size == 0

    def test_estimate_bins_step_at_their_edges(self):
        edges = np.linspace(0.0, 1.0, 21)
        f = lambda x: bin_index(published_estimate(10, 5 + x), edges)
        # The clipped estimate fills bin 0 below b_bar = 0.5 and bin 19 above 9.5.
        cuts = cut_points(f, -MAX, MAX)
        np.testing.assert_allclose(cuts, np.arange(0.5, 10.0, 0.5) - 5.0, atol=1e-12)
        assert np.all(np.diff(f(cuts)) == 1)
        assert np.all(f(np.nextafter(cuts, -np.inf)) == f(cuts) - 1)


class TestDpAudit:
    def _reports(self, n=10, ones=5):
        return [1] * ones + [0] * (n - ones)

    def test_claimed_budget_above_true_budget_passes(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5))
        report = dp_audit(mech, self._reports(), 0, 0, 1.0, 100_000, 20, seed=7)
        assert report.verdict == "Pass"
        assert report.max_log_ratio <= 1.05

    def test_under_claimed_budget_fails(self):
        # Noise calibrated for epsilon 0.7, audited as 0.5 at the trial floor.
        mech = estimate_observable(10, NoiseSpec(epsilon=0.7))
        report = dp_audit(mech, self._reports(), 0, 0, 0.5, 100_000, 20, seed=7)
        assert report.verdict == "Fail"
        assert abs(report.max_log_ratio - 0.7) <= 1e-9

    def test_no_noise_mechanism_fails(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5, mode="disabled"))
        report = dp_audit(mech, self._reports(), 0, 0, 0.5, 100_000, 20, seed=7)
        assert report.verdict == "Fail"
        assert math.isinf(report.max_log_ratio)

    def test_constant_mechanism_passes_any_budget(self):
        mech = Observable(NoiseSpec(epsilon=0.5), lambda reports, b_bar: np.full(b_bar.shape, 0.5))
        report = dp_audit(mech, self._reports(), 0, 0, 1e-6, 100_000, 20, seed=7)
        assert report.verdict == "Pass"
        assert report.max_log_ratio == 0.0

    def test_postprocessed_estimate_no_noisier_than_raw_sum(self):
        # Clamping and rescaling are post-processing; the exact leakage of
        # the estimate does not exceed that of the raw noisy sum.
        noise = NoiseSpec(epsilon=0.5)
        est_mech = estimate_observable(10, noise)

        # b-bar in [-10, 20], rescaled into the audited range [0, 1].
        bbar_mech = Observable(noise, lambda reports, b_bar: (b_bar + 10.0) / 30.0)

        reports = self._reports()
        est_audit = dp_audit(est_mech, reports, 0, 0, 0.5, 200_000, 20, seed=31)
        raw_audit = dp_audit(bbar_mech, reports, 0, 0, 0.5, 200_000, 30, seed=31)
        assert est_audit.max_log_ratio <= raw_audit.max_log_ratio + AUDIT_SLACK

    def test_deterministic_given_seed(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5))
        a = dp_audit(mech, self._reports(), 0, 0, 0.5, 100_000, 20, seed=3)
        b = dp_audit(mech, self._reports(), 0, 0, 0.5, 100_000, 20, seed=3)
        assert a.max_log_ratio == b.max_log_ratio
        assert a.to_dict() == b.to_dict()

    def test_bin_table_accounts_for_every_trial(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5))
        report = dp_audit(mech, self._reports(), 0, 0, 0.5, 100_000, 20, seed=3)
        assert report.table["count_base"].sum() == report.trials
        assert report.table["count_flipped"].sum() == report.trials

    def test_table_columns(self):
        # Noiseless: every trial's estimate is 0.5 on one side and 0.4 on
        # the other, so 18 bins are empty on both sides and 2 on one, and
        # no bin has mass on both sides for the cross-check to compare.
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5, mode="disabled"))
        report = dp_audit(mech, self._reports(), 0, 0, 0.5, 100_000, 20, seed=3)
        table = report.table
        assert list(table) == ["bin_lo", "bin_hi", "count_base", "count_flipped", "retained",
                               "log_ratio"]
        edges = np.linspace(0.0, 1.0, 21)
        np.testing.assert_array_equal(table["bin_lo"], edges[:-1])
        np.testing.assert_array_equal(table["bin_hi"], edges[1:])
        base, flipped = table["count_base"], table["count_flipped"]
        for counts in (base, flipped):
            assert counts.dtype == np.int64
            assert counts.sum() == report.trials
        assert table["retained"].dtype == np.int64
        assert not table["retained"].any()
        assert report.cross_check == {"samples": report.trials, "bins_checked": 0,
                                      "max_abs_z": 0.0}
        log_ratio = table["log_ratio"]
        both_empty = (base == 0) & (flipped == 0)
        assert both_empty.sum() == 18
        assert np.all(log_ratio[both_empty] == 0.0)
        assert not np.signbit(log_ratio[both_empty]).any()
        np.testing.assert_array_equal(log_ratio[(base > 0) & (flipped == 0)], [np.inf])
        np.testing.assert_array_equal(log_ratio[(base == 0) & (flipped > 0)], [-np.inf])
        assert report.verdict == "Fail"

    def test_outputs_outside_every_bin_pass(self):
        # Every output misses the bins over [0, 1], so no bin tells the
        # neighbors apart.
        outside_mech = Observable(NoiseSpec(epsilon=0.5),
                                  lambda reports, b_bar: np.full(b_bar.shape, 2.0))
        report = dp_audit(outside_mech, self._reports(), 0, 0, 0.5, 100_000, 20, seed=3)
        assert (report.verdict, report.max_log_ratio) == ("Pass", 0.0)
        assert report.cross_check["bins_checked"] == 0
        assert report.table["count_base"].sum() == 0

    def test_validation(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5))
        with pytest.raises(ValueError):
            dp_audit(mech, self._reports(), 0, 0, 0.5, 50_000, 20, seed=3)
        with pytest.raises(ValueError):
            dp_audit(mech, self._reports(), 0, 0, 0.5, 100_000, 1, seed=3)
        with pytest.raises(ValueError, match="bins must lie in"):
            dp_audit(mech, self._reports(), 0, 0, 0.5, 100_000, 2_001, seed=3)
        with pytest.raises(ValueError):
            dp_audit(mech, self._reports(), 0, 1, 0.5, 100_000, 20, seed=3)
        with pytest.raises(ValueError):
            dp_audit(mech, self._reports(), 17, 0, 0.5, 100_000, 20, seed=3)

    def test_report_serialization_fields(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5))
        report = dp_audit(mech, self._reports(), 0, 0, 0.5, 100_000, 20, seed=3)
        assert list(report.to_dict()) == [
            "epsilon_claimed", "max_log_ratio", "bins", "trials", "cross_check", "verdict",
        ]
        assert list(report.cross_check) == ["samples", "bins_checked", "max_abs_z"]

    def test_report_invariant_enforced(self):
        # The verdict allows the exact ratio AUDIT_SLACK over the claim.
        def report(ratio):
            return DpAuditReport(epsilon_claimed=0.5, max_log_ratio=ratio, bins=20,
                                 trials=100_000, cross_check={})

        assert AUDIT_SLACK == 1e-9
        assert report(0.5 + 0.9e-9).verdict == "Pass"
        assert report(0.5 + 1.1e-9).verdict == "Fail"
        assert report(math.inf).verdict == "Fail"


GRID = 1 << 53  # rng.random() returns k / GRID for k in [0, GRID)
# The chance of a normal variate at least 5 sigma off its mean, either way.
FIVE_SIGMA = 2.0 * stats.norm.sf(5.0)


def audit_cells(observable, reports, i, bins):
    """dp_audit's two neighbors' bins as functions of the noise, the least
    noise drawn and each neighbor's cut points, as it finds them."""
    reports = np.asarray(reports, dtype=np.int64)
    neighbor = reports.copy()
    neighbor[i] = 1 - neighbor[i]
    edges = np.linspace(0.0, 1.0, bins + 1)
    sides = [privacy._bin_of_noise(observable, side, edges) for side in (reports, neighbor)]
    lo, hi = (0.0, 0.0) if observable.noise.mode == "disabled" else (-MAX, MAX)
    return sides, lo, [cut_points(f, lo, hi) for f in sides]


def union_cuts(observable, reports, i, bins):
    """The cut points of both neighbors, which bound the audit's cells."""
    return np.unique(np.concatenate(audit_cells(observable, reports, i, bins)[2]))


def cell_shares(noise, cuts):
    """Each cell's share of the GRID uniforms, from the cuts' thresholds."""
    return np.diff(uniform_thresholds(noise, cuts), prepend=0, append=GRID) / GRID


class TestSharedNoiseDraw:
    TRIALS = (1 << 20) + 12_345
    REPORTS = [1] * 5 + [0] * 5
    PAYMENTS = MechanismConfig(n=10, alpha=0.1, beta=1.0, epsilon=0.5, p0=1.0 / 3.0,
                               p1=2.0 / 3.0)
    # j = 0 is the flipped agent itself, whose own report differs between
    # the neighbors.  raw_sum's values leave [0, 1] on either side.  20,000
    # bins give about 30,000 cells.  At n = 1000, 10,000 bins give about
    # 10,000, most of them past 73.4, the largest noise a uniform maps to,
    # so that their share is 0.
    SHAPES = pytest.mark.parametrize("kind, j", [
        ("estimate", None), ("payment", 3), ("payment", 0), ("disabled", None),
        ("bins_200", None), ("epsilon_0.05", None), ("n_50", None), ("raw_sum", None),
        ("bins_20000", None), ("n_1000", None)])

    def shape(self, kind, j):
        """(observable, reports, i, bins) of an audit shape."""
        reports, i, bins = self.REPORTS, 0, {"bins_200": 200, "bins_20000": 20_000}.get(kind, 20)
        noise = NoiseSpec(epsilon=0.05 if kind == "epsilon_0.05" else 0.5,
                          mode="disabled" if kind == "disabled" else "sample")
        if kind == "payment":
            observable = payment_observable(self.PAYMENTS, j)
        elif kind == "raw_sum":
            observable = Observable(noise, lambda reports, b_bar: (b_bar + 10.0) / 30.0)
        elif kind == "n_50":
            reports, i, bins, noise = [1] * 7 + [0] * 43, 10, 37, NoiseSpec(epsilon=1.3)
            observable = estimate_observable(50, noise)
        elif kind == "n_1000":
            reports, bins = [1] * 500 + [0] * 500, 10_000
            observable = estimate_observable(1000, noise)
        else:
            observable = estimate_observable(10, noise)
        return observable, reports, i, bins

    @SHAPES
    def test_cell_shares_are_the_exact_masses(self, kind, j):
        # A cell's share of the uniforms is its Laplace mass, up to the
        # uniforms' spacing at either end.  Noise "disabled" has one cell,
        # the whole line.
        observable, reports, i, bins = self.shape(kind, j)
        noise, cuts = observable.noise, union_cuts(observable, reports, i, bins)
        mass = np.exp(laplace_log_mass(np.append(-np.inf, cuts), np.append(cuts, np.inf),
                                       noise.scale))
        shares = cell_shares(noise, cuts)
        assert shares.size == cuts.size + 1
        assert np.max(np.abs(shares - mass)) <= 2.0**-52

    def test_tail_cells_no_uniform_reaches_have_no_share(self):
        # At epsilon 5 the noise of the least uniform is about -141.5 and
        # that of the largest about 36.7: the estimate's cut points past
        # either get the threshold 0 or 2**53, and the cells between them
        # a share of 0, though their mass is positive.
        observable = estimate_observable(1000, NoiseSpec(epsilon=5.0))
        reports = [1] * 500 + [0] * 500
        noise, cuts = observable.noise, union_cuts(observable, reports, 0, 1000)
        thresholds = uniform_thresholds(noise, cuts)
        assert np.sum(thresholds == 0) > 1 and np.sum(thresholds == GRID) > 1
        mass = np.exp(laplace_log_mass(np.append(-np.inf, cuts), np.append(cuts, np.inf),
                                       noise.scale))
        shares = cell_shares(noise, cuts)
        unreached = shares == 0.0
        assert np.sum(unreached & (mass > 0.0)) > 100
        assert np.max(np.abs(shares - mass)) <= 2.0**-52

    @SHAPES
    def test_thresholds_bracket_each_cut(self, kind, j):
        # k is the least uniform index whose noise reaches the cut: the one
        # below it falls short.  0 where even the least uniform reaches it,
        # GRID where none does.
        observable, reports, i, bins = self.shape(kind, j)
        noise, cuts = observable.noise, union_cuts(observable, reports, i, bins)
        k = uniform_thresholds(noise, cuts)
        assert k.dtype == np.int64 and np.all((k >= 0) & (k <= GRID)) and np.all(np.diff(k) >= 0)
        inner = (k > 0) & (k < GRID)
        assert np.all(noise.from_uniform((k[inner] - 1) / GRID) < cuts[inner])
        assert np.all(cuts[inner] <= noise.from_uniform(k[inner] / GRID))
        assert np.all(cuts[k == 0] <= noise.from_uniform(0.0))
        assert np.all(noise.from_uniform(1.0 - 2.0**-53) < cuts[k == GRID])

    @SHAPES
    def test_bin_counts_within_five_sigma_of_the_exact_masses(self, kind, j):
        # Each bin's count is Bin(trials, p) for its exact mass p.  Every
        # bin's two-sided binomial tail is checked, sparse ones included,
        # at the chance of a 5 sigma normal deviation.
        observable, reports, i, bins = self.shape(kind, j)
        sides, lo, cuts = audit_cells(observable, reports, i, bins)
        report = dp_audit(observable, reports, i, 1 - reports[i], 0.5, self.TRIALS, bins, seed=5)
        for f, c, column in zip(sides, cuts, ("count_base", "count_flipped")):
            counts = report.table[column]
            p = np.exp(privacy._log_masses(f, lo, c, observable.noise, bins))
            law = stats.binom(self.TRIALS, p)
            tail = 2.0 * np.minimum(law.cdf(counts), law.sf(counts - 1))
            assert tail.min() >= FIVE_SIGMA
            assert np.all(counts[p == 0.0] == 0)
            if kind == "raw_sum":
                assert counts.sum() < self.TRIALS
            else:
                assert counts.sum() == self.TRIALS

    @pytest.mark.parametrize("kind, j", [("estimate", None), ("payment", 3), ("disabled", None)])
    def test_one_multinomial_and_no_uniform_per_audit(self, monkeypatch, kind, j):
        # The audit draws its counts, not its trials: one multinomial from
        # one stream, and nothing else from any.
        calls = []

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def __getattr__(self, name):
                calls.append(name)
                return getattr(self.rng, name)

        monkeypatch.setattr(privacy, "subseed_rng", lambda *path: Spy(subseed_rng(*path)))
        observable, reports, i, bins = self.shape(kind, j)
        dp_audit(observable, reports, i, 1 - reports[i], 0.5, self.TRIALS, bins, seed=5)
        assert calls == ["multinomial"]

    @pytest.mark.parametrize("kind, j", [("estimate", None), ("payment", 3)])
    def test_counts_sum_exactly_to_trials_at_1e17(self, kind, j):
        # int64 sums of the cells' counts: float64 weights would round
        # counts past 2**53.
        trials = 10**17
        observable, reports, i, bins = self.shape(kind, j)
        report = dp_audit(observable, reports, i, 1 - reports[i], 0.5, trials, bins, seed=5)
        for column in ("count_base", "count_flipped"):
            assert report.table[column].dtype == np.int64
            assert int(report.table[column].sum()) == trials
        assert report.cross_check["bins_checked"] == 20
        assert report.cross_check["max_abs_z"] < 5.0

    def test_too_many_bins_raise_before_any_draw(self, monkeypatch):
        # The bound is checked before the masses or the counts: nothing maps
        # a value and nothing is drawn.
        mapped = []

        def estimate(reports, b_bar):
            mapped.append(np.size(b_bar))
            return published_estimate(1000, b_bar)

        monkeypatch.setattr(privacy, "subseed_rng", lambda *path: pytest.fail("drew"))
        observable = Observable(NoiseSpec(epsilon=0.5), estimate)
        with pytest.raises(ValueError, match="bins must lie in"):
            dp_audit(observable, [1] * 500 + [0] * 500, 0, 0, 0.5, 100_000, 1_000_000, seed=7)
        assert mapped == []

    @pytest.mark.parametrize("bottom", [5.0, 17.0])
    def test_observable_not_monotone_in_b_bar_raises(self, bottom):
        # Equal at both ends, so the V has no cut points.  At b_bar = 17 it
        # is flat at the noiseless sums 4 and 5; only the check at the
        # uniforms j 2**-14 shows it.
        v_shape = Observable(NoiseSpec(epsilon=0.5), lambda reports, b_bar: np.clip(
            np.abs(b_bar - bottom) / 10.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="not monotone in b_bar"):
            dp_audit(v_shape, self.REPORTS, 0, 0, 0.5, 100_000, 20, seed=5)

    def test_dip_between_cut_points_raises(self):
        # About 0.4% of the mass falls in the dip inside bin 11, which no
        # cut point reaches; 58 of the uniforms j 2**-14 show it.
        dip = Observable(NoiseSpec(epsilon=0.5), lambda reports, b_bar: np.where(
            (b_bar > 5.71) & (b_bar < 5.73), 0.0, published_estimate(10, b_bar)))
        with pytest.raises(ValueError, match="not monotone in b_bar"):
            dp_audit(dip, self.REPORTS, 0, 0, 0.5, 200_000, 20, seed=5)

    def test_dip_at_one_grid_edge_raises(self):
        # The dip holds one float: the noisy sum at u = 1/4, one of the
        # uniforms j 2**-14, inside bin 7.  No cut point is there, and a draw
        # lands there with chance 2**-53; only the check at those uniforms
        # reaches it.
        noise = NoiseSpec(epsilon=0.5)
        dip = Observable(noise, lambda reports, b_bar: np.where(
            b_bar == 5 + noise.from_uniform(0.25), 0.0, published_estimate(10, b_bar)))
        with pytest.raises(ValueError, match="not monotone in b_bar"):
            dp_audit(dip, self.REPORTS, 0, 0, 0.5, 100_000, 20, seed=5)

    @pytest.mark.parametrize("cut", [0.5, 1.5])
    def test_dip_just_below_a_noise_cut_raises(self, cut):
        # With no one-reports b_bar is the base side's noise itself, and the
        # estimate's bins step at b_bar = 0.5, 1, 1.5, ...  The dip holds the
        # one float just below a step, and the base side's cut search stops
        # on it.  At 0.5 that leaves only the float 0.5 in the wrong cell, a
        # point no uniform j 2**-14 reaches: only the check just below the
        # neighbor's next cut point does.  At 1.5 every later cut is lost.
        below = np.nextafter(cut, -np.inf)
        dip = Observable(NoiseSpec(epsilon=0.5), lambda reports, b_bar: np.where(
            b_bar == below, 1.0, published_estimate(10, b_bar)))
        with pytest.raises(ValueError, match="not monotone in b_bar"):
            dp_audit(dip, [0] * 10, 0, 1, 0.5, 100_000, 20, seed=5)

    @pytest.mark.parametrize("kind", ["estimate", "payment"])
    def test_one_cut_search_per_neighbor(self, monkeypatch, kind):
        # One search over the whole float line per neighbor gives the cut
        # points of both the exact masses and the counts.
        spans = []
        search = privacy.cut_points

        def recorded(f, lo, hi):
            spans.append((lo, hi))
            return search(f, lo, hi)

        monkeypatch.setattr(privacy, "cut_points", recorded)
        observable = (payment_observable(self.PAYMENTS, 3) if kind == "payment"
                      else estimate_observable(10, NoiseSpec(epsilon=0.5)))
        dp_audit(observable, self.REPORTS, 0, 0, 0.5, 100_000, 20, seed=5)
        assert spans == [(-MAX, MAX)] * 2

    def test_noiseless_audit_makes_no_bisection(self, monkeypatch):
        # Every draw is x = 0, so each neighbor's search spans [0, 0]: it
        # reads the bin at its two ends in one call and bisects nothing.
        calls = []
        search = privacy.cut_points

        def recorded(f, lo, hi):
            def counted(x):
                calls.append((lo, hi))
                return f(x)
            return search(counted, lo, hi)

        monkeypatch.setattr(privacy, "cut_points", recorded)
        observable = estimate_observable(10, NoiseSpec(epsilon=0.5, mode="disabled"))
        report = dp_audit(observable, self.REPORTS, 0, 0, 0.5, 100_000, 20, seed=5)
        assert calls == [(0.0, 0.0)] * 2
        assert report.table["count_base"].sum() == report.table["count_flipped"].sum() == 100_000


class TestExactMasses:
    def test_laplace_log_mass_matches_scipy(self):
        scale = 2.0
        lo = np.array([-np.inf, -3.0, -1.0, 0.0, 2.0, 5.0, -np.inf])
        hi = np.array([-3.0, -1.0, 2.0, 1.5, 5.0, np.inf, np.inf])
        cdf = stats.laplace(scale=scale).cdf
        np.testing.assert_allclose(np.exp(laplace_log_mass(lo, hi, scale)), cdf(hi) - cdf(lo),
                                   rtol=1e-12, atol=0.0)
        # Across 0 no difference of CDFs near 1/2 cancels: the mass of a
        # short interval is its width times the density 1 / (2 scale).
        tiny = laplace_log_mass(-1e-12, 1e-12, scale)
        assert abs(np.exp(tiny) / (2e-12 / (2.0 * scale)) - 1.0) <= 1e-11

    def test_far_tail_masses_keep_their_ratio(self):
        # Left of 0 a shift by d multiplies an interval's mass by e^(d/s),
        # right of 0 by e^(-d/s), far past where the masses underflow.
        for lo in (-2_000.0, -80.0, 60.0, 1_500.0):
            a, b = laplace_log_mass([lo, lo + 1.0], [lo + 0.5, lo + 1.5], 0.2)
            assert abs((b - a) - np.sign(-lo) * 5.0) <= 1e-9 * abs(a)
        assert -np.inf < laplace_log_mass(-2_000.0, -1_999.5, 0.2) < np.log(np.finfo(float).tiny)

    @pytest.mark.parametrize("n, bins, epsilon", [(10, 20, 0.5), (1000, 10_000, 0.5),
                                                  (1000, 1000, 5.0)])
    def test_exact_max_is_epsilon(self, n, bins, epsilon):
        # At n = 1000 with 10,000 bins each bin is a tenth of the shift, and
        # the far-tail bins have masses the u-widths of the draws cannot
        # resolve; at epsilon 5 with 1000 bins, masses below the smallest
        # float, which differences of the Laplace CDF would round to 0.
        reports = [1] * (n // 2) + [0] * (n - n // 2)
        report = dp_audit(estimate_observable(n, NoiseSpec(epsilon=epsilon)), reports, 0, 0,
                          epsilon, max(100_000, 50 * bins), bins, seed=7)
        assert report.verdict == "Pass"
        assert abs(report.max_log_ratio - epsilon) <= 1e-9
        log_ratio = report.table["log_ratio"]
        assert np.all(np.abs(log_ratio) <= epsilon + AUDIT_SLACK)
        if epsilon == 5.0:
            assert np.isfinite(log_ratio).all()
            edges = np.linspace(0.0, 1.0, bins + 1)
            f = privacy._bin_of_noise(estimate_observable(n, NoiseSpec(epsilon)),
                                      np.array(reports), edges)
            log_p = privacy._log_masses(f, -MAX, cut_points(f, -MAX, MAX), NoiseSpec(epsilon), bins)
            assert np.sum(log_p < np.log(np.finfo(float).tiny)) > 100

    @pytest.mark.parametrize("n, bins, epsilon", [(10, 20, 0.5), (1000, 10_000, 0.5),
                                                  (50, 37, 1.3)])
    def test_bin_masses_sum_to_one(self, n, bins, epsilon):
        # The estimate is clipped into [0, 1], so its bins hold all the mass.
        noise = NoiseSpec(epsilon=epsilon)
        f = privacy._bin_of_noise(estimate_observable(n, noise), np.array([1] * 7 + [0] * (n - 7)),
                                  np.linspace(0.0, 1.0, bins + 1))
        log_p = privacy._log_masses(f, -MAX, cut_points(f, -MAX, MAX), noise, bins)
        assert abs(np.exp(log_p).sum() - 1.0) <= 1e-12

    def test_disabled_noise_is_a_point_mass_at_zero(self):
        # Only x = 0 is drawn: one cell from 0 with no cuts, the whole line's mass.
        noise = NoiseSpec(epsilon=0.5, mode="disabled")
        f = privacy._bin_of_noise(estimate_observable(10, noise), np.array([1] * 5 + [0] * 5),
                                  np.linspace(0.0, 1.0, 21))
        log_p = privacy._log_masses(f, 0.0, cut_points(f, 0.0, 0.0), noise, 20)
        assert log_p[10] == 0.0 and np.all(log_p[np.arange(20) != 10] == -np.inf)

    def test_payment_observable_exact_max_is_epsilon(self):
        config = TestSharedNoiseDraw.PAYMENTS
        report = dp_audit(payment_observable(config, 3), [1] * 5 + [0] * 5, 0, 0, 0.5, 100_000,
                          20, seed=7)
        assert report.verdict == "Pass"
        assert abs(report.max_log_ratio - 0.5) <= 1e-9

    @pytest.mark.parametrize("n, bins", [(10, 20), (1000, 10_000)])
    def test_counts_within_five_sigma_of_the_exact_masses(self, n, bins):
        # Each bin of the estimate holds the noise x in [n lo - T, n hi - T)
        # for the neighbor's sum T; the end bins take the clip atoms.  The
        # masses here come from scipy's CDF, apart from the audit's own.
        trials, edges = 1_000_000, np.linspace(0.0, 1.0, bins + 1)
        reports = [1] * (n // 2) + [0] * (n - n // 2)
        report = dp_audit(estimate_observable(n, NoiseSpec(epsilon=0.5)), reports, 0, 0, 0.5,
                          trials, bins, seed=7)
        expected = []
        for total, column in ((n // 2, "count_base"), (n // 2 - 1, "count_flipped")):
            x = n * edges - total
            x[0], x[-1] = -np.inf, np.inf
            mass = np.diff(stats.laplace(scale=2.0).cdf(x))
            expected.append(trials * mass)
            counts = report.table[column]
            checked = trials * mass >= DEFAULT_BIN_FLOOR
            z = (counts[checked] - trials * mass[checked]) / np.sqrt(
                trials * mass[checked] * (1.0 - mass[checked]))
            assert np.all(np.abs(z) <= 5.0)
        retained = np.all(np.array(expected) >= DEFAULT_BIN_FLOOR, axis=0)
        np.testing.assert_array_equal(report.table["retained"], retained.astype(np.int64))
        assert report.cross_check["bins_checked"] == retained.sum()
        assert report.cross_check["max_abs_z"] <= 5.0
