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
from peersurvey._util import chunk_sizes, subseed_rng
from peersurvey.mechanism import (
    MechanismConfig,
    Observable,
    estimate_observable,
    payment_observable,
    payment_pair,
    published_estimate,
)
from peersurvey.privacy import (
    AUDIT_BLOCK,
    AUDIT_CHECK_STRIDE,
    AUDIT_GRID_CELLS,
    AUDIT_SLACK,
    DEFAULT_BIN_FLOOR,
    CutTable,
    DpAuditReport,
    NoiseSpec,
    bin_index,
    cut_points,
    dp_audit,
    laplace_inverse_cdf,
    laplace_log_mass,
    laplace_sample,
    noise_draw,
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
    BINS = (2, 3, 7, 20, 49, 1000)

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


# The noise behind the cut tables' tests: Laplace(2), whose CDF gives the
# uniform behind each noise value.
LAPLACE_2 = NoiseSpec(epsilon=0.5)


def uniform_of(x):
    return stats.laplace(scale=LAPLACE_2.scale).cdf(x)


def laplace_tail_cuts(count):
    # Equal-width bins in b_bar, 0.01 apart, cut the Laplace(2) noise at
    # multiples of 0.01, whose uniforms u = exp(-k 0.01 / 2) / 2 near 0,
    # mirrored near 1, come geometrically close to either end.
    return np.arange(-(count // 2), count // 2 + 1) * 0.01


def searchsorted_at_and_around(table, rng):
    # The uniform of every cut, just below and above each, both ends of
    # every grid cell, the lowest uniforms and 10**5 more.
    u_cuts = uniform_of(table.cuts)
    lowest = np.arange(table.cells) / table.cells
    u = np.concatenate([u_cuts, np.nextafter(u_cuts, -np.inf), np.nextafter(u_cuts, np.inf),
                        lowest, np.nextafter(lowest + 1.0 / table.cells, 0.0),
                        [0.0, 5e-324, np.finfo(np.float64).tiny], rng.random(100_000)])
    u = u[(u >= 0.0) & (u < 1.0)]
    expected = np.searchsorted(table.cuts, LAPLACE_2.from_uniform(u), side="right")
    return table.index(u).tolist() == expected.tolist()


def crowded_grid_cells(table):
    # The grid cells whose lowest and highest uniforms have their noise in
    # different cells: their draws take the binary search.
    lowest = np.arange(table.cells) / table.cells
    ends = [np.searchsorted(table.cuts, LAPLACE_2.from_uniform(u), side="right")
            for u in (lowest, np.nextafter(lowest + 1.0 / table.cells, 0.0))]
    return int(np.sum(ends[0] != ends[1]))


class TestCutTable:
    @pytest.mark.parametrize("cells", [1, 3, 1 << 16])
    def test_index_counts_cuts_at_or_below(self, monkeypatch, cells):
        # Crowded cuts: with 1 or 3 grid cells, each holds several, and every
        # draw takes the binary search.  42 cuts need 64 * 42 cells, 4,096.
        monkeypatch.setattr(privacy, "AUDIT_GRID_CELLS", cells)
        rng = np.random.default_rng(cells)
        cuts = np.unique(np.concatenate([rng.laplace(0.0, 2.0, 40), [0.5, np.nextafter(0.5, 1.0)]]))
        table = CutTable(cuts, LAPLACE_2)
        assert table.cells == min(cells, 4096)
        assert searchsorted_at_and_around(table, rng)

    def test_no_cuts_one_cell(self):
        table = CutTable(np.empty(0), LAPLACE_2)
        assert table.cells == 1
        assert table.index(np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])).tolist() == [0] * 3

    def test_crowded_laplace_tails(self):
        # More than AUDIT_GRID_CELLS / 64 cuts, hundreds of them in each of
        # the grid cells at either end.
        cuts = laplace_tail_cuts(12_000)
        assert cuts.size >= 10_000
        table = CutTable(cuts, LAPLACE_2)
        assert table.cells == AUDIT_GRID_CELLS
        assert np.bincount((uniform_of(cuts) * table.cells).astype(np.intp)).max() > 100
        assert searchsorted_at_and_around(table, np.random.default_rng(3))

    @pytest.mark.parametrize("count", [1, 2, 43, 500, AUDIT_GRID_CELLS // 64])
    def test_few_cuts_leave_most_grid_cells_free(self, count):
        # At most 1/64 of the grid cells, and so of the draws, take the
        # binary search while there are at most AUDIT_GRID_CELLS / 64 cuts.
        rng = np.random.default_rng(count)
        for cuts in (laplace_tail_cuts(12_000), rng.laplace(0.0, 2.0, count)):
            cuts = np.sort(cuts[np.linspace(0, cuts.size - 1, count).astype(np.intp)])
            table = CutTable(cuts, LAPLACE_2)
            assert 64 * crowded_grid_cells(table) <= table.cells
            assert searchsorted_at_and_around(table, np.random.default_rng(count))


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


# The audit before each trial's noise was drawn once for both neighbors:
# an observable was a callable (reports, rng, size) that drew its own noise,
# and each neighbor ran it on a fresh copy of the chunk's stream.
def two_run_estimate(n, noise):
    def mech(reports, rng, size):
        return published_estimate(n, int(np.sum(reports)) + noise_draw(noise, rng, size))

    return mech


def two_run_payment(config, j):
    def mech(reports, rng, size):
        reports = np.asarray(reports)
        own = int(reports[j])
        b_bar = int(np.sum(reports)) + noise_draw(config.noise, rng, size)
        pay = payment_pair(config, b_bar)[1 - own]
        ends = payment_pair(config, [own, own + config.n - 1])[1 - own]
        lo, hi = ends.min(), ends.max()
        return (pay - lo) / (hi - lo)

    return mech


def two_run_counts(mech, reports, i, trials, bins, seed):
    reports = np.asarray(reports, dtype=np.int64)
    neighbor = reports.copy()
    neighbor[i] = 1 - neighbor[i]
    counts = np.zeros((2, bins))
    for chunk, size in chunk_sizes(trials, 1 << 20):
        for side, vector in enumerate((reports, neighbor)):
            out = mech(vector, subseed_rng(seed, chunk), size)
            counts[side] += np.histogram(out, bins=bins, range=(0.0, 1.0))[0]
    return counts


def two_run_raw_sum(noise):
    def mech(reports, rng, size):
        return (int(np.sum(reports)) + noise_draw(noise, rng, size) + 10.0) / 30.0

    return mech


class TestSharedNoiseDraw:
    # One full 2**20-trial chunk, then a chunk ending in a ragged block.
    TRIALS = (1 << 20) + 12_345
    REPORTS = [1] * 5 + [0] * 5
    PAYMENTS = MechanismConfig(n=10, alpha=0.1, beta=1.0, epsilon=0.5, p0=1.0 / 3.0,
                               p1=2.0 / 3.0)

    @pytest.mark.parametrize("kind, j", [("estimate", None), ("payment", 3), ("payment", 0),
                                         ("disabled", None), ("bins_200", None),
                                         ("epsilon_0.05", None), ("n_50", None),
                                         ("raw_sum", None), ("bins_20000", None),
                                         ("n_1000", None)])
    def test_counts_match_two_runs_per_chunk(self, kind, j):
        # j = 0 is the flipped agent itself, whose own report differs between
        # the neighbors.  raw_sum's values leave [0, 1] on either side, and
        # 20,000 bins put more cut points than draws in most cells.  At
        # n = 1000, 10,000 bins put about 1,100 cut points in the span, over
        # AUDIT_GRID_CELLS / 64, and hundreds in each grid cell at either end.
        reports, i, bins = self.REPORTS, 0, {"bins_200": 200, "bins_20000": 20_000}.get(kind, 20)
        noise = NoiseSpec(epsilon=0.05 if kind == "epsilon_0.05" else 0.5,
                          mode="disabled" if kind == "disabled" else "sample")
        if kind == "payment":
            observable = payment_observable(self.PAYMENTS, j)
            old = two_run_payment(self.PAYMENTS, j)
        elif kind == "raw_sum":
            observable = Observable(noise, lambda reports, b_bar: (b_bar + 10.0) / 30.0)
            old = two_run_raw_sum(noise)
        elif kind == "n_50":
            reports, i, bins, noise = [1] * 7 + [0] * 43, 10, 37, NoiseSpec(epsilon=1.3)
            observable = estimate_observable(50, noise)
            old = two_run_estimate(50, noise)
        elif kind == "n_1000":
            reports, bins = [1] * 500 + [0] * 500, 10_000
            observable = estimate_observable(1000, noise)
            old = two_run_estimate(1000, noise)
        else:
            observable = estimate_observable(10, noise)
            old = two_run_estimate(10, noise)
        report = dp_audit(observable, reports, i, 1 - reports[i], 0.5, self.TRIALS, bins, seed=5)
        counts = np.array([report.table["count_base"], report.table["count_flipped"]])
        expected = two_run_counts(old, reports, i, self.TRIALS, bins, 5)
        assert counts.tolist() == expected.tolist()
        if kind == "raw_sum":
            assert (counts.sum(axis=1) < self.TRIALS).all()
        else:
            assert counts.sum(axis=1).tolist() == [self.TRIALS] * 2

    @pytest.mark.parametrize("cells", [3, 1 << 16])
    def test_crowded_grid_counts_match_two_runs(self, monkeypatch, cells):
        # Three grid cells put several cut points in each, so every draw
        # takes the binary search of the cuts.
        monkeypatch.setattr(privacy, "AUDIT_GRID_CELLS", cells)
        noise = NoiseSpec(epsilon=0.5)
        report = dp_audit(estimate_observable(10, noise), self.REPORTS, 0, 0, 0.5, 200_000, 20,
                          seed=9)
        counts = [report.table["count_base"].tolist(), report.table["count_flipped"].tolist()]
        assert counts == two_run_counts(two_run_estimate(10, noise), self.REPORTS, 0, 200_000,
                                        20, 9).tolist()

    def test_too_many_bins_raise_before_any_draw(self, monkeypatch):
        # The bound is checked before the masses or the draws: nothing maps
        # a value and nothing draws a uniform.
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
        # is flat at the noiseless sums 4 and 5; only the draws show it.
        v_shape = Observable(NoiseSpec(epsilon=0.5), lambda reports, b_bar: np.clip(
            np.abs(b_bar - bottom) / 10.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="not monotone in b_bar"):
            dp_audit(v_shape, self.REPORTS, 0, 0, 0.5, 100_000, 20, seed=5)

    def test_dip_between_cut_points_raises(self):
        # About 0.4% of the draws fall in the dip inside bin 11, which no
        # grid edge or cut point reaches; only the draws show it.
        dip = Observable(NoiseSpec(epsilon=0.5), lambda reports, b_bar: np.where(
            (b_bar > 5.71) & (b_bar < 5.73), 0.0, published_estimate(10, b_bar)))
        with pytest.raises(ValueError, match="not monotone in b_bar"):
            dp_audit(dip, self.REPORTS, 0, 0, 0.5, 200_000, 20, seed=5)

    def test_dip_at_one_grid_edge_raises(self):
        # The dip holds one float: the noisy sum at u = 1/4, an edge of the
        # 4,096-cell grid inside bin 7.  No cut point is there, and a draw
        # lands there with chance 2**-53; only the grid-edge check reaches it.
        noise = NoiseSpec(epsilon=0.5)
        dip = Observable(noise, lambda reports, b_bar: np.where(
            b_bar == 5 + noise.from_uniform(0.25), 0.0, published_estimate(10, b_bar)))
        with pytest.raises(ValueError, match="not monotone in b_bar"):
            dp_audit(dip, self.REPORTS, 0, 0, 0.5, 100_000, 20, seed=5)

    def test_dip_at_one_sampled_draw_raises(self):
        # The dip holds one float: the noise of the largest checked uniform
        # after the first block, past the cuts and the grid, where the
        # estimate is clipped to 1.  Only the check of every
        # AUDIT_CHECK_STRIDE-th draw reaches it.
        noise = NoiseSpec(epsilon=0.5)
        uniforms = np.concatenate(list(privacy._noise_blocks(1 << 20, 5)))
        draws = noise.from_uniform(uniforms)
        top = noise.from_uniform(uniforms[AUDIT_BLOCK::AUDIT_CHECK_STRIDE].max())
        assert top > 5.0 and top not in draws[:AUDIT_BLOCK] and np.sum(draws == top) == 1
        dip = Observable(noise, lambda reports, b_bar: np.where(
            b_bar == 5 + top, 0.0, published_estimate(10, b_bar)))
        with pytest.raises(ValueError, match="not monotone in b_bar"):
            dp_audit(dip, self.REPORTS, 0, 0, 0.5, 1 << 20, 20, seed=5)

    @pytest.mark.parametrize("cut", [0.5, 1.5])
    def test_dip_just_below_a_noise_cut_raises(self, cut):
        # With no one-reports b_bar is the base side's noise itself, and the
        # estimate's bins step at b_bar = 0.5, 1, 1.5, ...  The dip holds the
        # one float just below a step, and the base side's cut search stops
        # on it.  At 0.5 that leaves only the float 0.5 in the wrong cell, a
        # point no draw or grid edge reaches: only the check just below the
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

    def test_one_noise_draw_per_trial(self, monkeypatch):
        # One uniform per trial, and nothing else drawn from the streams.
        sizes = []

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def random(self, size=None):
                sizes.append(size)
                return self.rng.random(size)

        monkeypatch.setattr(privacy, "subseed_rng", lambda *path: Counted(subseed_rng(*path)))
        observable = estimate_observable(10, NoiseSpec(epsilon=0.5))
        dp_audit(observable, self.REPORTS, 0, 0, 0.5, self.TRIALS, 20, seed=5)
        assert sum(sizes) == self.TRIALS
        assert max(sizes) == AUDIT_BLOCK
        assert sizes[-1] == 12_345 % AUDIT_BLOCK


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
