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

from noise_oracle import rounded_laplace_pmf
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
        assert rng.random() == np.random.default_rng(0).random()
        assert np.all(spec.from_uniform(np.array([0.0, 0.3, 0.9])) == 0.0)

    @pytest.mark.parametrize("epsilon", [0.05, 0.5, 1.0 / 0.7])
    def test_draws_are_the_uniform_map_of_one_random_each(self, epsilon):
        # The sampler and the audit share one map from rng.random() to noise,
        # u = 0 included, bit for bit: the continuous Laplace draw rounded
        # half to even.
        spec = NoiseSpec(epsilon=epsilon)
        u = np.concatenate([[0.0, 0.5, 1.0 - 2.0**-53], np.random.default_rng(1).random(1000)])
        noise = spec.from_uniform(u)
        assert np.all(np.isfinite(noise)) and np.all(noise == np.round(noise))
        assert noise[1] == 0.0
        continuous = laplace_sample(spec.scale, np.random.default_rng(1), 1000)
        for draw in (noise_draw(spec, np.random.default_rng(1), 1000), np.rint(continuous)):
            assert draw.view(np.int64).tolist() == noise[3:].view(np.int64).tolist()
        assert np.all(np.abs(noise[3:] - continuous) <= 0.5)


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


class TestDpAudit:
    def _reports(self, n=10, ones=5):
        return [1] * ones + [0] * (n - ones)

    def test_claimed_budget_above_true_budget_passes(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5))
        report = dp_audit(mech, self._reports(), 0, 1.0, 100_000, 20, seed=7)
        assert report.verdict == "Pass"
        assert report.max_log_ratio <= 1.05

    def test_under_claimed_budget_fails(self):
        # Noise calibrated for epsilon 0.7, audited as 0.5 at the trial floor.
        mech = estimate_observable(10, NoiseSpec(epsilon=0.7))
        report = dp_audit(mech, self._reports(), 0, 0.5, 100_000, 20, seed=7)
        assert report.verdict == "Fail"
        assert abs(report.max_log_ratio - 0.7) <= 1e-9

    def test_no_noise_mechanism_fails(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5, mode="disabled"))
        report = dp_audit(mech, self._reports(), 0, 0.5, 100_000, 20, seed=7)
        assert report.verdict == "Fail"
        assert math.isinf(report.max_log_ratio)

    def test_constant_mechanism_passes_any_budget(self):
        mech = Observable(NoiseSpec(epsilon=0.5), lambda reports, b_bar: np.full(b_bar.shape, 0.5))
        report = dp_audit(mech, self._reports(), 0, 1e-6, 100_000, 20, seed=7)
        assert report.verdict == "Pass"
        assert report.max_log_ratio == 0.0

    def test_postprocessed_estimate_no_noisier_than_clamped_sum(self):
        # Binning is post-processing; the exact leakage of the estimate's 20
        # bins does not exceed that of the clamped noisy sum with each
        # integer in a bin of its own.
        noise = NoiseSpec(epsilon=0.5)
        est_mech = estimate_observable(10, noise)
        bbar_mech = Observable(noise, lambda reports, b_bar: np.clip(b_bar, 0.0, 10.0) / 10.0)

        reports = self._reports()
        est_audit = dp_audit(est_mech, reports, 0, 0.5, 200_000, 20, seed=31)
        raw_audit = dp_audit(bbar_mech, reports, 0, 0.5, 200_000, 100, seed=31)
        assert np.sum(raw_audit.table["log_ratio"] != 0.0) == 11
        assert est_audit.max_log_ratio <= raw_audit.max_log_ratio + AUDIT_SLACK

    def test_deterministic_given_seed(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5))
        a = dp_audit(mech, self._reports(), 0, 0.5, 100_000, 20, seed=3)
        b = dp_audit(mech, self._reports(), 0, 0.5, 100_000, 20, seed=3)
        assert a.max_log_ratio == b.max_log_ratio
        assert a.to_dict() == b.to_dict()

    def test_bin_table_accounts_for_every_trial(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5))
        report = dp_audit(mech, self._reports(), 0, 0.5, 100_000, 20, seed=3)
        assert report.table["count_base"].sum() == report.trials
        assert report.table["count_flipped"].sum() == report.trials

    def test_table_columns(self):
        # Noiseless: every trial's estimate is 0.5 on one side and 0.4 on
        # the other, so 18 bins are empty on both sides and 2 on one, and
        # no bin has mass on both sides for the cross-check to compare.
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5, mode="disabled"))
        report = dp_audit(mech, self._reports(), 0, 0.5, 100_000, 20, seed=3)
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
        report = dp_audit(outside_mech, self._reports(), 0, 0.5, 100_000, 20, seed=3)
        assert (report.verdict, report.max_log_ratio) == ("Pass", 0.0)
        assert report.cross_check["bins_checked"] == 0
        assert report.table["count_base"].sum() == 0

    def test_validation(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5))
        with pytest.raises(ValueError):
            dp_audit(mech, self._reports(), 0, 0.5, 50_000, 20, seed=3)
        with pytest.raises(ValueError):
            dp_audit(mech, self._reports(), 0, 0.5, 100_000, 1, seed=3)
        with pytest.raises(ValueError, match="bins must lie in"):
            dp_audit(mech, self._reports(), 0, 0.5, 100_000, 2_001, seed=3)
        with pytest.raises(ValueError):
            dp_audit(mech, self._reports(), 17, 0.5, 100_000, 20, seed=3)

    def test_report_serialization_fields(self):
        mech = estimate_observable(10, NoiseSpec(epsilon=0.5))
        report = dp_audit(mech, self._reports(), 0, 0.5, 100_000, 20, seed=3)
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

    def test_flipping_agent_0_loses_nothing(self):
        # The mechanism treats agents alike: an audit reads the two report
        # sums and, for a payment, the paid agent's own report.  So flipping
        # any report i, on the estimate or on agent j's payment (j != i),
        # gives the audit that flips agent 0, on agent k's payment (k != 0,
        # with j's report).  Flipping a zero is that audit of the vector
        # with one more one, its neighbors swapped.
        n, trials, bins, seed = 6, 100_000, 20, 7
        noise = NoiseSpec(epsilon=0.5)
        payments = MechanismConfig(n=n, alpha=0.1, beta=1.0, epsilon=0.5, p0=1.0 / 3.0,
                                   p1=2.0 / 3.0)

        def observable(j):
            return estimate_observable(n, noise) if j is None else payment_observable(payments, j)

        def flip_agent_0(ones, report_j):
            reports = self._reports(n, ones)
            k = None if report_j is None else next(
                k for k in range(1, n) if reports[k] == report_j)
            return dp_audit(observable(k), reports, 0, 0.5, trials, bins, seed)

        fixed = ("bin_lo", "bin_hi", "retained")
        for ones in range(n + 1):
            reports = self._reports(n, ones)
            for i in range(n):
                for j in [None, *(j for j in range(n) if j != i)]:
                    audit = dp_audit(observable(j), reports, i, 0.5, trials, bins, seed)
                    report_j = None if j is None else reports[j]
                    ref = flip_agent_0(ones + 1 - reports[i], report_j)
                    assert audit.to_dict() == ref.to_dict()
                    table, base = audit.table, ref.table
                    assert all(np.array_equal(table[key], base[key]) for key in fixed)
                    if reports[i]:
                        assert all(np.array_equal(table[key], base[key]) for key in table)
                    else:
                        assert np.array_equal(table["count_base"], base["count_flipped"])
                        assert np.array_equal(table["count_flipped"], base["count_base"])
                        assert np.array_equal(table["log_ratio"], -base["log_ratio"])




GRID = 1 << 53  # rng.random() returns k / GRID for k in [0, GRID)
# The chance of a normal variate at least 5 sigma off its mean, either way.
FIVE_SIGMA = 2.0 * stats.norm.sf(5.0)


def noise_cells(observable, reports, i):
    """The integer noise r of each of dp_audit's cells, shared by both
    neighbors: from -max(sums), whose cell also holds every r below it, to
    n - min(sums), whose cell holds every r above.  Noise "disabled" has
    the one cell r = 0."""
    if observable.noise.mode == "disabled":
        return np.zeros(1)
    reports = np.asarray(reports)
    sums = (reports.sum(), reports.sum() + 1 - 2 * reports[i])
    return np.arange(-max(sums), reports.size + 1 - min(sums), dtype=np.float64)


def cell_masses(noise, r):
    """The Laplace mass of each cell [r - 1/2, r + 1/2), the end cells open."""
    cuts = r[1:] - 0.5
    return np.exp(laplace_log_mass(np.append(-np.inf, cuts), np.append(cuts, np.inf), noise.scale))


def cell_shares(noise, r):
    """Each cell's share of the GRID uniforms, from the thresholds of its
    least noise."""
    return np.diff(uniform_thresholds(noise, r[1:]), prepend=0, append=GRID) / GRID


def brute_force_masses(observable, reports, bins):
    """Each bin's exact mass, summed over b_bar = 0..n: the chance of
    clip(sum(reports) + R, 0, n) = b_bar from scipy.stats' Laplace,
    histogrammed by np.histogram at the observable's value there."""
    reports = np.asarray(reports)
    n, total = reports.size, reports.sum()
    b_bar = np.arange(n + 1)
    if observable.noise.mode == "disabled":
        mass = (b_bar == total).astype(np.float64)
    else:
        law = stats.laplace(scale=observable.noise.scale)
        mass = rounded_laplace_pmf(b_bar - total, observable.noise.scale)
        mass[0], mass[-1] = law.cdf(0.5 - total), law.sf(n - total - 0.5)
    values = observable.of_b_bar(reports, b_bar.astype(np.float64))
    return np.histogram(values, bins, range=(0.0, 1.0), weights=mass)[0]


def flip(reports, i):
    neighbor = list(reports)
    neighbor[i] = 1 - neighbor[i]
    return neighbor


class TestSharedNoiseDraw:
    TRIALS = (1 << 20) + 12_345
    REPORTS = [1] * 5 + [0] * 5
    PAYMENTS = MechanismConfig(n=10, alpha=0.1, beta=1.0, epsilon=0.5, p0=1.0 / 3.0,
                               p1=2.0 / 3.0)
    # j = 0 is the flipped agent itself, whose own report differs between
    # the neighbors.  raw_sum's values leave [0, 1] on either side.  At
    # n = 1000 there are 1002 cells, most of them past 73.4, the largest
    # noise a uniform maps to, so that their share is 0.
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
            # Clamp-invariant, with values from -0.21 at b_bar = 0 to 1.21 at 10.
            observable = Observable(noise, lambda reports, b_bar: (
                np.clip(b_bar, 0.0, 10.0) - 1.5) / 7.0)
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
        noise, r = observable.noise, noise_cells(observable, reports, i)
        shares = cell_shares(noise, r)
        assert shares.size == r.size
        assert np.max(np.abs(shares - cell_masses(noise, r))) <= 2.0**-52

    def test_tail_cells_no_uniform_reaches_have_no_share(self):
        # At epsilon 5 the noise of the least uniform is about -141.5 and
        # that of the largest about 36.7: the cells past either get the
        # threshold 0 or 2**53, and a share of 0, though their mass is
        # positive.
        observable = estimate_observable(1000, NoiseSpec(epsilon=5.0))
        noise, r = observable.noise, noise_cells(observable, [1] * 500 + [0] * 500, 0)
        thresholds = uniform_thresholds(noise, r[1:])
        assert np.sum(thresholds == 0) > 1 and np.sum(thresholds == GRID) > 1
        mass, shares = cell_masses(noise, r), cell_shares(noise, r)
        assert np.sum((shares == 0.0) & (mass > 0.0)) > 100
        assert np.max(np.abs(shares - mass)) <= 2.0**-52

    @SHAPES
    def test_thresholds_bracket_each_cut(self, kind, j):
        # k is the least uniform index whose noise reaches the cell's noise:
        # the one below it falls short.  0 where even the least uniform
        # reaches it, GRID where none does.
        observable, reports, i, bins = self.shape(kind, j)
        noise, cuts = observable.noise, noise_cells(observable, reports, i)[1:]
        k = uniform_thresholds(noise, cuts)
        assert k.dtype == np.int64 and np.all((k >= 0) & (k <= GRID)) and np.all(np.diff(k) >= 0)
        inner = (k > 0) & (k < GRID)
        assert np.all(noise.from_uniform((k[inner] - 1) / GRID) < cuts[inner])
        assert np.all(cuts[inner] <= noise.from_uniform(k[inner] / GRID))
        least, largest = noise.from_uniform(np.array([0.0, 1.0 - 2.0**-53]))
        assert np.all(cuts[k == 0] <= least)
        assert np.all(largest < cuts[k == GRID])

    @SHAPES
    def test_bin_counts_within_five_sigma_of_the_exact_masses(self, kind, j):
        # Each bin's count is Bin(trials, p) for its exact mass p, summed
        # over b_bar by brute force.  Every bin's two-sided binomial tail is
        # checked, sparse ones included, at the chance of a 5 sigma normal
        # deviation.
        observable, reports, i, bins = self.shape(kind, j)
        report = dp_audit(observable, reports, i, 0.5, self.TRIALS, bins, seed=5)
        for side, column in ((reports, "count_base"), (flip(reports, i), "count_flipped")):
            counts = report.table[column]
            p = np.minimum(brute_force_masses(observable, side, bins), 1.0)
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
        dp_audit(observable, reports, i, 0.5, self.TRIALS, bins, seed=5)
        assert calls == ["multinomial"]

    @pytest.mark.parametrize("kind, j, reached", [("estimate", None, 11), ("payment", 3, 10)],
                             ids=["estimate-None", "payment-3"])
    def test_counts_sum_exactly_to_trials_at_1e17(self, kind, j, reached):
        # int64 sums of the cells' counts: float64 weights would round
        # counts past 2**53.  Every bin that both neighbors reach is
        # checked: the 11 estimates k / 10, or the 10 peer estimates of
        # agent 3, whose b_bar 0 and 1 both give 0.
        trials = 10**17
        observable, reports, i, bins = self.shape(kind, j)
        report = dp_audit(observable, reports, i, 0.5, trials, bins, seed=5)
        for column in ("count_base", "count_flipped"):
            assert report.table[column].dtype == np.int64
            assert int(report.table[column].sum()) == trials
        assert report.cross_check["bins_checked"] == reached
        assert report.cross_check["max_abs_z"] < 5.0

    @pytest.mark.parametrize("kind", ["estimate", "payment"])
    def test_observable_read_once_per_neighbor(self, monkeypatch, kind):
        # Each neighbor's observable is read in one call, at b_bar = -1..n + 1:
        # the integers it can reach and one past either end for the clamp check.
        reads = []
        observable = (payment_observable(self.PAYMENTS, 3) if kind == "payment"
                      else estimate_observable(10, NoiseSpec(epsilon=0.5)))

        def recorded(reports, b_bar):
            reads.append((tuple(reports), b_bar.tolist()))
            return observable.of_b_bar(reports, b_bar)

        spied = Observable(observable.noise, recorded)
        dp_audit(spied, self.REPORTS, 0, 0.5, 100_000, 20, seed=5)
        b_bar = np.arange(-1.0, 12.0).tolist()
        assert reads == [(tuple(self.REPORTS), b_bar), (tuple(flip(self.REPORTS, 0)), b_bar)]

    def test_noiseless_audit_makes_no_bisection(self, monkeypatch):
        # Every draw is r = 0: one cell and no cut between cells, so the
        # thresholds map only the least and the largest uniform and bisect
        # nothing.
        mapped = []
        from_uniform = NoiseSpec.from_uniform

        def recorded(noise, u):
            mapped.append(np.size(u))
            return from_uniform(noise, u)

        monkeypatch.setattr(NoiseSpec, "from_uniform", recorded)
        observable = estimate_observable(10, NoiseSpec(epsilon=0.5, mode="disabled"))
        report = dp_audit(observable, self.REPORTS, 0, 0.5, 100_000, 20, seed=5)
        assert mapped == [2]
        assert report.table["count_base"].sum() == report.table["count_flipped"].sum() == 100_000

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
            dp_audit(observable, [1] * 500 + [0] * 500, 0, 0.5, 100_000, 1_000_000, seed=7)
        assert mapped == []

    @pytest.mark.parametrize("observable", [
        # Unclamped below 0 and above n.
        Observable(NoiseSpec(epsilon=0.5), lambda reports, b_bar: (b_bar + 10.0) / 30.0),
        # Clamped at 0 but not at n = 10: b_bar / 11 reaches 1 only at 11.
        Observable(NoiseSpec(epsilon=0.5), lambda reports, b_bar: published_estimate(11, b_bar)),
        # Clamped at n but not at 0.
        Observable(NoiseSpec(epsilon=0.5), lambda reports, b_bar: np.minimum(b_bar, 10.0) / 20.0
                   + 0.25),
    ], ids=["both_ends", "top", "bottom"])
    def test_observable_that_does_not_clamp_raises(self, observable):
        with pytest.raises(ValueError, match=r"only through clip\(b_bar, 0, n\)"):
            dp_audit(observable, self.REPORTS, 0, 0.5, 100_000, 20, seed=5)

    @pytest.mark.parametrize("bottom", [5.0, 7.3])
    def test_observable_not_monotone_in_b_bar_is_exact(self, bottom):
        # A V with its bottom at b_bar = 5, or between the integers 7 and 8:
        # the audit reads every integer, so its masses, log ratios and
        # counts follow a brute-force sum over b_bar.
        v_shape = Observable(NoiseSpec(epsilon=0.5), lambda reports, b_bar: np.abs(
            np.clip(b_bar, 0.0, 10.0) - bottom) / 10.0)
        report = dp_audit(v_shape, self.REPORTS, 0, 0.5, self.TRIALS, 20, seed=5)
        base, flipped = (brute_force_masses(v_shape, side, 20)
                         for side in (self.REPORTS, flip(self.REPORTS, 0)))
        both = (base > 0.0) & (flipped > 0.0)
        assert both.sum() > 3
        np.testing.assert_allclose(report.table["log_ratio"][both],
                                   np.log(base[both] / flipped[both]), rtol=0.0, atol=1e-9)
        assert np.all(report.table["log_ratio"][~both] == 0.0)
        assert report.max_log_ratio == pytest.approx(
            np.max(np.abs(np.log(base[both] / flipped[both]))), rel=0.0, abs=1e-9)
        assert report.verdict == "Pass"
        for p, column in ((base, "count_base"), (flipped, "count_flipped")):
            law = stats.binom(self.TRIALS, np.minimum(p, 1.0))
            counts = report.table[column]
            assert (2.0 * np.minimum(law.cdf(counts), law.sf(counts - 1))).min() >= FIVE_SIGMA


@pytest.mark.parametrize("n, sums, epsilon", [(10, (5, 4), 0.5),
                                              (1000, (500, 501), math.log(10.0) / 100.0)],
                         ids=["criterion_4", "criterion_7"])
def test_every_published_estimate_is_one_the_neighbor_reaches(n, sums, epsilon):
    # A float Laplace sampler leaves holes in its outputs that differ
    # between neighbors, so an output can reveal the input (Mironov, CCS
    # 2012).  With b_bar on the integer grid, every estimate drawn is k / n
    # for an integer k, and a positive share of the 2**53 uniforms gives it
    # on the other neighbor too.
    noise = NoiseSpec(epsilon)
    grid = published_estimate(n, np.arange(n + 1))
    for seed, (own, other) in enumerate((sums, sums[::-1])):
        estimate = published_estimate(n, own + noise_draw(noise, np.random.default_rng(seed),
                                                          200_000))
        assert np.all(np.isin(estimate, grid))
        # The noise the other neighbor needs for b_bar = k: k - other, or
        # any at or past it at either end.
        k = np.unique(np.searchsorted(grid, estimate))
        lo = np.where(k == 0, -np.inf, k - other)
        hi = np.where(k == n, np.inf, k - other + 1)
        assert np.all(uniform_thresholds(noise, hi) > uniform_thresholds(noise, lo))


def bisected_thresholds(noise, cuts):
    """uniform_thresholds' reference: each open cut bisected over the whole
    grid, from k = -1, which falls short of it, to GRID, which reaches it."""
    least, largest = noise.from_uniform(np.array([0.0, (GRID - 1) / GRID]))
    thresholds = np.where(cuts <= least, 0, GRID)
    open_ = (cuts > least) & (cuts <= largest)
    lo, hi, cut = np.full(open_.sum(), -1), np.full(open_.sum(), GRID), cuts[open_]
    for _ in range(54):  # GRID + 1 = 2**53 + 1 halves to 1 in 54 steps
        mid = (lo + hi) // 2
        hit = noise.from_uniform(mid / GRID) >= cut
        lo, hi = np.where(hit, lo, mid), np.where(hit, mid, hi)
    assert np.all(hi == lo + 1)
    thresholds[open_] = hi
    return thresholds


def threshold_cuts(noise, n):
    """Integer, half-integer and scaled cuts over the audit's cells at n,
    the infinities, and cuts at and past the least and the largest
    uniform's noise."""
    least, largest = noise.from_uniform(np.array([0.0, (GRID - 1) / GRID]))
    r = np.arange(-n - 1.0, n + 2.0)
    return np.concatenate((r, r - 0.5, 0.37 * r, [-np.inf, np.inf, least - 1.0, least,
                                                  least + 0.5, largest - 0.5, largest,
                                                  largest + 0.5, largest + 1.0]))


def record_maps(monkeypatch):
    """The sizes of the arrays NoiseSpec.from_uniform maps, one per call."""
    mapped, from_uniform = [], NoiseSpec.from_uniform

    def recorded(noise, u):
        mapped.append(np.size(u))
        return from_uniform(noise, u)

    monkeypatch.setattr(NoiseSpec, "from_uniform", recorded)
    return mapped


class TestUniformThresholds:
    EPSILONS = pytest.mark.parametrize("epsilon", [1e-3, 0.01, 0.1, 0.5, 1.0, 5.0, 20.0, 200.0])
    NS = pytest.mark.parametrize("n", [2, 10, 1000])

    @EPSILONS
    @NS
    def test_match_a_bisection_over_the_whole_grid(self, epsilon, n):
        noise = NoiseSpec(epsilon)
        cuts = threshold_cuts(noise, n)
        assert np.array_equal(uniform_thresholds(noise, cuts), bisected_thresholds(noise, cuts))

    @EPSILONS
    def test_a_far_guess_falls_back_to_the_whole_grid(self, monkeypatch, epsilon):
        # The guess only narrows the first bracket: a cut whose guessed
        # bracket misses it is bisected over the whole grid, with the same
        # result.  Guesses far either way mix with near ones in one call.
        noise, guess = NoiseSpec(epsilon), privacy._cdf_guess
        cuts = threshold_cuts(noise, 10)
        exact = bisected_thresholds(noise, cuts)
        offsets = np.resize([-10**9, -5, 0, 5, 10**9], cuts.size)
        mapped = record_maps(monkeypatch)
        for far in (lambda noise, cuts: guess(noise, cuts) + 10**9,
                    lambda noise, cuts: guess(noise, cuts) - offsets[:cuts.size]):
            monkeypatch.setattr(privacy, "_cdf_guess", far)
            mapped.clear()
            assert np.array_equal(uniform_thresholds(noise, cuts), exact)
            assert len(mapped) > 50

    def test_bench_shape_audit_maps_at_most_8_times(self, monkeypatch):
        # n = 10, 5 ones, epsilon 0.5, 20 bins: the guess brackets every cut
        # within a few grid points, so the thresholds take a few maps, not
        # a 54-step bisection.
        mapped = record_maps(monkeypatch)
        reports = [1] * 5 + [0] * 5
        dp_audit(estimate_observable(10, NoiseSpec(epsilon=0.5)), reports, 0, 0.5, 100_000, 20,
                 seed=5)
        assert 0 < len(mapped) <= 8


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
                                                  (1000, 1000, 5.0), (1000, 20, 0.02302585092994046)])
    def test_exact_max_is_epsilon(self, n, bins, epsilon):
        # At n = 1000 with 10,000 bins each integer has a bin of its own,
        # and the far-tail cells have masses the u-widths of the draws
        # cannot resolve; at epsilon 5 with 1000 bins, masses below the
        # smallest float, which differences of the Laplace CDF would round
        # to 0.  At criterion 7's epsilon with 20 bins, 50 integers share
        # each bin.
        reports = [1] * (n // 2) + [0] * (n - n // 2)
        report = dp_audit(estimate_observable(n, NoiseSpec(epsilon=epsilon)), reports, 0,
                          epsilon, max(100_000, 50 * bins), bins, seed=7)
        assert report.verdict == "Pass"
        assert abs(report.max_log_ratio - epsilon) <= 1e-9
        log_ratio = report.table["log_ratio"]
        assert np.all(np.abs(log_ratio) <= epsilon + AUDIT_SLACK)
        if epsilon == 5.0:
            assert np.isfinite(log_ratio).all()
            r = np.arange(-n // 2, n // 2 + 1)
            log_cell = laplace_log_mass(r - 0.5, r + 0.5, 1.0 / epsilon)
            assert np.sum(log_cell < np.log(np.finfo(float).tiny)) > 100

    @pytest.mark.parametrize("n, bins, epsilon", [(10, 20, 0.5), (1000, 10_000, 0.5),
                                                  (50, 37, 1.3)])
    def test_log_ratios_match_brute_force(self, n, bins, epsilon):
        # The estimate is clipped into [0, 1], so its bins hold all the
        # mass, and each bin's log ratio is that of the brute-force masses.
        observable = estimate_observable(n, NoiseSpec(epsilon=epsilon))
        reports = [1] * 7 + [0] * (n - 7)
        report = dp_audit(observable, reports, 0, epsilon, 50 * bins + 100_000, bins, seed=3)
        base, flipped = (brute_force_masses(observable, side, bins)
                         for side in (reports, flip(reports, 0)))
        reached = (base > 0.0) | (flipped > 0.0)
        assert np.all((base > 0.0) == (flipped > 0.0))
        np.testing.assert_allclose(report.table["log_ratio"][reached],
                                   np.log(base[reached] / flipped[reached]), rtol=0.0, atol=1e-9)
        assert np.all(report.table["log_ratio"][~reached] == 0.0)

    @pytest.mark.parametrize("n, bins, epsilon", [(10, 20, 0.5), (1000, 10_000, 0.5),
                                                  (50, 37, 1.3)])
    def test_bin_masses_sum_to_one(self, monkeypatch, n, bins, epsilon):
        # The estimate is clipped into [0, 1], so its bins hold all the
        # mass: the audit's noise cells tile the line, and the brute-force
        # masses of either neighbor's bins sum to one.
        log_masses = []
        log_mass = privacy.laplace_log_mass

        def recorded(lo, hi, scale):
            log_masses.append(log_mass(lo, hi, scale))
            return log_masses[-1]

        monkeypatch.setattr(privacy, "laplace_log_mass", recorded)
        observable = estimate_observable(n, NoiseSpec(epsilon=epsilon))
        reports = [1] * 7 + [0] * (n - 7)
        dp_audit(observable, reports, 0, epsilon, 50 * bins + 100_000, bins, seed=3)
        assert len(log_masses) == 1
        assert abs(np.exp(log_masses[0]).sum() - 1.0) <= 1e-12
        for side in (reports, flip(reports, 0)):
            assert abs(brute_force_masses(observable, side, bins).sum() - 1.0) <= 1e-12

    def test_disabled_noise_is_a_point_mass_at_zero(self):
        # Only r = 0 is drawn: each neighbor's whole mass and every trial
        # sit in the bin of its noiseless estimate, 0.5 or 0.4.
        report = dp_audit(estimate_observable(10, NoiseSpec(epsilon=0.5, mode="disabled")),
                          [1] * 5 + [0] * 5, 0, 0.5, 100_000, 20, seed=3)
        table = report.table
        assert np.flatnonzero(table["count_base"]).tolist() == [10]
        assert np.flatnonzero(table["count_flipped"]).tolist() == [8]
        assert table["log_ratio"][10] == np.inf and table["log_ratio"][8] == -np.inf
        assert np.count_nonzero(table["log_ratio"]) == 2

    def test_payment_observable_exact_max_is_epsilon(self):
        config = TestSharedNoiseDraw.PAYMENTS
        report = dp_audit(payment_observable(config, 3), [1] * 5 + [0] * 5, 0, 0.5, 100_000,
                          20, seed=7)
        assert report.verdict == "Pass"
        assert abs(report.max_log_ratio - 0.5) <= 1e-9

    @pytest.mark.parametrize("epsilon", [0.5, math.log(10.0) / 100.0])
    @pytest.mark.parametrize("n, ones", [(10, range(10)), (1000, range(0, 1000, 37))],
                             ids=["n10-every", "n1000-stride37"])
    def test_whole_view_is_epsilon_dp(self, n, ones, epsilon):
        # The estimate is one-to-one on clip(b_bar, 0, n), and every
        # payment is a function of it, so with n + 1 bins, one per value,
        # the audit covers all the adversary sees.  The neighbors' sums
        # run a -> a + 1.
        trials = max(100_000, 50 * (n + 1))
        for a in ones:
            reports = [1] * a + [0] * (n - a)
            report = dp_audit(estimate_observable(n, NoiseSpec(epsilon=epsilon)), reports, a,
                              epsilon, trials, n + 1, seed=7)
            assert report.verdict == "Pass"
            assert report.max_log_ratio - epsilon <= 1e-12

    @pytest.mark.parametrize("epsilon", [0.5, math.log(10.0) / 100.0])
    @pytest.mark.parametrize("ones", [0, 5, 10])
    def test_whole_view_log_ratios_in_closed_form(self, ones, epsilon):
        # With n + 1 bins, bin k holds clip(b_bar, 0, n) = k.  The noise
        # cell r has mass e^(-|r| eps) sinh(h), h = eps / 2, for r != 0 and
        # 1 - e^(-h) at r = 0.  A bin both neighbors reach off their sums
        # sees cells one step apart on the same side of 0: eps.  At a sum
        # that is not clipped the ratio of r = 0 to r = 1 is 2e^h / (1 +
        # e^(-h)); a sum of 0 or n clips its cell to P(R <= 0) = 1 - e^(-h) / 2
        # against P(R <= -1) = e^(-h) / 2, a ratio of 2e^h - 1.
        n, h = 10, epsilon / 2.0
        closed = {"same side": epsilon,
                  "at a sum": math.log(2.0 * math.exp(h) / (1.0 + math.exp(-h))),
                  "clipped sum": math.log(2.0 * math.exp(h) - 1.0)}
        observable = estimate_observable(n, NoiseSpec(epsilon=epsilon))
        reports = [1] * ones + [0] * (n - ones)
        for i in range(n):
            flipped = 1 - reports[i]
            report = dp_audit(observable, reports, i, epsilon, 100_000, n + 1, seed=7)
            sums = {ones, ones + (1 if flipped else -1)}
            for k, log_ratio in enumerate(report.table["log_ratio"]):
                form = ("same side" if k not in sums
                        else "clipped sum" if k in (0, n) else "at a sum")
                assert abs(abs(log_ratio) - closed[form]) <= 1e-12, (i, k, form)
            assert abs(report.max_log_ratio - epsilon) <= 1e-12

    def test_payment_is_no_more_revealing_than_the_whole_view(self):
        # Each payment is a function of clip(b_bar, 0, n), so no payment
        # of a peer j of the flipped agent i has a larger ratio.
        config = TestSharedNoiseDraw.PAYMENTS
        n, reports = config.n, [1] * 5 + [0] * 5
        for i in range(n):
            whole = dp_audit(estimate_observable(n, config.noise), reports, i, config.epsilon,
                             100_000, n + 1, seed=7).max_log_ratio
            for j in set(range(n)) - {i}:
                report = dp_audit(payment_observable(config, j), reports, i,
                                  config.epsilon, 100_000, 20, seed=7)
                assert report.max_log_ratio <= whole + 1e-12, (i, j)

    @pytest.mark.parametrize("n, bins", [(10, 20), (1000, 10_000)])
    def test_counts_within_five_sigma_of_the_exact_masses(self, n, bins):
        # Each bin of the estimate holds the b_bar = k in [n lo, n hi) and
        # the end bins the clip atoms; the neighbor with sum T reaches k
        # with the chance that R = k - T.  The masses here come from
        # scipy's CDF, apart from the audit's own.
        trials, edges = 1_000_000, np.linspace(0.0, 1.0, bins + 1)
        reports = [1] * (n // 2) + [0] * (n - n // 2)
        report = dp_audit(estimate_observable(n, NoiseSpec(epsilon=0.5)), reports, 0, 0.5,
                          trials, bins, seed=7)
        expected = []
        for total, column in ((n // 2, "count_base"), (n // 2 - 1, "count_flipped")):
            # R <= x - 1/2 below each edge x = n lo - T, so a bin holds the
            # noise mass between its two edges' round-ups.
            x = np.ceil(n * edges - total) - 0.5
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


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: dp_audit(estimate_observable(4, NoiseSpec(epsilon=0.5)), [1, 2, 0, 0], 0, 0.5,
                      100_000, 20, seed=3), ValueError, "reports must be 0/1 bits"),
    (lambda: dp_audit(estimate_observable(4, NoiseSpec(epsilon=0.5)), [1, 1, 0, 0], 0, 0.0,
                      100_000, 20, seed=3), ValueError, "epsilon_claimed must be positive, got 0.0"),
], ids=["report-bits", "epsilon-claimed"])
def test_input_checks(call, error, fragment):
    with pytest.raises(error, match=fragment):
        call()
