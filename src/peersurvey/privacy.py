"""Laplace perturbation of the report sum and empirical privacy auditing.

The mechanism protects participants by adding a single Laplace draw of scale
1/epsilon to the report sum (sensitivity 1) and publishing only clamped
functions of the noisy sum.  `dp_audit` draws that noise once per trial,
histograms the output on two neighboring report vectors that share the draw
and bounds each bin's log probability ratio from below; it can refute a
privacy claim but can never prove one.  `bin_counts` counts each block with
numpy's own equal-width histogram rule, on one table of edges per audit.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaincinv

from ._util import as_generator, chunk_sizes, report_dict, subseed_rng

NOISE_MODES = ("sample", "disabled")

PASS = "Pass"
FAIL = "Fail"

# Histogram bins with fewer pooled counts than this are too noisy to compare.
DEFAULT_BIN_FLOOR = 50.0
DEFAULT_TOLERANCE = 0.05
# Chance that any bin's confidence interval misses its true ratio.
AUDIT_ERROR_RATE = 0.05

# The fewest trials `dp_audit` accepts.
AUDIT_MIN_TRIALS = 100_000
# Trials per noise draw inside one of `dp_audit`'s 2**20-trial chunks: 128 KiB
# per float array, small enough that the allocator recycles numpy's
# temporaries instead of faulting fresh pages in for each.
AUDIT_BLOCK = 1 << 14


class AuditDataError(RuntimeError):
    """Raised when every histogram bin is below the audit's count floor."""


@dataclass(frozen=True)
class NoiseSpec:
    """Noise configuration: epsilon > 0 and a sampling mode.

    Mode "disabled" replaces the draw with exactly zero; it exists for
    deterministic tests and is never the default.
    """

    epsilon: float
    mode: str = "sample"

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.mode not in NOISE_MODES:
            raise ValueError(f"mode must be one of {NOISE_MODES}, got {self.mode!r}")

    @property
    def scale(self):
        return 1.0 / self.epsilon


def laplace_inverse_cdf(u, scale):
    """Map uniform u in [0, 1] to a Laplace(0, scale) variate; u=0.5 -> -0.0.

    The halves scale*log(2u) below 1/2 and -scale*log(2 - 2u) above share
    one log: min(2u, 2 - 2u) is the argument on either side, and the sign
    of 1/2 - u, negated, puts the result on the right side of 0.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    u = np.asarray(u, dtype=np.float64)
    val = np.multiply(u, 2.0, out=np.empty(u.shape))
    np.minimum(val, 2.0 - val, out=val)
    with np.errstate(divide="ignore"):
        np.log(val, out=val)
    val *= scale
    np.copysign(val, 0.5 - u, out=val)
    np.negative(val, out=val)
    return float(val) if val.ndim == 0 else val


def laplace_sample(scale, rng, size=None):
    """Laplace(0, scale) draws via the inverse-CDF transform of rng.random()."""
    rng = as_generator(rng)
    u = rng.random(size)
    # rng.random() can return exactly 0.0; nudge to keep the transform finite.
    u = np.maximum(u, np.finfo(np.float64).tiny)
    return laplace_inverse_cdf(u, scale)


def noise_draw(noise, rng, size=None):
    """One noise draw per trial: Laplace(1/epsilon) or exact zeros."""
    if noise.mode == "disabled":
        return 0.0 if size is None else np.zeros(size)
    return laplace_sample(noise.scale, rng, size)


def bin_counts(values, edges):
    """Counts of `values` in the equal-width bins `edges` over [0, 1].

    The same counts as numpy's histogram over edges.size - 1 bins with
    range (0, 1), by its rule: values outside [0, 1] and NaN are dropped,
    each value v goes to bin floor(v * bins), capped at the last, and one
    step down or up moves it to the bin whose edges hold it when rounding
    put it next door.  Only the last bin includes its right edge.  The cost
    is O(len(values)) whatever the number of bins.
    """
    bins = edges.size - 1
    keep = (values >= 0.0) & (values <= 1.0)
    if not keep.all():
        values = values[keep]
    k = (values * bins).astype(np.intp)
    np.minimum(k, bins - 1, out=k)
    k -= values < edges.take(k)
    k += (values >= edges.take(k + 1)) & (k != bins - 1)
    return np.bincount(k, minlength=bins)


def max_log_count_ratio(counts_a, counts_b):
    """Largest |log(count_a / count_b)| over bins with enough pooled mass.

    A bin enters the comparison when its average count across the two
    histograms is at least DEFAULT_BIN_FLOOR; a retained bin that is empty on
    one side yields an infinite ratio.  Raises AuditDataError when no bin
    qualifies.
    """
    counts_a = np.asarray(counts_a, dtype=np.float64)
    counts_b = np.asarray(counts_b, dtype=np.float64)
    if counts_a.shape != counts_b.shape:
        raise ValueError("count arrays must have identical shapes")
    retained = (counts_a + counts_b) / 2.0 >= DEFAULT_BIN_FLOOR
    if not retained.any():
        raise AuditDataError("no histogram bin reaches the count floor; "
                             "increase trials or reduce bins")
    with np.errstate(divide="ignore"):
        log_ratio = np.abs(np.log(counts_a[retained]) - np.log(counts_b[retained]))
    return float(np.max(log_ratio)), retained


def log_ratio_lower_bounds(counts_a, counts_b):
    """Simultaneous lower confidence bounds on each bin's |log(p_a / p_b)|.

    Given a bin's pooled count, count_a is Bin(count_a + count_b, r) with
    r = p_a / (p_a + p_b), so p_a / p_b = r / (1 - r).  Each of the k bins
    takes the Clopper-Pearson interval for r at level 1 - AUDIT_ERROR_RATE / k
    (Bonferroni), and its bound is the least |log(r / (1 - r))| over that
    interval: 0 when the interval spans 1/2.
    """
    a = np.asarray(counts_a, dtype=np.float64)
    b = np.asarray(counts_b, dtype=np.float64)
    tail = AUDIT_ERROR_RATE / (2.0 * a.size)
    # An empty side pins that end of the interval at 0 or 1.
    lo = np.where(a > 0, betaincinv(np.maximum(a, 1.0), b + 1.0, tail), 0.0)
    hi = np.where(b > 0, betaincinv(a + 1.0, np.maximum(b, 1.0), 1.0 - tail), 1.0)
    with np.errstate(divide="ignore"):
        return np.maximum.reduce([np.log(lo) - np.log1p(-lo), np.log1p(-hi) - np.log(hi),
                                  np.zeros_like(lo)])


@dataclass(frozen=True)
class DpAuditReport:
    """Outcome of an empirical privacy audit on one pair of neighbors.

    `verdict` is Pass when max_log_ratio_lower, the largest of the bins'
    simultaneous lower confidence bounds, is at most epsilon_claimed +
    tolerance: a Pass only means the histogram test found no violation at
    this sample size, a Fail refutes the claimed epsilon at the 95% level.
    `table`, outside to_dict, holds the CLI's CSV columns, one row per bin:
    bin_lo, bin_hi, the int64 count_base and count_flipped, retained (1
    where the mean count reaches DEFAULT_BIN_FLOOR, else 0) and log_ratio =
    log(count_base) - log(count_flipped), 0 where both counts are 0.
    """

    epsilon_claimed: float
    max_log_ratio: float
    max_log_ratio_lower: float
    bins: int
    trials: int
    tolerance: float
    table: dict = field(default_factory=dict, compare=False)

    @property
    def verdict(self):
        return PASS if self.max_log_ratio_lower <= self.epsilon_claimed + self.tolerance else FAIL

    def to_dict(self):
        return {**report_dict(self), "verdict": self.verdict}


def dp_audit(
    observable,
    reports,
    i,
    flipped_bit,
    epsilon_claimed,
    trials,
    bins,
    seed,
    tolerance=DEFAULT_TOLERANCE,
):
    """Histogram `observable` on two neighboring report vectors and compare
    bin counts.

    Parameters
    ----------
    observable : mechanism.Observable
        Its `noise` is drawn once per trial, and that one draw x feeds both
        neighbors: each histograms `of_b_bar(reports, sum(reports) + x)`, a
        value in [0, 1].
    reports : sequence of 0/1 report bits.
    i, flipped_bit : the single index to flip and the bit it flips to,
        which must be 1 - reports[i].
    epsilon_claimed : privacy level under test.
    trials, bins, seed : sample size, equal-width bin count over
        [0, 1], and the audit seed.  Chunk k of 2**20 trials reads the
        stream subseed_rng(seed, k) in order, AUDIT_BLOCK trials at a time.
        Each block is counted by `bin_counts` on the one edge table that
        also gives the report's bin_lo and bin_hi columns.
    """
    reports = np.asarray(reports, dtype=np.int64)
    if not np.all((reports == 0) | (reports == 1)):
        raise ValueError("reports must be 0/1 bits")
    if not 0 <= i < reports.size:
        raise ValueError(f"index i out of range, got {i}")
    if flipped_bit != 1 - reports[i]:
        raise ValueError(f"flipped_bit must flip reports[i] to {1 - reports[i]}, got {flipped_bit}")
    trials = int(trials)
    if trials < AUDIT_MIN_TRIALS:
        raise ValueError(f"trials must be at least {AUDIT_MIN_TRIALS}, got {trials}")
    bins = int(bins)
    if bins < 2:
        raise ValueError(f"bins must be at least 2, got {bins}")
    if not epsilon_claimed > 0.0:
        raise ValueError(f"epsilon_claimed must be positive, got {epsilon_claimed}")

    neighbor = reports.copy()
    neighbor[i] = flipped_bit

    edges = np.linspace(0.0, 1.0, bins + 1)
    counts_a = np.zeros(bins, dtype=np.int64)
    counts_b = np.zeros(bins, dtype=np.int64)
    sides = ((reports, int(reports.sum()), counts_a), (neighbor, int(neighbor.sum()), counts_b))
    for chunk, size in chunk_sizes(trials, 1 << 20):
        rng = subseed_rng(seed, chunk)
        for _, block in chunk_sizes(size, AUDIT_BLOCK):
            x = noise_draw(observable.noise, rng, block)
            for side, total, counts in sides:
                out = observable.of_b_bar(side, total + x)
                counts += bin_counts(out, edges)

    max_log_ratio, retained = max_log_count_ratio(counts_a, counts_b)
    lower = float(np.max(log_ratio_lower_bounds(counts_a[retained], counts_b[retained])))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.log(counts_a) - np.log(counts_b)
    return DpAuditReport(
        epsilon_claimed=float(epsilon_claimed),
        max_log_ratio=max_log_ratio,
        max_log_ratio_lower=lower,
        bins=bins,
        trials=trials,
        tolerance=float(tolerance),
        table={
            "bin_lo": edges[:-1],
            "bin_hi": edges[1:],
            "count_base": counts_a,
            "count_flipped": counts_b,
            "retained": retained.astype(np.int64),
            "log_ratio": np.where(np.isnan(log_ratio), 0.0, log_ratio),
        },
    )
