"""Laplace perturbation of the report sum and empirical privacy auditing.

The mechanism protects participants by adding a single Laplace draw of scale
1/epsilon to the report sum (sensitivity 1) and publishing only clamped
functions of the noisy sum.  `dp_audit` draws that noise once per trial,
histograms the output on two neighboring report vectors that share the draw
and bounds each bin's log probability ratio from below; it can refute a
privacy claim but can never prove one.  An audited output is monotone in
the noisy sum, and the noise in the uniform behind it, so each neighbor's
bin is a step function of that uniform: `dp_audit` finds the uniforms at
which either neighbor's bin changes within the span the draws reach
(`bin_index` gives a value's bin by numpy's own equal-width histogram rule),
counts the uniforms between those cut points, never computing their noise,
with one lookup each in an equal-mass grid over [0, 1), and maps those
counts to both neighbors' bins at the end.
"""

import itertools
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
# The most cells in the grid over [0, 1) that `dp_audit` looks each uniform
# draw up in; a power of two, so that each cell holds the same share of them.
AUDIT_GRID_CELLS = 1 << 15
# Besides the first block, `dp_audit` checks every this many-th draw's bins
# against its cut table, 2**20 / AUDIT_CHECK_STRIDE draws at a time.
AUDIT_CHECK_STRIDE = 256

_MAX = np.finfo(np.float64).max
# The largest finite float64's bits, as an int64: floats in order are the
# int64 keys -_KEY_MAX .. _KEY_MAX (see `_unkey`).
_KEY_MAX = np.float64(_MAX).view(np.int64)
_SIGN_BIT = np.int64(-1 << 63)


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

    def from_uniform(self, u):
        """The noise at uniforms u in [0, 1): zeros in mode "disabled", else
        Laplace(1/epsilon); `noise_draw` and `dp_audit` both draw through it."""
        if self.mode == "disabled":
            return np.zeros(np.shape(u))
        return _laplace_of_uniform(u, self.scale)


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


def _laplace_of_uniform(u, scale):
    # rng.random() can return 0.0: nudge u to keep the transform finite,
    # copying u only then.
    tiny = np.finfo(np.float64).tiny
    return laplace_inverse_cdf(np.maximum(u, tiny) if np.min(u, initial=1.0) < tiny else u, scale)


def laplace_sample(scale, rng, size=None):
    """Laplace(0, scale) draws via the inverse-CDF transform of rng.random()."""
    return _laplace_of_uniform(as_generator(rng).random(size), scale)


def noise_draw(noise, rng, size=None):
    """Per trial, noise.from_uniform(rng.random()); zeros, with no draw, if disabled."""
    if noise.mode == "disabled":
        return 0.0 if size is None else np.zeros(size)
    return noise.from_uniform(as_generator(rng).random(size))


def bin_index(values, edges):
    """Bin of each value among the equal-width bins `edges` over [0, 1].

    numpy's histogram rule over edges.size - 1 bins with range (0, 1):
    value v goes to bin floor(v * bins), capped at the last, and one step
    down or up moves it to the bin whose edges hold it when rounding put it
    next door.  Only the last bin includes its right edge.  A value below 0
    gets -1 and one above 1, or NaN, gets `bins`: numpy's histogram drops
    them, and the index stays monotone in the value.
    """
    bins = edges.size - 1
    below = values < 0.0
    inside = (values <= 1.0) & ~below
    v = np.where(inside, values, 0.0)
    k = (v * bins).astype(np.intp)
    np.minimum(k, bins - 1, out=k)
    k -= v < edges.take(k)
    k += (v >= edges.take(k + 1)) & (k != bins - 1)
    k[~inside] = bins
    k[below] = -1
    return k


def _key(x):
    """The int64 key of the float64 x: see `_unkey`."""
    bits = np.float64(x).view(np.int64)
    return bits if bits >= 0 else -(bits ^ _SIGN_BIT)


def _unkey(key):
    """The float64 of each int64 key: a key k >= 0 is the bits of the float
    k, a key k < 0 those of -float(-k), so keys and floats share one order."""
    return np.where(key < 0, -key | _SIGN_BIT, key).view(np.float64)


def cut_points(f, lo, hi):
    """Sorted x in (lo, hi] at which the monotone step function f of a
    float64 x changes.

    For each value f takes past f(lo) up to f(hi), the smallest x in
    (lo, hi] at which f reaches it, found for all values at once by
    bisecting the floats' int64 keys: at most 64 steps.  f may rise or
    fall; a constant f has no cut points.  If f is monotone, it is constant
    from lo up to the first cut point and between consecutive ones.
    """
    ends = f(np.array([lo, hi]))
    sign = int(np.sign(ends[1] - ends[0]))
    if sign == 0:
        return np.empty(0)
    targets = sign * np.arange(ends[0] + sign, ends[1] + sign, sign)
    a = np.full(targets.size, _key(lo))
    b = np.full(targets.size, _key(hi))
    # b - a can overflow int64, so the loop compares b with a + 1, and the
    # midpoint halves each end before adding.
    while np.any(b > a + 1):
        mid = (a >> 1) + (b >> 1) + (a & b & 1)
        reached = sign * f(_unkey(mid)) >= targets
        b = np.where(reached, mid, b)
        a = np.where(reached, a, mid)
    return np.unique(_unkey(b))


class CutTable:
    """The cells between sorted cut points in [0, 1], and each uniform's cell.

    `index(u)` is the number of cut points at or below u.  A grid splits
    [0, 1) into `cells` equal cells, a power of two with at least 64 per cut
    up to AUDIT_GRID_CELLS.  A draw in a grid cell that holds no cut gets its
    index from one lookup, `table[g]` counting the cuts in cells below g (a
    draw and the cuts get their grid cells from the same monotone float
    map); a draw in a cell that holds one, from a binary search of the cuts.
    """

    def __init__(self, cuts):
        self.cuts = cuts
        self.cells = min(AUDIT_GRID_CELLS, 1 << (64 * cuts.size).bit_length())
        cut_cells = self._cell(cuts)
        # An entry per grid edge, u = 1's too; -1 marks a cell holding a cut.
        self._table = np.searchsorted(cut_cells, np.arange(self.cells + 1))
        self._table[cut_cells] = -1

    def _cell(self, u):
        return (u * self.cells).astype(np.intp)

    def index(self, u):
        k = self._table.take(self._cell(u))
        crowded = np.flatnonzero(k < 0)
        k[crowded] = np.searchsorted(self.cuts, u.take(crowded), "right")
        return k


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


def _bin_of_draw(observable, reports, edges):
    """The bin of the observable on `reports` as a function of the uniform u."""
    total, noise = int(reports.sum()), observable.noise
    return lambda u: bin_index(observable.of_b_bar(reports, total + noise.from_uniform(u)), edges)


def _noise_blocks(trials, seed):
    """The uniforms behind the audit's noise: chunk k of 2**20 trials reads
    the stream subseed_rng(seed, k) in order, AUDIT_BLOCK trials at a time."""
    for chunk, size in chunk_sizes(trials, 1 << 20):
        rng = subseed_rng(seed, chunk)
        for _, block in chunk_sizes(size, AUDIT_BLOCK):
            yield rng.random(block)


def _counts_by_cell(sides, blocks, bins, tail):
    """Each side's bin counts from the uniforms counted into the cells
    between both sides' cut points.

    Cell k holds the draws from the k-th cut (`lo` for k = 0) up to the
    next, and each side's bin is constant on it if the observable is
    monotone in b_bar.  The cuts cover the span [lo, hi]: first [tail,
    1 - tail], then widened, by the cuts of the widened part only, to take
    in any block that reaches past it.  So the bisection pays only for the
    bins that the draws can reach, however many bins there are.  The table
    is checked at every grid edge in [lo, hi], at and just below every cut,
    on the first block of draws and on every AUDIT_CHECK_STRIDE-th draw;
    where a side's bin differs, ValueError.  A non-monotone observable whose
    bins differ only between those points is counted wrongly without an
    error.
    """
    lo, hi = tail, 1.0 - tail
    side_cuts = [cut_points(f, lo, hi) for f in sides]
    table = bin_of_cell = None

    def check(u):
        cell = table.index(u)
        for f, bin_of in zip(sides, bin_of_cell):
            if np.any(f(u) != bin_of.take(cell)):
                raise ValueError("the observable is not monotone in b_bar: its bins do not "
                                 "follow its cut points")

    def tabulate():
        nonlocal table, bin_of_cell
        cuts = np.unique(np.concatenate(side_cuts))
        table = CutTable(cuts)
        grid = np.arange(table.cells + 1) / table.cells
        bin_of_cell = [f(np.append(lo, cuts)) for f in sides]
        check(np.concatenate([grid[(grid >= lo) & (grid <= hi)], cuts, np.nextafter(cuts, lo)]))

    tabulate()
    cells = np.zeros(table.cuts.size + 1, dtype=np.int64)
    first = next(blocks)
    sample = np.empty((1 << 20) // AUDIT_CHECK_STRIDE)
    filled = 0
    for u in itertools.chain([first], blocks):
        u_lo, u_hi = float(u.min()), float(u.max())
        if u_lo < lo or u_hi > hi:
            wide_lo, wide_hi = min(lo, u_lo), max(hi, u_hi)
            side_cuts = [np.concatenate([cut_points(f, wide_lo, lo), cuts,
                                         cut_points(f, hi, wide_hi)])
                         for f, cuts in zip(sides, side_cuts)]
            old_left = np.append(lo, table.cuts)
            lo, hi = wide_lo, wide_hi
            tabulate()
            # The added cuts are at or below the old lo or above the old hi,
            # so each old cell lies in the new cell that holds its left end.
            cells = np.bincount(table.index(old_left), weights=cells,
                                minlength=table.cuts.size + 1).astype(np.int64)
        cells += np.bincount(table.index(u), minlength=cells.size)
        drawn = u[::AUDIT_CHECK_STRIDE]
        if filled + drawn.size > sample.size:
            check(sample[:filled])
            filled = 0
        sample[filled:filled + drawn.size] = drawn
        filled += drawn.size
    check(sample[:filled])
    # Checked after the count: checked before it, its temporaries raised
    # the audit's peak RSS by about 0.25 MB.
    check(first)
    return [np.bincount(bin_of + 1, weights=cells, minlength=bins + 2)[1:-1].astype(np.int64)
            for bin_of in bin_of_cell]


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
        Its `noise` is drawn once per trial, x = noise.from_uniform(u), and
        that one draw feeds both neighbors: each histograms `of_b_bar(reports,
        sum(reports) + x)`, a value in [0, 1] that must be monotone in b_bar.
        The audit checks that only at its cut table's grid edges, at and just
        below each cut point, on the first AUDIT_BLOCK draws and on every
        AUDIT_CHECK_STRIDE-th draw, and raises ValueError where a bin
        disagrees; a non-monotone observable can be miscounted without an
        error.
    reports : sequence of 0/1 report bits.
    i, flipped_bit : the single index to flip and the bit it flips to,
        which must be 1 - reports[i].
    epsilon_claimed : privacy level under test.
    trials, bins, seed : sample size, equal-width bin count over
        [0, 1], and the audit seed.  Chunk k of 2**20 trials reads the
        stream subseed_rng(seed, k) in order, AUDIT_BLOCK trials at a time.  Each
        neighbor's bin, by `bin_index` on the one edge table that also gives
        the report's bin_lo and bin_hi columns, is a step function of u, and
        the audit counts the u, never computing x: `cut_points` finds where
        a bin steps within a span that is widened to take in every draw;
        each block is counted into the cells between both neighbors' cut
        points by `CutTable.index`, and each cell's count goes to the bin
        each neighbor gives its left end.  The counts are those of the
        values per trial, less those outside [0, 1].
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
    sides = [_bin_of_draw(observable, side, edges) for side in (reports, neighbor)]
    # u lands within 1 / (2 trials**2) of 0 or 1, x past 2 * scale *
    # ln(trials), with chance 1 / trials**2, so the cut table widens past it,
    # rebuilding itself mid-count, in about one audit in `trials`; from
    # 1 / (2 trials), in about 1 - 1/e of audits.
    counts_a, counts_b = _counts_by_cell(sides, _noise_blocks(trials, seed), bins, 0.5 / trials**2)

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
