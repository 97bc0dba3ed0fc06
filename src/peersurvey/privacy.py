"""Laplace perturbation of the report sum and the privacy audit.

The mechanism protects participants by adding a single Laplace draw of scale
1/epsilon, rounded to an integer, to the report sum (sensitivity 1) and
publishing only functions of the noisy sum b_bar.  Rounding is
post-processing of the Laplace draw, so the mechanism stays epsilon-DP, and
b_bar lies on the integer grid, where both neighbors can produce every
output the other can.  An audited output reads b_bar only through
clip(b_bar, 0, n), so `dp_audit` reads it at b_bar = 0..n: each integer's
exact mass is the Laplace mass of its cell [z - 1/2, z + 1/2)
(`laplace_log_mass`), each bin's mass (`bin_index`, a searchsorted in the
edges, keeps numpy's histogram rule) the sum over its integers, and the
privacy claim is decided from the largest log mass ratio of the two
neighbors.  As a cross-check it also histograms `trials` sampled draws: the
uniforms rng.random() returns whose noise rounds to one integer form a run
of the 2**53-point grid, whose ends are bisected from the Laplace CDF's
guess (`uniform_thresholds`), so the counts of those cells are one
multinomial draw, which it maps to both neighbors' bins and compares with
the exact masses.
"""

from dataclasses import dataclass, field

import numpy as np

from ._util import report_dict, subseed_rng

NOISE_MODES = ("sample", "disabled")

PASS = "Pass"
FAIL = "Fail"

# The least count each neighbor must expect in a bin that the cross-check
# compares; an audit needs at least this many trials per bin.
DEFAULT_BIN_FLOOR = 50.0
# How far the exact max log ratio may exceed the claimed epsilon before the
# audit fails: room for rounding in the masses.
AUDIT_SLACK = 1e-9

# The fewest trials `dp_audit` accepts.
AUDIT_MIN_TRIALS = 100_000

# rng.random() returns k * 2**-53 for an integer k in [0, 2**53).
_GRID = 1 << 53
# Half the width, in grid points, of the bracket `uniform_thresholds` tries
# first around the Laplace CDF's guess of a threshold.
_BRACKET = 4


@dataclass(frozen=True)
class NoiseSpec:
    """Noise configuration: epsilon > 0 and a sampling mode.

    Mode "sample" draws Laplace(1/epsilon) and rounds it to an integer, so
    b_bar = ones + noise is an integer.  Mode "disabled" replaces the draw
    with exactly zero; it exists for deterministic tests and is never the
    default.
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
        """The noise at an array u of uniforms in [0, 1): zeros in mode "disabled",
        else the Laplace(1/epsilon) inverse CDF rounded half to even (np.rint,
        in place); `noise_draw` and `dp_audit` both draw through it."""
        if self.mode == "disabled":
            return np.zeros(u.shape)
        x = _laplace_of_uniform(u, self.scale)
        return np.rint(x, out=x)


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
    """Laplace(0, scale) draws via the inverse-CDF transform of
    rng.random(), from the numpy Generator rng."""
    return _laplace_of_uniform(rng.random(size), scale)


def laplace_log_mass(lo, hi, scale):
    """log P(lo <= X < hi) for X ~ Laplace(0, scale), elementwise, lo < hi.

    Either end may be infinite.  Left of 0 the mass is the CDF difference
    e^(hi/s) (1 - e^((lo - hi)/s)) / 2, right of 0 the survival function
    difference e^(-lo/s) (1 - e^((lo - hi)/s)) / 2, and across 0 it is
    -(expm1(lo/s) + expm1(-hi/s)) / 2.  Taken in logs with expm1, no mass
    underflows to 0 and none loses its relative precision in a tail.
    """
    lo = np.asarray(lo, dtype=np.float64) / scale
    hi = np.asarray(hi, dtype=np.float64) / scale
    # Each branch is evaluated everywhere: far ends give inf - inf, log(0)
    # or an overflowing expm1 in the branches np.where does not pick.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        one_side = np.log(0.5) + np.where(hi <= 0.0, hi, -lo) + np.log(-np.expm1(lo - hi))
        across = np.log(-0.5 * (np.expm1(lo) + np.expm1(-hi)))
    return np.where((hi <= 0.0) | (lo >= 0.0), one_side, across)


def noise_draw(noise, rng, size):
    """`size` draws of noise.from_uniform(rng.random(size)) from the numpy
    Generator rng; zeros, with no draw, if disabled."""
    if noise.mode == "disabled":
        return np.zeros(size)
    return noise.from_uniform(rng.random(size))


def bin_index(values, edges):
    """Bin of each value among the equal-width bins `edges` over [0, 1], by
    numpy's histogram rule: bin k holds edges[k] <= v < edges[k + 1], and
    the last bin also holds 1, the last edge.  A value below 0 gets -1 and
    one above 1, or NaN (np.searchsorted sorts it last), gets `bins`:
    np.histogram drops them, and the index stays monotone in the value.
    """
    return np.where(values == edges[-1], edges.size - 2,
                    np.searchsorted(edges, values, side="right") - 1)


def _cdf_guess(noise, cuts):
    """floor(2**53 F(ceil(cut) - 1/2)) for F the Laplace CDF at noise.scale:
    the rounded noise is an integer, and from_uniform rounds half to even,
    so it reaches a cut about where the Laplace draw crosses ceil(cut) - 1/2."""
    x = (np.ceil(cuts) - 0.5) / noise.scale
    tail = 0.5 * np.exp(-np.abs(x))
    return np.floor(np.where(x < 0.0, tail, 1.0 - tail) * _GRID).astype(np.int64)


def uniform_thresholds(noise, cuts):
    """For each noise value in `cuts`, the least k in [0, 2**53] with
    noise.from_uniform(k 2**-53) >= cut.

    rng.random() returns k 2**-53 for k in [0, 2**53), each with chance
    2**-53, and from_uniform is monotone: the draws at or past a cut are
    those with k at or past its threshold.  A cut that the least uniform's
    noise reaches gets 0 and one that the largest's falls short of gets
    2**53.  The others are bisected together, each step mapping only the
    entries not yet converged, from a k whose noise falls short of the cut
    to one whose noise reaches it: g - _BRACKET and g + _BRACKET around the
    Laplace CDF's guess g (`_cdf_guess`) where they do, a few steps, else
    -1 and 2**53.  Both ends are mapped before the bracket is used, so the
    result never rests on the guess.
    """
    least, largest = noise.from_uniform(np.array([0.0, (_GRID - 1) / _GRID]))
    lo, hi = np.full(cuts.size, -1), np.where(cuts <= least, 0, _GRID)
    open_ = np.flatnonzero((cuts > least) & (cuts <= largest))
    if open_.size:
        ends = np.clip(_cdf_guess(noise, cuts[open_]) + [[-_BRACKET], [_BRACKET]], 0, _GRID - 1)
        hit = noise.from_uniform(ends / _GRID) >= cuts[open_]
        bracketed = ~hit[0] & hit[1]
        lo[open_[bracketed]], hi[open_[bracketed]] = ends[:, bracketed]
    while open_.size:
        mid = (lo[open_] + hi[open_]) >> 1
        hit = noise.from_uniform(mid / _GRID) >= cuts[open_]
        hi[open_[hit]], lo[open_[~hit]] = mid[hit], mid[~hit]
        open_ = open_[hi[open_] > lo[open_] + 1]
    return hi


def max_audit_bins(trials):
    """The most bins `dp_audit` accepts for `trials`: DEFAULT_BIN_FLOOR trials each."""
    return int(trials // DEFAULT_BIN_FLOOR)


@dataclass(frozen=True)
class DpAuditReport:
    """Outcome of an exact privacy audit on one pair of neighbors.

    max_log_ratio is the exact largest |log(p_base / p_flipped)| over the
    bins either neighbor's output reaches with positive chance, inf where
    only one does; `verdict` is Pass when it is at most epsilon_claimed +
    AUDIT_SLACK.  cross_check is the histogram of `trials` sampled draws
    against the exact masses: {samples, bins_checked, max_abs_z}, each
    checked bin's z = (count - trials p) / sqrt(trials p (1 - p)) on either
    side, over the bins where both neighbors expect at least
    DEFAULT_BIN_FLOOR draws.  `table`, outside to_dict, holds the CLI's CSV
    columns, one row per bin: bin_lo, bin_hi, the int64 count_base and
    count_flipped, retained (1 on the bins the cross-check compares, else
    0) and the exact log_ratio = log(p_base) - log(p_flipped), 0 where both
    masses are 0.
    """

    epsilon_claimed: float
    max_log_ratio: float
    bins: int
    trials: int
    cross_check: dict
    table: dict = field(default_factory=dict, compare=False)

    @property
    def verdict(self):
        return PASS if self.max_log_ratio <= self.epsilon_claimed + AUDIT_SLACK else FAIL

    def to_dict(self):
        return {**report_dict(self), "verdict": self.verdict}


def dp_audit(observable, reports, i, epsilon_claimed, trials, bins, seed):
    """Decide whether `observable` is epsilon_claimed-DP on two neighboring
    report vectors, `reports` and its copy with reports[i] flipped to
    1 - reports[i], from each bin's exact mass, and histogram sampled draws
    as a cross-check.

    Parameters
    ----------
    observable : mechanism.Observable
        Both neighbors histogram `of_b_bar(reports, sum(reports) + r)` for
        the same integer noise r.  The map must read b_bar only through
        clip(b_bar, 0, n), n = len(reports): it is read at b_bar = -1..n + 1,
        and where its value at -1 differs from that at 0, or at n + 1 from
        that at n, ValueError.  Each neighbor's bin at b_bar = 0..n is a
        searchsorted (`bin_index`) in the one edge table that also gives
        the report's bin_lo and bin_hi columns.  The shared noise's cells
        are the integers r from -max(sums) to n - min(sums), the two end
        cells open: past them both neighbors' b_bar clip.  Cell r's exact
        mass is the Laplace mass of [r - 1/2, r + 1/2) (`laplace_log_mass`),
        and a bin's that of its cells.  Noise "disabled" draws only r = 0:
        one cell, the whole line, of mass 1.  The verdict reads those
        masses only.
    reports : sequence of 0/1 report bits.
    i : the single index to flip.
    epsilon_claimed : privacy level under test.
    trials, bins, seed : the cross-check's sample size, the equal-width bin
        count over [0, 1], at most trials / DEFAULT_BIN_FLOOR, and its
        seed.  The counts have the law of drawing one uniform u per trial
        with rng.random() and r = noise.from_uniform(u), but no uniform is
        drawn: each noise cell holds a run of the 2**53 uniforms
        (`uniform_thresholds`), and the cells' counts are one multinomial
        draw from subseed_rng(seed, 0).  Each cell's count goes to the bin
        each neighbor gives it: the counts of the values per trial, less
        those outside [0, 1].
    """
    reports = np.asarray(reports, dtype=np.int64)
    if not np.all((reports == 0) | (reports == 1)):
        raise ValueError("reports must be 0/1 bits")
    if not 0 <= i < reports.size:
        raise ValueError(f"index i out of range, got {i}")
    trials = int(trials)
    if trials < AUDIT_MIN_TRIALS:
        raise ValueError(f"trials must be at least {AUDIT_MIN_TRIALS}, got {trials}")
    bins = int(bins)
    if not 2 <= bins <= max_audit_bins(trials):
        raise ValueError(f"bins must lie in [2, trials / {DEFAULT_BIN_FLOOR:g}] = "
                         f"[2, {max_audit_bins(trials)}], got {bins}")
    if not epsilon_claimed > 0.0:
        raise ValueError(f"epsilon_claimed must be positive, got {epsilon_claimed}")

    neighbor = reports.copy()
    neighbor[i] = 1 - reports[i]
    n, noise = reports.size, observable.noise
    edges = np.linspace(0.0, 1.0, bins + 1)
    sums = (reports.sum(), neighbor.sum())
    r = np.arange(-max(sums), n + 1 - min(sums)) if noise.mode == "sample" else np.zeros(1, int)
    cuts = r[1:] - 0.5
    log_cell = laplace_log_mass(np.append(-np.inf, cuts), np.append(cuts, np.inf), noise.scale)
    shares = np.diff(uniform_thresholds(noise, r[1:]), prepend=0, append=_GRID) / _GRID
    cells = subseed_rng(seed, 0).multinomial(trials, shares)

    log_p = np.full((2, bins), -np.inf)
    counts = np.zeros((2, bins + 2), dtype=np.int64)
    for side, total, log_mass, count in zip((reports, neighbor), sums, log_p, counts):
        values = observable.of_b_bar(side, np.arange(-1.0, n + 2.0))
        if values[0] != values[1] or values[-1] != values[-2]:
            raise ValueError("the observable must read b_bar only through clip(b_bar, 0, n)")
        cell_bin = bin_index(values[1:-1], edges)[np.clip(total + r, 0, n)]
        inside = (cell_bin >= 0) & (cell_bin < bins)
        np.logaddexp.at(log_mass, cell_bin[inside], log_cell[inside])
        # int64: float64 bincount weights would round counts past 2**53.
        np.add.at(count, cell_bin + 1, cells)
    counts = counts[:, 1:-1]
    with np.errstate(invalid="ignore"):  # -inf - -inf: no mass on either side
        log_ratio = log_p[0] - log_p[1]
    reached = np.isfinite(log_p).any(axis=0)
    retained = np.all(trials * np.exp(log_p) >= DEFAULT_BIN_FLOOR, axis=0)
    checked = log_p[:, retained]
    expected = trials * np.exp(checked)
    gap = counts[:, retained] - expected
    # A bin of mass 1 has no spread, and its count no gap.
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(gap == 0.0, 0.0, gap / np.sqrt(-expected * np.expm1(checked)))
    return DpAuditReport(
        epsilon_claimed=float(epsilon_claimed),
        max_log_ratio=float(np.max(np.abs(log_ratio[reached]), initial=0.0)),
        bins=bins,
        trials=trials,
        cross_check={"samples": trials, "bins_checked": int(retained.sum()),
                     "max_abs_z": float(np.max(np.abs(z), initial=0.0))},
        table={
            "bin_lo": edges[:-1],
            "bin_hi": edges[1:],
            "count_base": counts[0],
            "count_flipped": counts[1],
            "retained": retained.astype(np.int64),
            "log_ratio": np.where(reached, log_ratio, 0.0),
        },
    )
