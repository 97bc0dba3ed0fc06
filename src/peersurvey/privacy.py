"""Laplace perturbation of the report sum and the privacy audit.

The mechanism protects participants by adding a single Laplace draw of scale
1/epsilon to the report sum (sensitivity 1) and publishing only clamped
functions of the noisy sum.  An audited output is monotone in the noisy sum,
so each neighbor's histogram bin is a step function of the noise:
`dp_audit` finds the noise values at which it changes (`bin_index`, a
searchsorted in the edges, keeps numpy's histogram rule), takes each bin's
exact Laplace mass between them (`laplace_log_mass`) and decides the privacy
claim from the largest log mass ratio of the two neighbors.  As a
cross-check it also histograms `trials` sampled draws: the uniforms
rng.random() returns whose noise falls between consecutive cut points form
a run of the 2**53-point grid (`uniform_thresholds`), so the counts of
those cells are one multinomial draw, which it maps to both neighbors' bins
and compares with the exact masses.
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
# audit fails: room for rounding in the cut points and the masses.
AUDIT_SLACK = 1e-9

# The fewest trials `dp_audit` accepts.
AUDIT_MIN_TRIALS = 100_000

_MAX = np.finfo(np.float64).max
_SIGN_BIT = np.int64(-1 << 63)
# rng.random() returns k * 2**-53 for an integer k in [0, 2**53).
_GRID = 1 << 53


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


def noise_draw(noise, rng, size=None):
    """Per trial, noise.from_uniform(rng.random()) from the numpy Generator
    rng; zeros, with no draw, if disabled."""
    if noise.mode == "disabled":
        return 0.0 if size is None else np.zeros(size)
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


def _key(x):
    """The int64 key of the float64 x: see `_unkey`."""
    bits = np.float64(x).view(np.int64)
    return bits if bits >= 0 else -(bits ^ _SIGN_BIT)


def _unkey(key):
    """The float64 of each int64 key: a key k >= 0 is the bits of the float
    k, a key k < 0 those of -float(-k), so keys and floats share one order."""
    return np.where(key < 0, -key | _SIGN_BIT, key).view(np.float64)


def _bisect(reached, a, b):
    """Each entry's least int64 key in (a, b] at which `reached`, monotone
    in the key, holds, given it is false at a and true at b: at most 64
    steps, each calling `reached` on every entry, at its a once converged.
    """
    # b - a can overflow int64, so the loop compares b with a + 1, and the
    # midpoint halves each end before adding.
    while np.any(b > a + 1):
        mid = (a >> 1) + (b >> 1) + (a & b & 1)
        hit = reached(mid)
        b = np.where(hit, mid, b)
        a = np.where(hit, a, mid)
    return b


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
    keys = _bisect(lambda key: sign * f(_unkey(key)) >= targets,
                   np.full(targets.size, _key(lo)), np.full(targets.size, _key(hi)))
    return np.unique(_unkey(keys))


def uniform_thresholds(noise, cuts):
    """For each noise value in `cuts`, the least k in [0, 2**53] with
    noise.from_uniform(k 2**-53) >= cut.

    rng.random() returns k 2**-53 for k in [0, 2**53), each with chance
    2**-53, and from_uniform is monotone: the draws at or past a cut are
    those with k at or past its threshold.  k = -1, where the bisection
    starts, never counts as reached: from_uniform would raise its uniform.
    """
    return _bisect(lambda k: (k >= 0) & (noise.from_uniform(k / _GRID) >= cuts),
                   np.full(cuts.size, -1), np.full(cuts.size, _GRID))


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


def _bin_of_noise(observable, reports, edges):
    """The bin of the observable on `reports` as a function of the noise x."""
    total = int(reports.sum())
    return lambda x: bin_index(observable.of_b_bar(reports, total + x), edges)


def _log_masses(bin_of, lo, cuts, noise, bins):
    """Each bin's exact log mass under the noise, -inf where it has none.

    bin_of is a monotone step function of the noise x, constant from `lo`,
    the least noise drawn, up to the first of its `cuts` and between
    consecutive ones; each cell adds its Laplace mass to its bin.  Noise
    "disabled" draws only x = 0: lo is 0 and there are no cuts, so one cell
    holds the whole line, whose log mass 0 is the point mass at 0.
    """
    cell_mass = laplace_log_mass(np.append(-np.inf, cuts), np.append(cuts, np.inf), noise.scale)
    cell_bin = bin_of(np.append(lo, cuts))
    inside = (cell_bin >= 0) & (cell_bin < bins)
    log_mass = np.full(bins, -np.inf)
    np.logaddexp.at(log_mass, cell_bin[inside], cell_mass[inside])
    return log_mass


def _counts_by_cell(sides, lo, cuts, noise, trials, seed, bins):
    """Each side's bin counts of `trials` draws of the noise.

    The cells between both sides' sorted noise cut points `cuts`, from
    `lo`, the least noise drawn, hold the runs of uniforms between
    consecutive `uniform_thresholds`.  One multinomial draw from
    subseed_rng(seed, 0) with those shares of the 2**53 uniforms counts the
    cells, as counting one uniform per trial would, and each count goes, in
    int64, to the bin each side gives its cell's left end.  Where a side's
    bin differs from its cell's just below a cut or at a uniform j 2**-14,
    ValueError; a non-monotone observable whose bins differ only between
    those points is counted wrongly without one.
    """
    thresholds = uniform_thresholds(noise, cuts)
    bin_of_cell = [f(np.append(lo, cuts)) for f in sides]

    def check(x, cell):
        for f, bin_of in zip(sides, bin_of_cell):
            if np.any(f(x) != bin_of.take(cell)):
                raise ValueError("the observable is not monotone in b_bar: its bins do not "
                                 "follow its cut points")

    check(np.nextafter(cuts, -np.inf), np.arange(cuts.size))
    k = np.arange(0, _GRID, _GRID >> 14)
    check(noise.from_uniform(k / _GRID), np.searchsorted(thresholds, k, "right"))
    shares = np.diff(thresholds, prepend=0, append=_GRID) / _GRID
    cells = subseed_rng(seed, 0).multinomial(trials, shares)
    counts = np.zeros((len(sides), bins + 2), dtype=np.int64)
    for count, bin_of in zip(counts, bin_of_cell):
        np.add.at(count, bin_of + 1, cells)
    return counts[:, 1:-1]


def dp_audit(observable, reports, i, flipped_bit, epsilon_claimed, trials, bins, seed):
    """Decide whether `observable` is epsilon_claimed-DP on two neighboring
    report vectors from each bin's exact mass, and histogram sampled draws
    as a cross-check.

    Parameters
    ----------
    observable : mechanism.Observable
        Both neighbors histogram `of_b_bar(reports, sum(reports) + x)` for
        the same noise x, a value in [0, 1] that must be monotone in b_bar.
        Each neighbor's bin, a searchsorted (`bin_index`) in the one edge
        table that also gives the report's bin_lo and bin_hi columns, is
        then a step function of x, constant between the cut points that one
        `cut_points` search finds over the whole float line, and a bin's
        exact mass is the Laplace mass of its cells (`laplace_log_mass`).
        Noise "disabled" draws only x = 0, so the search spans [0, 0] and
        finds no cut point: each neighbor's bin at 0 holds mass 1.  The
        verdict reads those masses only.
    reports : sequence of 0/1 report bits.
    i, flipped_bit : the single index to flip and the bit it flips to,
        which must be 1 - reports[i].
    epsilon_claimed : privacy level under test.
    trials, bins, seed : the cross-check's sample size, the equal-width bin
        count over [0, 1], at most trials / DEFAULT_BIN_FLOOR, and its
        seed.  The counts have the law of drawing one uniform u per trial
        with rng.random() and x = noise.from_uniform(u), but no uniform is
        drawn: the cells between both neighbors' cut points each hold a
        run of the 2**53 uniforms (`uniform_thresholds`), and their counts
        are one multinomial draw from subseed_rng(seed, 0).  Each cell's
        count goes to the bin each neighbor gives its left end: the counts
        of the values per trial, less those outside [0, 1].  Checked just
        below each cut point and at the 2**14 uniforms j 2**-14, a bin
        that disagrees raises ValueError; a non-monotone observable can be
        miscounted, and its masses miscomputed, without an error.
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
    if not 2 <= bins <= max_audit_bins(trials):
        raise ValueError(f"bins must lie in [2, trials / {DEFAULT_BIN_FLOOR:g}] = "
                         f"[2, {max_audit_bins(trials)}], got {bins}")
    if not epsilon_claimed > 0.0:
        raise ValueError(f"epsilon_claimed must be positive, got {epsilon_claimed}")

    neighbor = reports.copy()
    neighbor[i] = flipped_bit
    edges = np.linspace(0.0, 1.0, bins + 1)
    noise = observable.noise
    sides = [_bin_of_noise(observable, side, edges) for side in (reports, neighbor)]
    lo, hi = (0.0, 0.0) if noise.mode == "disabled" else (-_MAX, _MAX)
    cuts = [cut_points(f, lo, hi) for f in sides]

    counts = _counts_by_cell(sides, lo, np.unique(np.concatenate(cuts)), noise, trials, seed, bins)
    log_p = np.array([_log_masses(f, lo, c, noise, bins) for f, c in zip(sides, cuts)])
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
