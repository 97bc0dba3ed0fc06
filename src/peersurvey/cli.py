"""Command-line entry points: JSON config in, JSON report out, CSV records.

The config file alone decides what a command computes, its seed included;
the command line names only the config and, with --out, where the CSV
goes.  Every command reads its config through one `Resolver`, which
applies a single rule per key, and rejects every config key the command
never read, before its driver runs and before it writes any output.
Every report carries the same `resolved` block: epsilon, beta, tau, p0, p1
and seed, null where the command did not use one.

Exit codes: 0 on a Pass verdict or plain completion, 1 on a config or usage
error (the diagnostic names the offending key or --out), 2 on a Fail
verdict, 4 on an internal error (a bug; the traceback goes to stderr).
"""

import argparse
import json
import math
import os
import sys
import traceback
from collections import defaultdict
from functools import cache, cached_property
from types import SimpleNamespace

import numpy as np

from ._util import check_seed, cross_check, derive_seed, is_number
from .agents import (
    ABSTAIN,
    ACTIONS,
    AlwaysTruth,
    CostModel,
    peer_estimate_mc,
    strategy_from_dict,
)
from .equilibrium import (
    ACCURACY_MIN_TRIALS,
    COST_SCALING_MIN_TRIALS,
    EQUILIBRIUM_MIN_TRIALS,
    accuracy_experiment,
    best_response_audit,
    beta_rule,
    cost_scaling_experiment,
    epsilon_rule,
    simulate_survey,
)
from .mechanism import MechanismConfig, estimate_observable, payment_observable
from .priors import (
    CostSearchError,
    PriorSpec,
    cost_threshold_parts,
    group_prob_mc,
    posterior_bit_prob,
    posterior_clamped_mean,
)
from .privacy import (AUDIT_MIN_TRIALS, DEFAULT_BIN_FLOOR, FAIL, PASS, NoiseSpec, dp_audit,
                      max_audit_bins)

EXIT_BY_VERDICT = {PASS: 0, FAIL: 2}

# The smallest trial count each command's driver accepts; 1 elsewhere.
_MIN_TRIALS = {"audit-dp": AUDIT_MIN_TRIALS, "audit-equilibrium": EQUILIBRIUM_MIN_TRIALS,
               "accuracy": ACCURACY_MIN_TRIALS, "cost-scaling": COST_SCALING_MIN_TRIALS}

# Values that mean "derive", as a missing key does.
_DERIVE = {"epsilon": "auto", "beta": "auto", "tau": "auto", "p0": None, "p1": None}

_DEFAULT_STRATEGY = {"kind": "threshold", "tau": "auto", "off": ABSTAIN}

_REQUIRED = object()


class ConfigError(Exception):
    """Invalid or missing configuration; carries the offending config key,
    or the option (--out) at fault."""

    def __init__(self, key, message):
        super().__init__(f"{key}: {message}" if key.startswith("--")
                         else f"config key '{key}': {message}")
        self.key = key


class Resolver:
    """A command's config, resolved key by key.

    Each key has one rule, applied the first time the key is read and
    cached: it takes the config value, checks its type and range, and
    raises ConfigError naming the key when the check fails.  `out` is the
    --out path, or None; it is not a config key.  The public cached
    properties are the config keys (`KEYS`); a read key is in the instance
    dict, which is how `reject_unread` finds the keys a command never read.
    A key means the same in every command that reads it, so a run config
    also serves audit-equilibrium.  Only cost-scaling derives tau, p0, p1
    and the strategy itself, at each n (`driver_parameters`), and rejects
    them.  "auto" for epsilon, beta and tau and null for p0 and p1 are
    dropped on entry: they mean the same as a missing key, which is
    derived, so a pinned tau, beta, p0, p1 or strategy skips its
    derivation.  tau, p0 and p1 are derived exactly.  When the config sets
    threshold_trials or posterior_samples, each derivation of tau or of
    p0/p1 at n also runs its Monte Carlo cross-check, on seed slot (n, 0)
    for tau and (n, 1)/(n, 2) for p0/p1 (`_slot`), and records it in
    `cross_check[n]` as a `_util.cross_check` record.  tau's samples the
    chance that defines tau (`group_prob_mc`).
    """

    def __init__(self, config, command, out):
        self.command = command
        self.out = out
        self._config = {key: value for key, value in config.items()
                        if not (key in _DERIVE and value == _DERIVE[key])}
        self.cross_check = defaultdict(dict)

    def _raw(self, key, default=_REQUIRED):
        if key in self._config:
            return self._config[key]
        if default is _REQUIRED:
            raise ConfigError(key, "is required")
        return default

    def _number(self, key, accept, need, default=_REQUIRED):
        value = self._raw(key, default)
        if not is_number(value) or not accept(value):
            raise ConfigError(key, f"must be {need}, got {value!r}")
        return float(value)

    def _integer(self, key, lo, hi=math.inf, default=_REQUIRED):
        value = self._raw(key, default)
        if type(value) is not int or not lo <= value < hi:
            span = f"at least {lo}" if hi == math.inf else f"in [{lo}, {hi})"
            raise ConfigError(key, f"must be an integer {span}, got {value!r}")
        return value

    def _object(self, key, build, raw):
        """A nested config object built from `raw`; its error names the key."""
        try:
            return build(raw)
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from exc

    def _choice(self, key, options, default):
        value = self._raw(key, default)
        if type(value) is not type(default) or value not in options:
            raise ConfigError(key, f"must be one of {options}, got {value!r}")
        return value

    def check_keys(self):
        """Reject a key no rule reads, before any work: a typo never runs."""
        for key in self._config:
            if key not in KEYS:
                raise ConfigError(key, "is not a config key")

    def reject_unread(self):
        """Reject every config key the run has not read, once it has read
        every input: `seed` too, where no draw used it."""
        for key in self._config:
            if key not in self.__dict__:
                raise ConfigError(key, f"is not read by {self.command}")

    def pinned(self, key):
        """Whether the config sets a key that would otherwise be derived."""
        return key in self._config

    def _used_pinned(self, key):
        """Whether the run read the value the config pinned for `key`; a
        driver that derives the key itself never does."""
        return self.pinned(key) and key in self.__dict__

    def resolved(self, **used):
        """The `resolved` block: each key as read (cached_property keeps it in
        the instance dict), or as `used` gives it when a driver derived it."""
        return {key: used.get(key, self.__dict__.get(key))
                for key in ("epsilon", "beta", "tau", "p0", "p1", "seed")}

    @cached_property
    def n(self):
        return self._integer("n", 2)

    @cached_property
    def trials(self):
        return self._integer("trials", _MIN_TRIALS.get(self.command, 1))

    @cached_property
    def posterior_samples(self):
        """Draws of the p0/p1 cross-check; None, and no cross-check, when unset."""
        return self._integer("posterior_samples", 1) if "posterior_samples" in self._config else None

    @cached_property
    def threshold_trials(self):
        """Sampled theta of the tau cross-check; None, and no cross-check, when unset."""
        return self._integer("threshold_trials", 1) if "threshold_trials" in self._config else None

    @cached_property
    def ns(self):
        ns = self._raw("ns")
        if not (isinstance(ns, list) and all(type(n) is int and n >= 2 for n in ns)
                and len(set(ns)) == len(ns) >= 2):
            raise ConfigError("ns", f"must list at least two integers of at least 2, none "
                                    f"repeated, got {ns!r}")
        for n in ns:
            epsilon = epsilon_rule(self.alpha, self.delta, n)
            if epsilon > 1.0:
                raise ConfigError("ns", f"n={n} gives epsilon={epsilon:.4g} > 1; the quadratic "
                                        "cost model does not apply")
        return ns

    @cached_property
    def seed(self):
        try:
            return check_seed(self._raw("seed"))
        except ValueError as exc:
            raise ConfigError("seed", str(exc)) from exc

    @cached_property
    def prior(self):
        return self._object("prior", PriorSpec.from_dict, self._raw("prior"))

    @cached_property
    def cost_model(self):
        model = self._object("cost_model", CostModel.from_dict,
                             self._raw("cost_model", {"kind": "linear"}))
        if model.kind == "chen" and self.epsilon > 1.0:
            raise ConfigError("epsilon", f"the quadratic (chen) cost model needs "
                                         f"epsilon <= 1, got {self.epsilon}")
        return model

    @cached_property
    def strategy(self):
        raw = self._raw("strategy", _DEFAULT_STRATEGY)
        if isinstance(raw, dict) and raw.get("kind") == "threshold" and raw.get("tau") == "auto":
            raw = dict(raw, tau=self.tau)
        return self._object("strategy", strategy_from_dict, raw)

    @cached_property
    def _conditioned_prior(self):
        """The prior, provided each own bit has positive prior probability:
        p0 and p1 condition on it, and so does tau when the cost laws differ."""
        for bit in (0, 1):
            try:
                posterior_bit_prob(self.prior, bit)
            except ValueError as exc:
                raise ConfigError("prior", str(exc)) from exc
        return self.prior

    @cached_property
    def alpha(self):
        return self._number("alpha", lambda v: 0.0 < v < 1.0, "a number in (0, 1)")

    @cached_property
    def delta(self):
        return self._number("delta", lambda v: 0.0 < v < 1.0, "a number in (0, 1)")

    @cached_property
    def epsilon(self):
        if self.pinned("epsilon"):
            return self._number("epsilon", lambda v: v > 0.0, "a positive number or 'auto'")
        if "alpha" not in self._config or "delta" not in self._config:
            raise ConfigError("epsilon", "'auto' needs alpha and delta")
        return epsilon_rule(self.alpha, self.delta, self.n)

    def _slot(self, n, k):
        """Seed of cross-check k (0 tau, 1 p0, 2 p1) at n, in every command."""
        return derive_seed(self.seed, n, k)

    def exact_tau(self, n):
        """Exact (tau, tau_group, tau_marginal) at n, sized with delta / 2."""
        prior = self.prior if self.prior.cost0 == self.prior.cost1 else self._conditioned_prior
        try:
            parts = cost_threshold_parts(prior, self.alpha, self.delta / 2.0, n)
        except CostSearchError as exc:  # the cost laws never reach the 1 - alpha level
            raise ConfigError("alpha", str(exc)) from exc
        if self.threshold_trials is not None:
            self.cross_check[n]["tau"] = group_prob_mc(prior, self.alpha, n, parts[0],
                                                       self.threshold_trials, self._slot(n, 0))
        return parts

    def exact_prediction(self, bit, n, epsilon):
        """Exact E[clamped leave-one-out estimate | own bit] at (n, epsilon)."""
        prior = self._conditioned_prior
        value = posterior_clamped_mean(prior, bit, n, epsilon)
        if self.posterior_samples is not None:
            mc, se = peer_estimate_mc(prior, bit, n, NoiseSpec(epsilon), AlwaysTruth(),
                                      self.posterior_samples, self._slot(n, 1 + bit))
            self.cross_check[n][f"p{bit}"] = cross_check(value, mc, se, self.posterior_samples)
        return value

    def driver_parameters(self, n, epsilon):
        """cost-scaling's (tau, p0, p1) at (n, epsilon), derived exactly and
        checked, so that a config its driver cannot work with fails naming
        its key."""
        tau = self.exact_tau(n)[0]
        self._check_tau(tau)
        p0, p1 = (self.exact_prediction(bit, n, epsilon) for bit in (0, 1))
        self._check_gap(n, epsilon, p0, p1)
        return tau, p0, p1

    @cached_property
    def _tau_parts(self):
        return self.exact_tau(self.n)

    @cached_property
    def tau(self):
        if self.pinned("tau"):
            return self._number("tau", lambda v: v >= 0.0, "a nonnegative number or 'auto'")
        return self._tau_parts[0]

    def _check_tau(self, tau):
        """beta is proportional to tau; a derived tau of 0 blames the prior's cost laws."""
        if not tau > 0.0:
            raise ConfigError("tau" if self._used_pinned("tau") else "prior",
                              f"tau must be positive to derive beta, got {tau}")

    @cached_property
    def beta(self):
        if self.pinned("beta"):
            return self._number("beta", lambda v: v > 0.0, "a positive number or 'auto'")
        self._check_tau(self.tau)
        return beta_rule(self.cost_model.kind, self.epsilon, self.tau)

    def _prediction(self, bit):
        if not self.pinned(f"p{bit}"):
            return self.exact_prediction(bit, self.n, self.epsilon)
        return self._number(f"p{bit}", lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")

    @cached_property
    def p0(self):
        return self._prediction(0)

    @cached_property
    def p1(self):
        return self._prediction(1)

    def _check_gap(self, n, epsilon, p0, p1):
        """The scoring rule needs alpha < |p1 - p0| / 2 (see scoring_params).
        When the prior's noiseless gap is wide enough and only the noise of
        a pinned epsilon shrinks the derived one, epsilon is to blame."""
        if self.alpha < abs(p1 - p0) / 2.0:
            return
        derived = not (self._used_pinned("p0") and self._used_pinned("p1"))
        if derived and self._used_pinned("epsilon") and self.alpha < abs(
                posterior_bit_prob(self.prior, 1) - posterior_bit_prob(self.prior, 0)) / 2.0:
            raise ConfigError("epsilon", f"its noise shrinks |p1 - p0| / 2 to {abs(p1 - p0) / 2.0} "
                                         f"at n={n}, not above alpha={self.alpha}")
        raise ConfigError("alpha", f"must be below |p1 - p0| / 2 = {abs(p1 - p0) / 2.0} at "
                                   f"n={n}, epsilon={epsilon}, got {self.alpha}")

    @cached_property
    def _mechanism(self):
        self._check_gap(self.n, self.epsilon, self.p0, self.p1)
        return MechanismConfig(n=self.n, alpha=self.alpha, beta=self.beta, epsilon=self.epsilon,
                               p0=self.p0, p1=self.p1)

    @cached_property
    def ones(self):
        return self._integer("ones", 0, self.n + 1)

    @cached_property
    def observable(self):
        return self._choice("observable", ("estimate", "payment"), "estimate")

    @cached_property
    def payment_index(self):
        return self._integer("payment_index", 1, self.n)

    @cached_property
    def bins(self):
        bins = self._integer("bins", 2, default=20)
        if bins > max_audit_bins(self.trials):
            raise ConfigError("bins", f"must be at most trials / {DEFAULT_BIN_FLOOR:g} = "
                                      f"{max_audit_bins(self.trials)}, got {bins}")
        return bins


# One key per rule; a config key outside this set is a typo or a stray.
KEYS = frozenset(name for name, rule in vars(Resolver).items()
                 if isinstance(rule, cached_property) and not name.startswith("_"))


# write_csv renders a block of rows at a time into fixed-width cell slots.
# The kernels build a slot from 2-byte words; its first byte is kept for the
# separator before it.  _PAD fills every byte that holds no character and is
# dropped at the end.  UTF-8 never uses the byte 0xFF, so a text cell keeps
# every byte it has.  In a file of more than one block, each distinct float
# bit pattern of a block is rendered once and its cell copied to every row
# that holds it.
_BLOCK_ROWS = 1 << 11
_PAD = 0xFF
# Where each form of a 2-digit pair starts in _tables().pair.
_LEAD_AT, _UNITS_AT, _TRAIL_AT, _POINT_AT = 100, 200, 300, 400


def _word_table(texts):
    """Texts of two characters each as uint16 words; a space is padding."""
    return np.frombuffer("".join(texts).encode().replace(b" ", bytes([_PAD])), np.uint16)


@cache
def _tables():
    """The words and powers of ten write_csv renders with, built on first use.

    `pair` holds every digit pair 00..99 in four forms: as is; a leading
    zero padded; a leading zero padded but the units digit kept; a trailing
    zero padded.  One more word after them is "0.".  `fraction` holds the
    two words after a float's integer digits, by kind and leading digit d:
    kinds 0..3 (decimal exponent + 4 for exponents -4..-1) hold the zeros
    after "0." and then d, kind 4 holds "." before a nonzero fraction and
    kind 5 holds nothing.
    """
    pair = _word_table([f"{n:02d}" for n in range(100)]
                       + [f"{n:2d}" if n else "  " for n in range(100)]
                       + [f"{n:2d}" for n in range(100)]
                       + [f"{n:02d}".rstrip("0").ljust(2) for n in range(100)] + ["0."])
    fraction = _word_table([("0" * k + str(d)).ljust(4) for k in (3, 2, 1, 0) for d in range(10)]
                           + [".   "] * 10 + ["    "] * 10).reshape(60, 2)
    # Python's float literals are correctly rounded, so the double nearest
    # 10**k lies above it for k = -4..-1 and equals it for k = 0..20.  No
    # double lies between 10**k and powers[k + 4], and the count of powers
    # at or below a double is its decimal exponent + 5.
    powers = np.array([float(f"1e{k}") for k in range(-4, 21)])
    return SimpleNamespace(pair=pair, fraction=fraction, powers=powers,
                           pow10_int=10 ** np.arange(17))


def _right_aligned(v, count):
    """The decimal digits of v >= 0 in the last of `count` words,
    right-aligned: leading zeros are padding, the units digit is kept."""
    t = _tables()
    words = np.empty((v.size, count), np.uint16)
    rest = v
    for j in range(count):
        power = 2 * (count - 1 - j)
        pair = rest
        if power:
            pair = rest // 10**power  # a Python int keeps uint64 in uint64
            rest = rest - pair * 10**power
        lead = v < 10 ** (power + 2) if power < 18 else True  # a uint64 is below 10**20
        words[:, j] = t.pair[pair.astype(np.intp) + np.where(
            lead, _LEAD_AT if power else _UNITS_AT, 0)]
    return words


def _text_cells(texts, width=None):
    """Cells of the given Python strs, UTF-8, `width` bytes each; by default
    the fewest whole words that hold the longest."""
    data = [text.encode() for text in texts]
    lengths = np.array([len(d) for d in data], np.intp)
    width = width or (2 + int(lengths.max())) // 2 * 2
    cells = np.full((len(data), width), _PAD, np.uint8)
    raw = np.array(data, f"S{width - 1}").view(np.uint8).reshape(len(data), width - 1)
    cells[:, 1:] = np.where(np.arange(width - 1) < lengths[:, None], raw, _PAD)
    return cells


def _float_cells(x):
    """'%.17g' of every float64 in x, one cell per value.

    For 1e-4 <= |x| < 1e17 the 17 significant digits are exact: Dekker's
    error-free product (Dekker 1971) of |x| and an exact 10**s, 0 <= s <=
    20, gives |x| * 10**s as hi + lo, which rounds half to even onto an
    integer n of 17 digits.  n's digits are laid out in fixed notation, as
    '%.17g' does for decimal exponents -4..16.  Zeros are '0' and '-0'.
    Every other value is formatted by Python, cell by cell."""
    t = _tables()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 1e-4) & (a < 1e17)
    a = np.where(fast, a, 1.0)
    x4 = np.searchsorted(t.powers, a, side="right") - 1  # decimal exponent + 4
    b = t.powers[24 - x4]  # 10**s, s = 16 - exponent, so 1e16 <= a * b < 1e17
    split = 134217729.0 * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    split = 134217729.0 * b
    b_hi = split - (split - b)
    b_lo = b - b_hi
    hi = a * b
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    # hi >= 1e16 > 2**53 is an even integer, so rounding lo half to even
    # rounds hi + lo half to even.  n stays below 1e17: the double below
    # 10**k, k >= -3, lies more than 10**k * 5e-18 below it (see _tables).
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    np.copyto(n, 0, where=zero)
    # The integer digits i and 16 fraction digits f.  Below 1, i is n's
    # leading digit, which follows "0." and the exponent's zeros.
    point = np.maximum(x4 - 4, 0)
    div = t.pow10_int[16 - point]
    i = n // div
    f = (n - i * div) * t.pow10_int[point]
    slow = np.flatnonzero(~(fast | zero))
    texts = ["%.17g" % v for v in x[slow].tolist()]
    # Room for the integer digits, and for the longest text formatted by
    # Python after the separator.
    int_words = max(1, (int(x4.max()) - 2) // 2, (max(map(len, texts), default=0) + 2) // 2 - 11)
    words = np.empty((x.size, int_words + 11), np.uint16)
    words[:, 1:int_words + 1] = _right_aligned(i, int_words)
    np.copyto(words[:, int_words], t.pair[_POINT_AT], where=x4 < 4)
    words[:, int_words + 1:int_words + 3] = t.fraction[np.where(x4 < 4, x4 * 10 + i,
                                                                40 + 10 * (f == 0))]
    for j, power in enumerate(range(14, 0, -2)):
        pair = f // t.pow10_int[power]
        f = f - pair * t.pow10_int[power]
        np.add(pair, _TRAIL_AT, out=pair, where=f == 0)
        words[:, int_words + 3 + j] = t.pair[pair]
    words[:, -1] = t.pair[f + _TRAIL_AT]
    cells = words.view(np.uint8)
    cells[:, 1] = np.where(np.signbit(x), ord("-"), _PAD)
    if texts:
        cells[slow] = _text_cells(texts, cells.shape[1])
    return cells


def _int_cells(v):
    """'%d' of every integer in v, one cell per value."""
    negative = v < 0
    magnitude = v.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=negative)
    count = (len(str(int(magnitude.max()))) + 1) // 2
    words = np.empty((v.size, count + 1), np.uint16)
    words[:, 1:] = _right_aligned(magnitude, count)
    cells = words.view(np.uint8)
    cells[:, 1] = np.where(negative, ord("-"), _PAD)
    return cells


def write_csv(path, columns):
    """Write equal-length named columns as CSV rows; nothing when path is None.

    Each column is a 1-D numpy array of floats, integers or text (dtype kind
    'f', 'i'/'u' or 'U'); any other column, columns of unequal length, or
    no column at all, raise ValueError naming it before anything is
    written.  No name or text cell holds a comma, a quote or a line break.
    Floats are written with '%.17g', 17 significant digits, so they
    round-trip exactly; integers with '%d'; text as it is; rows end in
    '\r\n'.  These are the bytes csv.writer writes for such cells, encoded
    as UTF-8.  Rows are rendered a block at a time, so memory does not grow
    with the row count.  In a block, the float columns are rendered
    together and each other column at once, by numpy.  In a file of more
    than one block, each distinct bit pattern among a block's floats is
    rendered once, so 0.0 and -0.0, and NaNs of different sign or payload,
    are never merged.  A float below 1e-4 or at least 1e17 in magnitude, or
    not finite, is formatted by Python, cell by cell.
    """
    if not columns:
        raise ValueError("CSV needs at least one column, got an empty column set")
    for name, column in columns.items():
        array = isinstance(column, np.ndarray)
        if not (array and column.ndim == 1 and column.dtype.kind in "fiuU"):
            got = f"a {column.ndim}-D {column.dtype} array" if array else type(column).__name__
            raise ValueError(f"CSV column '{name}' must be a 1-D numpy array of floats, integers "
                             f"or text, got {got}")
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"CSV columns must have equal lengths, got {lengths}")
    if path is None:
        return
    try:
        fh = open(path, "wb")
    except OSError as exc:
        raise ConfigError("--out", f"cannot write '{path}': {exc}") from exc
    values = list(columns.values())
    floats = [k for k, column in enumerate(values) if column.dtype.kind == "f"]
    # The first np.unique in a process maps numpy's sort kernels, a peak-RSS
    # cost that a file of one block has too few cells to earn back.
    dedupe = len(values[0]) > _BLOCK_ROWS
    with fh:
        fh.write((",".join(columns) + "\r\n").encode())
        for lo in range(0, len(values[0]), _BLOCK_ROWS):
            block = [column[lo:lo + _BLOCK_ROWS] for column in values]
            cells = [_int_cells(column) if column.dtype.kind in "iu"
                     else _text_cells(column.tolist()) if column.dtype.kind == "U" else None
                     for column in block]
            if floats:
                x = np.array([block[k] for k in floats], np.float64).ravel()
                if dedupe:
                    bits, inverse = np.unique(x.view(np.uint64), return_inverse=True)
                    rendered = _float_cells(bits.view(np.float64))[inverse]
                else:
                    rendered = _float_cells(x)
                for k, part in zip(floats, np.split(rendered, len(floats))):
                    cells[k] = part
            crlf = np.broadcast_to(np.frombuffer(b"\r\n", np.uint8), (len(block[0]), 2))
            text = np.concatenate(cells + [crlf], axis=1)
            text[:, np.cumsum([c.shape[1] for c in cells[:-1]], dtype=np.intp)] = ord(",")
            text[:, 0] = _PAD
            fh.write(text.tobytes().translate(None, bytes([_PAD])))


def _cross_checks(r, n):
    """The cross-checks run at n, in the order tau, p0, p1 whatever order
    the resolver derived them in."""
    return {key: r.cross_check[n][key] for key in ("tau", "p0", "p1") if key in r.cross_check[n]}


def _emit(r, body, columns=None, **used):
    """The one writer of a finished command's output.  Before it writes
    anything it rejects what `Resolver.reject_unread` rejects (the only
    check of posterior and threshold, which run no driver) and an --out
    where there is no CSV.  Then it writes `columns` as the CSV at --out
    and prints the report, whose `resolved` block takes from `used` the
    values posterior and threshold derive outside the resolver's
    properties.  A cross-check of tau, p0 or p1 joins the body's
    `cross_check` block, or starts one, except in cost-scaling, whose rows
    carry their own.  A reader that closed stdout early is not an error:
    the rest of the output is dropped."""
    r.reject_unread()
    if columns is None and r.out is not None:
        raise ConfigError("--out", f"names a CSV, but {r.command} writes none")
    if columns is not None:
        write_csv(r.out, columns)
    report = {"command": r.command, "resolved": r.resolved(**used), **body}
    if r.cross_check and r.command != "cost-scaling":
        report["cross_check"] = {**report.get("cross_check", {}), **_cross_checks(r, r.n)}
    try:
        print(json.dumps(report, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush is silent.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# Command handlers.  Each takes a Resolver, passes its report and CSV columns
# to _emit and returns the process exit code.
# ---------------------------------------------------------------------------


def _cmd_run(r):
    inputs = (r.prior, r._mechanism, r.strategy, r.trials, derive_seed(r.seed, 2000))
    r.reject_unread()
    recs = simulate_survey(*inputs)
    base = recs.base
    _emit(r, {
        "trials": r.trials,
        "n": r.n,
        "mean_abs_error": float(base.abs_error.mean()),
        "mean_total_payment": float(recs.total_payment.mean()),
        "min_payment": float(recs.min_payment.min()),
        "max_payment": float(recs.max_payment.max()),
        "mean_participants": float(base.participants.mean()),
    }, {
        "trial": np.arange(base.trials),
        "p_hat": base.p_hat,
        "p_tilde": base.p_tilde,
        "abs_error": base.abs_error,
        "total_payment": recs.total_payment,
        "min_payment": recs.min_payment,
        "max_payment": recs.max_payment,
        "participants": base.participants,
    })
    return 0


def _cmd_posterior(r):
    closed = {f"p{bit}": posterior_bit_prob(r._conditioned_prior, bit) for bit in (0, 1)}
    clamped = {f"p{bit}": r.exact_prediction(bit, r.n, r.epsilon) for bit in (0, 1)}
    gap = max(abs(closed[key] - clamped[key]) for key in ("p0", "p1"))
    _emit(r, {
        "n": r.n,
        "closed_form": closed,
        "clamped_mean": clamped,
        "max_abs_gap": gap,
    }, **clamped)
    return 0


def _cmd_threshold(r):
    tau, tau_group, tau_marginal = r._tau_parts
    _emit(r, {
        "n": r.n,
        "alpha": r.alpha,
        "delta": r.delta,
        "tau": tau,
        "tau_group": tau_group,
        "tau_marginal": tau_marginal,
    }, tau=tau)
    return 0


def _cmd_audit_dp(r):
    if r.observable == "estimate":
        observable = estimate_observable(r.n, NoiseSpec(epsilon=r.epsilon))
    else:
        observable = payment_observable(r._mechanism, r.payment_index)
    reports = [1] * r.ones + [0] * (r.n - r.ones)
    inputs = (observable, reports, 0, r.epsilon, r.trials, r.bins, derive_seed(r.seed, 3000))
    r.reject_unread()
    report = dp_audit(*inputs)
    _emit(r, report.to_dict(), report.table)
    return EXIT_BY_VERDICT[report.verdict]


def _cmd_audit_equilibrium(r):
    inputs = (r.prior, r.n, r.alpha, r.delta, r.epsilon, r.cost_model, r.trials, r.seed)
    # Read even under a pinned beta: its gap check must fail before the driver.
    beta = r._mechanism.beta
    others, parameters = r.strategy, (r.tau, r.p0, r.p1)
    r.reject_unread()
    report = best_response_audit(*inputs, beta if r.pinned("beta") else None, others, parameters)
    keys = ("mean_payment", "utility_lower_bound")
    rows = [(int(bit), action, *(stats[action][key] for key in keys))
            for bit, stats in report.per_bit.items() for action in ACTIONS]
    columns = {name: np.array(column) for name, column in zip(("bit", "action") + keys, zip(*rows))}
    _emit(r, report.to_dict(), columns)
    return EXIT_BY_VERDICT[report.overall]


def _cmd_accuracy(r):
    inputs = (r.prior, r.n, r.alpha, r.delta, r.epsilon, r.strategy, r.trials,
              derive_seed(r.seed, 2000))
    r.reject_unread()
    report = accuracy_experiment(*inputs)
    _emit(r, report.to_dict(), report.table)
    return EXIT_BY_VERDICT[report.verdict]


def _cmd_cost_scaling(r):
    inputs = (r.prior, r.alpha, r.delta, r.ns, r.trials, r.seed)
    # Every row's parameters first: a config error at any n stops the run.
    parameters = {n: r.driver_parameters(n, epsilon_rule(r.alpha, r.delta, n)) for n in r.ns}
    r.reject_unread()
    report = cost_scaling_experiment(*inputs, parameters=parameters)
    parts = [
        {
            "n": np.full(row.records.base.trials, row.n),
            "trial": np.arange(row.records.base.trials),
            "total_payment": row.records.total_payment,
            "p_hat": row.records.base.p_hat,
            "p_tilde": row.records.base.p_tilde,
            "participants": row.records.base.participants,
        }
        for row in report.rows
    ]
    body = report.to_dict()
    for row in body["rows"]:
        if row["n"] in r.cross_check:
            row["cross_check"] = _cross_checks(r, row["n"])
    _emit(r, body, {key: np.concatenate([part[key] for part in parts]) for key in parts[0]})
    return EXIT_BY_VERDICT[report.verdict]


_HANDLERS = {
    "run": _cmd_run,
    "posterior": _cmd_posterior,
    "threshold": _cmd_threshold,
    "audit-dp": _cmd_audit_dp,
    "audit-equilibrium": _cmd_audit_equilibrium,
    "accuracy": _cmd_accuracy,
    "cost-scaling": _cmd_cost_scaling,
}


def _build_parser():
    """One parser for every command: all of them take the same options."""
    parser = argparse.ArgumentParser(
        prog="peersurvey",
        description="Private peer-prediction survey simulator",
    )
    parser.add_argument("command", choices=_HANDLERS, metavar="command",
                        help="one of %(choices)s")
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="path to write the CSV to")
    return parser


def dispatch(argv):
    """Parse argv, run the selected command, return the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"config error: cannot read '{args.config}': {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"config error: '{args.config}' is not valid JSON: {exc}", file=sys.stderr)
        return 1
    if not isinstance(config, dict):
        print("config error: top level must be a JSON object", file=sys.stderr)
        return 1
    try:
        resolver = Resolver(config, args.command, args.out)
        resolver.check_keys()
        return _HANDLERS[args.command](resolver)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # the boundary: anything else is a bug, not a config mistake
        print("internal error: not caused by the config; please report it", file=sys.stderr)
        traceback.print_exc()
        return 4


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
