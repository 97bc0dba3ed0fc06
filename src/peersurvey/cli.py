"""Command-line entry points: JSON config in, JSON report out, CSV records.

Every command reads its config through one `Resolver`, which applies a
single rule per key.  Every report carries the same `resolved` block:
epsilon, beta, tau, p0, p1 and seed, null where the command did not use one.

Exit codes: 0 on a Pass verdict or plain completion, 1 on a config or usage
error (the diagnostic names the offending key), 2 on a Fail verdict, 4 on an
internal error (a bug; the traceback goes to stderr).
"""

import argparse
import json
import math
import os
import sys
import traceback
from collections import defaultdict
from functools import cached_property

import numpy as np

from ._util import check_seed, derive_seed, is_number
from .agents import (
    ABSTAIN,
    ACTIONS,
    OFF_BEHAVIORS,
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
    cost_threshold_parts_mc,
    posterior_bit_prob,
    posterior_clamped_mean,
)
from .privacy import (AUDIT_MIN_TRIALS, DEFAULT_TOLERANCE, FAIL, PASS, AuditDataError, NoiseSpec,
                      dp_audit)

EXIT_BY_VERDICT = {PASS: 0, FAIL: 2}

# The smallest trial count each command's driver accepts; 1 elsewhere.
_MIN_TRIALS = {"audit-dp": AUDIT_MIN_TRIALS, "audit-equilibrium": EQUILIBRIUM_MIN_TRIALS,
               "accuracy": ACCURACY_MIN_TRIALS, "cost-scaling": COST_SCALING_MIN_TRIALS}

# Commands whose driver builds the mechanism and the strategy itself.
_DRIVERS = ("audit-equilibrium", "cost-scaling")

# Keys a command derives itself, with the one value each may take when
# present.  cost-scaling also derives epsilon and beta per n.
_DRIVER_FIXED = {"tau": "auto", "p0": None, "p1": None}
_FIXED = {
    "threshold": {"tau": "auto"},
    "posterior": {"p0": None, "p1": None},
    "audit-equilibrium": _DRIVER_FIXED,
    "cost-scaling": {**_DRIVER_FIXED, "epsilon": "auto", "beta": "auto"},
}
# Keys a command has no use for.  run and accuracy take `off` inside the
# threshold strategy; cost-scaling takes n from ns, uses the chen cost model
# and lets off-threshold agents abstain.
_UNUSED = {"run": ("off",), "accuracy": ("off",), "cost-scaling": ("n", "cost_model", "off")}

_CSV_BLOCK_ROWS = 1 << 13

_DEFAULT_STRATEGY = {"kind": "threshold", "tau": "auto", "off": ABSTAIN}

_REQUIRED = object()


class ConfigError(Exception):
    """Invalid or missing configuration; carries the offending key."""

    def __init__(self, key, message):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


class Resolver:
    """A command's config, resolved key by key.

    Each key has one rule, applied the first time the key is read and
    cached: it takes the config value (for seed and out, the flag first),
    checks its type and range, and raises ConfigError naming the key when
    the check fails.  The public cached properties are the config keys
    (`KEYS`).  Keys that may be "auto" or absent are derived instead, so a
    pinned tau, beta, p0, p1 or strategy skips its derivation.  tau, p0
    and p1 are derived exactly.  When the config sets threshold_trials or
    posterior_samples, each derivation of tau or of p0/p1 also runs its Monte
    Carlo cross-check, with fixed seed slots 1001 for tau and 1002/1003 for
    p0/p1 ((n, 0), (n, 1) and (n, 2) per cost-scaling row), and records it in
    `cross_check[n]`.  `check_keys` rejects keys no rule reads and keys a
    command would ignore.
    """

    def __init__(self, config, args):
        self.command = args.command
        self._config = config
        self._args = args
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
        """Reject a key no rule reads, one the command has no use for, or one
        it derives or fixes itself unless its value means "derive" or equals
        what it uses anyway."""
        for key in self._config:
            if key not in KEYS:
                raise ConfigError(key, "is not a config key")
        for key in _UNUSED.get(self.command, ()):
            if key in self._config:
                raise ConfigError(key, f"is not used by {self.command}")
        for key, allowed in _FIXED.get(self.command, {}).items():
            value = self._raw(key, allowed)
            if type(value) is not type(allowed) or value != allowed:
                raise ConfigError(key, f"is derived or fixed by {self.command}; only "
                                       f"{json.dumps(allowed)} is accepted, got {value!r}")
        if self.command not in _DRIVERS:
            return
        expected = dict(_DEFAULT_STRATEGY, off=self.off)
        strategy = self._raw("strategy", expected)
        if not isinstance(strategy, dict) or {"off": ABSTAIN, **strategy} != expected:
            raise ConfigError("strategy", f"is fixed by the {self.command} driver; only "
                                          f"{json.dumps(expected)} is accepted, got {strategy!r}")

    def pinned(self, key):
        """Whether the config fixes a key that would otherwise be "auto"."""
        return self._raw(key, "auto") != "auto"

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
        value = self._args.seed if self._args.seed is not None else self._raw("seed")
        try:
            return check_seed(value)
        except ValueError as exc:
            raise ConfigError("seed", str(exc)) from exc

    @cached_property
    def out(self):
        value = self._args.out if self._args.out is not None else self._raw("out", None)
        if value is not None and not isinstance(value, str):
            raise ConfigError("out", f"must be a file path, got {value!r}")
        return value

    @cached_property
    def prior(self):
        return self._object("prior", PriorSpec.from_dict, self._raw("prior"))

    @cached_property
    def cost_model(self):
        model = self._object("cost_model", CostModel.from_dict,
                             self._raw("cost_model", {"kind": "linear", "eta": 1.0}))
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
    def off(self):
        return self._choice("off", OFF_BEHAVIORS, ABSTAIN)

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
        """Seed of cross-check k (0 tau, 1 p0, 2 p1): 1001 + k, or (n, k) per
        cost-scaling row."""
        if self.command == "cost-scaling":
            return derive_seed(self.seed, n, k)
        return derive_seed(self.seed, 1001 + k)

    def exact_tau(self, n):
        """Exact (tau, tau_group, tau_marginal) at n, sized with delta / 2."""
        prior = self.prior if self.prior.cost0 == self.prior.cost1 else self._conditioned_prior
        args = (prior, self.alpha, self.delta / 2.0, n)
        try:
            parts = cost_threshold_parts(*args)
            if self.threshold_trials is not None:
                (mc, _, _), se = cost_threshold_parts_mc(*args, self.threshold_trials,
                                                         self._slot(n, 0))
                self.cross_check[n]["tau"] = {"mc": mc, "se": se, "samples": self.threshold_trials}
        except CostSearchError as exc:  # the cost laws never reach the 1 - alpha level
            raise ConfigError("alpha", str(exc)) from exc
        return parts

    def exact_prediction(self, bit, n, epsilon):
        """Exact E[clamped leave-one-out estimate | own bit] at (n, epsilon)."""
        prior = self._conditioned_prior
        value = posterior_clamped_mean(prior, bit, n, epsilon)
        if self.posterior_samples is not None:
            mc, se = peer_estimate_mc(prior, bit, n, NoiseSpec(epsilon), AlwaysTruth(),
                                      self.posterior_samples, self._slot(n, 1 + bit))
            self.cross_check[n][f"p{bit}"] = {"mc": mc, "se": se, "samples": self.posterior_samples}
        return value

    def driver_parameters(self, n, epsilon):
        """A driver's (tau, p0, p1) at (n, epsilon), derived exactly and
        checked, so that a config the driver cannot work with fails naming
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
            raise ConfigError("tau" if self.pinned("tau") else "prior",
                              f"tau must be positive to derive beta, got {tau}")

    @cached_property
    def beta(self):
        if self.pinned("beta"):
            return self._number("beta", lambda v: v > 0.0, "a positive number or 'auto'")
        self._check_tau(self.tau)
        return beta_rule(self.cost_model.kind, self.epsilon, self.tau)

    def _prediction(self, bit):
        if self._config.get(f"p{bit}") is None:
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
        derived = self._config.get("p0") is None or self._config.get("p1") is None
        if derived and self.pinned("epsilon") and self.alpha < abs(
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
    def alpha_prime(self):
        if self._raw("alpha_prime", None) is None:
            return None
        return self._number("alpha_prime", lambda v: v > 0.0, "a positive number")

    @cached_property
    def ones(self):
        return self._integer("ones", 0, self.n + 1)

    @cached_property
    def flip_index(self):
        return self._integer("flip_index", 0, self.n, default=0)

    @cached_property
    def observable(self):
        return self._choice("observable", ("estimate", "payment"), "estimate")

    @cached_property
    def payment_index(self):
        j = self._integer("payment_index", 0, self.n)
        if j == self.flip_index:
            raise ConfigError("payment_index", "must differ from flip_index")
        return j

    @cached_property
    def bins(self):
        return self._integer("bins", 2, default=20)

    @cached_property
    def tolerance(self):
        return self._number("tolerance", lambda v: v >= 0.0, "a nonnegative number",
                            default=DEFAULT_TOLERANCE)


# One key per rule; a config key outside this set is a typo or a stray.
KEYS = frozenset(name for name, rule in vars(Resolver).items()
                 if isinstance(rule, cached_property) and not name.startswith("_"))


def _text(value, alone):
    """One cell as the per-row csv.writer wrote it: a float with '%.17g',
    anything else with str(), quoted (QUOTE_MINIMAL) when it holds a comma,
    a quote or a line break, or when it is empty and the only field of its
    row."""
    text = "%.17g" % value if isinstance(value, float) else str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return '""' if alone and not text else text


def _column(values, alone):
    """A column's cell format and its cells: '%.17g' for a float array,
    '%d' for an integer array, '%s' for anything else, rendered by `_text`."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return ("%.17g" if values.dtype.kind == "f" else "%d"), values
    cells = [_text(value, alone) for value in np.asarray(values, dtype=object).tolist()]
    return "%s", np.array(cells, dtype=object)


def write_csv(path, columns):
    """Write equal-length named columns as CSV rows; nothing when path is None.

    The bytes are what csv.writer writes for the cells of the per-row
    writer: floats keep 17 significant digits ('%.17g'), so they round-trip
    exactly, integers are plain, every other value is written with str()
    and quoted only where CSV requires it, and rows end in '\r\n'.  Each row
    is one %-format, built once from the columns' dtypes; rows are
    formatted a block at a time, so memory does not grow with the row count.
    """
    if path is None:
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError("out", f"cannot write '{path}': {exc}") from exc
    alone = len(columns) == 1
    formats, cells = zip(*(_column(values, alone) for values in columns.values()))
    line = ",".join(formats) + "\r\n"
    with fh:
        fh.write(",".join(_text(name, alone) for name in columns) + "\r\n")
        for lo in range(0, len(cells[0]), _CSV_BLOCK_ROWS):
            block = [column[lo:lo + _CSV_BLOCK_ROWS].tolist() for column in cells]
            fh.write("".join([line % row for row in zip(*block)]))


def _emit(r, body, columns=None, **used):
    """The one writer of a finished command's output: reject a cross-check
    key the run found nothing to check for, --seed where the run drew
    nothing at random and --out where there is no CSV (a config's `seed` or
    `out` may serve another command), write `columns` as the CSV at `out`,
    print the report.  A cross-check of tau, p0 or p1 follows the body,
    except in cost-scaling, whose rows carry their own.  A reader that
    closed stdout early is not an error: the rest of the output is dropped."""
    if not r.cross_check:
        for key in ("threshold_trials", "posterior_samples"):
            if getattr(r, key) is not None:
                raise ConfigError(key, f"sizes a Monte Carlo cross-check, but {r.command} "
                                       "derives nothing here for it to check")
    if r._args.seed is not None and "seed" not in r.__dict__:
        raise ConfigError("seed", f"--seed seeds a random draw, but {r.command} makes none here")
    out = r.out  # resolved even where no CSV is written, so a bad `out` still fails
    if columns is None and r._args.out is not None:
        raise ConfigError("out", f"--out names a CSV, but {r.command} writes none")
    if columns is not None:
        write_csv(out, columns)
    report = {"command": r.command, "resolved": r.resolved(**used), **body}
    if r.cross_check and r.command != "cost-scaling":
        report["cross_check"] = r.cross_check[r.n]
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
    strategy = r.strategy  # resolved first, so tau's cross-check comes before p0's
    recs = simulate_survey(r.prior, r._mechanism, strategy, r.trials, derive_seed(r.seed, 2000))
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
    clamped = {"p0": r.p0, "p1": r.p1}
    gap = max(abs(closed[key] - clamped[key]) for key in ("p0", "p1"))
    _emit(r, {
        "n": r.n,
        "closed_form": closed,
        "clamped_mean": clamped,
        "max_abs_gap": gap,
    })
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
        mech = estimate_observable(r.n, NoiseSpec(epsilon=r.epsilon))
    else:
        mech = payment_observable(r._mechanism, r.payment_index)
    reports = [1] * r.ones + [0] * (r.n - r.ones)
    try:
        report = dp_audit(
            mech, reports, r.flip_index, 1 - reports[r.flip_index], r.epsilon, r.trials, r.bins,
            derive_seed(r.seed, 3000), r.tolerance,
        )
    except AuditDataError as exc:  # too many bins for the trials
        raise ConfigError("bins", str(exc)) from exc
    lo, hi, base, flipped, retained, log_ratio = zip(*report.bin_table)
    _emit(r, report.to_dict(), {
        "bin_lo": lo,
        "bin_hi": hi,
        "count_base": np.array(base, dtype=np.int64),
        "count_flipped": np.array(flipped, dtype=np.int64),
        "retained": np.array(retained, dtype=np.int64),
        "log_ratio": log_ratio,
    })
    return EXIT_BY_VERDICT[report.verdict]


def _cmd_audit_equilibrium(r):
    report = best_response_audit(
        r.prior, r.n, r.alpha, r.delta, r.epsilon, r.cost_model, r.trials, r.seed,
        beta_override=r.beta if r.pinned("beta") else None,
        off=r.off,
        derive=r.driver_parameters,
    )
    keys = ("mean_payment", "utility_lower_bound")
    rows = [(int(bit), action, *(stats[action][key] for key in keys))
            for bit, stats in report.per_bit.items() for action in ACTIONS]
    _emit(r, report.to_dict(), dict(zip(("bit", "action") + keys, zip(*rows))),
          beta=report.beta, tau=report.tau, p0=report.p0, p1=report.p1)
    return EXIT_BY_VERDICT[report.overall]


def _cmd_accuracy(r):
    report = accuracy_experiment(
        r.prior, r.n, r.alpha, r.delta, r.epsilon, r.strategy, r.trials,
        derive_seed(r.seed, 2000), alpha_prime=r.alpha_prime,
    )
    records = report.records
    _emit(r, report.to_dict(), {
        "trial": np.arange(records.trials),
        "p_hat": records.p_hat,
        "p_tilde": records.p_tilde,
        "abs_error": records.abs_error,
        "within_alpha_prime": (records.abs_error <= report.alpha_prime).astype(np.int64),
        "participants": records.participants,
        "mismatches": records.mismatches,
    })
    return EXIT_BY_VERDICT[report.verdict]


def _cmd_cost_scaling(r):
    report = cost_scaling_experiment(r.prior, r.alpha, r.delta, r.ns, r.trials, r.seed,
                                     derive=r.driver_parameters)
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
            row["cross_check"] = r.cross_check[row["n"]]
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
    parser = argparse.ArgumentParser(
        prog="peersurvey",
        description="Private peer-prediction survey simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None,
                       help="override the CSV output path")
    return parser


def dispatch(argv):
    """Parse argv, run the selected command, return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
        resolver = Resolver(config, args)
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
