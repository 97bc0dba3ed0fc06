"""The benchmark's workloads: generated CLI configs and output checks.

Each workload is one `peersurvey` command on a config built from the
benchmark seed.  The checks test properties that hold for any correct
program at any seed, so a later change that legitimately moves per-seed
values still passes; no check compares against saved output bytes.

The p0/p1 oracle is independent of the package: it sums the exact
distribution of the peer one-count K instead of sampling it.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

ALPHA = 0.1
DELTA = 0.1

UNIFORM_PRIOR = {
    "family": "conditional_iid",
    "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
    "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
}

# Atom mixing with unequal cost laws forces the Monte Carlo tau search.
ATOM_PRIOR = {
    "family": "conditional_iid",
    "mixing": {"kind": "atoms", "atoms": [[0.5, 0.2], [0.5, 0.8]]},
    "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "cost1": {"kind": "uniform", "lo": 0.0, "hi": 2.0},
}

# The CLI's default p0/p1 sample count; a config may pin another one.
DEFAULT_POSTERIOR_SAMPLES = 1_000_000

# A clamped estimate lies in [0, 1], so its standard deviation is at most
# 0.5; the oracle check allows six of those standard errors.
ORACLE_SIGMAS = 6.0


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    rules: Callable  # (config, report, csv_path) -> None, raises CheckFailed
    full: dict
    smoke: dict

    def config(self, seed, smoke=False):
        base = self.smoke if smoke else self.full
        return dict(base, seed=int(seed))

    def trials(self, config):
        """Trials the command runs: trials x len(ns) for cost-scaling."""
        return config["trials"] * len(config.get("ns", [None]))

    def check(self, config, exit_code, stdout_text, csv_path):
        """Raise CheckFailed unless the outputs are correct for `config`."""
        _require(exit_code == 0, f"exit code {exit_code}, expected 0")
        try:
            report = json.loads(stdout_text)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"stdout is not one JSON document: {exc}") from exc
        _require(report.get("command") == self.command,
                 f"report command {report.get('command')!r}")
        self.rules(config, report, csv_path)


def _survey_config(trials):
    return {
        "prior": UNIFORM_PRIOR,
        "n": 200,
        "alpha": ALPHA,
        "delta": DELTA,
        "epsilon": "auto",
        "beta": "auto",
        "cost_model": {"kind": "linear"},
        "strategy": {"kind": "threshold", "tau": "auto", "off": "abstain"},
        "trials": trials,
    }


def _equilibrium_config(trials):
    """The criterion-5 audit: linear cost model, everyone else at tau."""
    config = _survey_config(trials)
    del config["strategy"]
    return config


def _cost_scaling_config(ns, trials, **knobs):
    return dict({
        "prior": ATOM_PRIOR,
        "ns": ns,
        "alpha": ALPHA,
        "delta": DELTA,
        "trials": trials,
    }, **knobs)


def _audit_dp_config(trials):
    return {
        "n": 10,
        "ones": 5,
        "epsilon": 0.5,
        "bins": 20,
        "observable": "estimate",
        "trials": trials,
    }


# ---------------------------------------------------------------------------
# Independent p0/p1 oracle.
# ---------------------------------------------------------------------------

_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _lgammas(x):
    return _lgamma(np.asarray(x, dtype=np.float64)).astype(np.float64)


def peer_count_pmf(mixing, bit, m):
    """P(K = k), k = 0..m, for the ones among m peers given one's own bit.

    Beta(a, b) mixing gives a beta-binomial with the posterior Beta(a + bit,
    b + 1 - bit); atom mixing a binomial mixture with atom weights
    reweighted by the likelihood of the own bit.
    """
    k = np.arange(m + 1, dtype=np.float64)
    log_choose = math.lgamma(m + 1) - _lgammas(k + 1) - _lgammas(m - k + 1)
    if mixing["kind"] == "beta":
        a = mixing["a"] + (bit == 1)
        b = mixing["b"] + (bit == 0)
        log_beta_ab = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        log_beta_k = _lgammas(k + a) + _lgammas(m - k + b) - math.lgamma(m + a + b)
        return np.exp(log_choose + log_beta_k - log_beta_ab)
    if mixing["kind"] != "atoms":
        raise ValueError(f"no oracle for mixing kind {mixing['kind']!r}")
    weights = np.array([w for w, _ in mixing["atoms"]], dtype=np.float64)
    thetas = np.array([t for _, t in mixing["atoms"]], dtype=np.float64)
    post = weights * (thetas if bit == 1 else 1.0 - thetas)
    post /= post.sum()
    pmf = np.zeros(m + 1)
    for w, theta in zip(post, thetas):
        if theta in (0.0, 1.0):
            pmf[0 if theta == 0.0 else m] += w
            continue
        pmf += w * np.exp(log_choose + k * math.log(theta) + (m - k) * math.log1p(-theta))
    return pmf


def clamped_mean_oracle(mixing, bit, n, epsilon):
    """Exact E[clip((K + X) / m, 0, 1)], m = n - 1, X ~ Laplace(1 / epsilon).

    For fixed k, E[clip(k + X, 0, m)] = k + (s/2)(e^{-k/s} - e^{-(m-k)/s})
    with s = 1/epsilon: the two terms are the Laplace tail mass clipped at
    0 and at m.
    """
    m = n - 1
    s = 1.0 / epsilon
    k = np.arange(m + 1, dtype=np.float64)
    clipped = (k + 0.5 * s * (np.exp(-k / s) - np.exp(-(m - k) / s))) / m
    return float(np.dot(peer_count_pmf(mixing, bit, m), clipped))


def _check_predictions(config, n, epsilon, p0, p1):
    samples = config.get("posterior_samples", DEFAULT_POSTERIOR_SAMPLES)
    tolerance = ORACLE_SIGMAS * 0.5 / math.sqrt(samples)
    mixing = config["prior"]["mixing"]
    for name, bit, value in (("p0", 0, p0), ("p1", 1, p1)):
        exact = clamped_mean_oracle(mixing, bit, n, epsilon)
        _require(abs(value - exact) <= tolerance,
                 f"n={n}: {name}={value!r} but the exact value is {exact!r} "
                 f"(tolerance {tolerance:.3g})")


# ---------------------------------------------------------------------------
# Per-workload output checks.
# ---------------------------------------------------------------------------


def _read_csv(path, header):
    with open(path) as fh:
        first = fh.readline().strip()
    _require(first == ",".join(header), f"CSV header {first!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      dtype=np.float64, usecols=range(len(header)))
    return {name: data[:, j] for j, name in enumerate(header)}


SURVEY_HEADER = ("trial", "p_hat", "p_tilde", "abs_error", "total_payment",
                 "min_payment", "max_payment", "participants")


def check_survey_run(config, report, csv_path):
    trials = config["trials"]
    _require(report["trials"] == trials and report["n"] == config["n"],
             "report trials/n differ from the config")
    cols = _read_csv(csv_path, SURVEY_HEADER)
    _require(cols["trial"].size == trials,
             f"CSV has {cols['trial'].size} records, expected {trials}")
    _require(np.array_equal(cols["trial"], np.arange(trials)), "trial column out of order")
    for name in ("p_hat", "p_tilde"):
        _require(np.all((cols[name] >= 0.0) & (cols[name] <= 1.0)),
                 f"{name} outside [0, 1]")
    _require(np.allclose(cols["abs_error"], np.abs(cols["p_hat"] - cols["p_tilde"]),
                         rtol=0.0, atol=1e-12),
             "abs_error differs from |p_hat - p_tilde|")
    _require(np.all(cols["min_payment"] <= cols["max_payment"]),
             "min_payment exceeds max_payment")
    _require(math.isclose(report["mean_abs_error"], float(cols["abs_error"].mean()),
                          rel_tol=1e-9),
             "JSON mean_abs_error differs from the CSV column mean")
    resolved = report["resolved"]
    _check_predictions(config, config["n"], resolved["epsilon"],
                       resolved["p0"], resolved["p1"])


def check_equilibrium_audit(config, report, csv_path):
    _require(report["verdicts"]["truth_dominates"] == "Pass",
             f"truth_dominates is {report['verdicts']['truth_dominates']}")
    _require(math.isclose(report["beta"], report["epsilon"] * report["tau"],
                          rel_tol=1e-12),
             "beta differs from epsilon * tau under the linear cost model")


def check_cost_scaling(config, report, csv_path):
    slope = report["slope"]
    _require(-1.2 <= slope <= -0.8, f"log-log slope {slope} outside [-1.2, -0.8]")
    rows = report["rows"]
    _require([r["n"] for r in rows] == list(config["ns"]), "rows do not follow ns")
    for r in rows:
        _require(r["total_payment_mean"] <= r["theorem_bound"] + 3.0 * r["total_payment_sem"],
                 f"n={r['n']}: mean total payment above the theorem bound")
        _check_predictions(config, r["n"], r["epsilon"], r["p0"], r["p1"])


def check_privacy_audit(config, report, csv_path):
    _require(report["verdict"] == "Pass", f"verdict {report['verdict']}")
    cols = _read_csv(csv_path, ("bin_lo", "bin_hi", "count_base", "count_flipped",
                                "retained", "log_ratio"))
    for name in ("count_base", "count_flipped"):
        total = int(cols[name].sum())
        _require(total == config["trials"],
                 f"{name} sums to {total}, expected {config['trials']}")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="survey-run",
        command="run",
        rules=check_survey_run,
        full=_survey_config(100_000),
        smoke=_survey_config(2_000),
    ),
    Workload(
        name="equilibrium-audit",
        command="audit-equilibrium",
        rules=check_equilibrium_audit,
        full=_equilibrium_config(100_000),
        smoke=_equilibrium_config(2_000),
    ),
    Workload(
        name="cost-scaling",
        command="cost-scaling",
        rules=check_cost_scaling,
        full=_cost_scaling_config([500, 5000, 50000], 400),
        smoke=_cost_scaling_config([500, 5000], 50, threshold_trials=20_000,
                                   posterior_samples=100_000),
    ),
    Workload(
        name="privacy-audit",
        command="audit-dp",
        rules=check_privacy_audit,
        full=_audit_dp_config(10_000_000),
        smoke=_audit_dp_config(1_000_000),
    ),
)}
