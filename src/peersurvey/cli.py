"""Command-line entry points: JSON config in, JSON report out, CSV records.

Exit codes: 0 on a Pass verdict or plain completion, 1 on a config or usage
error (the diagnostic names the offending key), 2 on a Fail verdict, 3 on an
Inconclusive verdict.
"""

import argparse
import csv
import json
import sys

from ._util import check_seed, derive_seed, fmt17
from .agents import ABSTAIN, CostModel, StrategyProfile, Threshold, strategy_from_dict
from .equilibrium import (
    INCONCLUSIVE,
    accuracy_radius,
    accuracy_experiment,
    best_response_audit,
    beta_rule,
    config_lint,
    cost_scaling_experiment,
    epsilon_rule,
    simulate_survey,
)
from .mechanism import MechanismConfig, estimate_observable, payment_observable
from .priors import (
    DEFAULT_POSTERIOR_SAMPLES,
    PriorSpec,
    cost_threshold_parts,
    posterior_bit_prob,
    posterior_clamped_mean,
)
from .privacy import FAIL, PASS, NoiseSpec, dp_audit

EXIT_BY_VERDICT = {PASS: 0, FAIL: 2, INCONCLUSIVE: 3}

_REQUIRED = object()


class ConfigError(Exception):
    """Invalid or missing configuration; carries the offending key."""

    def __init__(self, key, message):
        super().__init__(f"config key '{key}': {message}")
        self.key = key


def _get(config, key, default=_REQUIRED):
    if key in config:
        return config[key]
    if default is _REQUIRED:
        raise ConfigError(key, "is required")
    return default


def _get_number(config, key, default=_REQUIRED, allow_auto=False):
    value = _get(config, key, default)
    if value is None and default is None:
        return None
    if allow_auto and value == "auto":
        return "auto"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, f"must be a number, got {value!r}")
    return value


def _get_int(config, key, default=_REQUIRED, minimum=None):
    value = _get(config, key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(key, f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(key, f"must be at least {minimum}, got {value}")
    return value


def _load_prior(config):
    raw = _get(config, "prior")
    try:
        return PriorSpec.from_dict(raw)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("prior", str(exc)) from exc


def _load_cost_model(config):
    raw = _get(config, "cost_model", {"kind": "linear", "eta": 1.0})
    try:
        return CostModel.from_dict(raw)
    except ValueError as exc:
        raise ConfigError("cost_model", str(exc)) from exc


def _resolve_seed(config, args):
    if args.seed is not None:
        return check_seed(args.seed)
    value = _get(config, "seed")
    try:
        return check_seed(value)
    except ValueError as exc:
        raise ConfigError("seed", str(exc)) from exc


def _resolve_out(config, args):
    return args.out if args.out is not None else config.get("out")


def _resolve_epsilon(config, alpha, delta, n):
    value = _get_number(config, "epsilon", "auto", allow_auto=True)
    if value == "auto":
        if alpha is None or delta is None:
            raise ConfigError("epsilon", "'auto' needs alpha and delta")
        return epsilon_rule(alpha, delta, n)
    return float(value)


def _resolve_tau(config, prior, alpha, delta, n, seed):
    value = _get_number(config, "tau", "auto", allow_auto=True)
    if value != "auto":
        return float(value)
    trials = _get_int(config, "threshold_trials", 100_000, minimum=1)
    return cost_threshold_parts(
        prior, alpha, delta / 2.0, n, trials, derive_seed(seed, 1001)
    )[0]


def _resolve_posteriors(config, prior, n, epsilon, seed):
    samples = _get_int(config, "posterior_samples", DEFAULT_POSTERIOR_SAMPLES, minimum=1)
    p0 = config.get("p0")
    p1 = config.get("p1")
    if p0 is None:
        p0 = posterior_clamped_mean(prior, 0, n, epsilon, samples, derive_seed(seed, 1002))
    if p1 is None:
        p1 = posterior_clamped_mean(prior, 1, n, epsilon, samples, derive_seed(seed, 1003))
    return float(p0), float(p1)


def _resolve_strategy(config, tau):
    raw = _get(config, "strategy", {"kind": "threshold", "tau": "auto", "off": ABSTAIN})
    if isinstance(raw, dict) and raw.get("kind") == "threshold" and raw.get("tau") == "auto":
        if tau is None:
            raise ConfigError("strategy", "tau 'auto' needs alpha and delta to derive tau")
        raw = dict(raw, tau=tau)
    try:
        return strategy_from_dict(raw)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError("strategy", str(exc)) from exc


def _write_csv(path, header, rows):
    if path is None:
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                fmt17(v) if isinstance(v, float) else str(v) for v in row
            ])


def _emit(payload):
    print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# Command handlers.  Each returns the process exit code.
# ---------------------------------------------------------------------------


def _cmd_run(config, args):
    prior = _load_prior(config)
    n = _get_int(config, "n", minimum=2)
    trials = _get_int(config, "trials", minimum=1)
    alpha = _get_number(config, "alpha", None)
    delta = _get_number(config, "delta", None)
    seed = _resolve_seed(config, args)
    epsilon = _resolve_epsilon(config, alpha, delta, n)

    needs_tau = config.get("beta", "auto") == "auto" or (
        isinstance(config.get("strategy"), dict)
        and config["strategy"].get("tau") == "auto"
    ) or "strategy" not in config
    tau = None
    if needs_tau:
        if alpha is None or delta is None:
            raise ConfigError("tau", "deriving tau needs alpha and delta")
        tau = _resolve_tau(config, prior, alpha, delta, n, seed)

    beta = _get_number(config, "beta", "auto", allow_auto=True)
    if beta == "auto":
        model = _load_cost_model(config)
        beta = beta_rule(model.kind, epsilon, tau)
    p0, p1 = _resolve_posteriors(config, prior, n, epsilon, seed)
    mech_config = MechanismConfig(
        n=n,
        alpha=float(_get_number(config, "alpha")),
        beta=float(beta),
        epsilon=epsilon,
        p0=p0,
        p1=p1,
        clamp_payments=bool(config.get("clamp_payments", False)),
        noise_mode=config.get("noise", "sample"),
    )
    profile = StrategyProfile.symmetric(_resolve_strategy(config, tau))
    recs = simulate_survey(prior, mech_config, profile, trials, derive_seed(seed, 2000))

    base = recs.base
    rows = [
        (
            t,
            float(base.p_hat[t]),
            float(base.p_tilde[t]),
            float(abs(base.p_hat[t] - base.p_tilde[t])),
            float(recs.total_payment[t]),
            float(recs.min_payment[t]),
            float(recs.max_payment[t]),
            int(base.participants[t]),
        )
        for t in range(base.trials)
    ]
    _write_csv(
        _resolve_out(config, args),
        ("trial", "p_hat", "p_tilde", "abs_error", "total_payment",
         "min_payment", "max_payment", "participants"),
        rows,
    )
    _emit({
        "command": "run",
        "resolved": _resolved(epsilon, beta, tau, p0, p1, seed, args),
        "trials": trials,
        "n": n,
        "mean_abs_error": float(base.abs_error.mean()),
        "mean_total_payment": float(recs.total_payment.mean()),
        "min_payment": float(recs.min_payment.min()),
        "max_payment": float(recs.max_payment.max()),
        "mean_participants": float(base.participants.mean()),
    })
    return 0


def _cmd_posterior(config, args):
    prior = _load_prior(config)
    n = _get_int(config, "n", minimum=2)
    alpha = _get_number(config, "alpha", None)
    delta = _get_number(config, "delta", None)
    seed = _resolve_seed(config, args)
    epsilon = _resolve_epsilon(config, alpha, delta, n)
    samples = _get_int(config, "posterior_samples", DEFAULT_POSTERIOR_SAMPLES, minimum=1)

    closed = {
        "p0": posterior_bit_prob(prior, 0),
        "p1": posterior_bit_prob(prior, 1),
    }
    clamped = {
        "p0": posterior_clamped_mean(prior, 0, n, epsilon, samples, derive_seed(seed, 1002)),
        "p1": posterior_clamped_mean(prior, 1, n, epsilon, samples, derive_seed(seed, 1003)),
    }
    gap = max(abs(closed["p0"] - clamped["p0"]), abs(closed["p1"] - clamped["p1"]))
    _emit({
        "command": "posterior",
        "resolved": _resolved(epsilon, None, None, clamped["p0"], clamped["p1"], seed, args),
        "n": n,
        "posterior_samples": samples,
        "closed_form": closed,
        "clamped_mean": clamped,
        "max_abs_gap": gap,
    })
    return 0


def _cmd_threshold(config, args):
    prior = _load_prior(config)
    n = _get_int(config, "n", minimum=2)
    alpha = float(_get_number(config, "alpha"))
    delta = float(_get_number(config, "delta"))
    trials = _get_int(config, "threshold_trials", 100_000, minimum=1)
    seed = _resolve_seed(config, args)
    tau, tau_group, tau_marginal = cost_threshold_parts(
        prior, alpha, delta, n, trials, derive_seed(seed, 1001)
    )
    _emit({
        "command": "threshold",
        "resolved": _resolved(None, None, tau, None, None, seed, args),
        "n": n,
        "alpha": alpha,
        "delta": delta,
        "tau": tau,
        "tau_group": tau_group,
        "tau_marginal": tau_marginal,
    })
    return 0


def _cmd_audit_dp(config, args):
    n = _get_int(config, "n", minimum=2)
    ones = _get_int(config, "ones", minimum=0)
    if ones > n:
        raise ConfigError("ones", f"must not exceed n={n}")
    epsilon = float(_get_number(config, "epsilon"))
    trials = _get_int(config, "trials", minimum=1)
    bins = _get_int(config, "bins", 20, minimum=2)
    tolerance = float(_get_number(config, "tolerance", 0.05))
    seed = _resolve_seed(config, args)
    noise = NoiseSpec(epsilon=epsilon, mode=config.get("noise", "sample"))

    reports = [1] * ones + [0] * (n - ones)
    i = _get_int(config, "flip_index", 0, minimum=0)
    if i >= n:
        raise ConfigError("flip_index", f"must lie in [0, {n})")
    flipped = _get_int(config, "flipped_bit", 1 - reports[i])
    if flipped not in (0, 1):
        raise ConfigError("flipped_bit", "must be 0 or 1")

    observable = config.get("observable", "estimate")
    if observable == "estimate":
        mech = estimate_observable(n, noise)
    elif observable == "payment":
        j = _get_int(config, "payment_index", minimum=0)
        if j == i:
            raise ConfigError("payment_index", "must differ from flip_index")
        mech_config = MechanismConfig(
            n=n,
            alpha=float(_get_number(config, "alpha")),
            beta=float(_get_number(config, "beta")),
            epsilon=epsilon,
            p0=float(_get_number(config, "p0")),
            p1=float(_get_number(config, "p1")),
            noise_mode=config.get("noise", "sample"),
        )
        mech = payment_observable(mech_config, j)
    else:
        raise ConfigError("observable", "must be 'estimate' or 'payment'")

    report = dp_audit(
        mech, reports, i, flipped, epsilon, trials, bins,
        derive_seed(seed, 3000), tolerance,
    )
    _write_csv(
        _resolve_out(config, args),
        ("bin_lo", "bin_hi", "count_base", "count_flipped", "retained", "log_ratio"),
        [(lo, hi, int(a), int(b), int(r), lr) for lo, hi, a, b, r, lr in report.bin_table],
    )
    payload = {"command": "audit-dp",
               "resolved": _resolved(epsilon, None, None, None, None, seed, args)}
    payload.update(report.to_dict())
    _emit(payload)
    return EXIT_BY_VERDICT[report.verdict]


def _cmd_audit_equilibrium(config, args):
    prior = _load_prior(config)
    n = _get_int(config, "n", minimum=2)
    alpha = float(_get_number(config, "alpha"))
    delta = float(_get_number(config, "delta"))
    trials = _get_int(config, "trials", minimum=1000)
    seed = _resolve_seed(config, args)
    epsilon = _resolve_epsilon(config, alpha, delta, n)
    model = _load_cost_model(config)
    beta = _get_number(config, "beta", "auto", allow_auto=True)

    report = best_response_audit(
        prior, n, alpha, delta, epsilon, model, trials, seed,
        samples=_get_int(config, "posterior_samples", DEFAULT_POSTERIOR_SAMPLES, minimum=1),
        threshold_trials=_get_int(config, "threshold_trials", 100_000, minimum=1),
        beta_override=None if beta == "auto" else float(beta),
        off=config.get("off", ABSTAIN),
    )
    rows = []
    for bit, actions in report.per_bit.items():
        for action, stats in actions.items():
            rows.append((
                int(bit), action,
                float(stats["mean_payment"]),
                float(stats["ci_halfwidth"]),
                float(stats["utility_lower_bound"]),
            ))
    _write_csv(
        _resolve_out(config, args),
        ("bit", "action", "mean_payment", "ci_halfwidth", "utility_lower_bound"),
        rows,
    )
    payload = {
        "command": "audit-equilibrium",
        "resolved": _resolved(epsilon, report.beta, report.tau, report.p0,
                              report.p1, seed, args),
    }
    payload.update(report.to_dict())
    _emit(payload)
    return EXIT_BY_VERDICT[report.overall]


def _cmd_accuracy(config, args):
    prior = _load_prior(config)
    n = _get_int(config, "n", minimum=2)
    alpha = float(_get_number(config, "alpha"))
    delta = float(_get_number(config, "delta"))
    trials = _get_int(config, "trials", minimum=1)
    seed = _resolve_seed(config, args)
    epsilon = _resolve_epsilon(config, alpha, delta, n)

    strategy_raw = config.get("strategy", {"kind": "threshold", "tau": "auto", "off": ABSTAIN})
    tau = None
    if isinstance(strategy_raw, dict) and strategy_raw.get("tau") == "auto":
        tau = _resolve_tau(config, prior, alpha, delta, n, seed)
    profile = StrategyProfile.symmetric(_resolve_strategy(config, tau))

    alpha_prime = config.get("alpha_prime")
    report = accuracy_experiment(
        prior, n, alpha, delta, epsilon, profile, trials, derive_seed(seed, 2000),
        alpha_prime=alpha_prime,
        noise_mode=config.get("noise", "sample"),
    )

    records = report.records
    rows = [
        (
            t,
            float(records.p_hat[t]),
            float(records.p_tilde[t]),
            float(abs(records.p_hat[t] - records.p_tilde[t])),
            int(abs(records.p_hat[t] - records.p_tilde[t]) <= report.alpha_prime),
            int(records.participants[t]),
            int(records.mismatches[t]),
        )
        for t in range(records.trials)
    ]
    _write_csv(
        _resolve_out(config, args),
        ("trial", "p_hat", "p_tilde", "abs_error", "within_alpha_prime",
         "participants", "mismatches"),
        rows,
    )
    payload = {
        "command": "accuracy",
        "resolved": _resolved(epsilon, None, tau, None, None, seed, args),
    }
    payload.update(report.to_dict())
    _emit(payload)
    return EXIT_BY_VERDICT[report.verdict]


def _cmd_cost_scaling(config, args):
    prior = _load_prior(config)
    ns = _get(config, "ns")
    if not isinstance(ns, (list, tuple)) or len(ns) < 2:
        raise ConfigError("ns", "must be a list of at least two population sizes")
    alpha = float(_get_number(config, "alpha"))
    delta = float(_get_number(config, "delta"))
    trials = _get_int(config, "trials", minimum=1)
    seed = _resolve_seed(config, args)

    report = cost_scaling_experiment(
        prior, alpha, delta, ns, trials, seed,
        samples=_get_int(config, "posterior_samples", DEFAULT_POSTERIOR_SAMPLES, minimum=1),
        threshold_trials=_get_int(config, "threshold_trials", 100_000, minimum=1),
    )
    rows = []
    for row in report.rows:
        for t in range(row.records.base.trials):
            rows.append((
                row.n, t,
                float(row.records.total_payment[t]),
                float(row.records.base.p_hat[t]),
                float(row.records.base.p_tilde[t]),
                int(row.records.base.participants[t]),
            ))
    _write_csv(
        _resolve_out(config, args),
        ("n", "trial", "total_payment", "p_hat", "p_tilde", "participants"),
        rows,
    )
    payload = {"command": "cost-scaling",
               "resolved": {"seed": seed, "threads": args.threads}}
    payload.update(report.to_dict())
    _emit(payload)
    return 0


def _resolved(epsilon, beta, tau, p0, p1, seed, args):
    return {
        "epsilon": epsilon,
        "beta": beta,
        "tau": tau,
        "p0": p0,
        "p1": p1,
        "seed": seed,
        "threads": args.threads,
    }


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
        p.add_argument("--threads", type=int, default=1,
                       help="worker cap; results never depend on it")
    return parser


def dispatch(argv):
    """Parse argv, run the selected command, return the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    if args.threads is not None and args.threads < 1:
        print("config error: --threads must be at least 1", file=sys.stderr)
        return 1
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
        return _HANDLERS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
