import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import given
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

import peersurvey
from peersurvey import cli
from peersurvey.cli import EXIT_BY_VERDICT, ConfigError, dispatch, write_csv
from peersurvey.priors import COST_SEARCH_QUANTILE, PriorSpec

UNIFORM_PRIOR = {
    "family": "conditional_iid",
    "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
    "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
}


# A log-normal cost law with no mass below its cap: ndtr of the capped
# z-score is 0.
MASSLESS_LOG_NORMAL = {"kind": "log_normal", "mu": 800.0, "sigma": 1.0, "cap": 1e300}
# Every peer's bit is 0: conditioning on an own bit of 1 is undefined.
ZERO_BIT_PRIOR = dict(UNIFORM_PRIOR, mixing={"kind": "atoms", "atoms": [[1.0, 0.0]]})
# All cost mass at zero: the derived tau is 0, and beta = f(tau) would be too.
FREE_PRIOR = dict(UNIFORM_PRIOR, cost0={"kind": "point_mass", "value": 0.0},
                  cost1={"kind": "point_mass", "value": 0.0})
# Knobs that only size the Monte Carlo cross-checks.
CROSS_CHECK_KEYS = ("threshold_trials", "posterior_samples")
# Two atoms at theta 0 and 1: every peer holds one's own bit.  At epsilon 20
# the rounded noise is 0 but with chance about 1e-4, so a few hundred draws
# of a leave-one-out estimate are all equal (se 0), yet off its exact mean.
ZERO_SPREAD_PRIOR = dict(UNIFORM_PRIOR, mixing={"kind": "atoms", "atoms": [[0.5, 0.0], [0.5, 1.0]]})
# Commands whose output is the JSON report alone.
NO_CSV_COMMANDS = ("posterior", "threshold")


def prior_with(**parts):
    """UNIFORM_PRIOR with some of its nested objects given extra or changed keys."""
    return dict(UNIFORM_PRIOR, **{key: dict(UNIFORM_PRIOR[key], **value)
                                  for key, value in parts.items()})


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_config(tmp_path, **overrides):
    payload = {
        "prior": UNIFORM_PRIOR,
        "n": 60,
        "alpha": 0.1,
        "delta": 0.1,
        "epsilon": "auto",
        "beta": "auto",
        "trials": 40,
        "seed": 7,
        "threshold_trials": 5_000,
        "posterior_samples": 5_000,
    }
    payload.update(overrides)
    return payload


# One cheap, valid config per command.
BASE_CONFIGS = {
    "run": run_config(None),
    "posterior": {"prior": UNIFORM_PRIOR, "n": 50, "epsilon": 0.5, "seed": 4,
                  "posterior_samples": 5_000},
    "threshold": {"prior": UNIFORM_PRIOR, "n": 60, "alpha": 0.1, "delta": 0.1,
                  "threshold_trials": 5_000, "seed": 3},
    "audit-dp": {"n": 10, "ones": 5, "epsilon": 0.5, "trials": 100_000, "seed": 7},
    "audit-equilibrium": {"prior": UNIFORM_PRIOR, "n": 60, "alpha": 0.1, "delta": 0.1,
                          "trials": 1_000, "seed": 3, "threshold_trials": 5_000,
                          "posterior_samples": 5_000},
    "accuracy": {"prior": UNIFORM_PRIOR, "n": 60, "alpha": 0.1, "delta": 0.1,
                 "trials": 100, "seed": 11, "threshold_trials": 5_000},
    "cost-scaling": {"prior": UNIFORM_PRIOR, "alpha": 0.1, "delta": 0.1,
                     "ns": [100, 200], "trials": 20, "seed": 2,
                     "threshold_trials": 5_000, "posterior_samples": 5_000},
}

# The config keys each base run never reads.
BASE_UNREAD = {
    "run": ("bins", "ns", "observable", "ones", "payment_index"),
    "posterior": ("alpha", "beta", "bins", "cost_model", "delta", "ns", "observable", "ones", "p0",
                  "p1", "payment_index", "strategy", "tau", "threshold_trials", "trials"),
    "threshold": ("beta", "bins", "cost_model", "epsilon", "ns", "observable", "ones", "p0", "p1",
                  "payment_index", "posterior_samples", "strategy", "tau", "trials"),
    "audit-dp": ("alpha", "beta", "cost_model", "delta", "ns", "p0", "p1", "payment_index",
                 "posterior_samples", "prior", "strategy", "tau", "threshold_trials"),
    "audit-equilibrium": ("bins", "ns", "observable", "ones", "payment_index"),
    "accuracy": ("beta", "bins", "cost_model", "ns", "observable", "ones", "p0", "p1",
                 "payment_index", "posterior_samples"),
    "cost-scaling": ("beta", "bins", "cost_model", "epsilon", "n", "observable", "ones", "p0", "p1",
                     "payment_index", "strategy", "tau"),
}
# A well-typed value for each of those keys.
WELL_TYPED = {
    "n": 60, "trials": 1_000, "posterior_samples": 1_000, "threshold_trials": 1_000,
    "ns": [100, 200], "prior": UNIFORM_PRIOR, "cost_model": {"kind": "chen"},
    "strategy": {"kind": "threshold", "tau": "auto", "off": "abstain"},
    "alpha": 0.1, "delta": 0.1, "epsilon": 0.5, "tau": 0.5, "beta": 1.0, "p0": 0.3, "p1": 0.7,
    "ones": 5, "observable": "estimate", "payment_index": 3, "bins": 20,
}
# Each of those keys, once set, is rejected.
UNREAD_CASES = [(command, key) for command, keys in BASE_UNREAD.items() for key in keys]
# Values that mean "derive", as a missing key does.
DERIVE_VALUES = {"epsilon": "auto", "beta": "auto", "tau": "auto", "p0": None, "p1": None}


# The README's config schema with 1,000 trials and no CSV: a run config,
# which audit-equilibrium reads by the same rules.
SCHEMA_CONFIG = {
    "prior": UNIFORM_PRIOR, "n": 200, "alpha": 0.1, "delta": 0.1, "epsilon": "auto",
    "beta": "auto", "cost_model": {"kind": "linear"},
    "strategy": {"kind": "threshold", "tau": "auto", "off": "abstain"}, "trials": 1_000, "seed": 7,
}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestDispatchBasics:
    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        capsys.readouterr()

    def test_missing_command_is_usage_error(self, capsys):
        assert dispatch([]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command", list(cli._HANDLERS))
    def test_command_help_exits_zero(self, command, capsys):
        assert dispatch([command, "--help"]) == 0
        assert "--config" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self, capsys):
        assert dispatch(["nosuch", "--config", "x.json"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_one_parser_per_dispatch(self, tmp_path, monkeypatch, capsys):
        # Every command takes the same options, so one parser serves them all.
        config = write_config(tmp_path, BASE_CONFIGS["threshold"])
        built, init = [], argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        assert dispatch(["threshold", "--config", config]) == 0
        capsys.readouterr()
        assert len(built) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        assert dispatch(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert dispatch(["run", "--config", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_top_level_must_be_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert dispatch(["run", "--config", str(path)]) == 1
        assert "JSON object" in capsys.readouterr().err

    def test_config_error_is_prefixed_and_keyed(self):
        err = ConfigError("alpha", "must be a number")
        assert err.key == "alpha"
        assert "alpha" in str(err)


class TestResolver:
    @pytest.mark.parametrize("command, key, value", [
        ("run", "alpha", 0.4),  # not below |p1 - p0| / 2
        ("run", "alpha", 1.5),
        ("run", "delta", 0.0),
        ("run", "epsilon", -1),
        ("run", "beta", -1),
        ("run", "tau", -1),
        ("run", "noise", "loud"),
        ("run", "p0", 1.5),
        ("run", "seed", -1),
        ("run", "clamp_payments", "yes"),
        ("audit-equilibrium", "alpha", 0.4),  # the driver's p0/p1 gap is at most 1/3
        ("accuracy", "trials", 50),
        ("audit-dp", "epsilon", -0.5),
        ("audit-dp", "tolerance", "x"),
        ("audit-dp", "trials", 1_000),
        ("audit-dp", "flipped_bit", 1),  # report 0 is already a one
        ("cost-scaling", "ns", [10, 200]),  # epsilon > 1 at n = 10
        ("cost-scaling", "ns", [200, 200]),  # one size leaves no slope to fit
        ("cost-scaling", "trials", 1),  # no standard error from one trial
        ("cost-scaling", "alpha", 2.0),
        # Keys of options that left the analyzed mechanism, at values that
        # used to be accepted.
        ("run", "noise", "sample"),
        ("run", "clamp_payments", False),
        ("audit-dp", "flipped_bit", 0),
        # No rule reads tolerance: the DP verdict is exact, with a fixed slack.
        ("audit-dp", "tolerance", 0.05),
        ("run", "tolerance", 0.05),
        ("accuracy", "tolerance", 0.05),
        # Keys of options the mechanism never had.
        ("audit-equilibrium", "noise", "disabled"),
        ("audit-equilibrium", "clamp_payments", True),
        # Keys the cost-scaling driver derives or fixes at each n; it reads
        # no strategy, not even the default one it uses.
        ("cost-scaling", "tau", 0.5),
        ("cost-scaling", "p1", 0.7),
        ("cost-scaling", "noise", "disabled"),
        ("cost-scaling", "clamp_payments", True),
        ("cost-scaling", "strategy", {"kind": "always_truth"}),
        ("cost-scaling", "strategy", {"kind": "threshold", "tau": "auto", "off": "abstain"}),
        ("cost-scaling", "epsilon", 0.5),
        ("cost-scaling", "beta", 1.0),
        ("cost-scaling", "n", 100),
        ("cost-scaling", "cost_model", {"kind": "chen"}),
        ("cost-scaling", "off", "abstain"),
        # Configs the drivers cannot work with, checked on the exact tau, p0
        # and p1 before a driver uses them: noise that closes the p0/p1 gap,
        # an own bit of zero probability, a derived tau of 0.
        ("audit-equilibrium", "epsilon", 1e-9),
        ("run", "prior", ZERO_BIT_PRIOR),
        ("audit-equilibrium", "prior", ZERO_BIT_PRIOR),
        ("cost-scaling", "prior", ZERO_BIT_PRIOR),
        ("audit-equilibrium", "prior", FREE_PRIOR),
        ("cost-scaling", "prior", FREE_PRIOR),
        ("run", "prior", FREE_PRIOR),
        # Keys the other commands derive themselves or do not use.
        ("threshold", "tau", 0.5),
        ("posterior", "p0", 0.3),
        ("posterior", "p1", 0.7),
        ("run", "off", "lie"),
        ("accuracy", "off", "lie"),
        # Only the payment observable reads payment_index, at any value.
        # Nor does an audit of the estimate at a pinned epsilon read the
        # payment's parameters, the prior, delta or the survey's strategy
        # and costs.
        ("audit-dp", "payment_index", 3),
        ("audit-dp", "payment_index", 0),
        ("audit-dp", "alpha", 0.1),
        ("audit-dp", "beta", 1.0),
        ("audit-dp", "p0", 0.3),
        ("audit-dp", "p1", 0.7),
        ("audit-dp", "prior", UNIFORM_PRIOR),
        ("audit-dp", "delta", 0.1),
        ("audit-dp", "tau", 0.5),
        ("audit-dp", "strategy", {"kind": "always_truth"}),
        ("audit-dp", "off", "lie"),
        ("audit-dp", "cost_model", {"kind": "linear"}),
        # run and accuracy audit nothing.
        ("run", "ones", 30),
        ("run", "payment_index", 3),
        ("run", "bins", 20),
        ("run", "observable", "estimate"),
        ("accuracy", "ones", 30),
        ("accuracy", "payment_index", 3),
        ("accuracy", "bins", 20),
        ("accuracy", "observable", "estimate"),
        # Cross-check keys where nothing is derived for them to check.
        ("audit-dp", "posterior_samples", 1_000),
        ("audit-dp", "threshold_trials", 1_000),
        # Keys no rule reads: misspelt, so silently dropped they would run
        # the defaults instead.
        ("run", "espilon", 0.01),
        ("audit-equilibrium", "trails", 5),
        ("cost-scaling", "posterior_sample", 1_000),
        # A size listed twice would be simulated twice and fitted twice.
        ("cost-scaling", "ns", [100, 100, 200]),
        # Nested keys no field reads, and values that are not finite numbers.
        ("audit-equilibrium", "cost_model", {"kind": "linear", "etaa": 0.3}),
        ("run", "strategy", {"kind": "threshold", "tau": "auto", "of": "lie"}),
        ("threshold", "prior", prior_with(mixing={"bb": 5})),
        ("threshold", "prior", dict(UNIFORM_PRIOR, seed=3)),
        ("run", "strategy", {"kind": "always_truth", "tau": 0.5}),
        ("run", "strategy", {"kind": "constant_bit", "value": 0.7}),
        ("threshold", "prior", prior_with(cost0={"lo": "0"})),
        ("threshold", "prior", prior_with(cost0={"lo": True})),
        ("threshold", "prior", prior_with(cost1={"hi": math.inf})),
        ("run", "prior", dict(UNIFORM_PRIOR, mixing={"kind": "atoms",
                                                     "atoms": [[math.nan, 0.2], [0.5, 0.8]]})),
        ("run", "prior", dict(UNIFORM_PRIOR, mixing={"kind": "atoms",
                                                     "atoms": [[0.5, 0.2], [0.5, True]]})),
        ("threshold", "prior", dict(UNIFORM_PRIOR, cost1=MASSLESS_LOG_NORMAL)),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, command, key, value):
        config = write_config(tmp_path, dict(BASE_CONFIGS[command], **{key: value}))
        assert dispatch([command, "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0].startswith(f"config error: config key '{key}'")

    @pytest.mark.parametrize("command, key, value, message", [
        ("threshold", "prior", prior_with(cost1={"lo": 2.0, "hi": 1.0}),
         "prior.cost1: uniform needs 0 <= lo < hi"),
        ("threshold", "prior", dict(UNIFORM_PRIOR, cost1=MASSLESS_LOG_NORMAL),
         "prior.cost1: log-normal with mu 800.0 and sigma 1.0 has no mass below cap"),
        ("threshold", "prior", prior_with(mixing={"a": -1.0}),
         "prior.mixing: beta parameters must be positive"),
        ("threshold", "prior", dict(UNIFORM_PRIOR, family="independent_bits"),
         "prior: family must be one of"),
        ("audit-equilibrium", "cost_model", {"kind": "linear", "eta": 1.0},
         "cost_model has no key 'eta'"),
        ("run", "strategy", {"kind": "constant_bit", "value": 2},
         "strategy: value must be 0 or 1"),
    ], ids=["cost1-range", "cost1-no-mass", "mixing-range", "family", "eta-removed",
            "strategy-value"])
    def test_bad_nested_value_names_its_path(self, tmp_path, capsys, command, key, value,
                                             message):
        # A range error raised by the nested object itself says which one.
        config = write_config(tmp_path, dict(BASE_CONFIGS[command], **{key: value}))
        assert dispatch([command, "--config", config]) == 1
        first_line = capsys.readouterr().err.splitlines()[0]
        assert first_line.startswith(f"config error: config key '{key}': {message}")

    @pytest.mark.parametrize("command, payload", [
        ("run", BASE_CONFIGS["run"]),
        ("audit-dp", {"n": 60, "ones": 30, "trials": 100_000, "seed": 7, "observable": "payment",
                      "payment_index": 3, "alpha": 0.1, "delta": 0.1, "prior": UNIFORM_PRIOR,
                      "threshold_trials": 5_000, "posterior_samples": 5_000}),
    ], ids=["run", "payment-audit"])
    def test_eta_exits_1_with_a_derived_beta(self, tmp_path, capsys, command, payload):
        # A cost model prices the privacy loss at its bound, with no eta
        # factor: eta = 1, which a derived beta used to accept, is now an
        # unknown key, and the same cost model without it runs.
        config = write_config(tmp_path, dict(payload, cost_model={"kind": "linear", "eta": 1.0}))
        assert dispatch([command, "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0].startswith(
            "config error: config key 'cost_model': cost_model has no key 'eta'")
        config = write_config(tmp_path, dict(payload, cost_model={"kind": "linear"}))
        assert dispatch([command, "--config", config]) in (0, 2)

    @pytest.mark.parametrize("command, extra, key, message", [
        ("accuracy", {"alpha_prime": 0.3}, "alpha_prime", "is not a config key"),
        ("accuracy", {"alpha_prime": None}, "alpha_prime", "is not a config key"),
        ("audit-dp", {"flip_index": 3}, "flip_index", "is not a config key"),
        ("audit-dp", {"observable": "payment", "payment_index": 0, "alpha": 0.1, "beta": 1.0,
                      "p0": 1.0 / 3.0, "p1": 2.0 / 3.0},
         "payment_index", "must be an integer in [1, 10), got 0"),
        ("audit-dp", {"observable": "payment", "payment_index": 10, "alpha": 0.1, "beta": 1.0,
                      "p0": 1.0 / 3.0, "p1": 2.0 / 3.0},
         "payment_index", "must be an integer in [1, 10), got 10"),
        ("threshold", {"prior": prior_with(cost0={"lo": 0.3, "hi": 0.3})},
         "prior", "prior.cost0: uniform needs 0 <= lo < hi, got [0.3, 0.3]"),
        *((command, {"off": "lie"}, "off", "is not a config key") for command in BASE_CONFIGS),
        *((command, {"out": "records.csv"}, "out", "is not a config key")
          for command in BASE_CONFIGS),
    ], ids=["alpha_prime", "alpha_prime-null", "flip_index", "payment_index-0",
            "payment_index-n", "zero-width-uniform", *(f"off-{c}" for c in BASE_CONFIGS),
            *(f"out-{c}" for c in BASE_CONFIGS)])
    def test_removed_input_exits_1(self, tmp_path, capsys, command, extra, key, message):
        # The accuracy radius is always derived, audit-dp always flips report
        # 0 (so agent 0 is never the one paid), a cost law with all its mass
        # at one point is a point_mass, the peers' off-threshold play is the
        # `off` of `strategy`, and the CSV path is --out alone.
        config = write_config(tmp_path, dict(BASE_CONFIGS[command], **extra))
        assert dispatch([command, "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == f"config error: config key '{key}': {message}"

    @pytest.mark.parametrize("command", ["run", "audit-equilibrium"])
    def test_chen_cost_model_needs_epsilon_at_most_1(self, tmp_path, capsys, command):
        payload = dict(BASE_CONFIGS[command], epsilon=2.0, cost_model={"kind": "chen"})
        assert dispatch([command, "--config", write_config(tmp_path, payload)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == (
            "config error: config key 'epsilon': the quadratic (chen) cost model needs "
            "epsilon <= 1, got 2.0")

    @pytest.mark.parametrize("command, strategy", [
        ("audit-equilibrium", {"kind": "threshold", "tau": "auto", "off": "abstain"}),
        ("audit-equilibrium", {"kind": "threshold", "tau": "auto", "off": "lie"}),
        ("cost-scaling", None),
    ], ids=["audit-equilibrium-abstain", "audit-equilibrium-lie", "cost-scaling-None"])
    def test_driver_accepts_the_values_it_uses(self, tmp_path, capsys, command, strategy):
        # "derive" values change nothing.
        base = dict(BASE_CONFIGS[command], **({"strategy": strategy} if strategy else {}))
        same = dict(base, tau="auto", p0=None, p1=None)
        if command == "cost-scaling":
            same.update(epsilon="auto", beta="auto")
        stdouts = []
        for name, payload in (("base.json", base), ("same.json", same)):
            config = write_config(tmp_path, payload, name=name)
            assert dispatch([command, "--config", config]) in EXIT_BY_VERDICT.values()
            stdouts.append(capsys.readouterr().out)
        assert stdouts[0] == stdouts[1]

    @pytest.mark.parametrize("command", list(BASE_CONFIGS))
    def test_base_run_leaves_the_listed_keys_unread(self, tmp_path, capsys, monkeypatch,
                                                    command):
        read = set()

        def spy(r, *args, _emit=cli._emit, **kwargs):
            read.update(key for key in cli.KEYS if key in r.__dict__)
            return _emit(r, *args, **kwargs)

        monkeypatch.setattr(cli, "_emit", spy)
        config = write_config(tmp_path, BASE_CONFIGS[command])
        assert dispatch([command, "--config", config]) in EXIT_BY_VERDICT.values()
        capsys.readouterr()
        assert cli.KEYS - read == set(BASE_UNREAD[command])

    @pytest.mark.parametrize("command, key", UNREAD_CASES)
    def test_key_the_command_never_reads_is_rejected(self, tmp_path, capsys, command, key):
        # One rule in every command: a set key the run never read fails the
        # run, naming the key, before any output is written.
        config = write_config(tmp_path, dict(BASE_CONFIGS[command], **{key: WELL_TYPED[key]}))
        out = tmp_path / "records.csv"
        csv_args = [] if command in NO_CSV_COMMANDS else ["--out", str(out)]
        assert dispatch([command, "--config", config, *csv_args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        assert captured.err.startswith(f"config error: config key '{key}': is not read by "
                                       f"{command}")

    @pytest.mark.parametrize("command, driver, key", [
        ("run", "simulate_survey", "ones"),
        ("audit-dp", "dp_audit", "prior"),
        ("audit-equilibrium", "best_response_audit", "ones"),
        ("accuracy", "accuracy_experiment", "ones"),
        ("cost-scaling", "cost_scaling_experiment", "ones"),
    ])
    def test_key_the_command_never_reads_stops_it_before_its_driver(
            self, tmp_path, capsys, monkeypatch, command, driver, key):
        def never_called(*args, **kwargs):
            raise AssertionError(f"{driver} ran")

        monkeypatch.setattr(cli, driver, never_called)
        config = write_config(tmp_path, dict(BASE_CONFIGS[command], **{key: WELL_TYPED[key]}))
        assert dispatch([command, "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: config key '{key}': is not read by "
                                       f"{command}")

    @pytest.mark.parametrize("command", list(BASE_CONFIGS))
    def test_derive_values_mean_a_missing_key(self, tmp_path, capsys, command):
        base = BASE_CONFIGS[command]
        derive = dict(base, **{k: v for k, v in DERIVE_VALUES.items() if k not in base})
        runs = []
        for name, payload in (("base.json", base), ("derive.json", derive)):
            config = write_config(tmp_path, payload, name=name)
            runs.append((dispatch([command, "--config", config]), capsys.readouterr().out))
        assert runs[0][0] in EXIT_BY_VERDICT.values()
        assert runs[0] == runs[1]

    def test_driver_blames_what_it_used_not_an_unread_pin(self, tmp_path, capsys):
        # cost-scaling derives tau itself at each n: a pinned tau is not the
        # derived tau of 0.
        config = write_config(tmp_path, dict(BASE_CONFIGS["cost-scaling"], prior=FREE_PRIOR,
                                             tau=0.5))
        assert dispatch(["cost-scaling", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("config error: config key 'prior'")

    def test_audit_reads_a_run_config(self, tmp_path, capsys):
        # The README's schema config serves run and audit-equilibrium alike,
        # and both resolve the same epsilon, beta, tau, p0, p1 and seed.
        config = write_config(tmp_path, SCHEMA_CONFIG)
        resolved = []
        for command in ("run", "audit-equilibrium"):
            assert dispatch([command, "--config", config]) == 0
            resolved.append(json.loads(capsys.readouterr().out)["resolved"])
        assert resolved[0] == resolved[1]
        assert None not in resolved[0].values()

    def test_audit_leaves_the_run_records_alone(self, tmp_path, capsys):
        # Only --out says where a CSV goes, so auditing a run's config never
        # writes over the run's records.
        config = write_config(tmp_path, SCHEMA_CONFIG)
        records, audit = tmp_path / "records.csv", tmp_path / "audit.csv"
        assert dispatch(["run", "--config", config, "--out", str(records)]) == 0
        before = records.read_bytes()
        assert dispatch(["audit-equilibrium", "--config", config, "--out", str(audit)]) == 0
        capsys.readouterr()
        assert records.read_bytes() == before
        assert (len(before.splitlines()), len(audit.read_bytes().splitlines())) == (1_001, 7)
        # A config `out` is no config key: both commands stop before any work.
        stray = tmp_path / "stray.csv"
        config = write_config(tmp_path, dict(SCHEMA_CONFIG, out=str(stray)), name="out.json")
        files = sorted(tmp_path.iterdir())
        for command in ("run", "audit-equilibrium"):
            assert dispatch([command, "--config", config]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "config error: config key 'out': is not a config key\n"
        assert sorted(tmp_path.iterdir()) == files
        assert records.read_bytes() == before

    def test_audit_with_its_derived_values_pinned(self, tmp_path, capsys):
        # p0 and p1 pinned to the values the audit derives, and the default
        # strategy written out, print the plain audit's stdout byte for byte.
        plain = {k: v for k, v in BASE_CONFIGS["audit-equilibrium"].items()
                 if k != "posterior_samples"}
        assert dispatch(["audit-equilibrium", "--config", write_config(tmp_path, plain)]) == 0
        stdout = capsys.readouterr().out
        resolved = json.loads(stdout)["resolved"]
        pinned = dict(plain, p0=resolved["p0"], p1=resolved["p1"],
                      strategy={"kind": "threshold", "tau": "auto", "off": "abstain"})
        config = write_config(tmp_path, pinned, name="pinned.json")
        assert dispatch(["audit-equilibrium", "--config", config]) == 0
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize("extra, code", [
        ({"prior": FREE_PRIOR, "tau": 0.5}, 0),
        ({"prior": FREE_PRIOR, "beta": 0.05}, 0),
        ({"epsilon": 1e-9, "p0": 0.3, "p1": 0.7}, 2),
        ({"strategy": {"kind": "constant_bit", "value": 1}}, 2),
    ], ids=["free-pinned-tau", "free-pinned-beta", "tiny-epsilon-pinned-p", "all-1"])
    def test_audit_runs_what_run_runs(self, tmp_path, capsys, extra, code):
        # A pinned tau is the tau a free prior cannot derive; a pinned beta
        # needs no tau above 0; pinned p0 and p1 keep a gap that noise would
        # close.  Each config runs, as it does for run, and the audit's
        # verdict decides its exit code.  Peers who all report 1 make truth
        # a worse reply than copying them.
        base = {k: v for k, v in BASE_CONFIGS["audit-equilibrium"].items()
                if k not in CROSS_CHECK_KEYS}
        config = write_config(tmp_path, dict(base, **extra))
        assert dispatch(["run", "--config", config]) == 0
        capsys.readouterr()
        assert dispatch(["audit-equilibrium", "--config", config]) == code
        assert capsys.readouterr().err == ""

    def test_tau_conditions_on_a_bit_only_under_unequal_cost_laws(self, tmp_path, capsys):
        # With equal cost laws tau never conditions on an own bit, so a bit of
        # zero prior probability does not stop threshold, or run with p0 and
        # p1 pinned (and so no posterior_samples to size their cross-check).
        run = {k: v for k, v in BASE_CONFIGS["run"].items() if k != "posterior_samples"}
        for command, base, extra in (("threshold", BASE_CONFIGS["threshold"], {}),
                                     ("run", run, {"p0": 0.2, "p1": 0.8})):
            payload = dict(base, prior=ZERO_BIT_PRIOR, **extra)
            config = write_config(tmp_path, payload)
            assert dispatch([command, "--config", config]) == 0
            capsys.readouterr()
        unequal = dict(ZERO_BIT_PRIOR, cost1={"kind": "uniform", "lo": 0.0, "hi": 2.0})
        config = write_config(tmp_path, dict(BASE_CONFIGS["threshold"], prior=unequal))
        assert dispatch(["threshold", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("config error: config key 'prior'")

    @pytest.mark.parametrize("command", ["run", "audit-equilibrium"])
    @pytest.mark.parametrize("key", CROSS_CHECK_KEYS)
    def test_cross_check_key_with_nothing_to_check(self, tmp_path, capsys, command, key):
        # tau, beta, p0 and p1 pinned: the run derives nothing to cross-check,
        # and fails before it writes any output.
        payload = {k: v for k, v in BASE_CONFIGS[command].items() if k not in CROSS_CHECK_KEYS}
        payload.update(tau=0.8, beta=0.05, p0=0.3, p1=0.7, **{key: 1_000})
        config = write_config(tmp_path, payload)
        out = tmp_path / "records.csv"
        assert dispatch([command, "--config", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config key '{key}'")
        assert captured.out == ""
        assert not out.exists()

    def test_unreachable_participation_level_blames_alpha(self, tmp_path, capsys):
        # Exponential costs have no top: the search cap never holds all but a
        # 1e-9 fraction of 20,000 agents.
        prior = dict(UNIFORM_PRIOR, cost0={"kind": "exponential", "rate": 1.0},
                     cost1={"kind": "exponential", "rate": 1.0})
        payload = dict(BASE_CONFIGS["threshold"], prior=prior, n=20_000, alpha=1e-9,
                       delta=0.001)
        config = write_config(tmp_path, payload)
        assert dispatch(["threshold", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("config error: config key 'alpha'")

    def test_vanishing_gap_blames_alpha_without_a_pinned_epsilon(self, tmp_path, capsys):
        # The prior's own p0/p1 gap (1/3) is too narrow for alpha = 0.2.
        config = write_config(tmp_path, dict(BASE_CONFIGS["audit-equilibrium"], alpha=0.2))
        assert dispatch(["audit-equilibrium", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("config error: config key 'alpha'")

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE_CONFIGS["run"])
        out = tmp_path / "missing" / "records.csv"
        assert dispatch(["run", "--config", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: --out: cannot write '{out}'")
        assert not out.exists()

    def test_other_exceptions_are_internal_errors(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("not a config problem")

        monkeypatch.setattr(cli, "simulate_survey", broken)
        config = write_config(tmp_path, BASE_CONFIGS["run"])
        assert dispatch(["run", "--config", config]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error")
        assert "Traceback" in err and "not a config problem" in err

    def test_every_command_reports_the_same_resolved_keys(self, tmp_path, capsys):
        for command, payload in BASE_CONFIGS.items():
            config = write_config(tmp_path, payload, name=f"{command}.json")
            assert dispatch([command, "--config", config]) in EXIT_BY_VERDICT.values()
            resolved = json.loads(capsys.readouterr().out)["resolved"]
            assert list(resolved) == ["epsilon", "beta", "tau", "p0", "p1", "seed"]
            assert resolved["seed"] == payload["seed"]

    def test_threshold_reports_the_tau_run_resolves(self, tmp_path, capsys):
        # threshold reads what tau is derived from, and rejects run's other keys.
        config = write_config(tmp_path, BASE_CONFIGS["run"])
        reads = ("prior", "n", "alpha", "delta", "threshold_trials", "seed")
        threshold_config = write_config(
            tmp_path, {key: BASE_CONFIGS["run"][key] for key in reads}, name="threshold.json")
        assert dispatch(["threshold", "--config", threshold_config]) == 0
        threshold = json.loads(capsys.readouterr().out)
        assert dispatch(["run", "--config", config]) == 0
        run = json.loads(capsys.readouterr().out)
        assert threshold["tau"] == threshold["resolved"]["tau"] == run["resolved"]["tau"]


def write_rows_fmt17(path, header, rows):
    """Reference: the per-row writer the CLI used before its column writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                format(float(v), ".17g") if isinstance(v, float) else str(v) for v in row
            ])


def test_column_writer_matches_per_row_reference(tmp_path):
    floats = [0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, -1.0 / 3.0]
    ints = [0, -1, 7, 2**62, -(2**53) - 1, 10, 100, 12345678901]
    strings = ["truth", "lie", "abstain", "", "x y", "é", "a;b", "abstain"]
    header = ("f", "i", "s")
    write_rows_fmt17(tmp_path / "reference.csv", header, list(zip(floats, ints, strings)))
    write_csv(str(tmp_path / "arrays.csv"), {
        "f": np.array(floats), "i": np.array(ints, dtype=np.int64), "s": np.array(strings),
    })
    assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    # Long enough to span several blocks of formatted rows.
    trial = np.arange(20_000)
    write_rows_fmt17(tmp_path / "long_reference.csv", ("trial", "x"),
                     [(int(t), float(t) / 7.0) for t in trial])
    write_csv(str(tmp_path / "long.csv"), {"trial": trial, "x": trial / 7.0})
    assert (tmp_path / "long.csv").read_bytes() == (tmp_path / "long_reference.csv").read_bytes()


def reference_bytes(tmp_path, columns):
    """The bytes the per-row reference writer gives for `columns`."""
    path = tmp_path / "reference.csv"
    write_rows_fmt17(path, tuple(columns), list(zip(*(c.tolist() for c in columns.values()))))
    return path.read_bytes()


@pytest.mark.parametrize("columns, expected", [
    ({"trial": np.arange(0), "x": np.zeros(0)}, b"trial,x\r\n"),
    ({"a": np.array([1, 2, 3]), "b": np.array([1.0])}, ValueError),
], ids=["zero_rows", "unequal_lengths"])
def test_column_writer_edge_cases(tmp_path, columns, expected):
    # Columns of unequal length raise before the file is opened, so no
    # partial CSV is left, whether or not there is a path.
    out = tmp_path / "out.csv"
    if expected is ValueError:
        for path in (str(out), None):
            with pytest.raises(ValueError, match="equal lengths.*'a': 3, 'b': 1"):
                write_csv(path, columns)
        assert not out.exists()
        return
    write_csv(str(out), columns)
    assert out.read_bytes() == reference_bytes(tmp_path, columns) == expected


def test_column_writer_rejects_an_empty_column_set(tmp_path):
    # A CSV needs a header: with no columns nothing is written, not even a
    # bare line break.
    out = tmp_path / "out.csv"
    for path in (str(out), None):
        with pytest.raises(ValueError, match="at least one column, got an empty column set"):
            write_csv(path, {})
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.array([True, False]), np.array([[1.5], [2.0]]), [1.5, 2.0],
                                 np.array([1.5, "x"], dtype=object)],
                         ids=["bool", "2-D", "list", "object"])
def test_column_writer_rejects_a_column_outside_its_contract(tmp_path, bad):
    # Every column is checked before the file is opened: the error names the
    # column, and no header-only CSV is left behind.
    out = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="CSV column 'b' must be a 1-D numpy array"):
        write_csv(str(out), {"x": np.array([1.5, 2.0]), "b": bad})
    assert not out.exists()


def command_csv(tmp_path, monkeypatch, command, payload):
    """Run `command` on `payload`; the columns it hands write_csv, and the
    bytes written."""
    captured = []

    def spy(path, columns):
        captured.append(columns)
        write_csv(path, columns)

    monkeypatch.setattr(cli, "write_csv", spy)
    out = tmp_path / "out.csv"
    config = write_config(tmp_path, payload)
    assert dispatch([command, "--config", config, "--out", str(out)]) in EXIT_BY_VERDICT.values()
    [columns] = captured
    # write_csv's contract: 1-D numpy arrays of floats, integers or text.
    for name, column in columns.items():
        assert isinstance(column, np.ndarray), name
        assert column.ndim == 1 and column.dtype.kind in "fiuU", (name, column.dtype)
    return columns, out.read_bytes()


@pytest.mark.parametrize("command", ["run", "accuracy", "cost-scaling", "audit-dp",
                                     "audit-equilibrium"])
def test_every_command_csv_matches_per_row_reference(tmp_path, capsys, monkeypatch, command):
    columns, written = command_csv(tmp_path, monkeypatch, command, BASE_CONFIGS[command])
    capsys.readouterr()
    assert written == reference_bytes(tmp_path, columns)


MULTI_BLOCK_ROWS = 2 * cli._BLOCK_ROWS + 1


# Each command's CSV at MULTI_BLOCK_ROWS rows or more: a row per trial, per
# trial and n, or per bin.
@pytest.mark.parametrize("command, overrides", [
    ("run", {"trials": MULTI_BLOCK_ROWS}),
    ("accuracy", {"trials": MULTI_BLOCK_ROWS}),
    ("cost-scaling", {"trials": MULTI_BLOCK_ROWS // 2 + 1}),
    ("audit-dp", {"bins": MULTI_BLOCK_ROWS, "trials": 250_000}),
], ids=["run", "accuracy", "cost-scaling", "audit-dp"])
def test_multi_block_command_csv_matches_per_row_reference(tmp_path, capsys, monkeypatch,
                                                           command, overrides):
    # Past one block, write_csv renders each distinct float of a block once.
    payload = dict(BASE_CONFIGS[command], **overrides)
    columns, written = command_csv(tmp_path, monkeypatch, command, payload)
    capsys.readouterr()
    assert len(next(iter(columns.values()))) >= MULTI_BLOCK_ROWS
    assert written == reference_bytes(tmp_path, columns)


def test_multi_block_write_renders_each_distinct_float_once_per_block(tmp_path, capsys,
                                                                      monkeypatch):
    calls = []

    def spy(x, _float_cells=cli._float_cells):
        calls.append(x)
        return _float_cells(x)

    monkeypatch.setattr(cli, "_float_cells", spy)
    payload = dict(BASE_CONFIGS["run"], trials=MULTI_BLOCK_ROWS)
    columns, _ = command_csv(tmp_path, monkeypatch, "run", payload)
    capsys.readouterr()
    floats = np.array([c for c in columns.values() if c.dtype.kind == "f"])
    distinct = [np.unique(floats[:, lo:lo + cli._BLOCK_ROWS].view(np.uint64)).size
                for lo in range(0, MULTI_BLOCK_ROWS, cli._BLOCK_ROWS)]
    for x in calls:
        assert np.unique(x.view(np.uint64)).size == x.size
    assert [x.size for x in calls] == distinct and len(distinct) == 3
    # The run table repeats its floats: far fewer are formatted than written.
    assert sum(distinct) < floats.size / 2


def assert_matches_reference(directory, columns):
    """write_csv writes the per-row reference writer's bytes for `columns`."""
    write_csv(str(directory / "out.csv"), columns)
    assert (directory / "out.csv").read_bytes() == reference_bytes(directory, columns)


def ties_at_the_18th_digit(rng, per_exponent=200):
    """Doubles t / 2**(17 - e) with t odd in [10**e, 10**(e + 1)): times
    10**(16 - e) each is an odd multiple of 1/2, an exact tie."""
    parts = []
    for e in range(-4, 16):
        scale = 2.0 ** (17 - e)
        t = rng.integers(math.ceil(10.0**e * scale), int(10.0 ** (e + 1) * scale), per_exponent)
        parts.append((t | 1) / scale)
    return np.concatenate(parts)


class TestColumnKernels:
    """write_csv's numpy rendering against the per-row reference writer."""

    if HAVE_HYPOTHESIS:

        @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
        def test_any_float64_bit_pattern(self, tmp_path_factory, bits):
            # Subnormals, signed zeros, infinities and NaN payloads included.
            x = np.array(bits, dtype=np.uint64).view(np.float64)
            assert_matches_reference(tmp_path_factory.mktemp("bits"), {"x": x, "y": x[::-1]})

        @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
        def test_any_float64_bit_pattern_past_two_blocks(self, tmp_path_factory, bits):
            # Tiled, the drawn patterns repeat in every block of a file of
            # more than one block, each rendered once per block.
            pattern = np.array(bits, dtype=np.uint64).view(np.float64)
            x = np.resize(pattern, 2 * cli._BLOCK_ROWS + len(bits))
            assert_matches_reference(tmp_path_factory.mktemp("tiled"), {"x": x, "y": x[::-1]})

    def test_repeated_floats_across_blocks(self, tmp_path):
        # Values a float equality would merge or split: signed zeros, NaNs
        # of both signs and two payloads, and each neighbour of the fast
        # path's bounds, drawn from a small pool over 3 blocks and 5 rows.
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                         0xFFF0000000000001], dtype=np.uint64).view(np.float64)
        bounds = [np.nextafter(b, t) for b in (1e-4, 1e17) for t in (0.0, np.inf)]
        pool = np.concatenate([
            [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-4, 1e17], nans, bounds,
            ties_at_the_18th_digit(np.random.default_rng(2), per_exponent=1)[::4],
        ])
        rows = 3 * cli._BLOCK_ROWS + 5
        rng = np.random.default_rng(3)
        assert_matches_reference(tmp_path, {
            "trial": np.arange(rows), "x": rng.choice(pool, rows), "y": rng.choice(pool, rows),
        })

    def test_powers_of_ten_and_their_neighbours(self, tmp_path):
        values = []
        for k in range(-12, 19):
            below = above = 10.0**k
            for _ in range(40):
                below = np.nextafter(below, 0.0)
                values += [below, above]
                above = np.nextafter(above, np.inf)
        # Literals that round to the next power of ten, and the doubles just
        # below the fast path's bounds.
        values += [9.9999999999999999e3, 9.99999999999999999e-5, 99999999999999999.0,
                   np.nextafter(1e-4, 0.0), np.nextafter(1e17, 0.0), 0.5, 2.5, 0.0, -0.0]
        x = np.array(values)
        assert_matches_reference(tmp_path, {"x": np.concatenate([x, -x])})

    def test_decimal_exponents_come_from_correctly_rounded_powers(self):
        # A double at or above powers[k + 4] is at or above 10**k, so
        # counting the powers at or below it gives its decimal exponent.
        from fractions import Fraction

        powers = cli._tables().powers
        for k in range(-4, 21):
            assert Fraction(powers[k + 4]) >= Fraction(10) ** k
            assert Fraction(np.nextafter(powers[k + 4], 0.0)) < Fraction(10) ** k

    def test_exact_ties_at_the_18th_digit(self, tmp_path):
        x = ties_at_the_18th_digit(np.random.default_rng(0))
        assert_matches_reference(tmp_path, {"x": x, "neg": -x})

    def test_float_and_int_extremes(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1.0, 1.0, 1000) * 10.0 ** rng.integers(-8, 20, 1000)
        ints = np.array([0, 1, -1, 9, 10, 9999, 10_000, -10_000, 2**53 + 1,
                         -(2**63), 2**63 - 1] * 3, dtype=np.int64)
        assert_matches_reference(tmp_path, {
            "f": x[:len(ints)], "i": ints, "u": ints.astype(np.uint64),
        })
        big = np.array([2**63, 2**63 + 1, 10**19 - 1, 10**19, 2**64 - 1], dtype=np.uint64)
        assert_matches_reference(tmp_path, {"u": big, "f": big.astype(np.float64)})
        floats = np.array([0.1, -2.5, 1e300, 5e-324, math.nan, -math.inf, -0.0, 12345.678, 1e-4])
        assert_matches_reference(tmp_path, {"f": floats, "t": floats[::-1]})

    def test_longest_python_text_in_a_narrow_cell(self, tmp_path):
        # Small numbers need the narrowest cells; these texts are 24 bytes.
        x = np.array([0.5, -5e-324, -2.2250738585072014e-308])
        assert_matches_reference(tmp_path, {"x": x})

    def test_text_cells_keep_every_byte(self, tmp_path):
        # A numpy str array drops trailing NULs, so the NUL-first cell ends in
        # another character.
        s = np.array(["a\x00b", "\x00z", "é", "ü"])
        assert_matches_reference(tmp_path, {"s": s, "i": np.arange(4)})
        assert b"a\x00b,0\r\n\x00z,1\r\n" in (tmp_path / "out.csv").read_bytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_row_counts_around_the_block_size(self, tmp_path, offset):
        rows = cli._BLOCK_ROWS + offset
        rng = np.random.default_rng(rows)
        assert_matches_reference(tmp_path, {
            "trial": np.arange(rows), "x": rng.standard_normal(rows),
            "y": rng.uniform(0.0, 1e-3, rows), "n": rng.integers(-5, 300, rows),
        })

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        import tracemalloc

        def peak(rows):
            rng = np.random.default_rng(rows)
            columns = {f"x{k}": rng.uniform(0.0, 100.0, rows) for k in range(6)}
            tracemalloc.start()
            try:
                write_csv(str(tmp_path / f"{rows}.csv"), columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = peak(100_000)
        assert peak(400_000) <= small + 256 * 1024


class TestRunCommand:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        config = write_config(tmp_path, run_config(tmp_path))
        assert dispatch(["run", "--config", config, "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "run"
        assert payload["trials"] == 40
        assert payload["resolved"]["seed"] == 7
        assert payload["resolved"]["beta"] > 0.0
        rows = read_csv(out)
        assert rows[0] == ["trial", "p_hat", "p_tilde", "abs_error",
                           "total_payment", "min_payment", "max_payment",
                           "participants"]
        assert len(rows) == 41
        assert 0.0 <= float(rows[1][1]) <= 1.0

    def test_missing_prior_named(self, tmp_path, capsys):
        payload = run_config(tmp_path)
        del payload["prior"]
        config = write_config(tmp_path, payload)
        assert dispatch(["run", "--config", config]) == 1
        assert "prior" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(BASE_CONFIGS))
    def test_byte_identical_reruns(self, tmp_path, capsys, command):
        # posterior and threshold write no CSV and take no --out; the others
        # must repeat their CSV.
        config = write_config(tmp_path, BASE_CONFIGS[command])
        writes_csv = command not in NO_CSV_COMMANDS
        runs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = dispatch([command, "--config", config]
                            + (["--out", str(out)] if writes_csv else []))
            assert code in EXIT_BY_VERDICT.values()
            runs.append((code, capsys.readouterr().out, out.read_bytes() if out.exists() else None))
        assert runs[0] == runs[1]
        assert (runs[0][2] is not None) == writes_csv

    @pytest.mark.parametrize("command", NO_CSV_COMMANDS)
    def test_out_flag_without_a_csv_is_rejected(self, tmp_path, capsys, command):
        config = write_config(tmp_path, BASE_CONFIGS[command])
        out = tmp_path / "records.csv"
        assert dispatch([command, "--config", config, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: --out: names a CSV, but {command} writes none\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", list(BASE_CONFIGS))
    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys, command):
        # The config alone holds the seed.
        config = write_config(tmp_path, BASE_CONFIGS[command])
        assert dispatch([command, "--config", config, "--seed", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --seed 5" in captured.err

    @pytest.mark.parametrize("command", NO_CSV_COMMANDS)
    def test_config_seed_without_a_draw_is_rejected(self, tmp_path, capsys, command):
        # A well-formed config seed that no draw reads is an unread key like any other.
        payload = {key: value for key, value in BASE_CONFIGS[command].items()
                   if key not in CROSS_CHECK_KEYS}
        config = write_config(tmp_path, dict(payload, seed=7))
        assert dispatch([command, "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: config key 'seed': is not read by {command}\n"
        del payload["seed"]
        config = write_config(tmp_path, payload, name="seedless.json")
        assert dispatch([command, "--config", config]) == 0
        assert json.loads(capsys.readouterr().out)["resolved"]["seed"] is None

    @pytest.mark.parametrize("seed", ["x", -3, True, 1.5])
    @pytest.mark.parametrize("command", NO_CSV_COMMANDS)
    def test_malformed_config_seed_without_a_draw_is_rejected(self, tmp_path, capsys, command,
                                                              seed):
        # Read nowhere, a config seed is rejected whatever its value.
        payload = {key: value for key, value in BASE_CONFIGS[command].items()
                   if key not in CROSS_CHECK_KEYS}
        config = write_config(tmp_path, dict(payload, seed=seed))
        assert dispatch([command, "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: config key 'seed'")

    def test_pinned_parameters_skip_estimation(self, tmp_path, capsys):
        # Explicit beta, posteriors and strategy leave nothing to derive, and a
        # pinned epsilon leaves delta unread.
        config = write_config(tmp_path, {
            "prior": UNIFORM_PRIOR, "n": 50, "alpha": 0.1,
            "epsilon": 0.5, "beta": 0.5, "p0": 1.0 / 3.0, "p1": 2.0 / 3.0,
            "strategy": {"kind": "always_truth"}, "trials": 20, "seed": 1,
        })
        assert dispatch(["run", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["resolved"]["tau"] is None
        assert payload["resolved"]["beta"] == 0.5
        assert payload["mean_participants"] == 50.0

    def test_bad_strategy_kind(self, tmp_path, capsys):
        config = write_config(
            tmp_path, run_config(tmp_path, strategy={"kind": "mirror"})
        )
        assert dispatch(["run", "--config", config]) == 1
        assert "strategy" in capsys.readouterr().err


class TestPosteriorCommand:
    def test_structure(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "prior": UNIFORM_PRIOR, "n": 50, "epsilon": 0.5, "seed": 4,
            "posterior_samples": 20_000,
        })
        assert dispatch(["posterior", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form"]["p1"] == pytest.approx(2.0 / 3.0)
        assert payload["closed_form"]["p0"] == pytest.approx(1.0 / 3.0)
        assert payload["max_abs_gap"] < 0.05
        assert 0.0 <= payload["clamped_mean"]["p0"] <= 1.0

    def test_large_epsilon_does_not_warn(self, tmp_path, capsys):
        # At epsilon 100 the noise's scale is 0.01: 1 - e^(-1/s) rounds to
        # 1, and the clamped means equal the closed forms.
        config = write_config(tmp_path, {"prior": prior_with(mixing={"a": 2.0}), "n": 50,
                                         "epsilon": 100})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(["posterior", "--config", config]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["max_abs_gap"] <= 1e-15


class TestThresholdCommand:
    def test_structure(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "prior": UNIFORM_PRIOR, "n": 100, "alpha": 0.1, "delta": 0.1,
            "threshold_trials": 20_000, "seed": 3,
        })
        assert dispatch(["threshold", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau"] == pytest.approx(
            max(payload["tau_group"], payload["tau_marginal"])
        )
        assert 0.8 < payload["tau"] < 1.0

    def test_tau_marginal_far_below_the_search_cap(self, tmp_path, capsys):
        # Zero-holders' costs lie in [0, 1e-100], so a peer's cost reaches the
        # 0.9 quantile at 0.9 / 0.99 * 1e-100, hundreds of halvings below
        # the cap: both parts of tau are the first grid cost.
        prior = prior_with(cost0={"hi": 1e-100})
        prior["mixing"] = {"kind": "point", "theta": 0.01}
        config = write_config(tmp_path, {"prior": prior, "n": 60, "alpha": 0.1, "delta": 0.1})
        assert dispatch(["threshold", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau_marginal"] == payload["tau"] == payload["tau_group"] == 1e-4

    def test_tau_marginal_at_the_off_grid_search_cap(self, tmp_path, capsys):
        # Exponential costs never reach all but alpha = 1e-6 of the marginal
        # mass below the search cap, their 1 - 1e-6 quantile ln(1e6) / 3,
        # which is off the 1e-4 grid: the cap itself is tau_marginal.
        prior = {"family": "conditional_iid", "mixing": {"kind": "point", "theta": 0.5},
                 "cost0": {"kind": "exponential", "rate": 3.0},
                 "cost1": {"kind": "exponential", "rate": 3.0}}
        config = write_config(tmp_path, {"prior": prior, "n": 2, "alpha": 1e-6, "delta": 0.1})
        assert dispatch(["threshold", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        cap = float(PriorSpec.from_dict(prior).cost0.quantile(COST_SEARCH_QUANTILE))
        assert payload["tau"] == payload["tau_marginal"] == cap == 4.605170185978506
        assert payload["tau_group"] == 1.2254

    def test_beta_density_infinite_at_both_ends_does_not_warn(self, tmp_path, capsys):
        # Beta(0.5, 0.5) mixing with unequal cost laws: the quadrature meets
        # a density infinite at both ends and must not warn, or a
        # warnings-as-errors run would exit with an internal error.
        prior = prior_with(mixing={"a": 0.5, "b": 0.5}, cost0={"hi": 2.0})
        prior["cost1"] = {"kind": "exponential", "rate": 2.0}
        config = write_config(tmp_path, {"prior": prior, "n": 5000, "alpha": 0.02,
                                         "delta": 0.1})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(["threshold", "--config", config]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["tau"] == 1.9843


class TestImportFootprint:
    def test_scipy_stats_and_integrate_load_only_on_demand(self, tmp_path):
        # scipy.stats is never imported, and scipy.integrate only for the
        # quadrature under Beta mixing with unequal cost laws.
        prior = dict(UNIFORM_PRIOR, mixing={"kind": "beta", "a": 2.0, "b": 5.0},
                     cost1={"kind": "exponential", "rate": 2.0})
        config = write_config(tmp_path, {"prior": prior, "n": 60, "alpha": 0.1, "delta": 0.1})
        script = ("import sys\n"
                  "import peersurvey.cli\n"
                  "loaded = sorted({'scipy.stats', 'scipy.integrate'} & set(sys.modules))\n"
                  "code = peersurvey.cli.dispatch(['threshold', '--config', sys.argv[1]])\n"
                  "print(loaded, code, 'scipy.integrate' in sys.modules, file=sys.stderr)\n")
        src = str(Path(peersurvey.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script, config], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
        assert json.loads(done.stdout)["tau"] > 0.0
        assert done.stderr.splitlines()[-1] == "[] 0 True"


    def test_exact_audit_leaves_scipy_linalg_unloaded(self):
        # The audit's exact means run no linear algebra: loading
        # scipy.linalg would cost time at every start.
        script = ("import sys\n"
                  "import peersurvey.cli\n"
                  "from peersurvey import CostModel, PriorSpec, best_response_audit\n"
                  "prior = PriorSpec.from_dict(dict(\n"
                  f"    {UNIFORM_PRIOR!r}, mixing={{'kind': 'beta', 'a': 0.5, 'b': 2.0}}))\n"
                  "report = best_response_audit(prior, 200, 0.1, 0.1, 0.12, CostModel('linear'),\n"
                  "                             1_000, 3)\n"
                  "print(report.overall, 'scipy.linalg' in sys.modules)\n")
        src = str(Path(peersurvey.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), check=True)
        assert done.stdout.split() == ["Pass", "False"]


class TestClosedStdout:
    def test_closed_pipe_keeps_the_exit_code(self, tmp_path):
        # The reader is gone before the report is written: the report is
        # dropped, and neither the exit code nor stderr reports an error.
        config = write_config(tmp_path, BASE_CONFIGS["threshold"])
        src = str(Path(peersurvey.__file__).resolve().parents[1])
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "peersurvey.cli", "threshold", "--config", config],
                stdout=write_end, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src))
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")


class TestAuditDpCommand:
    def audit_config(self, **overrides):
        payload = {
            "n": 10, "ones": 5, "epsilon": 0.5, "trials": 1_000_000,
            "bins": 20, "seed": 7,
        }
        payload.update(overrides)
        return payload

    def test_calibrated_noise_passes(self, tmp_path, capsys):
        out = tmp_path / "bins.csv"
        config = write_config(tmp_path, self.audit_config())
        # The mechanism adds noise calibrated for the claimed epsilon, so
        # the measured ratio should sit well inside the budget.
        code = dispatch(["audit-dp", "--config", config, "--out", str(out)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verdict"] == "Pass"
        rows = read_csv(out)
        assert rows[0][0] == "bin_lo"
        assert len(rows) == 21
        assert sum(int(r[2]) for r in rows[1:]) == 1_000_000

    def test_calibrated_noise_passes_at_the_trial_floor(self, tmp_path, capsys):
        # The verdict reads exact masses, so at 1e5 trials it is the same on
        # every seed, with 18 of the 20 bins at epsilon.
        ratios = set()
        for seed in (1, 3, 7):
            config = write_config(tmp_path, dict(BASE_CONFIGS["audit-dp"], seed=seed))
            assert dispatch(["audit-dp", "--config", config]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["verdict"] == "Pass"
            assert payload["cross_check"]["max_abs_z"] < 5.0
            ratios.add(payload["max_log_ratio"])
        assert len(ratios) == 1 and abs(ratios.pop() - 0.5) <= 1e-9

    def test_bins_the_trials_cannot_fill_name_bins(self, tmp_path, capsys):
        # The cross-check needs its count floor per bin on average; more bins
        # are a config problem, not a bug, and are rejected before any draw.
        config = write_config(tmp_path, self.audit_config(n=1000, ones=500, trials=100_000,
                                                          bins=1_000_000))
        assert dispatch(["audit-dp", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0].startswith(
            "config error: config key 'bins': must be at most trials / 50 = 2000")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("bins, code", [(2_000, 0), (2_001, 1)])
    def test_bins_bound_edge(self, tmp_path, capsys, bins, code):
        config = write_config(tmp_path, dict(BASE_CONFIGS["audit-dp"], bins=bins))
        assert dispatch(["audit-dp", "--config", config]) == code
        captured = capsys.readouterr()
        if code == 0:
            assert abs(json.loads(captured.out)["max_log_ratio"] - 0.5) <= 1e-9
        else:
            assert captured.err.startswith("config error: config key 'bins'")

    def test_ones_bounded_by_n(self, tmp_path, capsys):
        config = write_config(tmp_path, self.audit_config(ones=11))
        assert dispatch(["audit-dp", "--config", config]) == 1
        assert "ones" in capsys.readouterr().err

    def test_unknown_observable(self, tmp_path, capsys):
        config = write_config(tmp_path, self.audit_config(observable="transcript"))
        assert dispatch(["audit-dp", "--config", config]) == 1
        assert "observable" in capsys.readouterr().err

    def test_estimate_audit_reads_alpha_for_epsilon_auto(self, tmp_path, capsys):
        # epsilon "auto" is derived from alpha and delta, so the audit of the
        # estimate reads alpha there, and accepts it.
        payload = dict(BASE_CONFIGS["audit-dp"], epsilon="auto", alpha=0.1, delta=0.1)
        config = write_config(tmp_path, payload)
        assert dispatch(["audit-dp", "--config", config]) in (0, 2)
        assert json.loads(capsys.readouterr().out)["resolved"]["epsilon"] > 0.0

    def test_epsilon_auto_needs_alpha_and_delta(self, tmp_path, capsys):
        payload = {k: v for k, v in BASE_CONFIGS["audit-dp"].items() if k != "epsilon"}
        assert dispatch(["audit-dp", "--config", write_config(tmp_path, payload)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0] == (
            "config error: config key 'epsilon': 'auto' needs alpha and delta")

    @pytest.mark.parametrize("key, value", [("prior", {"family": "x"}), ("delta", 0.1),
                                            ("tau", 0.5), ("posterior_samples", 1_000)])
    def test_payment_audit_rejects_keys_it_does_not_read(self, tmp_path, capsys, key, value):
        # With epsilon, beta, p0 and p1 pinned, nothing reads the prior,
        # delta or tau, and nothing is derived for a cross-check to check.
        config = write_config(tmp_path, self.audit_config(
            observable="payment", payment_index=3, alpha=0.1, beta=1.0, p0=1.0 / 3.0,
            p1=2.0 / 3.0, **{key: value}))
        assert dispatch(["audit-dp", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0].startswith(
            f"config error: config key '{key}': is not read by audit-dp")

    def test_payment_audit_reads_what_it_derives_from(self, tmp_path, capsys):
        # epsilon, beta, tau, p0 and p1 derived: the prior, delta, the cost
        # model and both cross-check sizes are read, and accepted.
        payload = {"n": 60, "ones": 30, "trials": 100_000, "seed": 7, "observable": "payment",
                   "payment_index": 3, "alpha": 0.1, "delta": 0.1, "epsilon": "auto",
                   "beta": "auto", "tau": "auto", "prior": UNIFORM_PRIOR,
                   "cost_model": {"kind": "linear"}, "posterior_samples": 5_000,
                   "threshold_trials": 5_000}
        config = write_config(tmp_path, payload)
        out = tmp_path / "audit.csv"
        assert dispatch(["audit-dp", "--config", config, "--out", str(out)]) in (0, 2)
        # The derived values' cross-checks join the histogram's.
        assert list(json.loads(capsys.readouterr().out)["cross_check"]) == [
            "samples", "bins_checked", "max_abs_z", "tau", "p0", "p1"]

    def test_payment_observable_runs(self, tmp_path, capsys):
        config = write_config(tmp_path, self.audit_config(
            observable="payment", payment_index=3, alpha=0.1, beta=1.0,
            p0=1.0 / 3.0, p1=2.0 / 3.0,
        ))
        code = dispatch(["audit-dp", "--config", config])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verdict"] == "Pass"
        # Payments post-process the shared noisy sum, so they can leak no
        # more than the sum itself does.
        assert payload["max_log_ratio"] <= 0.55


class TestAuditEquilibriumCommand:
    def equilibrium_config(self, **overrides):
        payload = {
            "prior": UNIFORM_PRIOR, "n": 200, "alpha": 0.1, "delta": 0.1,
            "epsilon": "auto", "beta": "auto", "cost_model": {"kind": "linear"},
            "trials": 4_000, "seed": 3,
            "threshold_trials": 20_000, "posterior_samples": 20_000,
        }
        payload.update(overrides)
        return payload

    def test_truthful_design_passes(self, tmp_path, capsys):
        out = tmp_path / "audit.csv"
        config = write_config(tmp_path, self.equilibrium_config())
        code = dispatch(["audit-equilibrium", "--config", config,
                         "--out", str(out)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verdicts"]["truth_dominates"] == "Pass"
        # beta is derived, so beta_covers_cost_bound is not decided.
        assert list(payload["verdicts"]) == ["truth_ge_beta", "lie_le_zero", "truth_dominates"]
        rows = read_csv(out)
        assert rows[0] == ["bit", "action", "mean_payment", "utility_lower_bound"]
        assert len(rows) == 7  # header + 2 bits x 3 actions
        assert {r[1] for r in rows[1:]} == {"truth", "lie", "abstain"}

    def test_narrow_alpha_is_decided_exactly(self, tmp_path, capsys):
        # A narrow accuracy target leaves truth a margin over beta (0.026)
        # below the 99% CI of 1,000 Monte Carlo trials (0.038); the exact
        # payments decide it, and the trials size only the cross-check.
        config = write_config(tmp_path, self.equilibrium_config(
            alpha=0.02, trials=1_000, seed=5, posterior_samples=50_000,
        ))
        code = dispatch(["audit-equilibrium", "--config", config])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert set(payload["verdicts"].values()) == {"Pass"}
        assert payload["truth_payment_mean"] - payload["beta"] < 0.03
        assert "truth_payment_ci" not in payload and "lie_payment_ci" not in payload
        for bit in ("0", "1"):
            check = payload["per_bit"][bit]["cross_check"]
            assert check["samples"] == 1_000
            exact = payload["per_bit"][bit]["mean_peer_estimate"]
            assert check["z"] == pytest.approx((check["mc"] - exact) / check["se"])
            assert abs(check["z"]) < 5.0

    @pytest.mark.parametrize("command, payload", [
        ("audit-equilibrium", BASE_CONFIGS["audit-equilibrium"]),
        ("posterior", {"prior": ZERO_SPREAD_PRIOR, "n": 5, "epsilon": 20,
                       "posterior_samples": 100, "seed": 4}),
        ("run", {"prior": ZERO_SPREAD_PRIOR, "n": 5, "alpha": 0.1, "delta": 0.1, "epsilon": 20,
                 "beta": 1, "trials": 10, "seed": 4, "posterior_samples": 100}),
        ("audit-equilibrium", {"prior": ZERO_SPREAD_PRIOR, "n": 5, "alpha": 0.1, "delta": 0.1,
                               "epsilon": 20, "trials": 1_000, "seed": 4}),
    ], ids=["audit-equilibrium", "posterior-no-spread", "run-no-spread",
            "audit-equilibrium-no-spread"])
    def test_stdout_is_strict_json(self, tmp_path, capsys, command, payload):
        # No NaN or Infinity, which RFC 8259 parsers such as jq reject: each
        # bit prints its exact mean estimate, abstaining included, and a
        # cross-check whose draws are all equal (se 0) but off the exact
        # value prints a null z.
        config = write_config(tmp_path, payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch([command, "--config", config]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        per_bit = report.get("per_bit", {}).values()
        for rows in per_bit:
            assert math.isfinite(rows["mean_peer_estimate"])
        checks = [*report.get("cross_check", {}).values(), *(rows["cross_check"] for rows in per_bit)]
        assert checks
        for check in checks:
            assert (check["z"] is None) == (check["se"] == 0.0 and check["mc"] != check["exact"])
        if payload["prior"] is ZERO_SPREAD_PRIOR:
            assert any(check["z"] is None for check in checks)

    def test_pinned_beta_below_the_cost_bound_fails(self, tmp_path, capsys):
        # A pinned beta is the one lever on the cover verdict: below the
        # privacy-cost bound at tau the audit fails, by the margin it prints.
        config = write_config(tmp_path, dict(BASE_CONFIGS["audit-equilibrium"], beta=1e-6))
        assert dispatch(["audit-equilibrium", "--config", config]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["beta"] == 1e-6
        assert payload["verdicts"]["beta_covers_cost_bound"] == "Fail"
        assert payload["verdicts"]["truth_dominates"] == "Fail"
        detail = payload["detail"]
        assert detail["beta_margin_over_cost_bound"] == 1e-6 - detail["privacy_cost_bound_at_tau"]
        assert detail["beta_margin_over_cost_bound"] < -0.3

    def test_trials_floor(self, tmp_path, capsys):
        config = write_config(tmp_path, self.equilibrium_config(trials=100))
        assert dispatch(["audit-equilibrium", "--config", config]) == 1
        assert "trials" in capsys.readouterr().err


class TestAccuracyCommand:
    def test_csv_agrees_with_summary(self, tmp_path, capsys):
        out = tmp_path / "acc.csv"
        config = write_config(tmp_path, {
            "prior": UNIFORM_PRIOR, "n": 200, "alpha": 0.1, "delta": 0.1,
            "epsilon": "auto", "trials": 400, "seed": 11,
            "threshold_trials": 5_000,
        })
        code = dispatch(["accuracy", "--config", config, "--out", str(out)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verdict"] == "Pass"
        rows = read_csv(out)[1:]
        assert len(rows) == 400
        fraction = sum(int(r[4]) for r in rows) / 400.0
        assert fraction == pytest.approx(payload["success_fraction"])

    def test_simulates_once(self, tmp_path, capsys, monkeypatch):
        from peersurvey import equilibrium

        calls = []
        original = equilibrium.simulate_estimates

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(equilibrium, "simulate_estimates", counted)
        config = write_config(tmp_path, {
            "prior": UNIFORM_PRIOR, "n": 50, "alpha": 0.1, "delta": 0.1,
            "epsilon": "auto", "trials": 200, "seed": 3,
            "threshold_trials": 5_000,
        })
        out = tmp_path / "acc.csv"
        assert dispatch(["accuracy", "--config", config, "--out", str(out)]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        assert len(read_csv(out)) == 201


class TestCostScalingCommand:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        config = write_config(tmp_path, {
            "prior": UNIFORM_PRIOR, "alpha": 0.1, "delta": 0.1,
            "ns": [100, 200], "trials": 50, "seed": 2,
            "threshold_trials": 5_000, "posterior_samples": 5_000,
        })
        code = dispatch(["cost-scaling", "--config", config, "--out", str(out)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [row["n"] for row in payload["rows"]] == [100, 200]
        assert payload["slope"] < 0.0
        rows = read_csv(out)[1:]
        assert len(rows) == 100
        assert {r[0] for r in rows} == {"100", "200"}

    def test_negative_mean_total_payment_fails(self, tmp_path, capsys, monkeypatch):
        original = cli.cost_scaling_experiment

        def negated(*args, **kwargs):
            report = original(*args, **kwargs)
            rows = tuple(dataclasses.replace(row, total_payment_mean=-row.total_payment_mean)
                         for row in report.rows)
            return dataclasses.replace(report, rows=rows)

        monkeypatch.setattr(cli, "cost_scaling_experiment", negated)
        out = tmp_path / "scaling.csv"
        config = write_config(tmp_path, BASE_CONFIGS["cost-scaling"])
        assert dispatch(["cost-scaling", "--config", config, "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "Fail"
        assert payload["slope"] is None
        assert len(read_csv(out)) == 41

    def test_stdout_independent_of_blas_threads(self, tmp_path):
        # At n = 20,001 the exact p0/p1 sums 20,001 terms, past the size at
        # which OpenBLAS splits one dot across threads.
        config = write_config(tmp_path, {
            "prior": dict(UNIFORM_PRIOR, mixing={"kind": "atoms",
                                                 "atoms": [[0.5, 0.2], [0.5, 0.8]]}),
            "alpha": 0.1, "delta": 0.1, "ns": [500, 20_001], "trials": 5, "seed": 2,
        })
        src = str(Path(peersurvey.__file__).resolve().parents[1])
        stdouts = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-m", "peersurvey.cli", "cost-scaling", "--config", config],
                capture_output=True, env=env, check=True)
            stdouts.append(done.stdout)
        assert stdouts[0] == stdouts[1]

    def test_single_size_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "prior": UNIFORM_PRIOR, "alpha": 0.1, "delta": 0.1,
            "ns": [100], "trials": 50, "seed": 2,
        })
        assert dispatch(["cost-scaling", "--config", config]) == 1
        assert "ns" in capsys.readouterr().err


class TestExactDerivations:
    @pytest.mark.parametrize("command", ["run", "audit-equilibrium", "cost-scaling"])
    def test_no_monte_carlo_without_the_cross_check_keys(self, tmp_path, capsys, monkeypatch,
                                                         command):
        from peersurvey import priors

        calls = []
        for module, name in ((cli, "peer_estimate_mc"), (cli, "group_prob_mc"),
                             (priors, "group_prob_mc")):
            monkeypatch.setattr(module, name, lambda *a, _name=name, **k: calls.append(_name))
        payload = {k: v for k, v in BASE_CONFIGS[command].items() if k not in CROSS_CHECK_KEYS}
        config = write_config(tmp_path, payload)
        assert dispatch([command, "--config", config]) in EXIT_BY_VERDICT.values()
        report = json.loads(capsys.readouterr().out)
        assert calls == []
        assert "cross_check" not in report
        assert all("cross_check" not in row for row in report.get("rows", ()))

    @pytest.mark.parametrize("command", ["audit-equilibrium", "cost-scaling"])
    def test_drivers_derive_each_parameter_once(self, tmp_path, capsys, monkeypatch, command):
        from peersurvey import equilibrium

        calls = []
        for module, name in ((cli, "cost_threshold_parts"), (cli, "posterior_clamped_mean"),
                             (equilibrium, "cost_threshold"),
                             (equilibrium, "posterior_clamped_mean")):
            def counted(*a, _exact=getattr(module, name), **k):
                calls.append("tau" if _exact.__name__.startswith("cost") else "p")
                return _exact(*a, **k)
            monkeypatch.setattr(module, name, counted)
        payload = {k: v for k, v in BASE_CONFIGS[command].items() if k not in CROSS_CHECK_KEYS}
        config = write_config(tmp_path, payload)
        assert dispatch([command, "--config", config]) in EXIT_BY_VERDICT.values()
        capsys.readouterr()
        sizes = len(payload.get("ns", [payload.get("n")]))
        assert sorted(calls) == ["p"] * 2 * sizes + ["tau"] * sizes

    @pytest.mark.parametrize("command", ["run", "posterior", "threshold", "audit-equilibrium",
                                         "accuracy", "cost-scaling"])
    def test_cross_check_sits_beside_the_exact_values(self, tmp_path, capsys, command):
        # The cross-check keys add a block and change nothing else.
        with_keys = BASE_CONFIGS[command]
        # posterior and threshold read the seed only for the cross-check.
        dropped = CROSS_CHECK_KEYS + (("seed",) if command in NO_CSV_COMMANDS else ())
        without = {k: v for k, v in with_keys.items() if k not in dropped}
        reports = []
        for name, payload in (("with.json", with_keys), ("without.json", without)):
            config = write_config(tmp_path, payload, name=name)
            assert dispatch([command, "--config", config]) in EXIT_BY_VERDICT.values()
            reports.append(json.loads(capsys.readouterr().out))
        checked, plain = reports
        assert plain["resolved"]["seed"] == (
            None if command in NO_CSV_COMMANDS else checked["resolved"]["seed"])
        plain["resolved"]["seed"] = checked["resolved"]["seed"]
        blocks = [row.pop("cross_check") for row in checked.get("rows", ())]
        if not blocks:
            blocks = [checked.pop("cross_check")]
            exact = [checked["resolved"]]
        else:
            exact = checked["rows"]
        assert checked == plain
        for block, values in zip(blocks, exact):
            assert block  # every set key derived something here
            for key, entry in block.items():
                assert list(entry) == ["exact", "mc", "se", "samples", "z"]
                assert entry["samples"] == with_keys[
                    "threshold_trials" if key == "tau" else "posterior_samples"]
                assert abs(entry["z"]) < 5.0
                if key == "tau":  # the chance that defines tau, at tau
                    assert entry["exact"] >= 1.0 - with_keys["delta"] / 2.0
                else:
                    assert entry["exact"] == values[key]

    def test_tau_cross_check_samples_under_equal_cost_laws(self, tmp_path, capsys):
        # Equal cost laws make tau's chance a binomial tail free of theta;
        # the cross-check still samples it, with a positive standard error.
        config = write_config(tmp_path, BASE_CONFIGS["threshold"])
        assert dispatch(["threshold", "--config", config]) == 0
        check = json.loads(capsys.readouterr().out)["cross_check"]["tau"]
        assert check["se"] > 0.0
        assert abs(check["z"]) < 5.0

    def test_one_seed_rule_for_every_command(self, tmp_path, capsys):
        # The cross-checks at n are seeded by (seed, n, slot) in every
        # command: run at n = 500 prints the cost-scaling row's block.
        shared = {"prior": UNIFORM_PRIOR, "alpha": 0.1, "delta": 0.1, "trials": 20, "seed": 4,
                  "threshold_trials": 5_000, "posterior_samples": 5_000}
        blocks = []
        for command, size in (("run", {"n": 500}), ("cost-scaling", {"ns": [500, 1000]})):
            config = write_config(tmp_path, dict(shared, **size), name=f"{command}.json")
            assert dispatch([command, "--config", config, "--out",
                             str(tmp_path / f"{command}.csv")]) == 0
            report = json.loads(capsys.readouterr().out)
            blocks.append(report["cross_check"] if command == "run"
                          else report["rows"][0]["cross_check"])
        assert list(blocks[0]) == ["tau", "p0", "p1"]
        assert blocks[0] == blocks[1]

    @pytest.mark.parametrize("first", ["_mechanism", "strategy"])
    def test_cross_check_order_is_fixed(self, tmp_path, capsys, monkeypatch, first):
        # Reading the mechanism first derives p0 and p1 before tau, reading
        # the strategy first tau before p0 and p1; stdout is the same bytes.
        config = write_config(tmp_path, BASE_CONFIGS["run"])
        assert dispatch(["run", "--config", config]) == 0
        expected = capsys.readouterr().out

        def read_first_then_run(r, _run=cli._cmd_run):
            getattr(r, first)
            return _run(r)

        monkeypatch.setitem(cli._HANDLERS, "run", read_first_then_run)
        assert dispatch(["run", "--config", config]) == 0
        out = capsys.readouterr().out
        assert out == expected
        assert list(json.loads(out)["cross_check"]) == ["tau", "p0", "p1"]

    def test_resolved_predictions_are_exact(self, tmp_path, capsys):
        from peersurvey.equilibrium import epsilon_rule
        from peersurvey.priors import PriorSpec, posterior_clamped_mean

        config = write_config(tmp_path, BASE_CONFIGS["run"])
        assert dispatch(["run", "--config", config]) == 0
        resolved = json.loads(capsys.readouterr().out)["resolved"]
        prior = PriorSpec.from_dict(UNIFORM_PRIOR)
        epsilon = epsilon_rule(0.1, 0.1, 60)
        assert resolved["epsilon"] == epsilon
        for bit in (0, 1):
            assert resolved[f"p{bit}"] == posterior_clamped_mean(prior, bit, 60, epsilon)
