import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import peersurvey
from peersurvey import cli
from peersurvey.cli import EXIT_BY_VERDICT, ConfigError, dispatch, write_csv

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
        ("run", "out", 5),
        ("audit-equilibrium", "off", "sideways"),
        ("audit-equilibrium", "alpha", 0.4),  # the driver's p0/p1 gap is at most 1/3
        ("accuracy", "trials", 50),
        ("accuracy", "alpha_prime", "wide"),
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
        # Keys the audit-equilibrium and cost-scaling drivers derive or fix.
        ("audit-equilibrium", "tau", 0.5),
        ("audit-equilibrium", "p0", 0.3),
        ("audit-equilibrium", "p1", 0.7),
        ("audit-equilibrium", "noise", "disabled"),
        ("audit-equilibrium", "clamp_payments", True),
        ("audit-equilibrium", "strategy", {"kind": "always_truth"}),
        ("audit-equilibrium", "strategy", {"kind": "threshold", "tau": 0.5}),
        ("audit-equilibrium", "strategy", {"kind": "threshold", "tau": "auto", "off": "lie"}),
        ("cost-scaling", "tau", 0.5),
        ("cost-scaling", "p1", 0.7),
        ("cost-scaling", "noise", "disabled"),
        ("cost-scaling", "clamp_payments", True),
        ("cost-scaling", "strategy", {"kind": "always_truth"}),
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
        # posterior and threshold write no CSV, but `out` keeps its rule.
        ("posterior", "out", 5),
        ("threshold", "out", 5),
    ])
    def test_bad_value_names_its_key(self, tmp_path, capsys, command, key, value):
        config = write_config(tmp_path, dict(BASE_CONFIGS[command], **{key: value}))
        assert dispatch([command, "--config", config]) == 1
        first_line = capsys.readouterr().err.splitlines()[0]
        assert first_line.startswith(f"config error: config key '{key}'")

    @pytest.mark.parametrize("command, key, value, message", [
        ("threshold", "prior", prior_with(cost1={"lo": 2.0, "hi": 1.0}),
         "prior.cost1: uniform needs 0 <= lo <= hi"),
        ("threshold", "prior", dict(UNIFORM_PRIOR, cost1=MASSLESS_LOG_NORMAL),
         "prior.cost1: log-normal with mu 800.0 and sigma 1.0 has no mass below cap"),
        ("threshold", "prior", prior_with(mixing={"a": -1.0}),
         "prior.mixing: beta parameters must be positive"),
        ("threshold", "prior", dict(UNIFORM_PRIOR, family="independent_bits"),
         "prior: family must be one of"),
        ("audit-equilibrium", "cost_model", {"kind": "linear", "eta": 2.0},
         "cost_model: eta must lie in [0, 1]"),
        ("run", "strategy", {"kind": "constant_bit", "value": 2},
         "strategy: value must be 0 or 1"),
    ], ids=["cost1-range", "cost1-no-mass", "mixing-range", "family", "eta-range",
            "strategy-value"])
    def test_bad_nested_value_names_its_path(self, tmp_path, capsys, command, key, value,
                                             message):
        # A range error raised by the nested object itself says which one.
        config = write_config(tmp_path, dict(BASE_CONFIGS[command], **{key: value}))
        assert dispatch([command, "--config", config]) == 1
        first_line = capsys.readouterr().err.splitlines()[0]
        assert first_line.startswith(f"config error: config key '{key}': {message}")

    @pytest.mark.parametrize("command, off", [
        ("audit-equilibrium", "abstain"),
        ("audit-equilibrium", "lie"),
        ("cost-scaling", None),
    ])
    def test_driver_accepts_the_values_it_uses(self, tmp_path, capsys, command, off):
        # The default threshold strategy and "derive" values change nothing.
        base = dict(BASE_CONFIGS[command], **({"off": off} if off else {}))
        same = dict(base, tau="auto", p0=None, p1=None,
                    strategy={"kind": "threshold", "tau": "auto", "off": off or "abstain"})
        if command == "cost-scaling":
            same.update(epsilon="auto", beta="auto")
        stdouts = []
        for name, payload in (("base.json", base), ("same.json", same)):
            config = write_config(tmp_path, payload, name=name)
            assert dispatch([command, "--config", config]) in EXIT_BY_VERDICT.values()
            stdouts.append(capsys.readouterr().out)
        assert stdouts[0] == stdouts[1]

    def test_tau_conditions_on_a_bit_only_under_unequal_cost_laws(self, tmp_path, capsys):
        # With equal cost laws tau never conditions on an own bit, so a bit of
        # zero prior probability does not stop threshold, or run with p0 and
        # p1 pinned.
        for command, extra in (("threshold", {}), ("run", {"p0": 0.2, "p1": 0.8})):
            payload = dict(BASE_CONFIGS[command], prior=ZERO_BIT_PRIOR, **extra)
            config = write_config(tmp_path, payload)
            assert dispatch([command, "--config", config]) == 0
            capsys.readouterr()
        unequal = dict(ZERO_BIT_PRIOR, cost1={"kind": "uniform", "lo": 0.0, "hi": 2.0})
        config = write_config(tmp_path, dict(BASE_CONFIGS["threshold"], prior=unequal))
        assert dispatch(["threshold", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("config error: config key 'prior'")

    @pytest.mark.parametrize("key", CROSS_CHECK_KEYS)
    def test_cross_check_key_with_nothing_to_check(self, tmp_path, capsys, key):
        # tau, beta, p0 and p1 pinned: the run derives nothing to cross-check,
        # and fails before it writes any output.
        payload = {k: v for k, v in BASE_CONFIGS["run"].items() if k not in CROSS_CHECK_KEYS}
        payload.update(tau=0.8, beta=0.05, p0=0.3, p1=0.7, **{key: 1_000})
        config = write_config(tmp_path, payload)
        out = tmp_path / "records.csv"
        assert dispatch(["run", "--config", config, "--out", str(out)]) == 1
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
        assert capsys.readouterr().err.startswith("config error: config key 'out'")

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
        config = write_config(tmp_path, BASE_CONFIGS["run"])
        assert dispatch(["threshold", "--config", config]) == 0
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
    bools = [True, False, False, True, True, False, True, False]
    strings = ["truth", "lie", "abstain", "a,b", 'say "x"', "", "line\nbreak", "é"]
    header = ("f", "i", "b", "s")
    write_rows_fmt17(tmp_path / "reference.csv", header,
                     list(zip(floats, ints, bools, strings)))
    write_csv(str(tmp_path / "lists.csv"), dict(zip(header, (floats, ints, bools, strings))))
    write_csv(str(tmp_path / "arrays.csv"), {
        "f": np.array(floats), "i": np.array(ints, dtype=np.int64),
        "b": np.array(bools), "s": np.array(strings),
    })
    reference = (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "lists.csv").read_bytes() == reference
    assert (tmp_path / "arrays.csv").read_bytes() == reference

    # Long enough to span several blocks of formatted rows.
    trial = np.arange(20_000)
    write_rows_fmt17(tmp_path / "long_reference.csv", ("trial", "x"),
                     [(int(t), float(t) / 7.0) for t in trial])
    write_csv(str(tmp_path / "long.csv"), {"trial": trial, "x": trial / 7.0})
    assert (tmp_path / "long.csv").read_bytes() == (tmp_path / "long_reference.csv").read_bytes()


def reference_bytes(tmp_path, columns):
    """The bytes the per-row reference writer gives for `columns`."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    path = tmp_path / "reference.csv"
    write_rows_fmt17(path, tuple(columns), list(zip(*cells)))
    return path.read_bytes()


@pytest.mark.parametrize("columns, expected", [
    ({"trial": np.arange(0), "x": np.zeros(0)}, b"trial,x\r\n"),
    ({'say "x"': [1.5, 2.0], "a,b": np.array([1, 2])},
     b'"say ""x""","a,b"\r\n1.5,1\r\n2,2\r\n'),
    ({"s": ["", "x", ""]}, b's\r\n""\r\nx\r\n""\r\n'),
    ({"": np.array(["", "a,b"])}, b'""\r\n""\r\n"a,b"\r\n'),
    ({"s": ["", ""], "t": ["", "y"]}, b"s,t\r\n,\r\n,y\r\n"),
], ids=["zero_rows", "quoted_header", "lone_empty_cell", "lone_empty_header", "two_empty_cells"])
def test_column_writer_edge_cases(tmp_path, columns, expected):
    # csv.writer quotes an empty field only when it is alone in its row.
    write_csv(str(tmp_path / "out.csv"), columns)
    assert (tmp_path / "out.csv").read_bytes() == reference_bytes(tmp_path, columns) == expected


@pytest.mark.parametrize("command", ["run", "accuracy", "cost-scaling", "audit-dp",
                                     "audit-equilibrium"])
def test_every_command_csv_matches_per_row_reference(tmp_path, capsys, monkeypatch, command):
    captured = []

    def spy(path, columns):
        captured.append(columns)
        write_csv(path, columns)

    monkeypatch.setattr(cli, "write_csv", spy)
    out = tmp_path / "out.csv"
    config = write_config(tmp_path, BASE_CONFIGS[command])
    assert dispatch([command, "--config", config, "--out", str(out)]) in EXIT_BY_VERDICT.values()
    capsys.readouterr()
    [columns] = captured
    assert out.read_bytes() == reference_bytes(tmp_path, columns)


class TestRunCommand:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        config = write_config(tmp_path, run_config(tmp_path, out=str(out)))
        assert dispatch(["run", "--config", config]) == 0
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
        assert captured.err.startswith("config error: config key 'out'")
        assert not out.exists()

    @pytest.mark.parametrize("command", NO_CSV_COMMANDS)
    def test_seed_flag_without_a_draw_is_rejected(self, tmp_path, capsys, command):
        # Without a cross-check key, posterior and threshold draw nothing at random.
        payload = {key: value for key, value in BASE_CONFIGS[command].items()
                   if key not in CROSS_CHECK_KEYS}
        config = write_config(tmp_path, payload)
        assert dispatch([command, "--config", config, "--seed", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: config key 'seed'")
        # The config's seed stays accepted: another command may read it.
        assert dispatch([command, "--config", config]) == 0
        assert json.loads(capsys.readouterr().out)["resolved"]["seed"] is None

    @pytest.mark.parametrize("command", NO_CSV_COMMANDS)
    def test_seed_flag_seeds_the_cross_check(self, tmp_path, capsys, command):
        config = write_config(tmp_path, BASE_CONFIGS[command])
        assert dispatch([command, "--config", config, "--seed", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["resolved"]["seed"] == 5

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        config = write_config(tmp_path, run_config(tmp_path))
        assert dispatch(["run", "--config", config, "--seed", "99"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["resolved"]["seed"] == 99

    def test_pinned_parameters_skip_estimation(self, tmp_path, capsys):
        # Explicit beta, posteriors and strategy leave nothing to derive.
        config = write_config(tmp_path, {
            "prior": UNIFORM_PRIOR, "n": 50, "alpha": 0.1, "delta": 0.1,
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
        # The audit's Gauss nodes come from numpy.linalg: scipy.special's
        # roots_jacobi would load scipy.linalg, a cost at every start.
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

    @pytest.mark.parametrize("seed", [1, 3, 7])
    def test_calibrated_noise_passes_at_the_trial_floor(self, tmp_path, capsys, seed):
        # At 1e5 trials the largest of the 20 observed bin ratios lands above
        # epsilon + tolerance on these seeds, though 18 bins sit at epsilon
        # exactly; the verdict reads the bins' simultaneous lower confidence
        # bounds instead, which stay below.
        config = write_config(tmp_path, dict(BASE_CONFIGS["audit-dp"], seed=seed))
        assert dispatch(["audit-dp", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_log_ratio"] > 0.55 > payload["max_log_ratio_lower"]

    def test_bins_the_trials_cannot_fill_name_bins(self, tmp_path, capsys):
        # No bin holds the count floor, so the histogram can decide nothing;
        # that is a config problem, not a bug.
        config = write_config(tmp_path, self.audit_config(n=1000, ones=500, trials=100_000,
                                                          bins=1_000_000))
        assert dispatch(["audit-dp", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[0].startswith("config error: config key 'bins'")
        assert "Traceback" not in captured.err

    def test_ones_bounded_by_n(self, tmp_path, capsys):
        config = write_config(tmp_path, self.audit_config(ones=11))
        assert dispatch(["audit-dp", "--config", config]) == 1
        assert "ones" in capsys.readouterr().err

    def test_unknown_observable(self, tmp_path, capsys):
        config = write_config(tmp_path, self.audit_config(observable="transcript"))
        assert dispatch(["audit-dp", "--config", config]) == 1
        assert "observable" in capsys.readouterr().err

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
            "epsilon": "auto", "beta": "auto",
            "cost_model": {"kind": "linear", "eta": 1.0},
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

    def test_stdout_is_strict_json(self, tmp_path, capsys):
        # No NaN or Infinity, which RFC 8259 parsers such as jq reject: each
        # bit prints its exact mean estimate, abstaining included.
        config = write_config(tmp_path, BASE_CONFIGS["audit-equilibrium"])
        assert dispatch(["audit-equilibrium", "--config", config]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        for bit in ("0", "1"):
            rows = payload["per_bit"][bit]
            assert math.isfinite(rows["mean_peer_estimate"])

    def test_free_privacy_abstains_at_positive_zero(self, tmp_path, capsys):
        # With eta = 0 the privacy cost is 0, and abstaining's utility bound
        # is its payment minus that cost: 0.0 - 0.0, printed as 0.0, not -0.0.
        config = write_config(tmp_path, dict(BASE_CONFIGS["audit-equilibrium"],
                                             cost_model={"kind": "linear", "eta": 0.0}))
        assert dispatch(["audit-equilibrium", "--config", config]) == 0
        out = capsys.readouterr().out
        assert '"abstain_utility_bound": 0.0,' in out and "-0.0" not in out
        assert math.copysign(1.0, json.loads(out)["abstain_utility_bound"]) == 1.0

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
        for module, name in ((cli, "peer_estimate_mc"), (cli, "cost_threshold_parts_mc"),
                             (priors, "cost_threshold_parts_mc")):
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
        without = {k: v for k, v in with_keys.items() if k not in CROSS_CHECK_KEYS}
        reports = []
        for name, payload in (("with.json", with_keys), ("without.json", without)):
            config = write_config(tmp_path, payload, name=name)
            assert dispatch([command, "--config", config]) in EXIT_BY_VERDICT.values()
            reports.append(json.loads(capsys.readouterr().out))
        checked, plain = reports
        # posterior and threshold use the seed only for the cross-check.
        assert plain["resolved"]["seed"] == (
            None if command in ("posterior", "threshold") else checked["resolved"]["seed"])
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
                assert entry["samples"] == with_keys[
                    "threshold_trials" if key == "tau" else "posterior_samples"]
                slack = 1e-4 if key == "tau" else 0.0  # one cost-grid step
                assert abs(entry["mc"] - values[key]) <= 5.0 * entry["se"] + slack

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
