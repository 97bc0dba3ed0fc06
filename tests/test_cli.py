import csv
import json

import pytest

from peersurvey.cli import EXIT_BY_VERDICT, ConfigError, dispatch

UNIFORM_PRIOR = {
    "family": "conditional_iid",
    "mixing": {"kind": "beta", "a": 1.0, "b": 1.0},
    "cost0": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "cost1": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
}


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

    def test_threads_must_be_positive(self, tmp_path, capsys):
        config = write_config(tmp_path, run_config(tmp_path))
        assert dispatch(["run", "--config", config, "--threads", "0"]) == 1
        assert "--threads" in capsys.readouterr().err

    def test_config_error_is_prefixed_and_keyed(self):
        err = ConfigError("alpha", "must be a number")
        assert err.key == "alpha"
        assert "alpha" in str(err)


class TestRunCommand:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        config = write_config(tmp_path, run_config(tmp_path, out=str(out)))
        assert dispatch(["run", "--config", config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "run"
        assert payload["trials"] == 40
        assert payload["resolved"]["seed"] == 7
        assert payload["resolved"]["threads"] == 1
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

    def test_byte_identical_reruns(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        config = write_config(tmp_path, run_config(tmp_path))
        assert dispatch(["run", "--config", config, "--out", str(out_a)]) == 0
        first = capsys.readouterr().out
        assert dispatch(["run", "--config", config, "--out", str(out_b)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_threads_flag_never_changes_results(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        config = write_config(tmp_path, run_config(tmp_path))
        assert dispatch(["run", "--config", config, "--out", str(out_a)]) == 0
        first = json.loads(capsys.readouterr().out)
        assert dispatch(["run", "--config", config, "--out", str(out_b),
                         "--threads", "4"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert out_a.read_bytes() == out_b.read_bytes()
        assert second["resolved"]["threads"] == 4
        second["resolved"]["threads"] = first["resolved"]["threads"]
        assert first == second

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


class TestAuditDpCommand:
    def audit_config(self, **overrides):
        payload = {
            "n": 10, "ones": 5, "epsilon": 0.5, "trials": 1_000_000,
            "bins": 20, "seed": 7, "noise": "sample",
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

    def test_no_noise_fails(self, tmp_path, capsys):
        config = write_config(
            tmp_path, self.audit_config(noise="disabled", trials=100_000)
        )
        code = dispatch(["audit-dp", "--config", config])
        payload = json.loads(capsys.readouterr().out)
        assert code == 2
        assert payload["verdict"] == "Fail"

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
        assert rows[0] == ["bit", "action", "mean_payment", "ci_halfwidth",
                           "utility_lower_bound"]
        assert len(rows) == 7  # header + 2 bits x 3 actions
        assert {r[1] for r in rows[1:]} == {"truth", "lie", "abstain"}

    def test_starved_sampling_is_inconclusive(self, tmp_path, capsys):
        # A narrow accuracy target shrinks the truth premium below the
        # Monte Carlo noise floor at this trial count; the audit must
        # report uncertainty rather than guess.
        config = write_config(tmp_path, self.equilibrium_config(
            alpha=0.02, trials=1_000, seed=5, posterior_samples=50_000,
        ))
        code = dispatch(["audit-equilibrium", "--config", config])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["verdicts"]["truth_dominates"] == "Inconclusive"

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

    def test_single_size_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "prior": UNIFORM_PRIOR, "alpha": 0.1, "delta": 0.1,
            "ns": [100], "trials": 50, "seed": 2,
        })
        assert dispatch(["cost-scaling", "--config", config]) == 1
        assert "ns" in capsys.readouterr().err
