"""Tests of the benchmark itself: its tables, tracer, oracle, checks and a
smoke pass over every workload.

Run from the repository root with `python3 -m pytest bench -q`.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def _span(id, metric, parent, start, end, **counts):
    return spans.Span(id, metric, metric, parent, "r", start, end, counts)


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        _span(0, "cli.self_s", None, 0.0, 10.0),
        _span(1, "priors.cost_threshold_s", 0, 1.0, 4.0),
        _span(2, "priors.cost_threshold_s", 1, 2.0, 3.0),
        # Overlaps span 1; only the uncovered part [4, 6] counts again.
        _span(3, "privacy.noise_draw_s", 0, 3.0, 6.0, **{"privacy.noise_draws": 7}),
        _span(4, "priors.cost_threshold_s", None, 11.0, 11.5),
    ]
    own = spans.self_times(tree)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 0.5}
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.self_s"] == 5.0
    assert metrics["priors.cost_threshold_s"] == 3.5
    # Span 2 is nested in a span of the same metric: one call, not two.
    assert metrics["priors.cost_threshold_calls"] == 2
    assert metrics["privacy.noise_draws"] == 7
    assert spans.layer_totals(metrics)["priors"] == 3.5


def test_recorder_sees_calls_through_imported_names():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from peersurvey import agents, cli, equilibrium, priors  # noqa: F401  (cli: every target loaded)
        from peersurvey.mechanism import MechanismConfig

        original = equilibrium.simulate_estimates
        recorder = spans.Recorder("test")
        recorder.install()
        try:
            prior = priors.PriorSpec.from_dict(workloads.UNIFORM_PRIOR)
            config = MechanismConfig(n=20, alpha=0.1, beta=0.5, epsilon=1.0, p0=0.3, p1=0.7)
            profile = agents.StrategyProfile.symmetric(agents.Threshold(tau=0.9))
            equilibrium.simulate_survey(prior, config, profile, 100, 3)
        finally:
            recorder.uninstall()
        assert equilibrium.simulate_estimates is original
    finally:
        sys.path.remove(str(ROOT / "src"))
    by_name = {s.name: s for s in recorder.spans}
    driver = by_name["equilibrium.simulate_survey"]
    assert by_name["equilibrium.simulate_estimates"].parent == driver.id
    assert by_name["agents.strategy_arrays"].parent == by_name["equilibrium.simulate_estimates"].id
    assert by_name["equilibrium.simulate_estimates"].counts == {"equilibrium.sim_cells": 2000}
    assert recorder.absent == []


@pytest.mark.parametrize("mixing", [
    {"kind": "beta", "a": 1.0, "b": 1.0},
    {"kind": "beta", "a": 2.5, "b": 0.7},
    {"kind": "atoms", "atoms": [[0.5, 0.2], [0.5, 0.8]]},
])
@pytest.mark.parametrize("bit", [0, 1])
def test_oracle_matches_direct_sampling(mixing, bit):
    n, epsilon, samples = 15, 0.4, 400_000
    rng = np.random.default_rng(11)
    if mixing["kind"] == "beta":
        theta = rng.beta(mixing["a"] + bit, mixing["b"] + 1 - bit, samples)
    else:
        w = np.array([a[0] for a in mixing["atoms"]])
        t = np.array([a[1] for a in mixing["atoms"]])
        post = w * (t if bit else 1.0 - t)
        theta = rng.choice(t, size=samples, p=post / post.sum())
    k = rng.binomial(n - 1, theta)
    z = np.clip((k + rng.laplace(0.0, 1.0 / epsilon, samples)) / (n - 1), 0.0, 1.0)
    exact = workloads.clamped_mean_oracle(mixing, bit, n, epsilon)
    assert abs(z.mean() - exact) <= 5.0 * z.std() / math.sqrt(samples)
    assert workloads.peer_count_pmf(mixing, bit, n - 1).sum() == pytest.approx(1.0)


def _smoke_outputs(tmp_path, name):
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from peersurvey.cli import dispatch
    finally:
        sys.path.remove(str(ROOT / "src"))
    workload = workloads.WORKLOADS[name]
    config = workload.config(5, smoke=True)
    config_path, csv_path = tmp_path / "config.json", tmp_path / "out.csv"
    config_path.write_text(json.dumps(config))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = dispatch([workload.command, "--config", str(config_path), "--out", str(csv_path)])
    return workload, config, code, stdout.getvalue(), csv_path


def test_survey_check_rejects_wrong_outputs(tmp_path):
    workload, config, code, stdout, csv_path = _smoke_outputs(tmp_path, "survey-run")
    workload.check(config, code, stdout, csv_path)

    with pytest.raises(workloads.CheckFailed, match="exit code"):
        workload.check(config, 1, stdout, csv_path)
    report = json.loads(stdout)
    report["resolved"]["p0"] += 0.05
    with pytest.raises(workloads.CheckFailed, match="exact value"):
        workload.check(config, code, json.dumps(report), csv_path)

    lines = csv_path.read_text().splitlines()
    row = lines[1].split(",")
    row[3] = repr(float(row[3]) + 1e-3)  # abs_error
    lines[1] = ",".join(row)
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(workloads.CheckFailed, match="abs_error"):
        workload.check(config, code, stdout, csv_path)


def test_privacy_check_rejects_lost_counts(tmp_path):
    workload, config, code, stdout, csv_path = _smoke_outputs(tmp_path, "privacy-audit")
    workload.check(config, code, stdout, csv_path)
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(workloads.CheckFailed, match="sums to"):
        workload.check(config, code, stdout, csv_path)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_run(name):
    proc = _bench("--workload", name, "--seed", "2", "--seconds", "0", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert list(result["metrics"]) == list(run.PER_LAYER)
    assert "absent from the package" not in proc.stdout


def test_smoke_end_to_end_run():
    proc = _bench("--workload", "privacy-audit", "--seed", "4", "--seconds", "0",
                  "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] == run.MIN_RUNS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "survey-run", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
