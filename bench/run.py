"""Benchmark of the `peersurvey` command line.

Run from the repository root:

    python3 bench/run.py --workload survey-run --seed 1 --seconds 30 --trace 0

The seed goes into the generated config.  Each run of the CLI happens in a
fresh child process, one at a time, while another run fits in `--seconds`
(at least MIN_RUNS untraced runs).  Every run's outputs are checked, and
all runs at one seed must print and write the same bytes.  With `--trace 0` the last
line reports the end-to-end metrics as medians over the runs; with
`--trace 1` traced and untraced runs alternate and it reports the per-layer
metrics of the traced runs.  `--smoke` shrinks every workload to a size that
runs in seconds.  See bench/README.md for the metrics and workloads.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import spans
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent

# name: (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed with the end-to-end metrics but left out of the result line:
# trials_per_s is trials / wall_s, and error_rate is failed / attempted.
DERIVED = {
    "trials_per_s": ("1/s", "higher"),
    "error_rate": ("ratio", "lower"),
}
PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "cli.csv_bytes": ("bytes", "lower"),
    "cli.csv_rows": ("count", "lower"),
    "priors.cost_threshold_s": ("s", "lower"),
    "priors.cost_threshold_calls": ("count", "lower"),
    "priors.posterior_clamped_mean_s": ("s", "lower"),
    "priors.posterior_samples": ("count", "lower"),
    "agents.expected_utility_s": ("s", "lower"),
    "agents.expected_utility_calls": ("count", "lower"),
    "agents.peer_cells": ("count", "lower"),
    "agents.strategy_arrays_s": ("s", "lower"),
    "equilibrium.simulate_estimates_s": ("s", "lower"),
    "equilibrium.sim_cells": ("count", "lower"),
    "equilibrium.driver_self_s": ("s", "lower"),
    "equilibrium.verdicts_decided_ratio": ("ratio", "higher"),
    "mechanism.payment_pair_s": ("s", "lower"),
    "mechanism.payment_evals": ("count", "lower"),
    "scoring.scaled_score_s": ("s", "lower"),
    "privacy.noise_draw_s": ("s", "lower"),
    "privacy.noise_draws": ("count", "lower"),
    "privacy.dp_audit_self_s": ("s", "lower"),
    "privacy.audit_draws": ("count", "lower"),
    "setup.scipy_import_s": ("s", "lower"),
    "setup.package_import_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

MIN_RUNS = 3
DEADLINE_S = 170.0
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
WORK_DIR = ".bench_work"


class ChildFailed(Exception):
    """The child process crashed, timed out or printed no result."""


def machine_record():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "pinned_env": PINNED_THREADS,
    }


def run_child(src, work, index, argv, traced, deadline):
    """Run one CLI call in a child; return its result dict and output paths."""
    stdout_path = work / f"stdout-{index}.json"
    spans_path = work / f"spans-{index}.jsonl"
    env = dict(os.environ, **PINNED_THREADS)
    cmd = [sys.executable, str(HERE / "child.py"), "", str(src), str(int(traced)),
           str(stdout_path), str(spans_path), *argv]
    timeout = max(1.0, deadline - time.monotonic())
    cmd[2] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), stdout_path, spans_path


def summarize(values):
    """Median, quartiles and sample count of a list of numbers."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "count": len(values)}


class Session:
    """The child runs of one workload at one seed, checked and summarized."""

    def __init__(self, root, work, workload, config, deadline):
        self.root = root
        self.work = work
        self.workload = workload
        self.config = config
        self.deadline = deadline
        self.runs = []       # one dict per child, failed ones included
        self._checked = {}   # output digest -> error message or None
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config, indent=1))
        self.argv = [workload.command, "--config", str(config_path),
                     "--out", str(work / "out.csv")]

    def run(self, traced):
        index = len(self.runs)
        record = {"traced": traced, "error": None, "digest": None}
        self.runs.append(record)
        try:
            result, stdout_path, spans_path = run_child(
                self.root / "src", self.work, index, self.argv, traced, self.deadline)
        except ChildFailed as exc:
            record["error"] = str(exc)
            return record
        record.update(result)
        csv_path = self.work / "out.csv"
        stdout_bytes = stdout_path.read_bytes()
        csv_bytes = csv_path.read_bytes() if csv_path.exists() else b""
        record["digest"] = hashlib.sha256(
            hashlib.sha256(stdout_bytes).digest() + hashlib.sha256(csv_bytes).digest()
        ).hexdigest()
        record["cli.csv_bytes"] = len(csv_bytes)
        record["cli.csv_rows"] = max(0, csv_bytes.count(b"\n") - 1)
        if record["digest"] not in self._checked:
            try:
                self.workload.check(self.config, record["exit_code"],
                                    stdout_bytes.decode(), csv_path)
                self._checked[record["digest"]] = None
            except (CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
                self._checked[record["digest"]] = f"{type(exc).__name__}: {exc}"
        record["error"] = self._checked[record["digest"]]
        if traced:
            shutil.copyfile(spans_path, self.root / WORK_DIR / "results"
                            / f"{self.workload.name}-seed{self.config['seed']}-spans.jsonl")
        for path in (stdout_path, spans_path, csv_path):
            path.unlink(missing_ok=True)
        return record

    def finish(self):
        """Mark runs whose outputs differ from the most common digest."""
        digests = Counter(r["digest"] for r in self.runs if r["digest"])
        if digests:
            common = digests.most_common(1)[0][0]
            for r in self.runs:
                if r["digest"] and r["digest"] != common and r["error"] is None:
                    r["error"] = "output digest differs from the other runs at this seed"
        return [r for r in self.runs if r["error"] is None]


def measure(session, seconds, trace):
    """Run children while another one fits in `seconds`; return the good runs.

    With `trace`, each step is an untraced run followed by a traced one.
    """
    started = time.monotonic()
    steps = []
    while True:
        untraced = sum(1 for r in session.runs if not r["traced"])
        if untraced >= (1 if trace else MIN_RUNS):
            expected = statistics.median(steps) if steps else 0.0
            if time.monotonic() - started + expected > seconds:
                break
        if time.monotonic() + max(steps, default=0.0) > session.deadline:
            break
        t0 = time.monotonic()
        session.run(traced=False)
        if trace:
            session.run(traced=True)
        steps.append(time.monotonic() - t0)
    return session.finish()


def end_to_end_metrics(workload, config, runs, attempted):
    trials = workload.trials(config)
    values = {
        "wall_s": [r["wall_s"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "trials_per_s": [trials / r["wall_s"] for r in runs],
        "error_rate": [1.0 - len(runs) / attempted],
    }
    return {name: summarize(v) for name, v in values.items()}


def good_pairs(runs):
    """(untraced, traced) neighbours of a traced session where both succeeded."""
    return [(a, b) for a, b in zip(runs[0::2], runs[1::2])
            if a["error"] is None and b["error"] is None]


def per_layer_metrics(pairs):
    """Medians over the traced runs of `pairs`.

    trace.overhead_s pairs each traced run with the untraced run just
    before it, so that a slow spell of the machine hits both sides.
    """
    traced = [b for _, b in pairs]
    summary = {name: summarize([r.get(name, r["layers"].get(name, 0)) for r in traced])
               for name in PER_LAYER if name != "trace.overhead_s"}
    summary["trace.overhead_s"] = summarize([b["wall_s"] - a["wall_s"] for a, b in pairs])
    return summary


def workload_why(root, name):
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w.get("name") == name), None)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload so a run takes seconds")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "peersurvey" / "cli.py").is_file():
        print("error: no src/peersurvey under the working directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    compileall.compile_dir(str(root / "src" / "peersurvey"), quiet=1)

    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed, smoke=args.smoke)
    work = root / WORK_DIR / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    (root / WORK_DIR / "results").mkdir(exist_ok=True)
    try:
        session = Session(root, work, workload, config, deadline)
        good = measure(session, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in session.runs if r["error"] is not None]
    for r in failed:
        print(f"run failed: {r['error']}", file=sys.stderr)
    pairs = good_pairs(session.runs) if args.trace else None
    if not good or pairs == []:
        print("error: no run succeeded, so there is nothing to measure", file=sys.stderr)
        return 1

    if args.trace:
        summary, reported = per_layer_metrics(pairs), PER_LAYER
    else:
        summary = end_to_end_metrics(workload, config, good, len(session.runs))
        reported = END_TO_END
    units = {**reported, **DERIVED}
    for name, s in summary.items():
        print(f"{name:<36} {s['median']:>14.6g} {units[name][0]:<6} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['count']}")
    absent = sorted({a for r in good for a in r.get("absent", ())})
    if absent:
        print("absent from the package: " + ", ".join(absent))
    if args.trace:
        totals = spans.layer_totals({k: v["median"] for k, v in summary.items()
                                     if k.split(".")[0] not in ("setup", "trace")})
        print("dispatch self time by layer: " + ", ".join(
            f"{layer} {t:.3g} s" for layer, t in sorted(totals.items(), key=lambda kv: -kv[1])))

    record = {
        "workload": workload.name,
        "why": workload_why(root, workload.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "config": config,
        "machine": machine_record(),
        "summary": summary,
        "absent": absent,
        "runs": session.runs,
    }
    result_name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (root / WORK_DIR / "results" / result_name).write_text(json.dumps(record, indent=1))

    print(json.dumps({
        "correct": not failed,
        "attempted": len(session.runs),
        "failed": len(failed),
        "metrics": {name: {"value": summary[name]["median"], "unit": unit}
                    for name, (unit, _) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
