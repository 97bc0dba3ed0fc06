"""Call spans around the package's public functions, and layer metrics.

`Recorder.install` wraps each function in `TARGETS` and rebinds every
attribute of every loaded `peersurvey` module that refers to the same
function object, so calls through `from .x import y` names and nested calls
inside the package are recorded too.  Spans stay in memory until the run
ends.  A target that the package no longer defines is reported as absent.

A layer's time is self time: a span's duration minus the part of it that
its child spans cover.
"""

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "peersurvey"


def _posterior_samples(args, result):
    return {"priors.posterior_samples": int(args["samples"])}


def _utility_counts(args, result):
    if args["action"] == "abstain":  # answered without sampling
        return {}
    return {"agents.expected_utility_calls": 1,
            "agents.peer_cells": int(args["trials"]) * (int(args["config"].n) - 1)}


def _sim_cells(args, result):
    return {"equilibrium.sim_cells": int(args["trials"]) * int(args["n"])}


def _verdict_counts(args, result):
    verdicts = list(result.verdicts.values()) if hasattr(result, "verdicts") else [result.verdict]
    return {"equilibrium.verdicts": len(verdicts),
            "equilibrium.verdicts_decided": sum(v in ("Pass", "Fail") for v in verdicts)}


def _payment_evals(args, result):
    return {"mechanism.payment_evals": int(np.size(args["b_bar"]))}


def _noise_draws(args, result):
    size = args["size"]
    return {"privacy.noise_draws": 1 if size is None else int(np.prod(size))}


def _audit_draws(args, result):
    # Both neighbouring report vectors are run `trials` times.
    return {"privacy.audit_draws": 2 * int(args["trials"])}


# (module, function, self-time metric, counter of (bound arguments, result))
TARGETS = (
    ("cli", "dispatch", "cli.self_s", None),
    ("priors", "cost_threshold", "priors.cost_threshold_s", None),
    ("priors", "cost_threshold_parts", "priors.cost_threshold_s", None),
    ("priors", "posterior_clamped_mean", "priors.posterior_clamped_mean_s", _posterior_samples),
    ("agents", "expected_utility", "agents.expected_utility_s", _utility_counts),
    ("agents", "strategy_arrays", "agents.strategy_arrays_s", None),
    ("equilibrium", "simulate_estimates", "equilibrium.simulate_estimates_s", _sim_cells),
    ("equilibrium", "simulate_survey", "equilibrium.driver_self_s", None),
    ("equilibrium", "best_response_audit", "equilibrium.driver_self_s", _verdict_counts),
    ("equilibrium", "accuracy_experiment", "equilibrium.driver_self_s", _verdict_counts),
    ("equilibrium", "cost_scaling_experiment", "equilibrium.driver_self_s", None),
    ("mechanism", "payment_pair", "mechanism.payment_pair_s", _payment_evals),
    ("scoring", "scaled_score", "scoring.scaled_score_s", None),
    ("privacy", "noise_draw", "privacy.noise_draw_s", _noise_draws),
    ("privacy", "dp_audit", "privacy.dp_audit_self_s", _audit_draws),
)

# Calls counted once per outermost span of a self-time metric, so that
# cost_threshold delegating to cost_threshold_parts is one call.
CALL_METRICS = {"priors.cost_threshold_calls": "priors.cost_threshold_s"}


@dataclass
class Span:
    id: int
    name: str
    metric: str
    parent: int | None
    run: str
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)


class Recorder:
    """Records one span per call of each wrapped function."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.absent = []
        self._open = []
        self._rebound = []

    def wrap(self, name, metric, fn, counter=None):
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1].id if self._open else None
            span = Span(len(self.spans), name, metric, parent, self.run_id, time.perf_counter())
            self.spans.append(span)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if counter:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = counter(bound.arguments, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    # The function's arguments or result changed shape.
                    if f"{name} counts" not in self.absent:
                        self.absent.append(f"{name} counts")
            return result

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target found in the loaded package modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module_name, fn_name, metric, counter in targets:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            fn = getattr(module, fn_name, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{fn_name}")
                continue
            wrapper = self.wrap(f"{module_name}.{fn_name}", metric, fn, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._rebound.append((m, attr, fn))

    def uninstall(self):
        for m, attr, fn in reversed(self._rebound):
            setattr(m, attr, fn)
        self._rebound.clear()


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans):
    """Map span id -> duration minus the time covered by its children."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children.get(s.id, ()))
            for s in spans}


def layer_metrics(spans, targets=TARGETS):
    """Self times, counts and call counts summed over `spans`.

    Every self-time and call metric is present, at 0 when nothing ran; a
    count or ratio is present once a span produced it.
    """
    metrics = {metric: 0.0 for _, _, metric, _ in targets}
    metrics.update({name: 0 for name in CALL_METRICS})
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    for s in spans:
        metrics[s.metric] += own[s.id]
        for name, value in s.counts.items():
            metrics[name] = metrics.get(name, 0) + value
    for name, metric in CALL_METRICS.items():
        metrics[name] = sum(
            1 for s in spans
            if s.metric == metric and (s.parent is None or by_id[s.parent].metric != metric)
        )
    # Inconclusive verdicts are sampling spent without an answer.
    verdicts = metrics.pop("equilibrium.verdicts", 0)
    decided = metrics.pop("equilibrium.verdicts_decided", 0)
    if verdicts:
        metrics["equilibrium.verdicts_decided_ratio"] = decided / verdicts
    return metrics


def layer_totals(metrics):
    """Self time per layer: the module name before the first dot."""
    totals = {}
    for name, value in metrics.items():
        if name.endswith("_s"):
            layer = name.split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + value
    return totals
