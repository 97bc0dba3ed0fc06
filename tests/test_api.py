"""The README's "Python API" list is the package's top-level surface, and
the traced benchmark's targets are functions the package still defines."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import peersurvey

README = Path(__file__).resolve().parents[1] / "README.md"
SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def documented_names():
    """The names the README's "Python API" section lists, one bullet each."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`", section, re.M)


def test_readme_lists_exactly_the_exported_names():
    names = documented_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(peersurvey.__all__)


def test_every_listed_name_resolves():
    for name in documented_names():
        assert hasattr(peersurvey, name), name


def test_every_traced_bench_target_is_a_package_function(monkeypatch):
    # bench/spans.py wraps each (module, function) of TARGETS; one the package
    # no longer defines breaks the traced benchmark.  Load it by path without
    # writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, function, *_ in spans.TARGETS:
        target = getattr(importlib.import_module(f"peersurvey.{module}"), function, None)
        assert callable(target), f"{module}.{function}"
    # bench/test_bench.py builds the symmetric profile it simulates.
    from peersurvey import agents
    assert callable(agents.StrategyProfile.symmetric)
