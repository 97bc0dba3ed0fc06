"""The README's "Python API" list is the package's top-level surface."""

import re
from pathlib import Path

import peersurvey

README = Path(__file__).resolve().parents[1] / "README.md"


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
