"""The top-level exports are the names the demos, the benchmark and the README use."""

import re
from pathlib import Path

import rotbent

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_is_used_or_an_error_type():
    users = [*ROOT.glob("demos/*"), *ROOT.glob("bench/*.py"), ROOT / "README.md"]
    text = "\n".join(p.read_text(encoding="utf-8") for p in users if p.is_file())
    unused = []
    for name in rotbent.__all__:
        obj = getattr(rotbent, name)  # importable
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        if not re.search(rf"\b{re.escape(name)}\b", text):
            unused.append(name)
    assert unused == []


def test_export_count_stays_small():
    assert len(rotbent.__all__) <= 40
    assert len(set(rotbent.__all__)) == len(rotbent.__all__)
