"""Each narrative script in demos/ runs to completion against the library, and
every call the README's "Key operations" table names is in the namespace."""

import re
import runpy
from pathlib import Path

import pytest

import sparsecut

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_and_namespace_agree():
    section = (ROOT / "README.md").read_text().split("Key operations", 1)[1]
    rows = re.findall(r"^\| (`.*?) \|", section.split("\n\n", 2)[1], flags=re.M)
    names = {re.match(r"\s*(\w+)", call).group(1)
             for row in rows for span in re.findall(r"`([^`]+)`", row)
             for call in span.split("/")}
    assert len(rows) >= 10 and {"threshold_round", "audit_distortion"} <= names
    assert [n for n in sorted(names | set(sparsecut.__all__))
            if not hasattr(sparsecut, n)] == []
