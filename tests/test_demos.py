"""Every demo runs cleanly, and the demos and the README import only names
the package really exports.

Each demo runs in its own interpreter (a few seconds in all) and must exit 0
with nothing on stderr, so a changed signature breaks the suite, not the demo.
Every public name has one import path, the package root; only ``nlbash.synth``
is imported on its own, because the root leaves it out to keep the CLI's
start-up short. Conversely, every exported name has a user: a demo or a
README example imports it, or it is an error or one of the format and
protocol types the README lists. The README's module table is held to
render: no row splits into more cells than its header, and the utility
count it gives for the shipped vocabulary is the shipped file's. Its report
format names exactly the keys a report writes, stored apart from derived.
"""

import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nlbash
from nlbash.harness import EvaluationReport, ExampleResult
from nlbash.metric import aggregate_scores
from nlbash.vocab import default_vocabulary

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_PYTHON = "\n".join(
    re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
)
SOURCES = {d.name: d.read_text(encoding="utf-8") for d in DEMOS} | {"README.md": README_PYTHON}


def _nlbash_imports(source):
    """(module, name) for each name imported from the package; name is None for `import`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nlbash":
            yield from ((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.split(".")[0] == "nlbash")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0 and run.stderr == "", f"{demo.name} exit {run.returncode}:\n{run.stderr}"
    assert run.stdout


@pytest.mark.parametrize("source", SOURCES, ids=list(SOURCES))
def test_library_names_come_from_the_package_root(source):
    imports = list(_nlbash_imports(SOURCES[source]))
    assert imports, f"{source} imports nothing from nlbash"
    elsewhere = [(m, n) for m, n in imports if n is None or m not in ("nlbash", "nlbash.synth")]
    assert not elsewhere, f"{source} imports {elsewhere} past the package root"
    unexported = [n for m, n in imports if m == "nlbash" and n not in nlbash.__all__]
    assert not unexported, f"{source} imports {unexported}, which nlbash.__all__ does not list"


def test_every_exported_name_resolves():
    assert len(set(nlbash.__all__)) == len(nlbash.__all__)
    missing = [name for name in nlbash.__all__ if not hasattr(nlbash, name)]
    assert not missing, f"nlbash.__all__ lists {missing}, which the package does not define"


def test_every_exported_name_has_a_user():
    imported = {n for source in SOURCES.values() for m, n in _nlbash_imports(source) if m == "nlbash"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"the types of the file formats and protocols below \((.*?)\);", readme, re.S)
    assert listed, "the README's Python API section no longer lists the format and protocol types"
    types = set(re.findall(r"`(\w+)`", listed.group(1)))
    errors = {n for n in nlbash.__all__
              if isinstance(getattr(nlbash, n), type) and issubclass(getattr(nlbash, n), nlbash.NlbashError)}
    unused = sorted(set(nlbash.__all__) - imported - types - errors)
    assert not unused, f"nlbash.__all__ exports {unused}, which no demo or README example imports"


def test_readme_module_table_rows_have_the_header_cell_count():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| module "))
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line)
    # an unescaped '|' splits a cell, also inside a code span
    pipes = [len(re.findall(r"(?<!\\)\|", row)) for row in rows]
    wrong = [row[:40] for row, n in zip(rows, pipes) if n != pipes[0]]
    assert len(rows) > 2 and not wrong, f"rows split into extra cells: {wrong}"


def test_readme_states_the_shipped_vocabulary_size():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"A default file with (\d+) common Ubuntu utilities ships", readme)
    assert stated == [str(len(default_vocabulary().flags))]


def test_readme_report_format_names_the_keys_a_report_writes():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^\* \*\*Report\*\*.*?(?=^\* )", readme, re.S | re.M).group(0)
    stored, derived = (set(re.findall(r'`"(\w+)"`', part)) for part in bullet.split("Derived keys:"))
    rows = [ExampleResult("a", aggregate_scores([1.0]), 0.1), ExampleResult("b", aggregate_scores([-1.0]), 0.2, "")]
    written = json.loads(EvaluationReport("p", 5, rows, "f").to_json())
    keys = set(written) | set(written["latency"]) | {key for row in written["per_example"] for key in row}
    assert stored | derived == keys and not stored & derived
    assert stored & set(written) == {field.name for field in dataclasses.fields(EvaluationReport)}
