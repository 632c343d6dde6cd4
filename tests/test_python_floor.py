"""The package sources parse under the oldest Python that pyproject.toml allows.

``ast.parse(..., feature_version=...)`` refuses syntax that the named version
does not have (``except*``, type parameter lists, ...), so a newer construct
cannot slip past the declared ``requires-python`` floor on a newer interpreter.
It checks syntax only, not library calls such as ``zip(strict=True)``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "nlbash").glob("*.py"))
PYPROJECT = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
FLOOR = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT, re.M).groups()))


@pytest.mark.parametrize("source", SOURCES, ids=[s.name for s in SOURCES])
def test_source_parses_at_the_python_floor(source):
    ast.parse(source.read_text(encoding="utf-8"), filename=str(source), feature_version=FLOOR)
