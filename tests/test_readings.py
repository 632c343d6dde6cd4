"""Smoke test of tools/readings.py, the parser's reading differential."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("readings", ROOT / "tools" / "readings.py")
readings = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(readings)
revisions = sys.modules["revisions"]  # imported by readings, from tools/


def _no_revision_reason():
    """Why the tool cannot export HEAD here, or None when it can."""
    if shutil.which("git") is None:
        return "no git on PATH to export a revision with"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True, text=True)
    if done.returncode != 0:
        return f"not a git checkout with a commit: {done.stderr.strip()}"
    return None


_NO_REVISION = _no_revision_reason()


@pytest.mark.skipif(_NO_REVISION is not None, reason=str(_NO_REVISION))
def test_a_revision_read_against_itself_moves_nothing(tmp_path, capsys):
    src = revisions.export("HEAD", tmp_path / "head", "src") / "src"
    pool, generated = readings.build_pool(0, 300, 200)
    readings.compare(pool, generated, src, src, tmp_path)
    out = capsys.readouterr().out
    total = int(re.search(r"^(\d+) distinct texts", out, re.M)[1])
    counts = dict(re.findall(r"^(\S.*?)\s{2,}(\d+)\b", out, re.M))
    assert len(counts) == 6 and counts.pop("same") == str(total), out
    assert set(counts.values()) == {"0"}, out
    assert "generated texts that moved: 0" in out

