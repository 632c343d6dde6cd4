"""Trees of a git revision of this checkout, exported for the tools that compare two revisions."""

from __future__ import annotations

import io
import subprocess
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True)


def export(rev: str, into: Path, *trees: str) -> Path:
    """The top-level ``trees`` of ``rev`` (``git archive``), written under ``into``, which is returned."""
    tar = tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, *trees).stdout))
    with tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into
