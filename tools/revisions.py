"""Trees of this checkout, at a git revision or in the working tree, exported for the tools that compare two sides."""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True, **kwargs)


def export(rev: str | None, into: Path, *trees: str) -> Path:
    """The top-level ``trees`` of ``rev`` (``git archive``), written under ``into``, which is returned. With
    ``rev`` None, they are a tree object of the existing files ``git ls-files --cached --others --exclude-standard``
    lists, built in an index of its own: the checkout's files and index are left as they are."""
    if rev is None:
        listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", "--", *trees).stdout
        with tempfile.TemporaryDirectory(prefix="index-") as tmp:
            env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
            git("update-index", "--add", "--remove", "-z", "--stdin", input=listed, env=env)
            rev = git("write-tree", env=env).stdout.decode().strip()
    tar = tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, *trees).stdout))
    with tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def export_sides(base: str, head: str | None, into: Path, *trees: str) -> tuple[tuple[str, Path], ...]:
    """``(label, directory)`` of ``base`` (labelled with its short hash) and ``head`` (the working tree when
    None), exported under ``into``; a git failure is printed and exits with status 2."""
    try:
        return ((git("rev-parse", "--short", base).stdout.decode().strip(), export(base, into / "base", *trees)),
                (head or "working tree", export(head, into / "head", *trees)))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = (getattr(exc, "stderr", b"") or b"").decode(errors="replace").strip()
        print(f"error: cannot export {', '.join(trees)} with git: {exc} {detail}", file=sys.stderr)
        raise SystemExit(2) from None
