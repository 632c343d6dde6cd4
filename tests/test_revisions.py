"""tools/revisions.py, which exports the sides that tools/pairs.py and tools/readings.py compare."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("revisions", ROOT / "tools" / "revisions.py")
revisions = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(revisions)


def _git(root, *args, **kwargs):
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, check=True, **kwargs).stdout


def _no_revision_reason():
    """Why the checkout's HEAD and working tree cannot be exported here, or None when they can."""
    if shutil.which("git") is None:
        return "no git on PATH to export with"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"], capture_output=True, text=True)
    if done.returncode != 0:
        return f"not a git checkout with a commit: {done.stderr.strip()}"
    return None


_NO_REVISION = _no_revision_reason()
needs_git = pytest.mark.skipif(_NO_REVISION is not None, reason=str(_NO_REVISION))


def _state(root):
    """``git status --porcelain`` and the bytes of the index, read in that order."""
    status = _git(root, "status", "--porcelain")
    return status, (root / _git(root, "rev-parse", "--git-path", "index").decode().strip()).read_bytes()


def _assert_snapshot(root, into, *trees):
    """``into`` holds exactly the existing files git lists under ``trees`` of ``root``, byte for byte."""
    listed = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard", "--", *trees)
    expected = {name for name in listed.decode().split("\0") if name and (root / name).exists()}
    exported = {p.relative_to(into).as_posix() for p in into.rglob("*") if not p.is_dir()}
    assert exported == expected
    for name in expected:
        assert (into / name).read_bytes() == (root / name).read_bytes(), name


@needs_git
def test_the_working_tree_export_is_the_listed_files_and_leaves_the_checkout_as_it_was(tmp_path):
    before = _state(ROOT)
    into = revisions.export(None, tmp_path / "tree", "src", "perfbench")
    assert _state(ROOT) == before
    _assert_snapshot(ROOT, into, "src", "perfbench")


@pytest.mark.skipif(shutil.which("git") is None, reason="no git on PATH to export with")
def test_the_working_tree_export_takes_edits_and_new_files_and_keeps_ignored_ones_out(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    _git(tmp_path, "init", "-q", str(repo))
    for name, text in {".gitignore": "*.log\n", "src/kept.py": "kept\n", "src/edited.py": "old\n",
                       "src/deleted.py": "gone\n", "src/tracked.log": "tracked though ignored\n",
                       "outside.py": "not under src\n"}.items():
        (repo / name).write_text(text)
    _git(repo, "add", "-f", ".")
    _git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", "commit", "-qm", "base")
    (repo / "src" / "edited.py").write_text("new\n")
    (repo / "src" / "deleted.py").unlink()
    (repo / "src" / "new.py").write_text("untracked\n")
    (repo / "src" / "skipped.log").write_text("ignored\n")
    monkeypatch.setattr(revisions, "ROOT", repo)
    before = _state(repo)
    into = revisions.export(None, tmp_path / "tree", "src")
    assert _state(repo) == before
    assert sorted(p.name for p in (into / "src").iterdir()) == ["edited.py", "kept.py", "new.py", "tracked.log"]
    _assert_snapshot(repo, into, "src")


@needs_git
def test_the_sides_are_the_base_revision_and_the_working_tree_labelled(tmp_path):
    (base_label, base), (head_label, head) = revisions.export_sides("HEAD", None, tmp_path, "src")
    assert base_label == _git(ROOT, "rev-parse", "--short", "HEAD").decode().strip()
    assert head_label == "working tree"
    assert (base, head) == (tmp_path / "base", tmp_path / "head")
    assert (base / "src" / "nlbash" / "parser.py").is_file() and (head / "src" / "nlbash" / "parser.py").is_file()


@needs_git
def test_a_git_failure_is_printed_and_exits_with_status_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        revisions.export_sides("no-such-revision", None, tmp_path, "src")
    assert exit_.value.code == 2
    assert "error: cannot export src with git" in capsys.readouterr().err
