"""Utility vocabulary: the whitelist of utilities and their unsplittable flags.

The vocabulary drives two decisions, both made by the parser: whether a
command's utilities are acceptable at all, and which single-dash
multi-character tokens (``find -name``, ``find -type``, ...) are real long
flags rather than bundles of one-letter options.

A vocabulary object also carries a private table of templates, filled only
by ``corpus.filter_examples``: the template of every reference a filter kept
with this vocabulary object. A template depends only on the text and the
vocabulary, so ``harness.evaluate``, the TF-IDF index and
``utility_histogram`` read a text's template there before they parse it
themselves. The table is neither compared nor shown in the repr, and lives
as long as the object: each ``nlbash`` command makes its own.

File format (UTF-8, one record per utility, one per line)::

    utility<TAB>flag1,flag2,...

The flag list is optional. Blank lines and lines starting with ``#`` are
ignored. Flags may be written with or without their leading dash. A name
or flag holding whitespace or a character that cannot print is refused: a
byte-order mark or NUL left in the file would otherwise make a utility no
typed command matches. So is a line that repeats an earlier line's utility,
so no utility's flags depend on the order of the lines.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import VocabularyFormatError

if TYPE_CHECKING:
    from .template import TemplateCommand

_DEFAULT_RESOURCE = "ubuntu_utilities.txt"


@dataclass(frozen=True)
class UtilityVocabulary:
    """Immutable map from each known utility to its unsplittable flags (mostly none)."""

    flags: dict[str, frozenset[str]]
    # Reference text -> its template, for every reference a filter_examples
    # run with this vocabulary object kept; only that filter writes here.
    _templates: dict[str, TemplateCommand] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def lookup(self, word: str) -> str | None:
        """Resolve a command word to a vocabulary utility name.

        Absolute or relative paths resolve through their basename, so
        ``/bin/rm`` and ``rm`` both map to ``rm``. Returns None when the
        word does not name a known utility.
        """
        if word in self.flags:
            return word
        if "/" in word:
            base = word.rsplit("/", 1)[-1]
            if base and base in self.flags:
                return base
        return None


def _bad_word(word: str) -> bool:
    """True for a name or flag holding whitespace or a character that
    cannot print (``isprintable`` is false for all whitespace but ' ')."""
    return " " in word or not word.isprintable()


def parse_vocabulary(text: str, origin: str = "<string>") -> UtilityVocabulary:
    """Parse vocabulary file contents. Raises VocabularyFormatError."""
    flags_of: dict[str, frozenset[str]] = {}
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        name, _, flag_part = line.partition("\t")
        name = name.strip()
        if not name or _bad_word(name):
            raise VocabularyFormatError(f"{origin}:{lineno}: bad utility name {name!r}")
        if name in line_of:
            raise VocabularyFormatError(f"{origin}:{lineno}: utility {name!r} repeats line {line_of[name]}")
        flags: set[str] = set()
        for raw_flag in flag_part.split(","):
            flag = raw_flag.strip().lstrip("-")
            if not flag:
                continue
            if _bad_word(flag):
                raise VocabularyFormatError(f"{origin}:{lineno}: bad flag {raw_flag!r}")
            flags.add(flag)
        line_of[name] = lineno
        flags_of[name] = frozenset(flags)
    if not flags_of:
        raise VocabularyFormatError(f"{origin}: no utility records found")
    return UtilityVocabulary(flags_of)


def load_vocabulary(path: str | Path) -> UtilityVocabulary:
    """Load a vocabulary file from disk."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise VocabularyFormatError(f"{path}: invalid UTF-8 ({exc.reason})") from exc
    return parse_vocabulary(text, origin=str(path))


def _filtered_templates(vocab: UtilityVocabulary | None) -> dict[str, TemplateCommand]:
    """The template table of ``vocab``; a new empty one for None, so that no
    table outlives its caller's vocabulary object."""
    return vocab._templates if vocab is not None else {}


@lru_cache(maxsize=1)
def default_vocabulary() -> UtilityVocabulary:
    """The vocabulary shipped with the package (Ubuntu 18.04 utility set)."""
    resource = importlib.resources.files("nlbash").joinpath(f"data/{_DEFAULT_RESOURCE}")
    return parse_vocabulary(resource.read_text(encoding="utf-8"), origin=_DEFAULT_RESOURCE)
