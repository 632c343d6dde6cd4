"""Dataset loading, filtering, splitting, and utility statistics.

Datasets are UTF-8 JSON lines, one object per line::

    {"id": "...", "invocation": "...", "cmd": "..." or ["...", ...], "source": "..."}

``id`` and ``source`` are optional; ``source`` is kept as the dataset
wrote it, and read as ``"other"`` when absent, ``null`` or empty.
Filtering keeps a reference command only when it parses and reconstructs
byte-identically; an example survives when at least one reference does.
``parse`` enforces the utility whitelist at every nesting depth it parses,
every substitution included, quoted or not. Round-trip holds by
construction (``reconstruct`` copies the gaps between tokens from the raw
text), and the filter still checks it.

The filter also adds the template of each reference it keeps to the
vocabulary's template table, so the commands that read the kept references
next (``evaluate``, the TF-IDF index and ``utility_histogram``) parse none
of them again, and a second filter with the same vocabulary object parses
none that the first kept.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import (
    BashSyntaxError,
    InvalidFractionsError,
    SchemaError,
    UnknownUtilityError,
)
from .parser import parse, reconstruct
from .template import TemplateCommand, flatten_utilities, normalize_template
from .vocab import UtilityVocabulary, _filtered_templates


@dataclass(frozen=True, slots=True)
class Example:
    """One natural-language invocation with its reference commands."""

    id: str
    invocation: str
    references: tuple[str, ...]
    source: str = "other"

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "invocation": self.invocation,
            "cmd": list(self.references),
            "source": self.source,
        }


class RejectReason(Enum):
    PARSE_ERROR = "parse_error"
    ROUNDTRIP_MISMATCH = "roundtrip_mismatch"
    NON_WHITELIST_UTILITY = "non_whitelist_utility"


@dataclass(frozen=True)
class Rejection:
    example: Example
    reason: RejectReason


@dataclass
class FilterReport:
    """Partition of a dataset into surviving and rejected examples."""

    kept: list[Example] = field(default_factory=list)
    rejected: list[Rejection] = field(default_factory=list)


def _example_from_record(record: object, where: str, default_id: str) -> Example:
    invocation = json_field(record, "invocation", str, where)
    if not invocation.strip():
        raise SchemaError(f"{where}: 'invocation' must be a non-empty string")
    cmd = json_field(record, "cmd", (str, list), where)
    references = [cmd] if type(cmd) is str else cmd
    if not references or any(type(c) is not str or not c.strip() for c in references):
        raise SchemaError(f"{where}: 'cmd' must be a command or a non-empty list of commands")
    ex_id = json_field(record, "id", str, where, default_id)
    if not ex_id:
        raise SchemaError(f"{where}: 'id' must be a non-empty string")
    return Example(
        id=ex_id,
        invocation=invocation,
        references=tuple(references),
        source=json_field(record, "source", (str, type(None)), where, None) or "other",
    )


def text_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (line number, text) for each non-blank line of a UTF-8 file.

    Lines end where text mode ends them (``\\n``, ``\\r\\n`` or ``\\r``), but
    each is decoded alone, so the SchemaError for a bad byte names its line.
    """
    with open(path, "rb") as fh:
        lines = (raw for chunk in fh for raw in chunk.splitlines(keepends=True))
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SchemaError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})") from exc
            if line.strip():
                yield lineno, line


_SURROGATE = re.compile("[\ud800-\udfff]")
# A JSON number: an exact int or float, so never a bool.
NUMBER = (int, float)
_REQUIRED = object()


def decode_json(data: str | bytes, where: str) -> object:
    """The JSON value in ``data``, UTF-8 bytes or text; SchemaError naming ``where``
    (``path`` or ``path:line``) for bad UTF-8, text that is not JSON (a huge int and
    deep nesting included), and a lone surrogate, raw or escaped, in any string,
    which could not be written back as UTF-8. Every JSON input of the package,
    file, line or reply, is decoded here."""
    try:
        text = data if type(data) is str else data.decode("utf-8")
        value = json.loads(text)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{where}: invalid UTF-8 ({exc.reason})") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
    bad = None if text.isascii() else _SURROGATE.search(text)  # raw, in a str from a caller
    # Only a \u escape brings one into decoded UTF-8. The one-character search
    # runs first: it is a memchr, and the two-character one is not.
    pending = [value] if "\\" in text and "\\u" in text else []
    while pending and not bad:  # a loop, not recursion: the value may nest as deep as json allows
        item = pending.pop()
        if type(item) is list:
            pending += item
        elif type(item) is dict:
            pending += (*item, *item.values())
        elif type(item) is str:
            bad = _SURROGATE.search(item)
    if bad:
        raise SchemaError(f"{where}: lone surrogate {bad.group()!r} in text")
    return value


def json_field(obj: object, key: str, kind: type | tuple[type, ...], where: str,
               default: object = _REQUIRED):
    """``obj[key]``, or ``default`` for an absent key when one is given; SchemaError
    naming ``where`` unless ``obj`` is a JSON object whose ``key`` holds a value of
    exactly a ``kind`` type, so a bool is no int."""
    if type(obj) is not dict:
        raise SchemaError(f"{where}: expected a JSON object")
    value = obj.get(key, default)
    if type(value) is kind or type(kind) is tuple and type(value) in kind:
        return value
    if value is _REQUIRED:
        raise SchemaError(f"{where}: missing {key!r}")
    names = " or ".join(k.__name__ for k in (kind if type(kind) is tuple else (kind,)))
    raise SchemaError(f"{where}: {key!r} must be {names}, got {type(value).__name__}")


def _finite(value: object, key: str, where: str) -> float:
    """``value`` as a float; SchemaError naming ``key`` and ``where`` unless it is
    a JSON number (so no bool) that is finite, which an int past the float range
    is not."""
    try:
        if type(value) in NUMBER and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise SchemaError(f"{where}: {key!r} must hold finite numbers, got {value!r}")


def load_examples(path: str | Path) -> list[Example]:
    """Load a JSON-lines dataset. Raises SchemaError naming ``path`` and the line number."""
    examples: list[Example] = []
    for lineno, line in text_lines(path):
        where = f"{path}:{lineno}"
        examples.append(_example_from_record(decode_json(line, where), where, f"ex-{lineno:06d}"))
    return examples


def save_examples(examples: Iterable[Example], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(ex.to_record(), ensure_ascii=False) + "\n")


def _check_reference(
    cmd: str, vocab: UtilityVocabulary | None, templates: dict[str, TemplateCommand]
) -> RejectReason | None:
    """Why ``cmd`` is rejected, or None after recording its template in ``templates``."""
    try:
        ast = parse(cmd, vocab)
    except UnknownUtilityError:
        return RejectReason.NON_WHITELIST_UTILITY
    except BashSyntaxError:
        return RejectReason.PARSE_ERROR
    if reconstruct(ast) != cmd:
        return RejectReason.ROUNDTRIP_MISMATCH
    templates[cmd] = normalize_template(ast)
    return None


def filter_examples(
    examples: Sequence[Example], vocab: UtilityVocabulary | None = None
) -> FilterReport:
    """Apply the parse / round-trip / whitelist pipeline to every reference.

    Surviving references replace the original list (an example whose
    references all survive is kept as it is); an example with no survivors
    is rejected with the reason of its first failing reference. The template
    of every kept reference is added to the vocabulary's table (to none for
    ``vocab=None``), and each distinct text is checked once: a text the table
    holds already passes.
    """
    templates = _filtered_templates(vocab)
    report = FilterReport()
    for ex in examples:
        survivors: list[str] = []
        first_reason: RejectReason | None = None
        for ref in ex.references:
            # A text this vocabulary's filters kept passes again: no second parse.
            reason = None if ref in templates else _check_reference(ref, vocab, templates)
            if reason is None:
                survivors.append(ref)
            elif first_reason is None:
                first_reason = reason
        if not survivors:
            report.rejected.append(Rejection(ex, first_reason or RejectReason.PARSE_ERROR))
        elif first_reason is None:
            report.kept.append(ex)
        else:
            report.kept.append(replace(ex, references=tuple(survivors)))
    return report


def save_filter_report(
    report: FilterReport, kept_path: str | Path, rejected_path: str | Path | None = None
) -> None:
    save_examples(report.kept, kept_path)
    if rejected_path is not None:
        with open(rejected_path, "w", encoding="utf-8") as fh:
            for rej in report.rejected:
                record = rej.example.to_record()
                record["reason"] = rej.reason.value
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _unit_interval(seed: int, ex: Example) -> float:
    digest = hashlib.sha256(f"{seed}\x1f{ex.id}\x1f{ex.invocation}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def build_splits(
    examples: Sequence[Example],
    seed: int,
    fractions: Sequence[float | str] = (0.8, 0.1, 0.1),
) -> tuple[list[Example], list[Example], list[Example]]:
    """Deterministic train/val/test partition with append-only growth.

    ``fractions`` are three values ``float()`` accepts (numeric strings
    too); anything else raises InvalidFractionsError.

    Each example draws a pseudo-random number from (seed, id, invocation)
    and is assigned to one of the three buckets with probability
    proportional to how far each bucket is below its target share at that
    point in the stream. Because an assignment depends only on the
    examples before it, appending new data never moves old examples, so
    the test set only ever grows; and whenever the target counts are whole
    numbers the realized sizes match them exactly.
    """
    try:
        fracs = tuple(float(f) for f in fractions)
    except (TypeError, ValueError, OverflowError):
        fracs = ()  # fails the length check below
    if len(fracs) != 3 or any(not math.isfinite(f) or f < 0 for f in fracs):
        raise InvalidFractionsError(
            f"fractions must be three finite non-negative numbers, got {fractions}"
        )
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise InvalidFractionsError(f"fractions must sum to 1.0, got {sum(fracs)}")

    buckets: tuple[list[Example], ...] = ([], [], [])
    counts = [0, 0, 0]
    for idx, ex in enumerate(examples):
        total = idx + 1
        deficits = [max(f * total - c, 0.0) for f, c in zip(fracs, counts)]
        weight = sum(deficits)
        choice = 2
        if weight > 0:
            r = _unit_interval(seed, ex) * weight
            acc = 0.0
            for b, d in enumerate(deficits):
                acc += d
                if r < acc:
                    choice = b
                    break
        buckets[choice].append(ex)
        counts[choice] += 1
    return buckets


def utility_histogram(
    examples: Sequence[Example], vocab: UtilityVocabulary | None = None
) -> list[tuple[str, int]]:
    """Count flattened utilities across all references, most frequent first.

    Expects pre-filtered references (every command must parse). A reference
    a filter kept with ``vocab`` is read from its recorded template, whose units
    name the same utilities in the same order; any other is parsed. Ties
    break lexicographically.
    """
    templates = _filtered_templates(vocab)
    counts: dict[str, int] = {}
    for ex in examples:
        for ref in ex.references:
            template = templates.get(ref)
            utilities = (
                [unit.utility for unit in template.units] if template else flatten_utilities(parse(ref, vocab))
            )
            for utility in utilities:
                counts[utility] = counts.get(utility, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def dataset_fingerprint(examples: Sequence[Example]) -> str:
    """Content hash identifying a dataset in reports."""
    h = hashlib.sha256()
    for ex in examples:
        h.update(ex.id.encode())
        h.update(b"\x1f")
        h.update(ex.invocation.encode())
        h.update(b"\x1f")
        h.update("\x1e".join(ex.references).encode())
        h.update(b"\n")
    return h.hexdigest()
