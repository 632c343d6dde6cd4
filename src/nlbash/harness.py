"""Evaluation harness: run any predictor over a dataset and report scores.

A predictor is anything with ``predict(nlc, k) -> predictions`` returning
at most k (command, confidence) pairs. The harness times the predict call
alone (monotonic clock), parses each predicted command, and scores its
template against all reference templates. Each distinct command text,
reference or prediction, is parsed and templated at most once per
``evaluate`` call, and not at all when a corpus filter with the same
vocabulary object kept it as a reference: its template is read from the
vocabulary's table. A prediction the parser rejects scores -delta, each
time a prediction names it — a command outside the grammar can never match a
reference, and silently dropping it would game the averaging branch. A
predictor exception scores the whole example -1, and so does a prediction
set whose first k items are not all a ``str`` cmd with a real confidence,
not a bool, that converts, without raising, to a finite float; both count
as predictor failures. A cmd
of a ``str`` subclass is scored as its plain text, so no method of the
predictor's object runs in the harness. A predictor that returns nothing
abstains and scores 0.

Evaluation is sequential by design so latency numbers stay honest.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import select
import statistics
import subprocess
import time
from dataclasses import dataclass
from typing import Iterable, NoReturn, Protocol, Sequence

from .corpus import NUMBER, Example, _finite, dataset_fingerprint, decode_json, json_field, text_lines
from .errors import (
    BashSyntaxError,
    EmptyDatasetError,
    PredictorProtocolError,
    SchemaError,
    UnknownUtilityError,
)
from .metric import (
    DEFAULT_TOP_K,
    Aggregation,
    ExampleScore,
    Prediction,
    ScoredPrediction,
    aggregate_scores,
    dataset_score,
    prediction_score,
)
from .parser import parse
from .template import TemplateCommand, normalize_template
from .vocab import UtilityVocabulary, _filtered_templates


class Predictor(Protocol):
    """Behavioral contract for anything the harness can evaluate."""

    def predict(self, nlc: str, k: int) -> Sequence[Prediction]: ...


@dataclass(frozen=True)
class LatencyStats:
    mean: float
    median: float
    p95: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        ordered = sorted(samples)
        rank = max(0, -(-95 * len(ordered) // 100) - 1)  # nearest-rank percentile
        return cls(
            mean=statistics.fmean(ordered),
            median=statistics.median(ordered),
            p95=ordered[rank],
        )


@dataclass(frozen=True, slots=True)
class ExampleResult:
    example_id: str
    score: ExampleScore
    latency_s: float
    error: str | None = None


@dataclass
class EvaluationReport:
    predictor: str
    k: int
    per_example: list[ExampleResult]
    mean_score: float
    latency: LatencyStats
    dataset_fingerprint: str
    unparseable_prediction_count: int = 0
    predictor_failure_count: int = 0

    def to_json(self) -> str:
        payload = {
            "predictor": self.predictor,
            "k": self.k,
            "mean_score": self.mean_score,
            "latency": {
                "mean": self.latency.mean,
                "median": self.latency.median,
                "p95": self.latency.p95,
            },
            "dataset_fingerprint": self.dataset_fingerprint,
            "unparseable_prediction_count": self.unparseable_prediction_count,
            "predictor_failure_count": self.predictor_failure_count,
            "per_example": [
                {
                    "id": r.example_id,
                    "score": r.score.value,
                    "aggregation": r.score.aggregation.value,
                    "per_prediction": list(r.score.per_prediction),
                    "latency_s": r.latency_s,
                    **({"error": r.error} if r.error else {}),
                }
                for r in self.per_example
            ],
        }
        return json.dumps(payload, ensure_ascii=False, indent=2)

    @classmethod
    def from_json(cls, text: str | bytes) -> "EvaluationReport":
        """Read a report written by ``to_json``, as text or UTF-8 bytes; SchemaError
        unless it holds every key that writes, each of its type, every score and
        latency a finite number, and known aggregations."""

        def number(record: object, key: str, where: str) -> float:
            return _finite(json_field(record, key, NUMBER, where), key, where)

        obj = decode_json(text, "report")
        per_example = []
        for r in json_field(obj, "per_example", list, "report"):
            example_id = json_field(r, "id", str, "report example")
            where = f"report example {example_id!r}"
            try:
                aggregation = Aggregation(json_field(r, "aggregation", str, where))
            except ValueError as exc:
                raise SchemaError(f"{where}: {exc}") from exc
            per_prediction = tuple(
                _finite(v, "per_prediction", where) for v in json_field(r, "per_prediction", list, where)
            )
            score = ExampleScore(number(r, "score", where), per_prediction, aggregation)
            error = json_field(r, "error", (str, type(None)), where, None)
            per_example.append(ExampleResult(example_id, score, number(r, "latency_s", where), error))
        latency = json_field(obj, "latency", dict, "report")
        scalars = {"predictor": str, "k": int, "dataset_fingerprint": str,
                   "unparseable_prediction_count": int, "predictor_failure_count": int}
        return cls(
            per_example=per_example,
            mean_score=number(obj, "mean_score", "report"),
            latency=LatencyStats(*(number(latency, q, "report") for q in ("mean", "median", "p95"))),
            **{key: json_field(obj, key, kind, "report") for key, kind in scalars.items()},
        )


def _describe(value) -> str:
    """repr(value), or its type when repr fails (an int past the str digit limit)."""
    try:
        return repr(value)
    except Exception:
        return f"<unprintable {type(value).__name__}>"


def _checked(predictions: Sequence[Prediction]) -> list[tuple[str, float]] | str:
    """Each prediction's exact-``str`` text and its delta, the confidence clamped to [0, 1].

    Describes the first prediction instead when its cmd is not a ``str``
    (by type: isinstance would believe an object whose __class__ claims
    str) or its confidence is not a real, other than a bool, that converts
    to a finite float.
    Each attribute is read and the confidence converted once; anything
    that raises there, a missing attribute or an int too large for a float
    included, breaks the contract.
    """
    checked = []
    for i, p in enumerate(predictions):
        try:
            cmd, confidence = p.cmd, p.confidence
            real = isinstance(confidence, numbers.Real) and not isinstance(confidence, bool)
            value = float(confidence) if real else math.nan
        except Exception:
            cmd, value = None, math.nan
        if not issubclass(type(cmd), str) or not math.isfinite(value):
            return f"prediction {i} needs a str cmd and a finite confidence, got {_describe(p)}"
        checked.append((str.__str__(cmd), min(max(value, 0.0), 1.0)))  # no subclass method runs
    return checked


def evaluate(
    predictor: Predictor,
    dataset: Sequence[Example],
    k: int = DEFAULT_TOP_K,
    vocab: UtilityVocabulary | None = None,
) -> EvaluationReport:
    """Score a predictor over a filtered dataset.

    References must already parse (run the corpus filter first); one that
    does not raises its BashSyntaxError or UnknownUtilityError. Latency
    covers the predict call only. Each distinct command text is parsed and
    templated once per call, unless the last ``filter_examples`` on the
    vocabulary kept it and so recorded its template; an unparseable text
    costs each prediction that names it -delta and counts once per such
    prediction. A cmd of a
    ``str`` subclass is scored as its plain text. The report names the
    predictor by its ``name`` attribute, read once, when that is a ``str``
    (kept as its plain text), and by its class name otherwise, also when
    reading it raises.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not dataset:
        raise EmptyDatasetError("cannot evaluate over an empty dataset")

    # Command text -> its template, or None when it does not parse. None,
    # not the exception: its traceback would hold this frame, and so the
    # memo, in a reference cycle.
    memo: dict[str, TemplateCommand | None] = {}
    filtered = _filtered_templates(vocab)

    def template_of(cmd: str) -> TemplateCommand | None:
        if cmd not in memo:
            try:
                memo[cmd] = filtered.get(cmd) or normalize_template(parse(cmd, vocab))
            except (BashSyntaxError, UnknownUtilityError):
                memo[cmd] = None
        return memo[cmd]

    results: list[ExampleResult] = []
    unparseable = 0
    failures = 0
    for ex in dataset:
        # A reference that does not parse is parsed again, to raise its own error.
        refs = [template_of(r) or normalize_template(parse(r, vocab)) for r in ex.references]
        error = None
        start = time.perf_counter()
        try:
            raw_predictions = list(predictor.predict(ex.invocation, k))
        except Exception as exc:  # predictor failure: record, score -1
            error = _describe(exc)
        elapsed = time.perf_counter() - start
        if error is None:
            checked = _checked(raw_predictions[:k])
            if isinstance(checked, str):
                error = checked
        if error is not None:
            failures += 1
            score = ExampleScore(-1.0, (-1.0,), Aggregation.AVERAGE)
            results.append(ExampleResult(ex.id, score, elapsed, error=error))
            continue

        if not checked:
            score = ExampleScore(0.0, (), Aggregation.AVERAGE)
            results.append(ExampleResult(ex.id, score, elapsed))
            continue

        per_prediction: list[float] = []
        for text, delta in checked:
            template = template_of(text)
            if template is None:
                unparseable += 1
                per_prediction.append(-delta)
                continue
            scored = ScoredPrediction(template=template, delta=delta)
            per_prediction.append(prediction_score(scored, refs))
        results.append(ExampleResult(ex.id, aggregate_scores(per_prediction), elapsed))

    try:
        name = predictor.name
    except Exception:  # no name, or one that cannot be read
        name = None
    return EvaluationReport(
        predictor=str.__str__(name) if issubclass(type(name), str) else type(predictor).__name__,
        k=k,
        per_example=results,
        mean_score=dataset_score([r.score for r in results]),
        latency=LatencyStats.from_samples([r.latency_s for r in results]),
        dataset_fingerprint=dataset_fingerprint(dataset),
        unparseable_prediction_count=unparseable,
        predictor_failure_count=failures,
    )


def emit_report(report: EvaluationReport, format: str = "json") -> bytes:
    """Serialize a report as schema-stable JSON or a leaderboard-style table."""
    if not report.per_example:
        raise EmptyDatasetError("report contains no examples")
    if format == "json":
        return report.to_json().encode("utf-8")
    if format == "table":
        width = max(28, len(report.predictor))
        header = f"{'Predictor':<{width}} {'Accuracy Score':>14} {'Latency (sec)':>14}"
        rule = "-" * len(header)
        row = f"{report.predictor:<{width}} {report.mean_score:>14.4f} {report.latency.mean:>14.4f}"
        details = (
            f"examples: {len(report.per_example)}  k: {report.k}  "
            f"latency median: {report.latency.median:.4f}s  p95: {report.latency.p95:.4f}s\n"
            f"unparseable predictions: {report.unparseable_prediction_count}  "
            f"predictor failures: {report.predictor_failure_count}\n"
            f"dataset: {report.dataset_fingerprint[:16]}"
        )
        return f"{header}\n{rule}\n{row}\n{rule}\n{details}\n".encode("utf-8")
    raise ValueError(f"unknown report format: {format!r}")


class ReplayPredictor:
    """Feeds stored predictions back through the harness.

    Takes one prediction list per example, in dataset order, and answers
    each call with the next list; ``evaluate`` keeps its first k. An empty
    list abstains.
    """

    name = "replay"

    def __init__(self, predictions: Iterable[list[Prediction]]):
        self._predictions = iter(predictions)

    def predict(self, nlc: str, k: int) -> list[Prediction]:
        return next(self._predictions)


def _decode_predictions(items: list, where: str) -> list[Prediction]:
    """Predictions from a decoded JSON array of ``{"cmd", "confidence"}`` objects.

    Values are kept as sent, so ``evaluate`` applies one type rule to every route into
    the harness. Raises SchemaError naming ``where`` for an item that is not an object
    with a "cmd"; items are indexed directly, since ``json_field`` per item slows loads.
    """
    try:
        return [Prediction(cmd=p["cmd"], confidence=p.get("confidence", 1.0)) for p in items]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"{where}: bad predictions ({exc!r})") from exc


def load_prediction_file(path: str) -> dict[str, list[Prediction]]:
    """Read JSON-lines predictions: {"id", "predictions": [{"cmd", "confidence"}]}.

    The id must be a JSON string that no earlier line holds, and "predictions"
    an array. Raises SchemaError naming ``path`` and the line number for a line
    that is not such a record.
    """
    by_id: dict[str, list[Prediction]] = {}
    for lineno, line in text_lines(path):
        where = f"{path}:{lineno}"
        record = decode_json(line, where)
        ex_id = json_field(record, "id", str, where)
        if ex_id in by_id:
            raise SchemaError(f"{where}: id {ex_id!r} repeats an earlier line")
        by_id[ex_id] = _decode_predictions(json_field(record, "predictions", list, where), where)
    return by_id


def score_prediction_file(
    prediction_path: str,
    dataset: Sequence[Example],
    k: int = DEFAULT_TOP_K,
    vocab: UtilityVocabulary | None = None,
) -> EvaluationReport:
    """Offline scoring: evaluate() with a replay predictor; an example the file lacks abstains."""
    by_id = load_prediction_file(prediction_path)
    replay = ReplayPredictor(by_id.get(ex.id, []) for ex in dataset)
    return evaluate(replay, dataset, k=k, vocab=vocab)


# Longest wait, in seconds, for one whole reply line from a subprocess predictor.
REPLY_TIMEOUT_S = 60.0
# Most bytes a subprocess predictor may send without ending its reply line.
MAX_REPLY_BYTES = 4 << 20


class SubprocessPredictor:
    """Bridge to an external predictor over a line-delimited JSON protocol.

    One request object ``{"nlc": ..., "k": ...}`` goes to the child's
    stdin per query; the child answers with one line holding a JSON array
    of ``{"cmd": ..., "confidence": ...}`` objects. A child that sends no
    whole line within REPLY_TIMEOUT_S, or sends more than MAX_REPLY_BYTES
    without a newline, is killed, and that call and every later one raise
    PredictorProtocolError. The command is an argument list; a ``str``,
    or a list with no words, raises ValueError before any process starts.
    """

    def __init__(self, command: Sequence[str]):
        if isinstance(command, str):
            raise ValueError(f"predictor command {command!r} is a str, not an argument list")
        argv = list(command)
        if not argv:
            raise ValueError(f"predictor command {command!r} is empty")
        self.name = f"subprocess:{argv[0]}"
        self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._unread = b""  # reply bytes read past the last newline

    def _read_line(self) -> bytes:
        """The next reply line, read straight from the pipe so select sees every byte.

        Each search for the newline starts at the bytes read since the last
        one, so a long line costs time linear in its length.
        """
        assert self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        buf, searched = bytearray(self._unread), 0
        while not (end := buf.find(b"\n", searched) + 1):
            if len(buf) > MAX_REPLY_BYTES:
                self._kill(f"predictor reply line exceeds {MAX_REPLY_BYTES} bytes")
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                self._kill(f"predictor sent no whole reply line within {REPLY_TIMEOUT_S} s")
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            searched = len(buf)
            buf += chunk
        end = end or len(buf)
        line, self._unread = bytes(buf[:end]), bytes(buf[end:])
        return line

    def _kill(self, reason: str) -> NoReturn:
        self._proc.kill()
        self._proc.wait()
        raise PredictorProtocolError(reason)

    def predict(self, nlc: str, k: int) -> list[Prediction]:
        if self._proc.poll() is not None:
            raise PredictorProtocolError("predictor process has exited")
        assert self._proc.stdin is not None
        self._proc.stdin.write(json.dumps({"nlc": nlc, "k": k}).encode("utf-8") + b"\n")
        self._proc.stdin.flush()
        line = self._read_line()
        if not line:
            raise PredictorProtocolError("predictor closed its output stream")
        try:
            reply = decode_json(line, "predictor reply")
            if type(reply) is not list:
                raise SchemaError(f"predictor reply: expected a JSON array, got {type(reply).__name__}")
            return _decode_predictions(reply, "predictor reply")
        except SchemaError as exc:
            raise PredictorProtocolError(str(exc)) from exc

    def close(self) -> None:
        if self._proc.poll() is None:
            if self._proc.stdin is not None:
                self._proc.stdin.close()
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
        with self._proc:  # Popen's exit closes the pipes and reaps the child
            pass

    def __enter__(self) -> "SubprocessPredictor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
