"""Evaluation harness: run any predictor over a dataset and report scores.

A predictor is anything with ``predict(nlc, k) -> predictions`` returning
at most k (command, confidence) pairs. The harness times the predict call
alone (monotonic clock), parses each predicted command, and scores its
template against all reference templates. Each distinct command text,
reference or prediction, is parsed and templated once per ``evaluate``
call. A prediction the parser rejects scores -delta, each time a
prediction names it — a command outside the grammar can never match a
reference, and silently dropping it would game the averaging branch. A
predictor exception scores the whole example -1, and so does a prediction
set whose first k items are not all a ``str`` cmd with a real confidence
that converts to a finite float; both count as predictor failures. A cmd
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
import shlex
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from .corpus import Example, dataset_fingerprint, text_lines
from .errors import (
    BashSyntaxError,
    EmptyDatasetError,
    EmptySampleError,
    NlbashError,
    PredictorProtocolError,
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
from .vocab import UtilityVocabulary


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
        if not samples:
            raise EmptySampleError("no latency samples")
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
    metadata: dict = field(default_factory=dict)

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
            "metadata": self.metadata,
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
    def from_json(cls, text: str) -> "EvaluationReport":
        obj = json.loads(text)
        per_example = [
            ExampleResult(
                example_id=r["id"],
                score=ExampleScore(
                    value=r["score"],
                    per_prediction=tuple(r["per_prediction"]),
                    aggregation=Aggregation(r["aggregation"]),
                ),
                latency_s=r["latency_s"],
                error=r.get("error"),
            )
            for r in obj["per_example"]
        ]
        return cls(
            predictor=obj["predictor"],
            k=obj["k"],
            per_example=per_example,
            mean_score=obj["mean_score"],
            latency=LatencyStats(
                mean=obj["latency"]["mean"],
                median=obj["latency"]["median"],
                p95=obj["latency"]["p95"],
            ),
            dataset_fingerprint=obj["dataset_fingerprint"],
            unparseable_prediction_count=obj["unparseable_prediction_count"],
            predictor_failure_count=obj["predictor_failure_count"],
            metadata=obj.get("metadata", {}),
        )


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(max(float(value), lo), hi)


def _describe(value) -> str:
    """repr(value), or its type when repr fails (an int past the str digit limit)."""
    try:
        return repr(value)
    except Exception:
        return f"<unprintable {type(value).__name__}>"


def _contract_violation(predictions: Sequence[Prediction]) -> str | None:
    """Describe the first prediction lacking a str cmd or a finite real confidence.

    A real too large for a float (a 400-digit int) counts as not finite.
    """
    for i, p in enumerate(predictions):
        cmd, confidence = getattr(p, "cmd", None), getattr(p, "confidence", None)
        try:
            finite = isinstance(confidence, numbers.Real) and math.isfinite(confidence)
        except OverflowError:
            finite = False
        # By type(): isinstance would believe an object whose __class__ claims str.
        if not issubclass(type(cmd), str) or not finite:
            return f"prediction {i} needs a str cmd and a finite confidence, got {_describe(p)}"
    return None


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
    templated once per call; an unparseable text costs each prediction
    that names it -delta and counts once per such prediction. A cmd of a
    ``str`` subclass is scored as its plain text.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not dataset:
        raise EmptyDatasetError("cannot evaluate over an empty dataset")

    # Command text -> its template, or None when it does not parse. None,
    # not the exception: its traceback would hold this frame, and so the
    # memo, in a reference cycle.
    memo: dict[str, TemplateCommand | None] = {}

    def template_of(cmd: str) -> TemplateCommand | None:
        if cmd not in memo:
            try:
                memo[cmd] = normalize_template(parse(cmd, vocab), vocab)
            except (BashSyntaxError, UnknownUtilityError):
                memo[cmd] = None
        return memo[cmd]

    results: list[ExampleResult] = []
    unparseable = 0
    failures = 0
    for ex in dataset:
        ref_templates = []
        for r in ex.references:
            template = template_of(r)
            if template is None:  # parse again, to raise its own error
                template = normalize_template(parse(r, vocab), vocab)
            ref_templates.append(template)
        error = None
        start = time.perf_counter()
        try:
            raw_predictions = list(predictor.predict(ex.invocation, k))
        except Exception as exc:  # predictor failure: record, score -1
            error = _describe(exc)
        elapsed = time.perf_counter() - start
        if error is None:
            raw_predictions = raw_predictions[:k]
            error = _contract_violation(raw_predictions)
        if error is not None:
            failures += 1
            score = ExampleScore(-1.0, (-1.0,), Aggregation.AVERAGE)
            results.append(ExampleResult(ex.id, score, elapsed, error=error))
            continue

        if not raw_predictions:
            score = ExampleScore(0.0, (), Aggregation.AVERAGE)
            results.append(ExampleResult(ex.id, score, elapsed))
            continue

        per_prediction: list[float] = []
        for p in raw_predictions:
            delta = _clamp(p.confidence, 0.0, 1.0)
            template = template_of(str.__str__(p.cmd))  # exact str: no subclass method runs
            if template is None:
                unparseable += 1
                per_prediction.append(-delta)
                continue
            scored = ScoredPrediction(template=template, delta=delta)
            per_prediction.append(prediction_score(scored, ref_templates))
        results.append(ExampleResult(ex.id, aggregate_scores(per_prediction), elapsed))

    return EvaluationReport(
        predictor=getattr(predictor, "name", type(predictor).__name__),
        k=k,
        per_example=results,
        mean_score=dataset_score([r.score for r in results]),
        latency=LatencyStats.from_samples([r.latency_s for r in results]),
        dataset_fingerprint=dataset_fingerprint(dataset),
        unparseable_prediction_count=unparseable,
        predictor_failure_count=failures,
    )


def measure_latency(
    predictor: Predictor,
    sample: Sequence[str],
    warmup: int = 3,
    k: int = DEFAULT_TOP_K,
) -> LatencyStats:
    """Wall-clock per-query latency over a sample of queries, after warmup calls."""
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if not sample:
        raise EmptySampleError("latency sample is empty")
    for i in range(warmup):
        predictor.predict(sample[i % len(sample)], k)
    times = []
    for q in sample:
        start = time.perf_counter()
        predictor.predict(q, k)
        times.append(time.perf_counter() - start)
    return LatencyStats.from_samples(times)


def emit_report(report: EvaluationReport, format: str = "json") -> bytes:
    """Serialize a report as schema-stable JSON or a leaderboard-style table."""
    if not report.per_example:
        raise EmptyDatasetError("report contains no examples")
    fmt = format.lower()
    if fmt == "json":
        return report.to_json().encode("utf-8")
    if fmt == "table":
        header = f"{'Predictor':<28} {'Accuracy Score':>14} {'Latency (sec)':>14}"
        rule = "-" * len(header)
        row = f"{report.predictor:<28} {report.mean_score:>14.4f} {report.latency.mean:>14.4f}"
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
    """Feeds a prediction file back through the harness.

    Predictions are joined to the dataset by example id; the harness calls
    arrive in dataset order, so replaying walks the same id sequence. An
    id with no stored predictions abstains.
    """

    name = "replay"

    def __init__(self, ids: Sequence[str], predictions_by_id: dict[str, list[Prediction]]):
        self._ids = list(ids)
        self._by_id = predictions_by_id
        self._cursor = 0

    def predict(self, nlc: str, k: int) -> list[Prediction]:
        if self._cursor >= len(self._ids):
            raise PredictorProtocolError("replay predictor exhausted its id sequence")
        ex_id = self._ids[self._cursor]
        self._cursor += 1
        return list(self._by_id.get(ex_id, ()))[:k]


def _decode_predictions(items) -> list[Prediction]:
    """Predictions from a decoded JSON array of ``{"cmd", "confidence"}`` objects.

    Values are kept as sent, so ``evaluate`` applies one type rule to every
    route into the harness. Raises KeyError or TypeError for an item that is
    not an object with a "cmd".
    """
    return [Prediction(cmd=p["cmd"], confidence=p.get("confidence", 1.0)) for p in items]


def load_prediction_file(path: str) -> dict[str, list[Prediction]]:
    """Read JSON-lines predictions: {"id", "predictions": [{"cmd", "confidence"}]}."""
    by_id: dict[str, list[Prediction]] = {}
    for lineno, line in text_lines(path):
        try:
            obj = json.loads(line)
            by_id[str(obj["id"])] = _decode_predictions(obj["predictions"])
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise NlbashError(f"{path}:{lineno}: bad prediction record ({exc})") from exc
    return by_id


def score_prediction_file(
    prediction_path: str,
    dataset: Sequence[Example],
    k: int = DEFAULT_TOP_K,
    vocab: UtilityVocabulary | None = None,
) -> EvaluationReport:
    """Offline scoring: identical to evaluate() with a replay predictor."""
    by_id = load_prediction_file(prediction_path)
    replay = ReplayPredictor([ex.id for ex in dataset], by_id)
    return evaluate(replay, dataset, k=k, vocab=vocab)


# Longest wait, in seconds, for one whole reply line from a subprocess predictor.
REPLY_TIMEOUT_S = 60.0


class SubprocessPredictor:
    """Bridge to an external predictor over a line-delimited JSON protocol.

    One request object ``{"nlc": ..., "k": ...}`` goes to the child's
    stdin per query; the child answers with one line holding a JSON array
    of ``{"cmd": ..., "confidence": ...}`` objects. A child that sends no
    whole line within REPLY_TIMEOUT_S is killed, and that call and every
    later one raise PredictorProtocolError.
    """

    def __init__(self, command: str | Sequence[str]):
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self.name = f"subprocess:{argv[0]}"
        self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._unread = b""  # reply bytes read past the last newline

    def _read_line(self) -> bytes:
        """The next reply line, read straight from the pipe so select sees every byte."""
        assert self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while b"\n" not in self._unread:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                self._proc.kill()
                self._proc.wait()
                raise PredictorProtocolError(
                    f"predictor sent no whole reply line within {REPLY_TIMEOUT_S} s"
                )
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            self._unread += chunk
        end = self._unread.find(b"\n") + 1 or len(self._unread)
        line, self._unread = self._unread[:end], self._unread[end:]
        return line

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
            return _decode_predictions(json.loads(line))
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise PredictorProtocolError(f"bad predictor reply: {exc}") from exc

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
