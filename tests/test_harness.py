import json
import os
import sys
import textwrap
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_impl import evaluate_ref
from strategies import byte_lines, shell_text

from nlbash import harness
from nlbash.corpus import Example, Source, filter_examples
from nlbash.errors import (
    BashSyntaxError,
    EmptyDatasetError,
    EmptySampleError,
    NlbashError,
    UnknownUtilityError,
)
from nlbash.harness import (
    EvaluationReport,
    LatencyStats,
    ReplayPredictor,
    SubprocessPredictor,
    emit_report,
    evaluate,
    load_prediction_file,
    measure_latency,
    score_prediction_file,
)
from nlbash.metric import Prediction, dataset_score
from nlbash.synth import toy_corpus
from nlbash.vocab import default_vocabulary

VOCAB = default_vocabulary()


def dataset(n=20, seed=1):
    return filter_examples(toy_corpus(n, seed=seed), VOCAB).kept


class OraclePredictor:
    """Returns the first reference verbatim."""

    name = "oracle"

    def __init__(self, examples):
        self._by_invocation = {e.invocation: e.references[0] for e in examples}

    def predict(self, nlc, k):
        return [Prediction(self._by_invocation[nlc], 1.0)]


class ConstantPredictor:
    def __init__(self, cmd, confidence=1.0):
        self.cmd = cmd
        self.confidence = confidence

    def predict(self, nlc, k):
        return [Prediction(self.cmd, self.confidence)]


class FailingPredictor:
    def predict(self, nlc, k):
        raise RuntimeError("boom")


class SilentPredictor:
    def predict(self, nlc, k):
        return []


def test_oracle_predictor_scores_exactly_one():
    data = dataset(25, seed=2)
    report = evaluate(OraclePredictor(data), data, k=5, vocab=VOCAB)
    assert report.mean_score == 1.0
    assert report.unparseable_prediction_count == 0
    assert report.predictor_failure_count == 0


def test_fixed_wrong_utility_scores_minus_one():
    data = [
        Example("1", "make a directory", ("mkdir d",), Source.OTHER),
        Example("2", "make another directory", ("mkdir e",), Source.OTHER),
    ]
    report = evaluate(ConstantPredictor("touch d"), data, k=5, vocab=VOCAB)
    assert report.mean_score == -1.0


def test_unparseable_prediction_scores_minus_delta():
    data = [Example("1", "list", ("ls",), Source.OTHER)]
    report = evaluate(ConstantPredictor("frobnicate -x", confidence=0.5), data, vocab=VOCAB)
    assert report.unparseable_prediction_count == 1
    assert report.per_example[0].score.per_prediction == (-0.5,)
    assert report.mean_score == -0.5


def test_predictor_failure_recorded_and_scored_minus_one():
    data = dataset(5, seed=3)
    report = evaluate(FailingPredictor(), data, vocab=VOCAB)
    assert report.predictor_failure_count == len(data)
    assert report.mean_score == -1.0
    assert all(r.error for r in report.per_example)


@pytest.mark.parametrize(
    "item",
    [
        Prediction("ls", float("nan")),
        Prediction("frobnicate -x", float("nan")),
        "ls",
        Prediction("ls", float("inf")),
        Prediction("ls", "0.5"),
        Prediction(None, 1.0),
        Prediction("ls", 10**400),
    ],
    ids=["nan", "nan-unparseable", "bare-str", "inf", "str-confidence", "none-cmd", "huge-int"],
)
def test_malformed_prediction_is_a_predictor_failure(item):
    class Malformed:
        def predict(self, nlc, k):
            return [Prediction("ls", 1.0), item]

    data = dataset(3, seed=3)
    report = evaluate(Malformed(), data, vocab=VOCAB)
    assert report.predictor_failure_count == len(data)
    assert report.unparseable_prediction_count == 0
    assert report.mean_score == -1.0
    assert all(r.error and r.score.per_prediction == (-1.0,) for r in report.per_example)


@pytest.mark.parametrize(
    "item",
    [
        {"cmd": None, "confidence": 0.5},
        {"cmd": "ls", "confidence": "0.5"},
        {"cmd": 5, "confidence": 1.0},
        {"cmd": "ls", "confidence": float("nan")},
        {"cmd": "ls", "confidence": None},
        {"cmd": "ls", "confidence": 10**400},
    ],
    ids=["null-cmd", "str-confidence", "int-cmd", "nan", "null-confidence", "huge-int"],
)
def test_malformed_prediction_in_a_file_is_a_predictor_failure(tmp_path, item):
    data = dataset(3, seed=3)
    path = tmp_path / "preds.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for ex in data:
            record = {"id": ex.id, "predictions": [{"cmd": "ls", "confidence": 1.0}, item]}
            fh.write(json.dumps(record) + "\n")
    report = score_prediction_file(str(path), data, vocab=VOCAB)
    assert report.predictor_failure_count == len(data)
    assert report.unparseable_prediction_count == 0
    assert report.mean_score == -1.0


@pytest.mark.parametrize(
    "bad", [b"\xff\n", b"[" * 100_000 + b"\n"], ids=["bad-utf8", "deep-json"]
)
def test_undecodable_prediction_line_reports_position(tmp_path, bad):
    path = tmp_path / "preds.jsonl"
    path.write_bytes(b'{"id": "a", "predictions": []}\n' + bad)
    with pytest.raises(NlbashError, match=r"preds\.jsonl:2: "):
        load_prediction_file(str(path))


@settings(max_examples=200, deadline=None)
@given(data=byte_lines)
def test_load_prediction_file_raises_only_nlbash_errors(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("preds") / "preds.jsonl"
    path.write_bytes(data)
    try:
        load_prediction_file(str(path))
    except NlbashError:
        pass


# Confidences of every kind: NaN, infinities, ints past float range, and
# values that are not numbers at all.
_CONFIDENCES = st.one_of(
    st.floats(),
    st.integers(),
    st.just(10**400),
    st.fractions(),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)


class HostileStr(str):
    """A str whose own methods raise: the harness must score it as its plain text."""

    def _refuse(self, *args, **kwargs):
        raise RuntimeError("hostile str method called")

    strip = __hash__ = __eq__ = __str__ = _refuse


class ClaimsStr:
    """Not a str, though isinstance(obj, str) believes its __class__."""

    __class__ = property(lambda self: str)


_CMDS = st.one_of(
    st.sampled_from(["ls -la", "ls", "ls -l | wc -l"]),
    shell_text,
    st.none(),
    st.builds(HostileStr, st.sampled_from(["ls -la", "frobnicate -x", "ls |"])),
    st.builds(ClaimsStr),
)
_ITEMS = st.one_of(
    st.builds(Prediction, _CMDS, _CONFIDENCES),
    st.none(),
    st.integers(),
    st.builds(lambda: 10**5000),  # its repr exceeds the int str digit limit
    shell_text,
)
# What one predict call does: return a list of items or a non-iterable,
# or raise (also an exception whose repr fails).
_OUTPUTS = st.one_of(
    st.lists(_ITEMS, max_size=6),
    st.none(),
    st.integers(),
    st.builds(RuntimeError, st.text(max_size=4)),
    st.builds(lambda: ValueError(10**5000)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OUTPUTS, min_size=1, max_size=3), st.integers(1, 5))
def test_evaluate_never_raises_on_any_predictor_output(outputs, k):
    class Arbitrary:
        def __init__(self):
            self.replies = iter(outputs)

        def predict(self, nlc, k):
            reply = next(self.replies)
            if isinstance(reply, Exception):
                raise reply
            return reply

    data = [Example(str(i), "list the files", ("ls -la",)) for i in range(len(outputs))]
    report = evaluate(Arbitrary(), data, k=k, vocab=VOCAB)
    assert len(report.per_example) == len(data)
    for r in report.per_example:
        assert -1.0 <= r.score.value <= 1.0
        assert all(-1.0 <= v <= 1.0 for v in r.score.per_prediction)
    assert -1.0 <= report.mean_score <= 1.0
    try:
        want = evaluate_ref(Arbitrary(), data, k=k, vocab=VOCAB)
    except Exception:  # the unmemoized loop still crashes on a hostile str
        return
    assert scores_of(report) == scores_of(want)


def scores_of(report):
    """Everything a report scores, floats by float.hex; latency left out."""
    return (
        [
            (
                r.example_id,
                float.hex(r.score.value),
                [float.hex(v) for v in r.score.per_prediction],
                r.score.aggregation,
                r.error,
            )
            for r in report.per_example
        ],
        report.unparseable_prediction_count,
        report.predictor_failure_count,
        float.hex(report.mean_score),
    )


_POOL = ["ls -la", "frobnicate -x", "find . -name x", "ls |", "df -h", "du -sh ."]


class RepeatingPredictor:
    """Echoes a reference, repeats an unparseable text, and cycles a small pool.

    The answer depends on the query alone, so two runs see the same outputs.
    """

    def __init__(self, examples):
        self._by_invocation = {e.invocation: (i, e) for i, e in enumerate(examples)}

    def predict(self, nlc, k):
        i, ex = self._by_invocation[nlc]
        if i % 11 == 5:
            raise RuntimeError("boom")
        if i % 13 == 7:  # breaks the contract: none of it may be parsed
            return [Prediction("cut -d: -f1 only_here", 1.0), Prediction("ls", float("nan"))]
        return [
            Prediction(ex.references[-1], 0.9),
            Prediction("echo 'unbalanced", 0.4),
            Prediction(_POOL[i % len(_POOL)], 0.7),
            Prediction(_POOL[(3 * i) % len(_POOL)], 0.2),
            Prediction(ex.references[0], 0.1),
        ]


def repeating_dataset():
    """Repeated references, and references that are earlier examples' predictions."""
    base = dataset(60, seed=11)
    data = list(base)
    for i, ex in enumerate(base[:20]):
        refs = (ex.references[0], base[i + 1].references[0], _POOL[2 if i % 3 == 0 else 4])
        data.append(Example(f"r{i}", ex.invocation + " again", refs))
    return data


def test_memoized_evaluate_scores_like_the_unmemoized_loop():
    data = repeating_dataset()
    got = evaluate(RepeatingPredictor(data), data, k=5, vocab=VOCAB)
    want = evaluate_ref(RepeatingPredictor(data), data, k=5, vocab=VOCAB)
    assert got.unparseable_prediction_count > len(data)  # the same two texts, counted per prediction
    assert got.predictor_failure_count > 0
    assert scores_of(got) == scores_of(want)


def test_evaluate_parses_and_templates_each_distinct_text_once(monkeypatch):
    data = repeating_dataset()
    predictor = RepeatingPredictor(data)
    texts = set()
    for ex in data:
        texts.update(ex.references)
        try:
            predictions = predictor.predict(ex.invocation, 5)[:5]
        except RuntimeError:
            continue
        if harness._contract_violation(predictions) is None:
            texts.update(p.cmd for p in predictions)
    parsing = set()
    for text in texts:
        try:
            harness.parse(text, VOCAB)
            parsing.add(text)
        except (BashSyntaxError, UnknownUtilityError):
            pass
    assert "cut -d: -f1 only_here" not in texts and len(parsing) < len(texts)

    calls = {"parse": 0, "template": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "parse", counted("parse", harness.parse))
    monkeypatch.setattr(harness, "normalize_template", counted("template", harness.normalize_template))
    evaluate(predictor, data, k=5, vocab=VOCAB)
    assert calls == {"parse": len(texts), "template": len(parsing)}
    evaluate(predictor, data, k=5, vocab=VOCAB)  # the memo lives for one call
    assert calls == {"parse": 2 * len(texts), "template": 2 * len(parsing)}


@pytest.mark.parametrize("seen_before", [False, True], ids=["fresh", "seen-as-prediction"])
@pytest.mark.parametrize(
    "text, error",
    [("echo 'x", BashSyntaxError), ("frobnicate -x", UnknownUtilityError)],
    ids=["syntax", "utility"],
)
def test_an_unparseable_reference_raises_its_error(text, error, seen_before):
    data = [
        Example("1", "list the files", ("ls -la",)),
        Example("2", "broken", ("ls", text)),
    ]
    predictor = ConstantPredictor(text if seen_before else "ls")
    with pytest.raises(error):
        evaluate(predictor, data, vocab=VOCAB)


def test_a_str_subclass_cmd_scores_as_its_plain_text():
    data = [
        Example("1", "list the files", ("ls -la",)),
        Example("2", "show disk use", ("df -h",)),
        Example("3", "odd", ("ls -l",)),
    ]
    for text in ["ls -la", "ls -al /tmp", "frobnicate -x", "ls |"]:
        plain = evaluate(ConstantPredictor(text, 0.6), data, vocab=VOCAB)
        hostile = evaluate(ConstantPredictor(HostileStr(text), 0.6), data, vocab=VOCAB)
        assert scores_of(hostile) == scores_of(plain)


def test_an_object_that_claims_str_is_a_predictor_failure():
    data = [Example("1", "list the files", ("ls -la",))]
    report = evaluate(ConstantPredictor(ClaimsStr()), data, vocab=VOCAB)
    assert report.predictor_failure_count == 1
    assert report.per_example[0].score.per_prediction == (-1.0,)


def test_empty_prediction_set_abstains_at_zero():
    data = dataset(4, seed=4)
    report = evaluate(SilentPredictor(), data, vocab=VOCAB)
    assert report.mean_score == 0.0


def test_mean_score_equals_dataset_score_of_examples():
    data = dataset(30, seed=5)
    report = evaluate(ConstantPredictor("ls -la /tmp"), data, vocab=VOCAB)
    assert report.mean_score == pytest.approx(
        dataset_score([r.score for r in report.per_example]), abs=1e-12
    )
    assert len(report.per_example) == len(data)


def test_report_fields_deterministic_given_fixed_predictor():
    data = dataset(15, seed=6)
    predictor = ConstantPredictor("ls")
    a = evaluate(predictor, data, vocab=VOCAB)
    b = evaluate(predictor, data, vocab=VOCAB)
    assert a.mean_score == b.mean_score
    assert a.dataset_fingerprint == b.dataset_fingerprint
    assert [r.score for r in a.per_example] == [r.score for r in b.per_example]


def test_excess_predictions_truncated_to_k():
    class Chatty:
        def predict(self, nlc, k):
            return [Prediction("ls", 1.0)] * 10

    data = dataset(3, seed=7)
    report = evaluate(Chatty(), data, k=2, vocab=VOCAB)
    assert all(len(r.score.per_prediction) == 2 for r in report.per_example)


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDatasetError):
        evaluate(ConstantPredictor("ls"), [], vocab=VOCAB)


# --- latency -----------------------------------------------------------------

def test_measure_latency_counts_warmup_separately():
    calls = []

    class Counting:
        def predict(self, nlc, k):
            calls.append(nlc)
            return []

    sample = ["a", "b", "c"]
    stats = measure_latency(Counting(), sample, warmup=2, k=5)
    assert len(calls) == 5  # 2 warmup + 3 measured
    assert stats.mean >= 0.0


def test_measure_latency_empty_sample_rejected():
    with pytest.raises(EmptySampleError):
        measure_latency(ConstantPredictor("ls"), [], warmup=0)


def test_latency_stats_percentile():
    stats = LatencyStats.from_samples([0.01] * 99 + [1.0])
    assert stats.p95 == 0.01
    assert stats.median == 0.01
    single = LatencyStats.from_samples([0.5])
    assert single.p95 == 0.5


# --- reporting -----------------------------------------------------------------

def test_report_json_round_trip():
    data = dataset(10, seed=8)
    report = evaluate(OraclePredictor(data), data, vocab=VOCAB)
    payload = emit_report(report, "json")
    loaded = EvaluationReport.from_json(payload.decode("utf-8"))
    assert loaded.mean_score == report.mean_score
    assert loaded.dataset_fingerprint == report.dataset_fingerprint
    assert loaded.per_example == report.per_example
    assert loaded.latency == report.latency


def test_report_table_contains_leaderboard_columns():
    data = dataset(5, seed=9)
    report = evaluate(OraclePredictor(data), data, vocab=VOCAB)
    table = emit_report(report, "table").decode("utf-8")
    assert "Accuracy Score" in table
    assert "Latency (sec)" in table


def test_emit_report_empty_rejected():
    report = EvaluationReport(
        predictor="x",
        k=5,
        per_example=[],
        mean_score=0.0,
        latency=LatencyStats(0.0, 0.0, 0.0),
        dataset_fingerprint="",
    )
    with pytest.raises(EmptyDatasetError):
        emit_report(report, "json")


# --- offline scoring -------------------------------------------------------------

def write_predictions(path, data, predictor, k=5):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in data:
            preds = predictor.predict(ex.invocation, k)
            fh.write(
                json.dumps(
                    {
                        "id": ex.id,
                        "predictions": [
                            {"cmd": p.cmd, "confidence": p.confidence} for p in preds
                        ],
                    }
                )
                + "\n"
            )


def test_offline_score_matches_live_evaluation(tmp_path):
    data = dataset(20, seed=10)
    predictor = OraclePredictor(data)
    live = evaluate(predictor, data, k=5, vocab=VOCAB)

    path = tmp_path / "preds.jsonl"
    write_predictions(path, data, predictor)
    offline = score_prediction_file(str(path), data, k=5, vocab=VOCAB)
    assert offline.mean_score == live.mean_score
    assert [r.score for r in offline.per_example] == [r.score for r in live.per_example]


def test_replay_predictor_missing_id_abstains():
    data = dataset(3, seed=11)
    replay = ReplayPredictor([e.id for e in data], {})
    report = evaluate(replay, data, vocab=VOCAB)
    assert report.mean_score == 0.0


# --- subprocess protocol -----------------------------------------------------------

ECHO_PREDICTOR = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        request = json.loads(line)
        reply = [{"cmd": "ls -la", "confidence": 0.9}]
        sys.stdout.write(json.dumps(reply) + "\\n")
        sys.stdout.flush()
    """
)


def test_subprocess_predictor_round_trip(tmp_path):
    script = tmp_path / "predictor.py"
    script.write_text(ECHO_PREDICTOR, encoding="utf-8")
    data = [Example("1", "list files", ("ls -la",), Source.OTHER)]
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    assert report.mean_score == pytest.approx(0.9)


def test_subprocess_reply_is_not_coerced(tmp_path):
    script = tmp_path / "null_cmd.py"
    script.write_text(ECHO_PREDICTOR.replace('"ls -la"', "None"), encoding="utf-8")
    data = [Example("1", "list files", ("ls -la",), Source.OTHER)]
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    # a null cmd is a predictor failure, not the command text "None"
    assert report.predictor_failure_count == 1
    assert report.unparseable_prediction_count == 0


def test_subprocess_predictor_protocol_error(tmp_path):
    script = tmp_path / "bad.py"
    script.write_text("import sys; sys.stdin.readline(); print('not json')", encoding="utf-8")
    data = [Example("1", "list files", ("ls",), Source.OTHER)]
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    # protocol violations surface as predictor failures, scored -1
    assert report.predictor_failure_count == 1
    assert report.mean_score == -1.0


@pytest.mark.parametrize(
    "reply",
    ["", "sys.stdout.write('[{\"cmd\": \"ls\"'); sys.stdout.flush(); "],
    ids=["never-answers", "half-a-line"],
)
def test_subprocess_reply_times_out(tmp_path, monkeypatch, reply):
    monkeypatch.setattr("nlbash.harness.REPLY_TIMEOUT_S", 0.5)
    script = tmp_path / "stall.py"
    script.write_text(f"import sys, time; sys.stdin.readline(); {reply}time.sleep(60)",
                      encoding="utf-8")
    data = dataset(2, seed=5)
    start = time.monotonic()
    with SubprocessPredictor([sys.executable, str(script)]) as predictor:
        report = evaluate(predictor, data, k=5, vocab=VOCAB)
    # the stalled child is killed, and the next call fails at once
    assert time.monotonic() - start < 10
    assert report.predictor_failure_count == 2
    assert [r.score.value for r in report.per_example] == [-1.0, -1.0]
    assert "within 0.5 s" in report.per_example[0].error
    assert "exited" in report.per_example[1].error
