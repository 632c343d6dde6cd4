"""Straight-line reference transcription of the scoring rules.

Deliberately independent of the package: operates on plain tuples and
sets, shares no helpers with the implementation under test, and trades
every cleverness for being obviously a literal reading of the three
scoring equations (flag score, per-prediction score, example
aggregation), of TF-IDF retrieval (dict postings, dict accumulation,
one full sort) and of constant-aware tokenization (one regex per class,
tried in turn). Used by the oracle-equivalence tests.

Three exceptions wire the package's own pieces the straightforward way:

- the calibrated set-up (``calibration_data_ref``, ``with_calibration_ref``)
  uses the package's index, parser and scorer, with a fresh index over the
  train side and every held-out reference parsed again, so that the shared
  single-analysis set-up can be compared with it;
- the harness loop (``evaluate_ref``) uses the package's parser, template,
  metric and report types, and parses and templates every reference and
  every prediction each time it meets one, so that the memoized
  ``evaluate`` can be compared with it. It checks the prediction contract
  and clamps each confidence with two helpers of its own, the checks
  ``evaluate`` made before it converted each confidence once;
- the score vector (``scores_ref``) reads the package's index and query
  weights and adds each query row with the fancy-index ``+=`` that
  ``retrieve`` used before ``np.add.at``, so that the two can be compared
  bit for bit.

The JSON-lines readers (``load_examples_ref``, ``load_prediction_file_ref``)
are a per-line reading: split the bytes at each line break by hand, decode
and ``json.loads`` one line at a time, walk the value for a lone surrogate,
and check the record field by field, each refusal spelled out where it is
made.

The parser has no copy here. ``tests/test_parser.py`` checks it against
Bash itself (``bash -n``), a hand-checked golden table and structural
properties, none of which descends from an earlier parser.
"""

import json
import math
import re

import numpy as np


def flag_score_ref(pred_flags, ref_flags):
    n = len(pred_flags)
    if len(ref_flags) > n:
        n = len(ref_flags)
    if n == 0:
        return 1.0
    inter = 0
    for f in pred_flags:
        if f in ref_flags:
            inter += 1
    union = len(pred_flags) + len(ref_flags) - inter
    return (2.0 * inter - union) / n


def prediction_score_ref(pred_units, delta, refs):
    """pred_units: [(utility, set_of_flags), ...]; refs: list of same."""
    best = None
    for ref_units in refs:
        t = len(pred_units)
        if len(ref_units) > t:
            t = len(ref_units)
        total = 0.0
        for i in range(t):
            same = (
                i < len(pred_units)
                and i < len(ref_units)
                and pred_units[i][0] == ref_units[i][0]
            )
            if same:
                total += 0.5 * (1.0 + flag_score_ref(pred_units[i][1], ref_units[i][1]))
            else:
                total -= 1.0
        value = delta * total / t
        if best is None or value > best:
            best = value
    return best


def example_score_ref(scores):
    has_positive = False
    for s in scores:
        if s > 0.0:
            has_positive = True
    if has_positive:
        best = scores[0]
        for s in scores[1:]:
            if s > best:
                best = s
        return best
    total = 0.0
    for s in scores:
        total += s
    return total / len(scores)


def dataset_score_ref(values):
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _vectorize_ref(idf, tokens):
    counts = {}
    for t in tokens:
        if t in idf:
            counts[t] = counts.get(t, 0) + 1
    vec = {t: c * idf[t] for t, c in counts.items()}
    norm = math.sqrt(sum(w * w for w in vec.values()))
    if norm > 0:
        vec = {t: w / norm for t, w in vec.items()}
    return vec


def index_ref(doc_tokens):
    """(idf, inverted) over tokenized documents: idf is ln((1 + D) / (1 + df)) + 1,
    and inverted maps a term to its [(doc index, weight), ...] postings."""
    df = {}
    for tokens in doc_tokens:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    d = len(doc_tokens)
    idf = {term: math.log((1.0 + d) / (1.0 + n)) + 1.0 for term, n in df.items()}
    inverted = {}
    for doc_idx, tokens in enumerate(doc_tokens):
        for term, weight in _vectorize_ref(idf, tokens).items():
            inverted.setdefault(term, []).append((doc_idx, weight))
    return idf, inverted


def retrieve_ref(idf, inverted, query_tokens, k):
    """Top-k [(doc index, similarity clamped to 1.0), ...]: best first, ties
    by doc index, zero similarities dropped."""
    scores = {}
    for term, qw in _vectorize_ref(idf, query_tokens).items():
        for doc_idx, dw in inverted.get(term, ()):
            scores[doc_idx] = scores.get(doc_idx, 0.0) + qw * dw
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    hits = []
    for doc_idx, sim in ranked[:k]:
        if sim <= 0.0:
            break
        hits.append((doc_idx, min(sim, 1.0)))
    return hits


def scores_ref(index, nlc):
    """The index's score vector for ``nlc``: one fancy-index ``+=`` per query row."""
    from nlbash.retrieval import _tokens

    scores = np.zeros(len(index.documents))
    indptr, indices, data = index._indptr, index._indices, index._data
    for row, qw in zip(*index._vectorize(_tokens(nlc, index.normalize))):
        a, b = indptr[row], indptr[row + 1]
        scores[indices[a:b]] += qw * data[a:b]  # a row holds each document once
    return scores


_STRIP = ".,!?;:()[]{}<>\"'`"
_QUOTED_REF = re.compile(r"\"[^\"]*\"|'[^']*'")
_IP_REF = re.compile(r"\d{1,3}(?:\.\d{1,3}){3}(?::\d+)?")
_NUMBER_REF = re.compile(r"[+-]?\d+(?:\.\d+)?")
_PATH_REF = re.compile(r"~?/[^\s]*|\.{1,2}/[^\s]*|[\w.*-]+\.[A-Za-z0-9]{1,4}|[^\s]*\*[^\s]*")


def normalize_nl_ref(utterance):
    """(tokens, constants): quoted strings, then IP, NUMBER and PATH words,
    each class tried by its own fullmatch in that order."""
    pieces = []
    pos = 0
    for m in _QUOTED_REF.finditer(utterance):
        pieces.extend((False, w) for w in utterance[pos : m.start()].split())
        pieces.append((True, m.group(0)))
        pos = m.end()
    pieces.extend((False, w) for w in utterance[pos:].split())
    tokens, constants = [], []
    for quoted, raw in pieces:
        if quoted:
            tokens.append("STRING")
            constants.append(raw[1:-1])
            continue
        word = raw.strip(_STRIP)
        if not word:
            continue
        if _IP_REF.fullmatch(word):
            tokens.append("IP")
            constants.append(word)
        elif _NUMBER_REF.fullmatch(word):
            tokens.append("NUMBER")
            constants.append(word)
        elif _PATH_REF.fullmatch(word):
            tokens.append("PATH")
            constants.append(word)
        else:
            tokens.append(word.lower())
    return tokens, constants


def calibration_data_ref(pairs, vocab, holdout_fraction=0.2, seed=0, k=5, normalize=False, dedupe=True):
    """Calibration rows the two-index way: the same split, a fresh index
    over the train side's plain pairs, each held-out reference parsed."""
    from nlbash.metric import ScoredPrediction, prediction_score
    from nlbash.parser import parse
    from nlbash.retrieval import DEDUPE_POOL_FACTOR, TfIdfIndex, dedupe_hits, hit_features, retrieve
    from nlbash.template import normalize_template

    order = np.random.default_rng(seed).permutation(len(pairs))
    held = set(int(i) for i in order[: max(1, int(round(len(pairs) * holdout_fraction)))])
    train = [p for i, p in enumerate(pairs) if i not in held]
    holdout = [p for i, p in enumerate(pairs) if i in held]
    index = TfIdfIndex(train, vocab=vocab, normalize=normalize)
    features, labels = [], []
    for nl, cmd in holdout:
        ref = normalize_template(parse(cmd, vocab))
        hits = dedupe_hits(retrieve(index, nl, k * DEDUPE_POOL_FACTOR), k) if dedupe else retrieve(index, nl, k)
        for hit in hits:
            score = prediction_score(ScoredPrediction(template=hit.template, delta=1.0), [ref])
            features.append(hit_features(hit))
            labels.append(1 if score > 0.0 else 0)
    return features, labels


def with_calibration_ref(pairs, vocab, normalize=True, dedupe=True, seed=0, k=5):
    """The calibrated predictor from ``calibration_data_ref`` and a fresh full index."""
    from nlbash.retrieval import TfIdfPredictor, train_calibrator

    features, labels = calibration_data_ref(pairs, vocab, seed=seed, k=k, normalize=normalize, dedupe=dedupe)
    model = train_calibrator(features, labels)
    return TfIdfPredictor(pairs, vocab=vocab, normalize=normalize, dedupe=dedupe, calibration=model)


def _clamp(value, lo, hi):
    return min(max(float(value), lo), hi)


def _contract_violation(predictions):
    """The first prediction lacking a str cmd or a real confidence, not a bool,
    that ``float()`` converts to a finite value, described."""
    import numbers

    from nlbash.harness import _describe

    for i, p in enumerate(predictions):
        cmd, confidence = getattr(p, "cmd", None), getattr(p, "confidence", None)
        try:
            # float() runs a subclass's __float__; math.isfinite alone would
            # read a float subclass's value without calling it.
            real = isinstance(confidence, numbers.Real) and not isinstance(confidence, bool)
            finite = real and math.isfinite(float(confidence))
        except Exception:  # a raising __float__, an int past the float range
            finite = False
        if not issubclass(type(cmd), str) or not finite:
            return f"prediction {i} needs a str cmd and a finite confidence, got {_describe(p)}"
    return None


def evaluate_ref(predictor, dataset, k=5, vocab=None):
    """The harness loop with no memo: every reference and prediction parsed where met,
    each confidence checked and then converted by its own helper."""
    import time

    from nlbash.corpus import dataset_fingerprint
    from nlbash.errors import BashSyntaxError, UnknownUtilityError
    from nlbash.harness import EvaluationReport, ExampleResult, _describe
    from nlbash.metric import (
        Aggregation,
        ExampleScore,
        ScoredPrediction,
        aggregate_scores,
        prediction_score,
    )
    from nlbash.parser import parse
    from nlbash.template import normalize_template

    results = []
    unparseable = 0
    for ex in dataset:
        ref_templates = [normalize_template(parse(r, vocab)) for r in ex.references]
        error = None
        start = time.perf_counter()
        try:
            raw_predictions = list(predictor.predict(ex.invocation, k))
        except Exception as exc:
            error = _describe(exc)
        elapsed = time.perf_counter() - start
        if error is None:
            raw_predictions = raw_predictions[:k]
            error = _contract_violation(raw_predictions)
        if error is not None:
            score = ExampleScore(-1.0, (-1.0,), Aggregation.AVERAGE)
            results.append(ExampleResult(ex.id, score, elapsed, error=error))
            continue
        if not raw_predictions:
            results.append(ExampleResult(ex.id, ExampleScore(0.0, (), Aggregation.AVERAGE), elapsed))
            continue
        per_prediction = []
        for p in raw_predictions:
            delta = _clamp(p.confidence, 0.0, 1.0)
            try:
                template = normalize_template(parse(p.cmd, vocab))
            except (BashSyntaxError, UnknownUtilityError):
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
        dataset_fingerprint=dataset_fingerprint(dataset),
        unparseable_prediction_count=unparseable,
    )


class _Refused(Exception):
    """A JSON-lines file the oracle refuses; the message is the package's."""


def _lines_ref(data):
    """Each line of ``data`` with its break: LF, CR LF or CR, and nothing else."""
    lines, start, i = [], 0, 0
    while i < len(data):
        end = i + 2 if data[i : i + 2] == b"\r\n" else i + 1
        if data[i : i + 1] in (b"\n", b"\r"):
            lines.append(data[start:end])
            start = end
        i = end
    if start < len(data):
        lines.append(data[start:])
    return lines


def _lone_surrogate_ref(value):
    """The first lone surrogate in any string of ``value``, keys included, or None."""
    if isinstance(value, str):
        for ch in value:
            if 0xD800 <= ord(ch) <= 0xDFFF:
                return ch
        return None
    if isinstance(value, dict):
        value = list(value) + list(value.values())
    if isinstance(value, list):
        for item in value:
            found = _lone_surrogate_ref(item)
            if found:
                return found
    return None


def _json_lines_ref(path):
    """(line number, where, value) of each non-blank line in turn; _Refused for a
    line that is not JSON."""
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, raw in enumerate(_lines_ref(data), start=1):
        where = f"{path}:{lineno}"
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _Refused(f"{where}: invalid UTF-8 ({exc.reason})")
        if text.strip() == "":
            continue
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise _Refused(f"{where}: invalid JSON ({exc.msg})")
        except (ValueError, RecursionError) as exc:
            raise _Refused(f"{where}: invalid JSON ({exc})")
        surrogate = _lone_surrogate_ref(value)
        if surrogate:
            raise _Refused(f"{where}: lone surrogate {surrogate!r} in text")
        yield lineno, where, value


def _field_ref(record, key, names, where):
    """record[key] when its type's name is one of ``names``, else _Refused."""
    if key not in record:
        raise _Refused(f"{where}: missing {key!r}")
    value = record[key]
    if type(value).__name__ not in names:
        raise _Refused(f"{where}: {key!r} must be {' or '.join(names)}, got {type(value).__name__}")
    return value


def load_examples_ref(path):
    """("accepted", [(id, invocation, references, source), ...]) or ("refused", message)."""
    examples = []
    try:
        for lineno, where, record in _json_lines_ref(path):
            if type(record) is not dict:
                raise _Refused(f"{where}: expected a JSON object")
            invocation = _field_ref(record, "invocation", ["str"], where)
            if invocation.strip() == "":
                raise _Refused(f"{where}: 'invocation' must be a non-empty string")
            cmd = _field_ref(record, "cmd", ["str", "list"], where)
            references = [cmd] if type(cmd) is str else cmd
            if len(references) == 0:
                raise _Refused(f"{where}: 'cmd' must be a command or a non-empty list of commands")
            for ref in references:
                if type(ref) is not str or ref.strip() == "":
                    raise _Refused(f"{where}: 'cmd' must be a command or a non-empty list of commands")
            ex_id = f"ex-{lineno:06d}"
            if "id" in record:
                ex_id = _field_ref(record, "id", ["str"], where)
                if ex_id == "":
                    raise _Refused(f"{where}: 'id' must be a non-empty string")
            source = "other"
            if "source" in record:
                source = _field_ref(record, "source", ["str", "NoneType"], where)
                if source is None or source == "":
                    source = "other"
            examples.append((ex_id, invocation, tuple(references), source))
    except _Refused as exc:
        return "refused", str(exc)
    return "accepted", examples


def load_prediction_file_ref(path):
    """("accepted", {id: [(cmd, confidence), ...]}) or ("refused", message)."""
    by_id = {}
    try:
        for _, where, record in _json_lines_ref(path):
            if type(record) is not dict:
                raise _Refused(f"{where}: expected a JSON object")
            ex_id = _field_ref(record, "id", ["str"], where)
            if ex_id in by_id:
                raise _Refused(f"{where}: id {ex_id!r} repeats an earlier line")
            items = _field_ref(record, "predictions", ["list"], where)
            predictions = []
            for item in items:
                try:
                    predictions.append((item["cmd"], item.get("confidence", 1.0)))
                except (KeyError, TypeError) as exc:
                    raise _Refused(f"{where}: bad predictions ({exc!r})")
            by_id[ex_id] = predictions
    except _Refused as exc:
        return "refused", str(exc)
    return "accepted", by_id
