"""Span recorder for the traced benchmark run, and the per-layer metrics.

Spans are taken from outside the package, around calls into each layer's
public entry points. The calling modules import those names directly
(``from .parser import parse`` binds ``nlbash.harness.parse``), so the
recorder replaces the name in every module that calls it; wrapping only
the defining module would miss those calls. Constructors and methods are
wrapped on their class, which every caller shares. ``uninstall`` restores
each original, so an untraced phase runs the program untouched.

A span is ``[name, start, end, parent, example, error, info]``. Spans stay
in memory and are written out when the run ends. A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from collections.abc import Sequence
from pathlib import Path

NAME, START, END, PARENT, EXAMPLE, ERROR, INFO = range(7)


def _returned_len(args, kwargs, result):
    return len(result)


def _retrieve_info(args, kwargs, result):
    return len(result), args[2]  # retrieve(index, nlc, k)


def _dedupe_info(args, kwargs, result):
    return len(result), len(args[0])  # dedupe_hits(hits, k)


def _calibration_rows(args, kwargs, result):
    return len(result[1])  # (features, labels)


def _index_docs(args, kwargs, result):
    return len(args[0])  # TfIdfIndex.__init__(self, ...)


def _filter_info(args, kwargs, result):
    return len(result.kept), dict(Counter(r.reason.value for r in result.rejected))


def _evaluate_info(args, kwargs, result):
    return result.unparseable_prediction_count, result.predictor_failure_count


# (span name, modules that bind the name, info extractor, index of an
# examples argument whose iteration sets the current example id)
FUNCTIONS = (
    ("parser.parse", "parse", ("harness", "corpus", "retrieval", "cli", "metric"), None, None),
    ("parser.reconstruct", "reconstruct", ("corpus",), None, None),
    ("template.normalize_template", "normalize_template", ("harness", "retrieval", "cli", "metric"), None, None),
    ("template.flatten_utilities", "flatten_utilities", ("corpus", "cli"), None, None),
    ("metric.prediction_score", "prediction_score", ("harness", "retrieval"), None, None),
    ("metric.aggregate_scores", "aggregate_scores", ("harness",), None, None),
    ("metric.dataset_score", "dataset_score", ("harness",), None, None),
    ("corpus.load_examples", "load_examples", ("cli",), _returned_len, None),
    ("corpus.filter_examples", "filter_examples", ("cli",), _filter_info, 0),
    ("corpus.build_splits", "build_splits", ("cli",), None, 0),
    ("corpus.utility_histogram", "utility_histogram", ("cli",), None, 0),
    ("corpus.save_examples", "save_examples", ("cli", "corpus"), None, None),
    ("corpus.save_filter_report", "save_filter_report", ("cli",), None, None),
    ("corpus.dataset_fingerprint", "dataset_fingerprint", ("harness",), None, None),
    ("retrieval.retrieve", "retrieve", ("retrieval",), _retrieve_info, None),
    ("retrieval.dedupe_hits", "dedupe_hits", ("retrieval",), _dedupe_info, None),
    ("retrieval.calibrate", "calibrate", ("retrieval",), None, None),
    ("retrieval.make_calibration_data", "make_calibration_data", ("retrieval", "cli"), _calibration_rows, None),
    ("retrieval.train_calibrator", "train_calibrator", ("retrieval", "cli"), None, None),
    ("retrieval.pairs_from_examples", "pairs_from_examples", ("cli",), None, 0),
    ("harness.evaluate", "evaluate", ("harness", "cli"), _evaluate_info, 1),
    ("harness.score_prediction_file", "score_prediction_file", ("cli",), None, 1),
    ("harness.load_prediction_file", "load_prediction_file", ("harness",), None, None),
    ("harness.emit_report", "emit_report", ("cli",), None, None),
    ("cli.cli", "cli", ("cli",), None, None),
)

# (span name, module, class, attribute, info extractor)
METHODS = (
    ("retrieval.index_build", "retrieval", "TfIdfIndex", "__init__", _index_docs),
    ("retrieval.index_save", "retrieval", "TfIdfIndex", "save", None),
    ("retrieval.predict", "retrieval", "TfIdfPredictor", "predict", None),
    ("retrieval.with_calibration", "retrieval", "TfIdfPredictor", "with_calibration", None),
)


class _Tracked(Sequence):
    """A sequence of examples whose iteration marks the current example id."""

    def __init__(self, items, recorder: "SpanRecorder"):
        self._items = items
        self._recorder = recorder

    def __len__(self):
        return len(self._items)

    def __getitem__(self, i):
        return self._items[i]

    def __iter__(self):
        for ex in self._items:
            self._recorder.example = ex.id
            yield ex


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.example: str | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, info=None, examples_arg=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if examples_arg is not None and len(args) > examples_arg:
                args = list(args)
                args[examples_arg] = _Tracked(args[examples_arg], self)
            saved = self.example
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, saved, False, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
                self.example = saved
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("spans already installed")
        for span_name, attr, modules, info, examples_arg in FUNCTIONS:
            for mod_name in modules:
                module = importlib.import_module(f"nlbash.{mod_name}")
                self._patch(module, attr, self.wrap(span_name, getattr(module, attr), info, examples_arg))
        for span_name, mod_name, cls_name, attr, info in METHODS:
            cls = getattr(importlib.import_module(f"nlbash.{mod_name}"), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(span_name, original.__func__, info)))
            else:
                self._patch(cls, attr, self.wrap(span_name, original, info))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
                         "example": s[EXAMPLE], "error": s[ERROR]}
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(ordered: list[float], q: int) -> float:
    """Nearest-rank percentile of sorted samples; 0.0 when there are none."""
    if not ordered:
        return 0.0
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]  # nearest rank


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer counts, self times and ratios, from one traced run's spans."""
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    covered = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            covered[s[PARENT]] += dur[i]
    self_s = [dur[i] - covered[i] for i in range(n)]

    # Parents are recorded before their children, so one forward pass
    # marks every span that runs inside an evaluate or a predictor set-up.
    in_eval, in_setup = [False] * n, [False] * n
    for i, s in enumerate(spans):
        p = s[PARENT]
        in_eval[i] = s[NAME] == "harness.evaluate" or (p >= 0 and in_eval[p])
        in_setup[i] = s[NAME] == "retrieval.with_calibration" or (p >= 0 and in_setup[p])

    errors, self_by, by_name = Counter(), defaultdict(float), defaultdict(list)
    layer_self, layer_calls = defaultdict(float), Counter()
    retrieval_eval = retrieval_setup = 0.0
    for i, s in enumerate(spans):
        name = s[NAME]
        layer = name.split(".", 1)[0]
        errors[name] += s[ERROR]
        self_by[name] += self_s[i]
        by_name[name].append(i)
        layer_self[layer] += self_s[i]
        layer_calls[layer] += 1
        if layer == "retrieval":
            retrieval_eval += self_s[i] if in_eval[i] else 0.0
            retrieval_setup += self_s[i] if in_setup[i] else 0.0

    def infos(name):
        return [spans[i][INFO] for i in by_name[name] if spans[i][INFO] is not None]

    def total_dur(name):
        return sum(dur[i] for i in by_name[name])

    retrieve_us = sorted(dur[i] * 1e6 for i in by_name["retrieval.retrieve"])
    retrieved = infos("retrieval.retrieve")
    deduped = infos("retrieval.dedupe_hits")
    calibrated_sets = sum(
        1 for i in by_name["retrieval.calibrate"]
        if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "retrieval.predict"
    )
    filtered = infos("corpus.filter_examples")
    kept = sum(k for k, _ in filtered)
    rejected = Counter()
    for _, reasons in filtered:
        rejected.update(reasons)
    evaluated = infos("harness.evaluate")

    return {
        "retrieval.retrieve_calls": (len(by_name["retrieval.retrieve"]), "count"),
        "retrieval.retrieve_self_s": (self_by["retrieval.retrieve"], "s"),
        "retrieval.retrieve_p50_us": (percentile(retrieve_us, 50), "us"),
        "retrieval.retrieve_p95_us": (percentile(retrieve_us, 95), "us"),
        "retrieval.hits_per_retrieve": (
            _ratio(sum(h for h, _ in retrieved), sum(k for _, k in retrieved)), "ratio"),
        "retrieval.predict_self_s": (self_by["retrieval.predict"], "s"),
        "retrieval.index_builds": (len(by_name["retrieval.index_build"]), "count"),
        "retrieval.docs_indexed": (sum(infos("retrieval.index_build")), "count"),
        "retrieval.index_build_self_s": (self_by["retrieval.index_build"], "s"),
        "retrieval.dedupe_keep_ratio": (
            _ratio(sum(o for o, _ in deduped), sum(i for _, i in deduped)), "ratio"),
        "retrieval.calibration_rows": (sum(infos("retrieval.make_calibration_data")), "count"),
        "retrieval.calibration_fit_s": (total_dur("retrieval.train_calibrator"), "s"),
        "retrieval.calibrated_share": (_ratio(calibrated_sets, len(by_name["retrieval.predict"])), "ratio"),
        "retrieval.evaluate_share": (_ratio(retrieval_eval, total_dur("harness.evaluate")), "ratio"),
        "retrieval.setup_share": (_ratio(retrieval_setup, total_dur("retrieval.with_calibration")), "ratio"),
        "parser.calls": (layer_calls["parser"], "count"),
        "parser.errors": (sum(v for k, v in errors.items() if k.startswith("parser.")), "count"),
        "parser.self_s": (layer_self["parser"], "s"),
        "parser.us_per_call": (_ratio(layer_self["parser"] * 1e6, layer_calls["parser"]), "us"),
        "template.calls": (layer_calls["template"], "count"),
        "template.self_s": (layer_self["template"], "s"),
        "template.us_per_call": (_ratio(layer_self["template"] * 1e6, layer_calls["template"]), "us"),
        "metric.calls": (layer_calls["metric"], "count"),
        "metric.self_s": (layer_self["metric"], "s"),
        "metric.us_per_call": (_ratio(layer_self["metric"] * 1e6, layer_calls["metric"]), "us"),
        "harness.evaluate_self_s": (self_by["harness.evaluate"], "s"),
        "harness.load_predictions_self_s": (self_by["harness.load_prediction_file"], "s"),
        "harness.emit_self_s": (self_by["harness.emit_report"], "s"),
        "harness.unparseable_predictions": (sum(u for u, _ in evaluated), "count"),
        "harness.predictor_failures": (sum(f for _, f in evaluated), "count"),
        "corpus.examples_loaded": (sum(infos("corpus.load_examples")), "count"),
        "corpus.load_self_s": (self_by["corpus.load_examples"], "s"),
        "corpus.filter_self_s": (self_by["corpus.filter_examples"], "s"),
        "corpus.kept_ratio": (_ratio(kept, kept + sum(rejected.values())), "ratio"),
        "corpus.rejected.parse_error": (rejected["parse_error"], "count"),
        "corpus.rejected.non_whitelist_utility": (rejected["non_whitelist_utility"], "count"),
        "corpus.rejected.roundtrip_mismatch": (rejected["roundtrip_mismatch"], "count"),
        "corpus.split_self_s": (self_by["corpus.build_splits"], "s"),
        "corpus.histogram_self_s": (self_by["corpus.utility_histogram"], "s"),
        "corpus.save_self_s": (self_by["corpus.save_examples"] + self_by["corpus.save_filter_report"], "s"),
        "cli.calls": (len(by_name["cli.cli"]), "count"),
        "cli.self_s": (self_by["cli.cli"], "s"),
    }
