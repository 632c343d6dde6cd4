"""The benchmark's own tests: seeded inputs, planted faults trip each output check,
spans restore what they wrap.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import gen
import workload
from nlbash import harness, parser, retrieval
from nlbash.corpus import Example, filter_examples
from nlbash.metric import Prediction
from nlbash.synth import toy_corpus
from spans import SpanRecorder, layer_metrics

K = 5


def _files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / name).mkdir()
        gen.gen_replay(seed, tmp_path / name, n_examples=20, shard_size=10)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("cls", gen.REJECT_CLASSES)
def test_each_reject_class_maps_to_its_reason(cls):
    rng = random.Random(0)
    examples = [Example(f"r{i}", "do it", (gen.reject_command(rng, cls),)) for i in range(30)]
    report = filter_examples(examples)
    assert not report.kept
    assert {r.reason for r in report.rejected} == {checks.REJECT_REASON[cls]}


@pytest.fixture(scope="module")
def serve():
    train = toy_corpus(300, seed=1)
    queries = toy_corpus(20, seed=2)
    predictor = retrieval.TfIdfPredictor(retrieval.pairs_from_examples(train), dedupe=True, normalize=True)
    return predictor, queries


def _serve_outputs(predictor, queries):
    rec = workload.RecordingPredictor(predictor)
    report = harness.evaluate(rec, queries, k=K)
    return list(zip([q.id for q in queries], rec.outputs)), report


class _Planted:
    """Wraps a predictor and edits each answer."""

    name = "planted"

    def __init__(self, inner, edit):
        self.inner, self.edit = inner, edit

    def predict(self, nlc, k):
        return self.edit(list(self.inner.predict(nlc, k)))


def _raise(preds):
    raise RuntimeError("planted failure")


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p + [Prediction("ls", 1.0)] * (K + 1 - len(p)),
        lambda p: [replace(p[0], confidence=0.0)] + p[1:],
        lambda p: [replace(p[0], confidence=1.5)] + p[1:],
        _raise,
    ],
    ids=["too-many", "confidence-0", "confidence-above-1", "raises"],
)
def test_serve_check_trips(serve, edit):
    predictor, queries = serve
    outputs, report = _serve_outputs(predictor, queries)
    assert checks.check_serve(outputs, [report], K) == []
    outputs, report = _serve_outputs(_Planted(predictor, edit), queries)
    assert checks.check_serve(outputs, [report], K)


@pytest.mark.parametrize(
    "edit",
    [lambda p: p[:-1], lambda p: p[1::-1] + p[2:]],
    ids=["drop-one-hit", "swap-two-hits"],
)
def test_digest_trips_on_dropped_or_reordered_hit(serve, edit):
    predictor, queries = serve
    outputs, _ = _serve_outputs(predictor, queries)
    pinned = checks.ranked_digest(outputs)
    assert checks.check_digest(checks.ranked_digest(outputs), pinned, len(outputs)) == []
    planted, _ = _serve_outputs(_Planted(predictor, edit), queries)
    assert checks.check_digest(checks.ranked_digest(planted), pinned, len(planted))


@pytest.fixture()
def replay(tmp_path):
    manifest = gen.gen_replay(3, tmp_path, n_examples=40, shard_size=40)
    shard = manifest["shards"][0]
    out = tmp_path / "report.json"
    rc = workload.quiet_cli(
        ["score", "--pred", str(tmp_path / shard["pred"]), "--refs", str(tmp_path / shard["refs"]),
         "--k", str(K), "--out", str(out)]
    )
    assert rc == 0
    labels = json.loads((tmp_path / "labels.json").read_text())[0]
    confidences = {
        r["id"]: [p["confidence"] for p in r["predictions"]]
        for r in workload.read_jsonl(tmp_path / shard["pred"])
    }
    return json.loads(out.read_text()), labels, confidences


def _first(report, pred):
    return next(row for row in report["per_example"] if pred(row))


def test_replay_check_trips(replay):
    report, labels, confidences = replay
    assert checks.check_replay(report, labels, confidences) == []
    assert any("unsupported" in kinds for kinds in labels.values())

    planted = json.loads(json.dumps(report))
    planted["unparseable_prediction_count"] += 1
    assert checks.check_replay(planted, labels, confidences)

    planted = json.loads(json.dumps(report))
    row = _first(planted, lambda r: "echo" in labels[r["id"]])
    row["per_prediction"][labels[row["id"]].index("echo")] -= 0.01
    assert checks.check_replay(planted, labels, confidences)

    planted = json.loads(json.dumps(report))
    row = _first(planted, lambda r: r["aggregation"] == "max_positive")
    row["aggregation"] = "average"
    assert checks.check_replay(planted, labels, confidences)

    planted = json.loads(json.dumps(report))
    planted["per_example"].pop()
    assert checks.check_replay(planted, labels, confidences)


@pytest.fixture()
def build(tmp_path):
    manifest = gen.gen_build(4, tmp_path, n_examples=40, shard_size=40, rejects_per_shard=10)
    shard = manifest["shards"][0]
    kept, rejected, prefix, index = (tmp_path / n for n in ("kept.jsonl", "rej.jsonl", "split", "index.json"))
    for argv in (
        ["filter", "--data", str(tmp_path / shard["raw"]), "--out", str(kept), "--rejected", str(rejected)],
        ["split", "--data", str(kept), "--seed", "9", "--fractions", "0.8,0.1,0.1", "--out-prefix", str(prefix)],
        ["index", "--data", str(kept), "--normalize", "--out", str(index)],
    ):
        assert workload.quiet_cli(argv) == 0
    kept_rows = workload.read_jsonl(kept)
    return dict(
        injected=json.loads((tmp_path / "labels.json").read_text())[0],
        examples=shard["examples"],
        kept=len(kept_rows),
        rejected_reasons=[r["reason"] for r in workload.read_jsonl(rejected)],
        split_sizes=tuple(len(workload.read_jsonl(Path(f"{prefix}.{p}.jsonl"))) for p in ("train", "val", "test")),
        fractions=(0.8, 0.1, 0.1),
        index_len=len(retrieval.TfIdfIndex.load(index)),
        kept_pairs=sum(len(r["cmd"]) for r in kept_rows),
    )


def test_build_check_trips(build):
    assert checks.check_build_shard(**build) == []
    train, val, test = build["split_sizes"]
    reasons = build["rejected_reasons"]
    for planted in (
        {"kept": build["kept"] - 1},
        {"split_sizes": (train - 1, val + 1, test)},
        {"index_len": build["index_len"] - 1},
        {"rejected_reasons": reasons[:-1]},
        {"rejected_reasons": ["roundtrip_mismatch"] + reasons[1:]},
    ):
        assert checks.check_build_shard(**{**build, **planted}), planted


def test_ablation_check_trips():
    assert checks.check_ablation(dict(checks.ABLATION_SCORES)) == []
    assert checks.check_ablation({**checks.ABLATION_SCORES, "full": 0.9545 - 1e-3})


def test_spans_nest_attribute_examples_and_restore(serve):
    predictor, queries = serve
    with SpanRecorder() as rec:
        assert harness.parse is not parser.parse
        harness.evaluate(predictor, queries[:5], k=K)
    assert harness.parse is parser.parse
    assert retrieval.TfIdfPredictor.predict.__name__ == "predict"
    assert "__wrapped__" not in vars(retrieval.TfIdfPredictor.predict)

    names = [s[0] for s in rec.spans]
    assert names[0] == "harness.evaluate" and rec.spans[0][3] == -1
    assert names.count("retrieval.predict") == 5
    retrieves = [s for s in rec.spans if s[0] == "retrieval.retrieve"]
    assert all(rec.spans[s[3]][0] == "retrieval.predict" for s in retrieves)
    assert [s[4] for s in retrieves] == [q.id for q in queries[:5]]

    m = layer_metrics(rec.spans)
    evaluate_s = rec.spans[0][2] - rec.spans[0][1]
    layers = ("retrieval.retrieve_self_s", "retrieval.predict_self_s", "parser.self_s",
              "template.self_s", "metric.self_s", "harness.evaluate_self_s")
    assert sum(m[name][0] for name in layers) <= evaluate_s + 1e-3
    assert m["retrieval.retrieve_calls"][0] == 5
    assert m["harness.predictor_failures"][0] == 0


class _FixedStep(workload.Workload):
    """A step of 10 examples that always takes 40 ms of wall time."""

    def __init__(self):
        super().__init__(None, {}, None)

    def step(self):
        self.examples += 10
        self.latency_ms += [4.0] * 10
        return 0.040


def test_pacing_scales_timings_by_the_reference_speed(monkeypatch):
    # A host running at half the reference speed: timings come out halved.
    monkeypatch.setattr(workload, "reference_s", lambda: 2 * workload.REF_S)
    monkeypatch.setattr(workload, "default_vocabulary", lambda: None)
    w = _FixedStep()
    n, busy = w.phase(0.0, min_steps=3)
    assert n == 30 and busy == pytest.approx(3 * 0.020)
    assert w.latency_ms == pytest.approx([2.0] * 30)
    assert w.step_rates == pytest.approx([500.0] * 3)
    assert w.step_mean_ms == pytest.approx([2.0] * 3)
    assert w.raw_busy == pytest.approx(3 * 0.040)


def test_reference_loop_leaves_gc_as_it_was():
    assert gc.isenabled()
    assert workload.reference_s() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        workload.reference_s()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score-replay", "--seed", "0", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
