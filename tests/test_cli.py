import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

from nlbash import corpus, harness, retrieval
from nlbash.cli import cli
from nlbash.corpus import filter_examples, load_examples, save_examples
from nlbash.harness import EvaluationReport, score_prediction_file
from nlbash.retrieval import CalibrationModel, TfIdfPredictor, pairs_from_examples
from nlbash.synth import toy_corpus
from nlbash.vocab import default_vocabulary

VOCAB = default_vocabulary()


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    examples = filter_examples(toy_corpus(120, seed=17), VOCAB).kept
    path = tmp / "corpus.jsonl"
    save_examples(examples, path)
    return path


def test_parse_command(capsys):
    assert cli(["parse", "df --total | tail -n 1"]) == 0
    out = capsys.readouterr().out
    assert "df" in out and "tail" in out and "total" in out


def test_parse_json_output(capsys):
    assert cli(["parse", "find / -EXdsx -name linux", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["utilities"] == ["find"]
    assert sorted(payload["template"][0]["flags"]) == ["E", "X", "d", "name", "s", "x"]


ERASED = {
    "echo done >> log.txt": [("echo", 2)],  # 'done' and the redirect target
    "sudo chown root process": [("sudo", 0), ("chown", 2)],
    "find . -name x -exec rm -f {} \\;": [("find", 2), ("rm", 1)],
    'cd "$(dirname x)"': [("cd", 1), ("dirname", 1)],  # a double-quoted substitution is a command
}


@pytest.mark.parametrize("command", ERASED)
def test_parse_prints_each_units_erased_count(command, capsys):
    assert cli(["parse", command, "--json"]) == 0
    template = json.loads(capsys.readouterr().out)["template"]
    assert [(u["utility"], u["erased_args"]) for u in template] == ERASED[command]
    assert cli(["parse", command]) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    assert len(lines) == len(ERASED[command])
    for line, (utility, n) in zip(lines, ERASED[command]):
        assert line.split()[0] == utility
        suffix = {0: "", 1: "  (1 arg erased)"}.get(n, f"  ({n} args erased)")
        assert line.endswith(suffix) and ("erased" in line) == (n > 0), line


def test_parse_bad_command_is_data_error(capsys):
    assert cli(["parse", "grep 'unterminated"]) == 2


def test_parse_of_two_lines_is_data_error(capsys):
    assert cli(["parse", "ls\nrm -rf /tmp/x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "newline" in err and "Traceback" not in err, err


def test_vocabulary_saved_with_a_byte_order_mark_is_a_data_error(tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("ls\tl\ngrep\n", encoding="utf-8-sig")
    assert cli(["parse", "--vocab", str(vocab), "ls -l"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {vocab}:1: bad utility name '\\ufeffls'"), err


def test_vocabulary_that_repeats_a_utility_is_a_data_error(tmp_path, capsys):
    vocab = tmp_path / "dup.txt"
    vocab.write_text("ls\nfind\tname\nfind\ttype\n", encoding="utf-8")
    assert cli(["parse", "--vocab", str(vocab), "ls"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {vocab}:3: utility 'find' repeats line 2"), err


def test_missing_file_is_data_error(tmp_path):
    assert cli(["filter", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")]) == 2


def test_usage_error_exit_code(data_file, tmp_path, capsys):
    # eval without --baseline or --predictor-cmd
    assert cli(["eval", "--data", str(data_file)]) == 1
    # missing required argument entirely
    assert cli(["filter", "--data", str(data_file)]) == 1
    # fractions that are not numbers
    prefix = str(tmp_path / "part")
    capsys.readouterr()
    for fractions in ("a,b,c", "nan,0,0"):
        assert cli(["split", "--data", str(data_file), "--fractions", fractions,
                    "--out-prefix", prefix]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
    # a negative fraction
    assert cli(["split", "--data", str(data_file), "--fractions=-1,1,1", "--out-prefix", prefix]) == 1
    assert capsys.readouterr().err.startswith("usage error: ")
    # argument values outside their declared range
    model = str(tmp_path / "model.json")
    for argv in (
        ["eval", "--data", str(data_file), "--baseline", "tfidf", "--train", str(data_file),
         "--k", "0"],
        ["score", "--pred", str(data_file), "--refs", str(data_file), "--k", "0"],
        ["calibrate", "--data", str(data_file), "--out", model, "--k", "0"],
        ["calibrate", "--data", str(data_file), "--out", model, "--holdout", "1.5"],
        ["calibrate", "--data", str(data_file), "--out", model, "--holdout", "nan"],
        ["calibrate", "--data", str(data_file), "--out", model, "--holdout", "abc"],
        ["stats", "--data", str(data_file), "--top", "-3"],
        ["stats", "--data", str(data_file), "--top", "x"],
        ["eval", "--data", str(data_file), "--predictor-cmd", "'x"],
        ["eval", "--data", str(data_file), "--predictor-cmd", " "],
        ["eval", "--data", str(data_file), "--baseline", "tfidf", "--train", str(data_file),
         "--predictor-cmd", "ls"],
        ["calibrate", "--data", str(data_file), "--out", model, "--seed", "-1"],
        ["eval", "--data", str(data_file), "--baseline", "tfidf", "--variant", "full",
         "--train", str(data_file), "--seed", "-1"],
    ):
        assert cli(argv) == 1, argv
        err = capsys.readouterr().err
        assert "error: argument --" in err and "Traceback" not in err, argv
    # split reads no vocabulary, so it takes no --vocab
    assert cli(["split", "--data", str(data_file), "--out-prefix", prefix, "--vocab", "x"]) == 1
    assert "unrecognized arguments: --vocab x" in capsys.readouterr().err
    # a split seed only orders the shuffle, so a negative one is fine
    assert cli(["split", "--data", str(data_file), "--seed", "-1", "--out-prefix", prefix]) == 0


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="the interpreter has no int str digit limit",
)
@pytest.mark.parametrize("route", ["filter", "score"])
def test_json_int_past_the_digit_limit_is_a_data_error(route, data_file, tmp_path, capsys):
    # json.loads raises a plain ValueError here, not a JSONDecodeError
    huge = "1" * 5000
    bad = tmp_path / "bad.jsonl"
    if route == "filter":
        bad.write_text('{"invocation": "x", "cmd": "ls", "id": ' + huge + "}\n", encoding="utf-8")
        args = ["filter", "--data", str(bad), "--out", str(tmp_path / "kept.jsonl")]
    else:
        bad.write_text(
            '{"id": "a", "predictions": [{"cmd": "ls", "confidence": ' + huge + "}]}\n",
            encoding="utf-8",
        )
        args = ["score", "--pred", str(bad), "--refs", str(data_file)]
    capsys.readouterr()
    assert cli(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_dataset_errors_name_their_file(data_file, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"invocation": "x", "cmd": "ls"}\nnot json\n', encoding="utf-8")
    capsys.readouterr()
    assert cli(["eval", "--data", str(data_file), "--baseline", "tfidf", "--train", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:2: invalid JSON")
    for line, reason in (
        ('{"invocation": "x", "cmd": 5}', "'cmd' must be"),
        ('["x", "ls"]', "expected a JSON object"),
        ('{"invocation": "x", "cmd": "ls", "source": 5}', "'source' must be"),
    ):
        bad.write_text(line + "\n", encoding="utf-8")
        assert cli(["eval", "--data", str(bad), "--baseline", "tfidf", "--train", str(data_file)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:1: {reason}")


_UNDECODABLE = {
    "deep-json": b"[" * 100_000 + b"\n",
    "bad-utf8": b'{"invocation": "list \xff", "cmd": "ls"}\n',
}
# Each command that reads a dataset, prediction or vocabulary file; BAD marks
# the argument that gets the undecodable file. A vocabulary is not JSON.
_READERS = {
    "parse-vocab": ["parse", "ls", "--vocab", "BAD"],
    "filter": ["filter", "--data", "BAD", "--out", "OUT"],
    "split": ["split", "--data", "BAD", "--out-prefix", "OUT"],
    "stats": ["stats", "--data", "BAD"],
    "stats-vocab": ["stats", "--data", "GOOD", "--vocab", "BAD"],
    "score-pred": ["score", "--pred", "BAD", "--refs", "GOOD"],
    "score-refs": ["score", "--pred", "GOOD", "--refs", "BAD"],
    "index": ["index", "--data", "BAD", "--out", "OUT"],
    "calibrate": ["calibrate", "--data", "BAD", "--out", "OUT"],
    "eval-data": ["eval", "--data", "BAD", "--baseline", "tfidf", "--train", "GOOD"],
    "eval-train": ["eval", "--data", "GOOD", "--baseline", "tfidf", "--train", "BAD"],
}


@pytest.mark.parametrize(
    "kind, reader",
    [(k, r) for k in _UNDECODABLE for r in _READERS if k == "bad-utf8" or "vocab" not in r],
)
def test_undecodable_input_file_is_a_data_error(kind, reader, data_file, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(_UNDECODABLE[kind])
    paths = {"BAD": str(bad), "GOOD": str(data_file), "OUT": str(tmp_path / "out")}
    argv = [paths.get(a, a) for a in _READERS[reader]]
    capsys.readouterr()
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err


_SURROGATE_RECORDS = {
    "id": '{"id": "a\\udcff", "invocation": "x", "cmd": "ls"}',
    "invocation": '{"invocation": "list \\udcff", "cmd": "ls"}',
    "cmd": '{"invocation": "x", "cmd": ["ls", "ls \\ud800"]}',
}


@pytest.mark.parametrize("field", _SURROGATE_RECORDS)
@pytest.mark.parametrize("reader", ["filter", "split", "index", "eval-data"])
def test_lone_surrogate_in_a_dataset_is_a_data_error(field, reader, data_file, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"invocation": "x", "cmd": "ls"}\n' + _SURROGATE_RECORDS[field] + "\n",
                   encoding="utf-8")
    paths = {"BAD": str(bad), "GOOD": str(data_file), "OUT": str(tmp_path / "out")}
    capsys.readouterr()
    assert cli([paths.get(a, a) for a in _READERS[reader]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: lone surrogate") and "Traceback" not in err


@pytest.mark.parametrize("size", [1, 3])
@pytest.mark.parametrize("command", ["calibrate", "eval"])
def test_training_data_too_small_to_calibrate_is_a_data_error(size, command, tmp_path, capsys):
    small = tmp_path / "small.jsonl"
    save_examples(filter_examples(toy_corpus(120, seed=17), VOCAB).kept[:size], small)
    if command == "calibrate":
        args = ["calibrate", "--data", str(small), "--out", str(tmp_path / "model.json")]
    else:
        args = ["eval", "--baseline", "tfidf", "--variant", "full", "--train", str(small),
                "--data", str(small)]
    capsys.readouterr()
    assert cli(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_zero():
    assert cli(["--help"]) == 0


def test_filter_writes_outputs(data_file, tmp_path, capsys):
    out = tmp_path / "kept.jsonl"
    rejected = tmp_path / "rejected.jsonl"
    code = cli(
        ["filter", "--data", str(data_file), "--out", str(out), "--rejected", str(rejected)]
    )
    assert code == 0
    assert out.exists() and rejected.exists()
    assert "kept" in capsys.readouterr().out


def test_filter_rejects_deep_nesting_without_traceback(tmp_path, capsys):
    data = tmp_path / "deep.jsonl"
    deep = ["sudo " * 3000 + "ls", "echo " + "$( echo " * 1500 + "ls" + " )" * 1500, "ls -l"]
    data.write_text(
        "".join(json.dumps({"invocation": "x", "cmd": c}) + "\n" for c in deep), encoding="utf-8"
    )
    rejected = tmp_path / "rejected.jsonl"
    args = ["filter", "--data", str(data), "--out", str(tmp_path / "kept.jsonl")]
    assert cli(args + ["--rejected", str(rejected)]) == 0
    captured = capsys.readouterr()
    assert "kept 1, rejected 2" in captured.out
    assert "Traceback" not in captured.err
    reasons = [json.loads(line)["reason"] for line in rejected.read_text().splitlines()]
    assert reasons == ["parse_error", "parse_error"]


def test_split_roundtrip(data_file, tmp_path, capsys):
    prefix = str(tmp_path / "part")
    code = cli(
        ["split", "--data", str(data_file), "--seed", "13", "--fractions", "0.8,0.1,0.1",
         "--out-prefix", prefix]
    )
    assert code == 0
    sizes = {}
    for name in ("train", "val", "test"):
        with open(f"{prefix}.{name}.jsonl", encoding="utf-8") as fh:
            sizes[name] = sum(1 for line in fh if line.strip())
    assert sizes == {"train": 96, "val": 12, "test": 12}


def test_stats_prints_histogram(data_file, capsys):
    assert cli(["stats", "--data", str(data_file), "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) <= 5


def test_stats_notes_the_examples_it_filters_out(data_file, tmp_path, capsys):
    lines = data_file.read_text(encoding="utf-8").splitlines()
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("\n".join([*lines, '{"invocation": "x", "cmd": "ls && rm x"}']) + "\n",
                     encoding="utf-8")
    capsys.readouterr()
    assert cli(["stats", "--data", str(mixed)]) == 0
    assert capsys.readouterr().err == f"filtered out 1 of {len(lines) + 1} examples\n"


def test_index_and_eval_baseline(data_file, tmp_path, capsys):
    index_path = tmp_path / "index.json"
    assert cli(["index", "--data", str(data_file), "--out", str(index_path)]) == 0
    assert index_path.exists()

    code = cli(
        ["eval", "--baseline", "tfidf", "--variant", "dedup", "--train", str(data_file),
         "--data", str(data_file), "--k", "5", "--format", "table"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Accuracy Score" in out


def _index_data(tmp_path):
    """A raw dataset with non-ASCII invocations and one rejected example, and its kept pairs."""
    lines = [json.dumps(ex.to_record(), ensure_ascii=False) for ex in toy_corpus(40, seed=11)]
    lines += [
        json.dumps({"invocation": "liste les fichiers « récents » — ça va", "cmd": "ls -lt"},
                   ensure_ascii=False),
        json.dumps({"invocation": "ファイルを数える 📁", "cmd": ["ls | wc -l", "ls -1 | wc -l"]},
                   ensure_ascii=False),
        json.dumps({"invocation": "frobnicate ünïcode", "cmd": "frobnicate x"}, ensure_ascii=False),
    ]
    raw = tmp_path / "raw.jsonl"
    raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return raw, pairs_from_examples(filter_examples(load_examples(raw), VOCAB).kept)


@pytest.mark.parametrize("normalize", [False, True])
def test_index_writes_the_file_of_the_index_over_the_kept_pairs(normalize, tmp_path, capsys):
    raw, pairs = _index_data(tmp_path)
    assert any(not nl.isascii() for nl, _ in pairs)
    assert len(pairs) < len(pairs_from_examples(load_examples(raw)))  # a pair is rejected
    out = tmp_path / "index.json"
    argv = ["index", "--data", str(raw), "--out", str(out)] + ["--normalize"] * normalize
    capsys.readouterr()
    assert cli(argv) == 0
    assert capsys.readouterr().out == f"indexed {len(pairs)} pairs -> {out}\n"
    built = tmp_path / "built.json"
    retrieval.TfIdfIndex(pairs, VOCAB, normalize).save(built)
    assert out.read_bytes() == built.read_bytes()
    loaded = retrieval.TfIdfIndex.load(out, VOCAB)
    assert loaded.normalize is normalize
    assert [(doc.invocation, doc.command) for doc in loaded.documents] == pairs


@pytest.mark.parametrize("data", ["", '{"invocation": "x", "cmd": ["frobnicate x", "ls && rm x"]}\n'])
def test_index_of_no_kept_pairs_is_a_data_error_and_writes_no_file(data, tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    raw.write_text(data, encoding="utf-8")
    out = tmp_path / "index.json"
    capsys.readouterr()
    assert cli(["index", "--data", str(raw), "--out", str(out)]) == 2
    assert capsys.readouterr().err.endswith("error: cannot index an empty corpus\n")
    assert not out.exists()


def test_eval_json_report(data_file, tmp_path):
    out_path = tmp_path / "report.json"
    for variant in ("raw", "normalize"):
        code = cli(
            ["eval", "--baseline", "tfidf", "--variant", variant, "--train", str(data_file),
             "--data", str(data_file), "--format", "json", "--out", str(out_path)]
        )
        assert code == 0
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert "mean_score" in report and "latency" in report
        # training data equals eval data, so self-retrieval should be strong
        assert report["mean_score"] > 0.9, variant


def test_eval_json_report_on_stdout_ends_its_line(data_file, capsys):
    code = cli(["eval", "--baseline", "tfidf", "--variant", "raw", "--train", str(data_file),
                "--data", str(data_file), "--format", "json"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("}\n") and out.count("\n}") == 1  # one report, its last line ended
    assert EvaluationReport.from_json(out).mean_score > 0.9


def test_calibrate_writes_model(data_file, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code = cli(
        ["calibrate", "--data", str(data_file), "--out", str(model_path), "--seed", "3"]
    )
    assert code == 0
    model = json.loads(model_path.read_text(encoding="utf-8"))
    assert set(model) == {"weights", "bias", "feature_means", "feature_stds"}
    capsys.readouterr()
    args = ["calibrate", "--data", str(data_file), "--out", str(model_path), "--holdout", "0.3"]
    assert cli(args) == 0
    held_out = int(capsys.readouterr().out.split()[2])  # "trained on N hits ..."
    assert cli(args[:-2]) == 0
    assert held_out > int(capsys.readouterr().out.split()[2])  # more held out, more hits


@pytest.mark.parametrize("seed, k", [(3, 5), (0, 2)])
def test_calibrate_fits_the_model_of_eval_variant_full(seed, k, tmp_path):
    data = tmp_path / "corpus.jsonl"
    examples = filter_examples(toy_corpus(800, seed=3), VOCAB).kept
    save_examples(examples, data)
    model_path = tmp_path / "model.json"
    argv = ["calibrate", "--data", str(data), "--out", str(model_path), "--holdout", "0.2",
            "--seed", str(seed), "--k", str(k)]
    assert cli(argv) == 0
    full = TfIdfPredictor.with_calibration(pairs_from_examples(examples), VOCAB, seed=seed, k=k)

    def exact(model):  # each field, bit for bit
        return {name: [float.hex(x) for x in (v if isinstance(v, tuple) else (v,))]
                for name, v in asdict(model).items()}

    assert exact(CalibrationModel.load(model_path)) == exact(full.calibration)


def test_eval_baseline_without_train_is_a_usage_error(data_file, capsys):
    assert cli(["eval", "--data", str(data_file), "--baseline", "tfidf"]) == 1
    assert capsys.readouterr().err == "usage error: --baseline tfidf requires --train\n"


CHILD_PREDICTOR = """
import json, sys
for line in sys.stdin:
    words = json.loads(line)["nlc"].split()
    reply = [{"cmd": "ls -la", "confidence": 0.5}] if "list" in words else []
    print(json.dumps(reply), flush=True)
"""


def test_eval_runs_an_external_predictor(data_file, tmp_path, capsys):
    script = tmp_path / "child.py"
    script.write_text(CHILD_PREDICTOR, encoding="utf-8")
    out_path = tmp_path / "report.json"
    command = shlex.join([sys.executable, str(script)])
    assert cli(["eval", "--data", str(data_file), "--predictor-cmd", command,
                "--format", "json", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == f"report -> {out_path}\n"
    report = json.loads(out_path.read_text(encoding="utf-8"))
    assert report["predictor"] == f"subprocess:{sys.executable}"
    assert report["predictor_failure_count"] == 0
    examples = filter_examples(toy_corpus(120, seed=17), VOCAB).kept
    asked = {ex.id for ex in examples if "list" in ex.invocation.split()}
    answered = {r["id"] for r in report["per_example"] if r["per_prediction"]}
    assert asked and answered == asked


@pytest.mark.parametrize("command", ["score", "index", "stats", "eval"])
def test_a_command_parses_each_distinct_reference_once(command, data_file, tmp_path, monkeypatch, capsys):
    examples = load_examples(data_file)
    references = [ref for ex in examples for ref in ex.references]
    assert len(set(references)) < len(references)  # a repeated reference is parsed once too
    train_path = tmp_path / "train.jsonl"
    if command == "eval":  # training data that holds some of the references, not all
        train = [ref for ex in toy_corpus(300, seed=2) for ref in ex.references]
        assert set(references) & set(train) and set(references) - set(train)
        references += train
        save_examples(toy_corpus(300, seed=2), train_path)
    pred_path = tmp_path / "preds.jsonl"
    with open(pred_path, "w", encoding="utf-8") as fh:
        for i, ex in enumerate(examples):  # each prediction is some example's reference
            cmd = examples[(i + 1) % len(examples)].references[0]
            fh.write(json.dumps({"id": ex.id, "predictions": [{"cmd": cmd, "confidence": 1.0}]}) + "\n")
    parsed = Counter()

    def counted(parse):
        def wrapper(text, vocab=None):
            parsed[text] += 1
            return parse(text, vocab)
        return wrapper

    for module in (corpus, harness, retrieval):
        monkeypatch.setattr(module, "parse", counted(module.parse))
    argv = {
        "score": ["score", "--pred", str(pred_path), "--refs", str(data_file)],
        "index": ["index", "--data", str(data_file), "--out", str(tmp_path / "index.json")],
        "stats": ["stats", "--data", str(data_file)],
        "eval": ["eval", "--baseline", "tfidf", "--variant", "full", "--train", str(train_path),
                 "--data", str(data_file), "--format", "json", "--out", str(tmp_path / "report.json")],
    }[command]
    assert cli(argv) == 0
    assert parsed == Counter(set(references))


def test_score_out_writes_the_report_of_score_prediction_file(data_file, tmp_path, capsys):
    examples = load_examples(data_file)
    pred_path = tmp_path / "preds.jsonl"
    with open(pred_path, "w", encoding="utf-8") as fh:
        for i, ex in enumerate(examples):  # some right, some wrong, one unparseable
            cmd = "ls |" if i == 0 else examples[i // 2].references[0]
            fh.write(json.dumps({"id": ex.id, "predictions": [{"cmd": cmd, "confidence": 0.5}]}) + "\n")
    out_path = tmp_path / "report.json"
    assert cli(["score", "--pred", str(pred_path), "--refs", str(data_file), "--out", str(out_path)]) == 0
    written = EvaluationReport.from_json(out_path.read_bytes())
    expected = score_prediction_file(str(pred_path), examples, vocab=VOCAB)
    assert [(r.example_id, r.score) for r in written.per_example] == [
        (r.example_id, r.score) for r in expected.per_example
    ]
    assert (written.mean_score, written.dataset_fingerprint, written.unparseable_prediction_count) == (
        expected.mean_score, expected.dataset_fingerprint, 1
    )
    assert {r.score.value > 0 for r in written.per_example} == {True, False}


def test_score_prediction_file(data_file, tmp_path, capsys):
    examples = filter_examples(toy_corpus(120, seed=17), VOCAB).kept
    pred_path = tmp_path / "preds.jsonl"
    with open(pred_path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(
                json.dumps(
                    {"id": ex.id, "predictions": [{"cmd": ex.references[0], "confidence": 1.0}]}
                )
                + "\n"
            )
    assert cli(["score", "--pred", str(pred_path), "--refs", str(data_file)]) == 0
    out = capsys.readouterr().out
    assert "mean score: 1.0000" in out


# Run in a fresh interpreter: numpy must stay unexecuted through the
# commands that neither fit a calibrator nor query an index, and its first
# import must come from inside nlbash.retrieval once one does. The steps run
# in the order given, so each command that executes numpy gets its own child.
NUMPY_CHILD = """
import json, sys, traceback

class FirstNumpyImport:  # notes where numpy is first imported, then lets it import
    where = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and FirstNumpyImport.where is None:
            FirstNumpyImport.where = [(f.filename, f.name) for f in traceback.extract_stack()]

sys.meta_path.insert(0, FirstNumpyImport())
import nlbash
from nlbash.cli import cli

raw, preds, *order = sys.argv[1:]
steps = {
    "parse": ["parse", "ls -la | wc -l"],
    "filter": ["filter", "--data", raw, "--out", "kept.jsonl"],
    "split": ["split", "--data", "kept.jsonl", "--out-prefix", "parts"],
    "stats": ["stats", "--data", "kept.jsonl"],
    "score": ["score", "--pred", preds, "--refs", "kept.jsonl"],
    "index": ["index", "--data", "kept.jsonl", "--out", "index.json"],
    "calibrate": ["calibrate", "--data", "kept.jsonl", "--out", "model.json"],
    "eval": ["eval", "--baseline", "tfidf", "--variant", "full", "--train", "kept.jsonl",
             "--data", "kept.jsonl", "--format", "json", "--out", "report.json"],
}
loaded = {"import nlbash": "numpy" in sys.modules}
for name in order:
    loaded[name] = (cli(steps[name]), "numpy" in sys.modules)
print(json.dumps({"loaded": loaded, "first_import": FirstNumpyImport.where}))
"""
WITHOUT_NUMPY = ("parse", "filter", "split", "stats", "score", "index")


@pytest.mark.parametrize("numpy_step", ["calibrate", "eval"])
def test_only_calibrate_and_eval_baseline_execute_numpy(numpy_step, tmp_path):
    examples = toy_corpus(60, seed=5)
    raw = tmp_path / "raw.jsonl"
    save_examples(examples, raw)
    preds = tmp_path / "preds.jsonl"
    preds.write_text("".join(
        json.dumps({"id": ex.id, "predictions": [{"cmd": ex.references[0], "confidence": 1.0}]})
        + "\n" for ex in examples
    ), encoding="utf-8")
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run(
        [sys.executable, "-c", NUMPY_CHILD, str(raw), str(preds), *WITHOUT_NUMPY, numpy_step],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["loaded"] == {
        "import nlbash": False,
        **{name: [0, False] for name in WITHOUT_NUMPY},
        numpy_step: [0, True],
    }
    package = [where for where in result["first_import"] if where[0].startswith(str(src))]
    assert package[-1] == [str(src / "nlbash" / "retrieval.py"), "make_calibration_data"]
