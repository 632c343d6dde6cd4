"""Seeded input generator for the three benchmark workloads.

One seed derives every sub-seed (train, queries, calibration, references,
predictions, raw corpus, rejects), so the same seed always writes the same
files. Each workload's inputs are written together with the labels the
generator used: the kind of every replayed prediction and the class of
every injected reject. Nothing here is timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nlbash.corpus import Example, save_examples  # noqa: E402
from nlbash.synth import command_corpus, toy_corpus  # noqa: E402

# tfidf-serve: predictor over ~5k training pairs, queries from a disjoint seed;
# enough queries that a 20 s run rarely evaluates one twice.
SERVE_TRAIN = 5000
SERVE_QUERIES = 3000

# score-replay: 20k references, 5 predictions each, replayed in shards.
REPLAY_EXAMPLES = 20000
REPLAY_SHARD = 500
REPLAY_PREDICTIONS = 5
REPLAY_RANDOM_POOL = 4000
# Share of each prediction kind; "unsupported" predictions are unparseable.
REPLAY_KINDS = (("echo", 0.3), ("random", 0.6), ("unsupported", 0.1))

# corpus-build: 30k raw examples, 10% of each shard replaced by rejects.
BUILD_EXAMPLES = 30000
BUILD_SHARD = 500
BUILD_REJECTS_PER_SHARD = 50

# Command shapes the parser must refuse, by class. The class decides the
# RejectReason the corpus filter has to report (see checks.REJECT_REASON).
REJECT_TEMPLATES = {
    "command_list": (
        "ls -l {dir} && rm -rf {dir}",
        "mkdir -p {dir} || echo failed",
        "cd {dir}; ls -la",
    ),
    "subshell": (
        "(cd {dir} && tar czf {file}.tar.gz .)",
        "(ls -l {dir})",
    ),
    "here_doc": (
        "cat <<EOF > {file}\nhello\nEOF",
        "wc -l <<< {word}",
    ),
    "process_substitution": (
        "diff <(ls {dir}) <(ls {dir2})",
        "comm -12 <(sort {file}) <(sort {file2})",
    ),
    "control_flow": (
        "for f in {dir}/*; do wc -l $f; done",
        "while read line; do echo $line; done < {file}",
        "if [ -d {dir} ]; then ls {dir}; fi",
    ),
    "unknown_utility": (
        "frobnicate --all {dir}",
        "zorkctl -v {file}",
        "ls {dir} | quuxify -n 3",
    ),
}
REJECT_CLASSES = tuple(REJECT_TEMPLATES)

_DIRS = ("/tmp", "/var/log", "/home/user", "/etc", "./build", "/opt/data", "~/projects")
_FILES = ("notes.txt", "report.csv", "main.c", "config.yaml", "access.log", "data.json")
_WORDS = ("hello", "error", "token", "admin", "timeout")


def derive(seed: int, name: str) -> int:
    """Sub-seed for one input stream, fixed by the run's seed and the stream name."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def reject_command(rng: random.Random, cls: str) -> str:
    template = rng.choice(REJECT_TEMPLATES[cls])
    dir1, dir2 = rng.sample(_DIRS, 2)
    file1, file2 = rng.sample(_FILES, 2)
    return template.format(dir=dir1, dir2=dir2, file=file1, file2=file2, word=rng.choice(_WORDS))


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")


def _shards(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def gen_serve(seed: int, out: Path, n_train: int = SERVE_TRAIN, n_queries: int = SERVE_QUERIES) -> dict:
    save_examples(toy_corpus(n_train, seed=derive(seed, "train")), out / "train.jsonl")
    save_examples(toy_corpus(n_queries, seed=derive(seed, "queries")), out / "queries.jsonl")
    return {
        "train": "train.jsonl",
        "queries": "queries.jsonl",
        "calibration_seed": derive(seed, "calibration") % 2**31,
        "sizes": {"train_examples": n_train, "queries": n_queries},
    }


def replay_predictions(rng: random.Random, ex: Example, pool: list[str]) -> tuple[list[dict], list[str]]:
    """Five labelled predictions for one example: echo, random, or unsupported."""
    kinds = [k for k, _ in REPLAY_KINDS]
    weights = [w for _, w in REPLAY_KINDS]
    predictions, labels = [], []
    for kind in rng.choices(kinds, weights=weights, k=REPLAY_PREDICTIONS):
        if kind == "echo":
            cmd = rng.choice(ex.references)
        elif kind == "random":
            cmd = rng.choice(pool)
        else:
            cmd = reject_command(rng, rng.choice(REJECT_CLASSES))
        predictions.append({"cmd": cmd, "confidence": rng.random()})
        labels.append(kind)
    return predictions, labels


def gen_replay(
    seed: int, out: Path, n_examples: int = REPLAY_EXAMPLES, shard_size: int = REPLAY_SHARD
) -> dict:
    refs = toy_corpus(n_examples, seed=derive(seed, "refs"))
    pool = command_corpus(REPLAY_RANDOM_POOL, seed=derive(seed, "random_pool"))
    rng = random.Random(derive(seed, "predictions"))
    shards = []
    for n, part in enumerate(_shards(refs, shard_size)):
        refs_path, pred_path = f"refs-{n:03d}.jsonl", f"pred-{n:03d}.jsonl"
        save_examples(part, out / refs_path)
        labels = {}
        with open(out / pred_path, "w", encoding="utf-8") as fh:
            for ex in part:
                predictions, labels[ex.id] = replay_predictions(rng, ex, pool)
                fh.write(json.dumps({"id": ex.id, "predictions": predictions}) + "\n")
        shards.append({"refs": refs_path, "pred": pred_path, "examples": len(part), "labels": labels})
    _write_json(out / "labels.json", [s.pop("labels") for s in shards])
    return {
        "shards": shards,
        "labels": "labels.json",
        "sizes": {"examples": n_examples, "predictions": n_examples * REPLAY_PREDICTIONS},
    }


def gen_build(
    seed: int,
    out: Path,
    n_examples: int = BUILD_EXAMPLES,
    shard_size: int = BUILD_SHARD,
    rejects_per_shard: int = BUILD_REJECTS_PER_SHARD,
) -> dict:
    raw = toy_corpus(n_examples, seed=derive(seed, "raw"))
    rng = random.Random(derive(seed, "rejects"))
    shards = []
    for n, part in enumerate(_shards(raw, shard_size)):
        injected = {}
        for pos in sorted(rng.sample(range(len(part)), min(rejects_per_shard, len(part)))):
            cls = rng.choice(REJECT_CLASSES)
            part[pos] = Example(part[pos].id, part[pos].invocation, (reject_command(rng, cls),))
            injected[part[pos].id] = cls
        path = f"raw-{n:03d}.jsonl"
        save_examples(part, out / path)
        shards.append({"raw": path, "examples": len(part), "injected": injected})
    labels = [s.pop("injected") for s in shards]
    _write_json(out / "labels.json", labels)
    return {
        "shards": shards,
        "labels": "labels.json",
        "split_seed": derive(seed, "split") % 2**31,
        "sizes": {"raw_examples": n_examples, "injected_rejects": sum(map(len, labels))},
    }


GENERATORS = {"tfidf-serve": gen_serve, "score-replay": gen_replay, "corpus-build": gen_build}


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs and labels under ``out``; return its manifest."""
    out.mkdir(parents=True, exist_ok=True)
    manifest = GENERATORS[workload](seed, out)
    manifest.update(workload=workload, seed=seed)
    _write_json(out / "manifest.json", manifest)
    return manifest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Write one workload's seeded inputs and labels.")
    ap.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
