"""Run one benchmark workload in a fresh process over inputs already generated.

``run.py`` generates the inputs and starts this script, so set-up time and
peak memory belong to the workload alone. It prints one JSON line: the
result (``correct``, ``attempted``, ``failed``, ``metrics``) plus the
sample count of each timing and run details for the report.

Every workload runs in this one process, on one thread, pinned to one CPU,
with no concurrency. With ``--trace 1`` the timed phase alternates
untraced and traced (``spans.SpanRecorder``) halves; the result then holds
the per-layer metrics and the throughput lost to tracing.

Timings are paced: a shared host runs the same code up to twice as fast in
one second as in the next, and the two CPUs of a small VM at different
speeds. So a fixed pure-Python loop (``reference_s``) is timed before and
after every timed step, on the same CPU, and the step's wall time is scaled
by ``REF_S`` over the mean of the two. Every timing metric thus reads as the
time on a machine where that loop takes ``REF_S``; a change to the program
moves it in full, a change in the host's speed hardly at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from nlbash import cli, corpus, harness, retrieval  # noqa: E402
from nlbash.synth import toy_corpus  # noqa: E402
from nlbash.vocab import default_vocabulary  # noqa: E402

import checks  # noqa: E402
from spans import SpanRecorder, layer_metrics, percentile  # noqa: E402

K = 5
SETUP_REPS = 3  # predictor constructions per tfidf-serve run; setup_s is their median
COLD_START_REPS = 9  # fresh-interpreter start-ups per batch run; setup_s is their median
SERVE_CHUNK = 50  # queries per evaluate call, so per paced step
SERVE_SCORED = 1000  # first queries that mean_score and the ranked-output digest cover
INDEX_RELOADS = 3  # saved indexes reloaded by the corpus-build check
FRACTIONS = (0.8, 0.1, 0.1)
TRACE_ROUNDS = 4  # untraced/traced phase pairs in a traced run

# The reference loop of the pacing builds and frees 20k small dicts, each
# with a new string and tuple: allocation and first touches of memory, the
# work whose speed the host varies most and which all three workloads do a
# lot of (tokens, parse trees, JSON rows). Of the loops tried (dict lookups
# in a table larger than the caches, string methods, their mixes) it tracked
# the workloads' own speed best. It runs with gc off, so its time does not
# depend on the heap the program has built.
REF_S = 0.014  # its time on a 2 GHz Xeon vCPU in the host's fast spells
REF_ROWS = 20000

COLD_START = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import nlbash.cli, nlbash.vocab\n"
    "nlbash.vocab.default_vocabulary()\n"
    "print(time.perf_counter() - t)\n"
)


def reference_s() -> float:
    """Wall time of one run of the pacing's fixed reference loop."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [{"id": f"x{i}", "cmd": (str(i), "ls -l")} for i in range(REF_ROWS)]
        del rows
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


class Pace:
    """Scale factors from wall time to time at the reference speed."""

    def __init__(self):
        self.last = reference_s()

    def factor(self) -> float:
        """Time the reference again; return ``REF_S`` over the mean of this and
        the previous timing, which bracket the work done in between."""
        now = reference_s()
        factor = 2 * REF_S / (self.last + now)
        self.last = now
        return factor


def pin_to_one_cpu() -> None:
    """Keep this process, and the interpreters it starts, on one CPU, so
    that the pacing and the work it scales run at the same speed."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cold_start_s() -> list[float]:
    """Import the CLI and load the vocabulary in fresh interpreters (paced)."""
    times = []
    pace = Pace()
    for _ in range(COLD_START_REPS):
        proc = subprocess.run(
            [sys.executable, "-c", COLD_START, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip()) * pace.factor())
    return times


def quiet_cli(argv: list[str]) -> int:
    """Run one ``nlbash`` command in-process; return its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.cli(argv)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class RecordingPredictor:
    """Passes queries to the predictor and keeps each ranked answer."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.outputs: list[list] = []

    def predict(self, nlc, k):
        out = []
        try:
            out = list(self.inner.predict(nlc, k))
            return out
        finally:
            self.outputs.append(out)


class Workload:
    """One workload: set-up, a repeated timed step, and output checks."""

    min_steps = 1  # steps a timed phase completes however long they take

    def __init__(self, inputs: Path, manifest: dict, out: Path):
        self.inputs, self.manifest, self.out = inputs, manifest, out
        self.vocab = default_vocabulary()
        self.examples = 0  # operations completed in the timed phases
        self.latency_ms: list[float] = []  # paced, like every timing
        self.step_rates: list[float] = []  # examples per paced second, per step
        self.step_mean_ms: list[float] = []  # mean paced latency, per step
        self.raw_busy = 0.0  # unpaced wall time of all steps
        self.failures: list[tuple[str, int]] = []
        self.setup_samples: list[float] = []
        self.info: dict = {}

    def phase(self, seconds: float, min_steps: int) -> tuple[int, float]:
        """Repeat the step for ``seconds``; return examples done and paced busy time."""
        before, busy, steps = self.examples, 0.0, 0
        pace = Pace()
        start = time.perf_counter()
        while steps < min_steps or time.perf_counter() - start < seconds:
            mark, done = len(self.latency_ms), self.examples
            elapsed = self.step()
            factor = pace.factor()
            self.raw_busy += elapsed
            busy += elapsed * factor
            self.latency_ms[mark:] = [ms * factor for ms in self.latency_ms[mark:]]
            self.step_rates.append((self.examples - done) / (elapsed * factor))
            self.step_mean_ms.append(statistics.fmean(self.latency_ms[mark:]))
            steps += 1
        return self.examples - before, busy


class TfidfServe(Workload):
    """Closed loop, one client: ``evaluate`` over queries, one predict at a time."""

    def __init__(self, *args):
        super().__init__(*args)
        self.train = corpus.load_examples(self.inputs / self.manifest["train"])
        self.queries = corpus.load_examples(self.inputs / self.manifest["queries"])
        self.pairs = retrieval.pairs_from_examples(self.train)
        self.cursor = 0
        self.reports = []
        self.predictor = None
        self.min_steps = SERVE_SCORED // SERVE_CHUNK

    def setup(self, reps: int) -> None:
        pace = Pace()
        for _ in range(reps):
            self.predictor = None  # free the previous predictor before timing the next
            start = time.perf_counter()
            predictor = retrieval.TfIdfPredictor.with_calibration(
                self.pairs, self.vocab, normalize=True, dedupe=True,
                seed=self.manifest["calibration_seed"], k=K,
            )
            elapsed = time.perf_counter() - start
            self.setup_samples.append(elapsed * pace.factor())
            self.predictor = RecordingPredictor(predictor)

    def step(self) -> float:
        chunk = self.queries[self.cursor : self.cursor + SERVE_CHUNK]
        self.cursor = (self.cursor + SERVE_CHUNK) % len(self.queries)
        start = time.perf_counter()
        report = harness.evaluate(self.predictor, chunk, k=K, vocab=self.vocab)
        elapsed = time.perf_counter() - start
        self.reports.append((chunk, report))
        self.examples += len(chunk)
        self.latency_ms.extend(r.latency_s * 1e3 for r in report.per_example)
        return elapsed

    def check(self) -> float:
        answered = [ex.id for chunk, _ in self.reports for ex in chunk]
        outputs = list(zip(answered, self.predictor.outputs))
        self.failures += checks.check_serve(outputs, [r for _, r in self.reports], K)
        digest = checks.ranked_digest(outputs[:SERVE_SCORED])
        pinned = json.loads((HERE / "pinned_digests.json").read_text()).get(str(self.manifest["seed"]))
        self.failures += checks.check_digest(digest, pinned, SERVE_SCORED)
        self.info.update(digest=digest, digest_pinned=pinned is not None)
        scores = [r.score.value for _, rep in self.reports for r in rep.per_example][:SERVE_SCORED]
        return math.fsum(scores) / len(scores)


class Batch(Workload):
    """Batch job: in-process ``nlbash`` commands over one input shard per step.

    A step's latency sample is its wall time per example of the shard.
    Set-up is the CLI's cold start, timed in fresh interpreters.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.shards = self.manifest["shards"]
        self.done: list[int] = []  # shard of each step, in order
        self.failed_shards: set[int] = set()

    def setup(self, reps: int) -> None:
        self.setup_samples += cold_start_s()

    def step(self) -> float:
        n = len(self.done) % len(self.shards)
        shard = self.shards[n]
        calls = self.commands(n, shard)
        start = time.perf_counter()
        codes = [quiet_cli(argv) for argv in calls]
        elapsed = time.perf_counter() - start
        for argv, rc in zip(calls, codes):
            if rc != 0:
                self.failures.append((f"{argv[0]} on shard {n} exited {rc}", shard["examples"]))
                self.failed_shards.add(n)
        self.done.append(n)
        self.examples += shard["examples"]
        self.latency_ms.append(elapsed * 1e3 / shard["examples"])
        return elapsed

    def checked_shards(self) -> list[int]:
        return sorted(set(self.done) - self.failed_shards)


class ScoreReplay(Batch):
    """``nlbash score`` per shard of references. A run scores every shard at
    least once, and mean_score covers them all."""

    def __init__(self, *args):
        super().__init__(*args)
        self.min_steps = len(self.shards)

    def commands(self, n: int, shard: dict) -> list[list[str]]:
        return [["score", "--pred", str(self.inputs / shard["pred"]), "--refs", str(self.inputs / shard["refs"]),
                 "--k", str(K), "--out", str(self.out / f"report-{n:03d}.json")]]

    def check(self) -> float:
        labels = json.loads((self.inputs / self.manifest["labels"]).read_text())
        scores = []
        for n in self.checked_shards():
            report = json.loads((self.out / f"report-{n:03d}.json").read_text())
            confidences = {
                rec["id"]: [p["confidence"] for p in rec["predictions"]]
                for rec in read_jsonl(self.inputs / self.shards[n]["pred"])
            }
            self.failures += checks.check_replay(report, labels[n], confidences)
            scores += [row["score"] for row in report["per_example"]]
        return math.fsum(scores) / max(1, len(scores))


class CorpusBuild(Batch):
    """``nlbash filter``, ``split``, ``stats`` and ``index --normalize`` per raw shard.
    mean_score is the full baseline's score in the ablation check."""

    def paths(self, n: int) -> dict[str, Path]:
        return {
            "kept": self.out / f"kept-{n:03d}.jsonl",
            "rejected": self.out / f"rejected-{n:03d}.jsonl",
            "split": self.out / f"split-{n:03d}",
            "index": self.out / f"index-{n:03d}.json",
        }

    def commands(self, n: int, shard: dict) -> list[list[str]]:
        p = self.paths(n)
        kept = str(p["kept"])
        return [
            ["filter", "--data", str(self.inputs / shard["raw"]), "--out", kept, "--rejected", str(p["rejected"])],
            ["split", "--data", kept, "--seed", str(self.manifest["split_seed"]),
             "--fractions", ",".join(map(str, FRACTIONS)), "--out-prefix", str(p["split"])],
            ["stats", "--data", kept],
            ["index", "--data", kept, "--normalize", "--out", str(p["index"])],
        ]

    def check(self) -> float:
        labels = json.loads((self.inputs / self.manifest["labels"]).read_text())
        for i, n in enumerate(self.checked_shards()):
            p = self.paths(n)
            kept = read_jsonl(p["kept"])
            split_sizes = tuple(
                len(read_jsonl(Path(f"{p['split']}.{part}.jsonl"))) for part in ("train", "val", "test")
            )
            index_len = len(retrieval.TfIdfIndex.load(p["index"], self.vocab)) if i < INDEX_RELOADS else None
            self.failures += checks.check_build_shard(
                injected=labels[n],
                examples=self.shards[n]["examples"],
                kept=len(kept),
                rejected_reasons=[r["reason"] for r in read_jsonl(p["rejected"])],
                split_sizes=split_sizes,
                fractions=FRACTIONS,
                index_len=index_len,
                kept_pairs=sum(len(r["cmd"]) for r in kept),
            )
        scores = ablation_scores(self.vocab)
        self.failures += checks.check_ablation(scores)
        self.info["ablation"] = scores
        return scores["full"]


def ablation_scores(vocab) -> dict[str, float]:
    """The four baseline variants on the acceptance split (untimed)."""
    data = corpus.filter_examples(toy_corpus(3000, seed=42), vocab).kept
    train, _, test = corpus.build_splits(data, seed=13, fractions=(0.9, 0.0, 0.1))
    pairs = retrieval.pairs_from_examples(train)
    build = {
        "raw": lambda: retrieval.TfIdfPredictor(pairs, vocab),
        "dedup": lambda: retrieval.TfIdfPredictor(pairs, vocab, dedupe=True),
        "normalize": lambda: retrieval.TfIdfPredictor(pairs, vocab, dedupe=True, normalize=True),
        "full": lambda: retrieval.TfIdfPredictor.with_calibration(
            pairs, vocab, normalize=True, dedupe=True, seed=5),
    }
    return {name: harness.evaluate(make(), test, k=K, vocab=vocab).mean_score for name, make in build.items()}


WORKLOADS = {"tfidf-serve": TfidfServe, "score-replay": ScoreReplay, "corpus-build": CorpusBuild}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_to_one_cpu()
    manifest = json.loads((args.inputs / "manifest.json").read_text())
    args.out.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload](args.inputs, manifest, args.out)

    if not args.trace:
        w.setup(SETUP_REPS)
        n, busy = w.phase(args.seconds, w.min_steps)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # before the untimed checks
        mean_score = w.check()
        metrics = {
            "setup_s": (statistics.median(w.setup_samples), "s"),
            # Medians over the steps, so a slow spell that the pacing only
            # partly cancels moves them little.
            "examples_per_s": (statistics.median(w.step_rates), "1/s"),
            "predict_mean_ms": (statistics.median(w.step_mean_ms), "ms"),
            "predict_p50_ms": (statistics.median(w.latency_ms), "ms"),
            "predict_p95_ms": (percentile(sorted(w.latency_ms), 95), "ms"),
            "mean_score": (mean_score, "score"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        samples = {
            "setup_s": len(w.setup_samples),
            "examples_per_s": len(w.step_rates),
            "predict_mean_ms": len(w.step_mean_ms),
            **{name: len(w.latency_ms) for name in ("predict_p50_ms", "predict_p95_ms")},
        }
        w.info.update(
            examples=n,
            examples_per_paced_s=n / busy,
            examples_per_wall_s=n / w.raw_busy,
        )
    else:
        recorder = SpanRecorder()
        if isinstance(w, TfidfServe):  # the batch workloads' set-up runs in other processes
            with recorder:
                w.setup(1)
        # Alternate untraced and traced phases so that drift in machine speed
        # falls on both alike.
        n_plain = n_traced = 0
        busy_plain = busy_traced = 0.0
        for r in range(TRACE_ROUNDS):
            n, busy = w.phase(args.seconds / (2 * TRACE_ROUNDS), w.min_steps if r == 0 else 1)
            n_plain, busy_plain = n_plain + n, busy_plain + busy
            with recorder:
                n, busy = w.phase(args.seconds / (2 * TRACE_ROUNDS), 1)
            n_traced, busy_traced = n_traced + n, busy_traced + busy
        w.check()
        metrics = layer_metrics(recorder.spans)
        metrics["trace.overhead_frac"] = (1.0 - (n_traced / busy_traced) / (n_plain / busy_plain), "ratio")
        samples = {"untraced_examples": n_plain, "traced_examples": n_traced, "spans": len(recorder.spans)}
        recorder.write(args.out / "spans.jsonl")

    failed = min(w.examples, sum(ops for _, ops in w.failures))
    result = {
        "correct": not w.failures,
        "attempted": w.examples,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps({
        "result": result,
        "samples": samples,
        "failures": [msg for msg, _ in w.failures],
        "info": w.info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
