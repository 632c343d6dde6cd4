"""nlbash benchmark: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload tfidf-serve --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Workloads (why each was chosen is in BENCHMARK.json):

* ``tfidf-serve``  closed loop, one client: ``evaluate(k=5)`` of the full
  TF-IDF baseline (calibrated, normalized, deduplicated) over ~5k training
  pairs. Retrieval does nearly all the work.
* ``score-replay``  batch: ``nlbash score`` in-process over 20k references
  with 5 labelled predictions each. Retrieval is never called.
* ``corpus-build``  batch: ``nlbash filter``, ``split``, ``stats`` and
  ``index --normalize`` in-process over 30k raw examples, 10% of them
  injected rejects. Also checks the baseline ablation scores (untimed).

For each workload this script generates the inputs from ``--seed`` in a
child process (``gen.py``, untimed, under ``.perfbench_work/`` in the
checkout), then runs the workload in a fresh process (``workload.py``),
which checks its outputs, and prints the metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
exit code is 0 only when every output check passed.

Timings are paced (see ``workload.py``): each timed step's wall time is
scaled by the speed of a fixed reference loop timed just before and after
it, so the timing metrics read as times on a machine of constant speed and
a shared host's drift hardly moves them. ``examples_per_s`` and
``predict_mean_ms`` are medians over the run's steps. The unpaced throughput
is printed in ``info`` as ``examples_per_wall_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("tfidf-serve", "score-replay", "corpus-build")
TIMEOUT_S = 170  # one workload run, inputs included, must end well within three minutes
GEN_TIMEOUT_S = 60


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nlbash").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, sizes: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "input_sizes": sizes,
    }


def run_child(script: str, args: list[str], timeout: float) -> str:
    """Run one of the benchmark's scripts in a fresh interpreter; return its stdout."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, str(HERE / script), *args], stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{script} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}")
    return stdout


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate inputs, run the workload in a fresh process, return its report.

    Both steps run in child processes and this one imports no part of the
    program, so the workload's peak RSS (which on Linux starts from the
    parent's at exec) is its own.
    """
    work = WORK / f"{workload}-trace{trace}"
    inputs, out = work / "inputs", work / "out"
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    run_child("gen.py", ["--workload", workload, "--seed", str(seed), "--out", str(inputs)], GEN_TIMEOUT_S)
    manifest = json.loads((inputs / "manifest.json").read_text())
    remaining = TIMEOUT_S - (time.perf_counter() - start)
    stdout = run_child("workload.py", ["--workload", workload, "--inputs", str(inputs), "--out", str(out),
                                       "--seconds", str(seconds), "--trace", str(trace)], remaining)
    report = json.loads(stdout.strip().splitlines()[-1])
    report["provenance"] = provenance(seed, manifest["sizes"])
    report["workload"] = workload
    if (out / "spans.jsonl").exists():
        report["info"]["spans"] = (out / "spans.jsonl").relative_to(ROOT).as_posix()
    (work / "result.json").write_text(json.dumps(report, indent=2))
    # Keep the result and the spans; the generated inputs and outputs are rebuilt per run.
    shutil.rmtree(inputs, ignore_errors=True)
    for path in out.iterdir():
        if path.name != "spans.jsonl":
            path.unlink()
    return report


def print_report(report: dict) -> None:
    result = report["result"]
    print(f"== {report['workload']}  correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}  failed_frac={result['failed'] / result['attempted']:.6g}")
    for name, metric in result["metrics"].items():
        n = report["samples"].get(name)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"   {name:<42} {metric['value']:>14.6g} {metric['unit']:<6}{suffix}")
    for key, value in report["samples"].items():
        if key not in result["metrics"]:
            print(f"   samples: {key} = {value}")
    for message in report["failures"]:
        print(f"   CHECK FAILED: {message}")
    if report["info"]:
        print("   info: " + json.dumps(report["info"]))
    print("   provenance: " + json.dumps(report["provenance"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nlbash benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nlbash" / "__init__.py").is_file():
        print(f"error: no nlbash sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    start = time.perf_counter()
    for name in names:
        try:
            reports.append(run_workload(name, args.seed, args.seconds, args.trace))
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(reports[-1])
    print(f"   wall: {time.perf_counter() - start:.1f} s")

    if len(reports) == 1:
        final = reports[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in reports),
            "attempted": sum(r["result"]["attempted"] for r in reports),
            "failed": sum(r["result"]["failed"] for r in reports),
            "metrics": {
                f"{r['workload']}/{name}": metric
                for r in reports for name, metric in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
