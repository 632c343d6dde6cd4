"""Run the benchmark on two revisions in alternating pairs and compare them.

    python3 tools/pairs.py --base REV [--head REV] --workload W [--pairs N] [--seconds S] [--seed S]

Each side is the ``src/`` and ``perfbench/`` trees of a git revision, exported
with ``git archive`` into a temporary directory; without ``--head`` the head
side is a snapshot of the working tree taken at the start, exported alike.
Each pair runs ``perfbench/run.py --workload W --seed S --seconds S --trace 0``
once on each side, the base side first in even pairs and the head side first
in odd ones, so drift in machine speed falls on both alike.

For each end-to-end metric of ``BENCHMARK.json`` the tool prints each side's
median and quartiles, the median and quartiles over pairs of head / base - 1,
and the number of pairs the head side won in the direction the metric is
better (ties count for neither side). With ``--head`` equal to ``--base`` the
pair-ratio quartiles are the noise floor of that workload and run length. It
also prints how many runs of each side passed the benchmark's checks and how
many operations failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from revisions import ROOT, export_sides  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"


def run_side(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """The result line of one benchmark run in ``checkout``: correct, attempted, failed, metrics."""
    done = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"run in {checkout} exited {done.returncode} with no result line: "
                           f"{done.stderr.strip()[-2000:]}") from None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _spread(values: list[float], spec: str) -> str:
    """``median [q1, q3]`` of ``values``, each number formatted by ``spec``."""
    q1, median, q3 = _quartiles(values)
    return f"{median:{spec}} [{q1:{spec}}, {q3:{spec}}]"


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[str]:
    """Lines comparing the (base, head) result lines of ``pairs`` on each metric of
    ``end_to_end`` (BENCHMARK.json's entries: ``name`` and ``better``)."""
    lines = [f"{'metric':<18} {'base median [q1, q3]':>36} {'head median [q1, q3]':>36} "
             f"{'pair ratio [q1, q3]':>26}  head won"]
    for metric in end_to_end:
        name = metric["name"]
        base = [b["metrics"][name]["value"] for b, _ in pairs if name in b["metrics"]]
        head = [h["metrics"][name]["value"] for _, h in pairs if name in h["metrics"]]
        if len(base) != len(pairs) or len(head) != len(pairs):
            lines.append(f"{name:<18} missing from some runs")
            continue
        sides = [_spread(values, ".6g") for values in (base, head)]
        ratios = [h / b - 1.0 for b, h in zip(base, head) if b]
        ratio = _spread(ratios, "+.1%") if len(ratios) == len(pairs) else "n/a"
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        lines.append(f"{name:<18} {sides[0]:>36} {sides[1]:>36} {ratio:>26}  {won} of {len(pairs)}")
    for side, results in (("base", [b for b, _ in pairs]), ("head", [h for _, h in pairs])):
        correct = sum(r["correct"] for r in results)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        lines.append(f"{side}: {correct} of {len(results)} runs correct, {failed} of {attempted} operations failed")
    return lines


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="revision whose src/ and perfbench/ are the base side")
    parser.add_argument("--head", help="revision of the head side (default: the working tree)")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"],
                        help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        (base_label, base), (head_label, head) = export_sides(args.base, args.head, Path(tmp), "src", "perfbench")
        print(f"{args.workload}: {args.pairs} pairs of {args.seconds:g} s runs, seed {args.seed}; "
              f"base {base_label}, head {head_label}", flush=True)
        pairs = []
        try:
            for i in range(args.pairs):
                order = (("base", base), ("head", head)) if i % 2 == 0 else (("head", head), ("base", base))
                result = {side: run_side(checkout, args.workload, args.seconds, args.seed) for side, checkout in order}
                pairs.append((result["base"], result["head"]))
                rate = {side: r["metrics"]["examples_per_s"]["value"] for side, r in result.items()}
                print(f"pair {i + 1}: {order[0][0]} first; examples_per_s base {rate['base']:.6g}, "
                      f"head {rate['head']:.6g}", flush=True)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print("\n".join(summarize(pairs, benchmark["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
