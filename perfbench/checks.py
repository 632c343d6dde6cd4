"""Output checks for the benchmark runs. They hold for any seed.

Each check returns a list of failures, one ``(message, operations)`` pair
per fault, where ``operations`` is how many of the run's operations the
fault spoils; the run counts those in ``failed`` and exits non-zero.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter

from nlbash.corpus import RejectReason

TOL = 1e-9

# The corpus filter must report each injected reject class as this reason.
REJECT_REASON = {
    "command_list": RejectReason.PARSE_ERROR,
    "subshell": RejectReason.PARSE_ERROR,
    "here_doc": RejectReason.PARSE_ERROR,
    "process_substitution": RejectReason.PARSE_ERROR,
    "control_flow": RejectReason.PARSE_ERROR,
    "unknown_utility": RejectReason.NON_WHITELIST_UTILITY,
}

# Acceptance split of the baseline ablation: toy_corpus(3000, seed=42),
# split seed 13, fractions 0.9/0/0.1, calibration seed 5, k=5.
ABLATION_SCORES = {"raw": 0.9042, "dedup": 0.9248, "normalize": 0.9546, "full": 0.9546}
ABLATION_TOL = 5e-5  # the recorded scores carry four decimals


def ranked_digest(outputs) -> str:
    """Digest of each query's ranked (cmd, confidence) list, in query order."""
    h = hashlib.sha256()
    for example_id, predictions in outputs:
        h.update(example_id.encode())
        for p in predictions:
            h.update(f"\x1f{p.cmd}\x1e{p.confidence:.9f}".encode())
        h.update(b"\n")
    return h.hexdigest()


def check_serve(outputs, reports, k: int) -> list[tuple[str, int]]:
    """tfidf-serve: no predictor failure, at most k predictions, confidences in [0.01, 1]."""
    failures = []
    for report in reports:
        failed = [r.example_id for r in report.per_example if r.error]
        if report.predictor_failure_count or failed:
            failures.append((f"predictor failed on {failed[:3]}", max(len(failed), report.predictor_failure_count)))
    too_many = [i for i, preds in outputs if len(preds) > k]
    if too_many:
        failures.append((f"more than {k} predictions for {too_many[:3]}", len(too_many)))
    bad_conf = [
        i for i, preds in outputs
        if any(not (0.01 - TOL <= p.confidence <= 1.0 + TOL) for p in preds)
    ]
    if bad_conf:
        failures.append((f"confidence outside [0.01, 1] for {bad_conf[:3]}", len(bad_conf)))
    return failures


def check_digest(digest: str, expected: str | None, queries: int) -> list[tuple[str, int]]:
    if expected is not None and digest != expected:
        return [(f"ranked-output digest {digest[:16]} != pinned {expected[:16]}", queries)]
    return []


def check_replay(report: dict, labels: dict[str, list[str]], predictions: dict[str, list[float]]) -> list[tuple[str, int]]:
    """score-replay: unparseable count and each example's scores match its labels.

    An echoed reference scores exactly its confidence, an unsupported
    construct exactly minus it, and a random command lies in between. The
    example takes the best score when any is positive, else the mean.
    """
    failures = []
    expected_unparseable = sum(kinds.count("unsupported") for kinds in labels.values())
    if report["unparseable_prediction_count"] != expected_unparseable:
        failures.append(
            (f"unparseable predictions {report['unparseable_prediction_count']} != {expected_unparseable}",
             abs(report["unparseable_prediction_count"] - expected_unparseable) or 1)
        )
    if len(report["per_example"]) != len(labels):
        failures.append((f"{len(report['per_example'])} examples scored, {len(labels)} expected", len(labels)))
    bad = []
    for row in report["per_example"]:
        kinds, confs = labels.get(row["id"]), predictions.get(row["id"])
        values = row["per_prediction"]
        if kinds is None or len(values) != len(kinds):
            bad.append(row["id"])
            continue
        ok = True
        for kind, conf, v in zip(kinds, confs, values):
            if kind == "echo":
                ok &= abs(v - conf) <= TOL
            elif kind == "unsupported":
                ok &= abs(v + conf) <= TOL
            else:
                ok &= -conf - TOL <= v <= conf + TOL
        positive = any(v > 0.0 for v in values)
        if any(kind == "echo" and conf > 0.0 for kind, conf in zip(kinds, confs)):
            ok &= positive
        if positive:
            ok &= row["aggregation"] == "max_positive" and row["score"] == max(values)
        else:
            ok &= row["aggregation"] == "average" and abs(row["score"] - math.fsum(values) / len(values)) <= TOL
        if not ok:
            bad.append(row["id"])
    if bad:
        failures.append((f"scores disagree with labels for {bad[:3]}", len(bad)))
    return failures


def check_build_shard(
    injected: dict[str, str],
    examples: int,
    kept: int,
    rejected_reasons: list[str],
    split_sizes: tuple[int, int, int],
    fractions: tuple[float, float, float],
    index_len: int | None,
    kept_pairs: int,
) -> list[tuple[str, int]]:
    """corpus-build, one shard: rejects by reason, exact split sizes, index reload length."""
    failures = []
    want = Counter(REJECT_REASON[cls].value for cls in injected.values())
    got = Counter(rejected_reasons)
    if got != want or kept != examples - len(injected):
        failures.append((f"rejected {dict(got)} kept {kept}, injected {dict(want)}", examples))
    targets = tuple(round(f * kept) for f in fractions)
    if split_sizes != targets:
        failures.append((f"split sizes {split_sizes} != targets {targets}", examples))
    if index_len is not None and index_len != kept_pairs:
        failures.append((f"reloaded index holds {index_len} pairs, {kept_pairs} saved", examples))
    return failures


def check_ablation(scores: dict[str, float]) -> list[tuple[str, int]]:
    wrong = {v: s for v, s in scores.items() if abs(s - ABLATION_SCORES[v]) > ABLATION_TOL}
    if wrong:
        return [(f"ablation scores {wrong} != {ABLATION_SCORES}", 1)]
    return []
