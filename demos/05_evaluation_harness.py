"""Walk through the evaluation harness: reports, latency, external predictors.

Run:  python3 demos/05_evaluation_harness.py
"""

import json
import sys
import tempfile
import textwrap
import time
from pathlib import Path

from nlbash import (
    Prediction,
    SubprocessPredictor,
    TfIdfPredictor,
    emit_report,
    evaluate,
    filter_examples,
    pairs_from_examples,
)
from nlbash.synth import toy_corpus

data = filter_examples(toy_corpus(300, seed=8)).kept
train = filter_examples(toy_corpus(2000, seed=9)).kept

# Any object with predict(nlc, k) -> [Prediction] can be evaluated. The
# harness parses each predicted command, scores its template against all
# references, and times the predict call alone.
predictor = TfIdfPredictor(pairs_from_examples(train), dedupe=True)
report = evaluate(predictor, data, k=5)
print(emit_report(report, "table").decode())

# Reports serialize to schema-stable JSON and round-trip.
payload = emit_report(report, "json")
loaded = json.loads(payload)
print("JSON keys:", sorted(loaded)[:6], "...")
print()

# The report's latency times each predict call on a monotonic clock: the
# mean, the median and the 95th percentile over the examples.
class Sleeper:
    def predict(self, nlc, k):
        time.sleep(0.02)
        return [Prediction("ls", 1.0)]

stats = evaluate(Sleeper(), data[:10], k=5).latency
print(f"sleepy predictor: mean={stats.mean*1000:.1f}ms median={stats.median*1000:.1f}ms "
      f"p95={stats.p95*1000:.1f}ms")
print()

# External predictors plug in over a line-delimited JSON protocol: one
# {"nlc", "k"} request per line in, one JSON array of {"cmd",
# "confidence"} per line out.
child = textwrap.dedent(
    """
    import json, sys
    for line in sys.stdin:
        request = json.loads(line)
        reply = [{"cmd": "ls -la", "confidence": 0.8}]
        print(json.dumps(reply), flush=True)
    """
)
with tempfile.TemporaryDirectory() as tmp:
    script = Path(tmp) / "predictor.py"
    script.write_text(child, encoding="utf-8")
    with SubprocessPredictor([sys.executable, str(script)]) as external:
        external_report = evaluate(external, data[:20], k=5)
    print(f"external predictor over stdio: mean score {external_report.mean_score:.4f} "
          f"on {len(external_report.per_example)} examples")
