"""Walk through dataset filtering, deterministic splits, and statistics.

Run:  python3 demos/03_corpus_pipeline.py
"""

from nlbash import Example, build_splits, filter_examples, utility_histogram
from nlbash.synth import toy_corpus

# Filtering keeps a reference only when it parses, reconstructs
# byte-identically, and stays inside the utility whitelist.
mixed = [
    Example("good", "list files", ("ls -la",)),
    Example("unknown", "do something odd", ("frobnicate -x",)),
    Example("broken", "search text", ("grep 'oops",)),
    Example("partial", "delete stuff", ("frobnicate it", "rm -rf /tmp/stale")),
]
report = filter_examples(mixed)
print("kept:    ", [(e.id, e.references) for e in report.kept])
print("rejected:", [(r.example.id, r.reason.value) for r in report.rejected])
print()

# Splits are deterministic in (input order, seed) and prefix-stable:
# appending new data never moves old examples, so the test set of one
# phase is always a subset of the next - the way a staged benchmark grows.
corpus = filter_examples(toy_corpus(1000, seed=42)).kept
train, val, test = build_splits(corpus, seed=13, fractions=(0.8, 0.1, 0.1))
print(f"split sizes: train={len(train)} val={len(val)} test={len(test)}")

grown = corpus + filter_examples(toy_corpus(200, seed=43)).kept
_, _, test_next = build_splits(grown, seed=13, fractions=(0.8, 0.1, 0.1))
old_ids = {e.id for e in test}
new_ids = {e.id for e in test_next}
print(f"phase growth: {len(old_ids)} -> {len(new_ids)} test examples; "
      f"superset = {old_ids <= new_ids}")
print()

# Utility histogram over the filtered references; find dominates, as it
# does in real command-line corpora.
print("most frequent utilities:")
for utility, count in utility_histogram(corpus)[:10]:
    print(f"  {count:>5}  {utility}")
