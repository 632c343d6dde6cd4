"""Walk through the TF-IDF baseline and its ablation ladder.

Run:  python3 demos/04_retrieval_baseline.py   (takes a few seconds)
"""

from nlbash import (
    TfIdfIndex,
    TfIdfPredictor,
    build_splits,
    evaluate,
    filter_examples,
    normalize_nl,
    pairs_from_examples,
    retrieve,
)
from nlbash.synth import toy_corpus

# Constant-aware NL normalization: quoted strings, numbers, addresses, and
# paths become class tokens so "30 days" and "7 days" look alike to the index.
for utterance in ("delete files older than 30 days", "ping 192.168.0.1",
                  'copy "install.txt" to /home/user'):
    print(f"{utterance!r}\n  tokens={normalize_nl(utterance)}")
print()

corpus = filter_examples(toy_corpus(3000, seed=42)).kept
train, _, test = build_splits(corpus, seed=13, fractions=(0.9, 0.0, 0.1))
pairs = pairs_from_examples(train)
print(f"{len(pairs)} training pairs, {len(test)} held-out examples")
print()

# Retrieval returns the top cosine matches; duplicate templates are wasted
# slots (the metric takes a max), so dedupe=True keeps the best hit of each
# template and fills the freed slots from deeper in the ranking.
index = TfIdfIndex(pairs)
query = test[1].invocation  # its top five repeat a template
print("query:", query)
print("top raw hits:")
for hit in retrieve(index, query, k=5):
    print(f"  {hit.similarity:.3f}  {hit.command}")
print("with dedupe:")
for hit in retrieve(index, query, k=5, dedupe=True):
    print(f"  {hit.similarity:.3f}  {hit.command}")
print()

# The ablation ladder. Confidence calibration fits a logistic model on a
# held-out slice of training data to predict which hits score positively,
# and lowers confidences only when the whole answer set looks wrong.
variants = {
    "raw tf-idf": TfIdfPredictor(pairs),
    "+ prune duplicates": TfIdfPredictor(pairs, dedupe=True),
    "+ normalize NL": TfIdfPredictor(pairs, dedupe=True, normalize=True),
    "+ adjust confidence": TfIdfPredictor.with_calibration(
        pairs, normalize=True, dedupe=True, seed=5
    ),
}
print(f"{'variant':<24} {'mean score':>10}")
for name, predictor in variants.items():
    report = evaluate(predictor, test, k=5)
    print(f"{name:<24} {report.mean_score:>10.4f}")
