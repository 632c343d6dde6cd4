"""Straight-line reference transcription of the scoring rules.

Deliberately independent of the package: operates on plain tuples and
sets, shares no helpers with the implementation under test, and trades
every cleverness for being obviously a literal reading of the three
scoring equations (flag score, per-prediction score, example
aggregation) and of TF-IDF retrieval (dict postings, dict accumulation,
one full sort). Used by the oracle-equivalence tests.
"""

import math


def flag_score_ref(pred_flags, ref_flags):
    n = len(pred_flags)
    if len(ref_flags) > n:
        n = len(ref_flags)
    if n == 0:
        return 1.0
    inter = 0
    for f in pred_flags:
        if f in ref_flags:
            inter += 1
    union = len(pred_flags) + len(ref_flags) - inter
    return (2.0 * inter - union) / n


def prediction_score_ref(pred_units, delta, refs):
    """pred_units: [(utility, set_of_flags), ...]; refs: list of same."""
    best = None
    for ref_units in refs:
        t = len(pred_units)
        if len(ref_units) > t:
            t = len(ref_units)
        total = 0.0
        for i in range(t):
            same = (
                i < len(pred_units)
                and i < len(ref_units)
                and pred_units[i][0] == ref_units[i][0]
            )
            if same:
                total += 0.5 * (1.0 + flag_score_ref(pred_units[i][1], ref_units[i][1]))
            else:
                total -= 1.0
        value = delta * total / t
        if best is None or value > best:
            best = value
    return best


def example_score_ref(scores):
    has_positive = False
    for s in scores:
        if s > 0.0:
            has_positive = True
    if has_positive:
        best = scores[0]
        for s in scores[1:]:
            if s > best:
                best = s
        return best
    total = 0.0
    for s in scores:
        total += s
    return total / len(scores)


def dataset_score_ref(values):
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _vectorize_ref(idf, tokens):
    counts = {}
    for t in tokens:
        if t in idf:
            counts[t] = counts.get(t, 0) + 1
    vec = {t: c * idf[t] for t, c in counts.items()}
    norm = math.sqrt(sum(w * w for w in vec.values()))
    if norm > 0:
        vec = {t: w / norm for t, w in vec.items()}
    return vec


def index_ref(doc_tokens):
    """(idf, inverted) over tokenized documents: idf is ln((1 + D) / (1 + df)) + 1,
    and inverted maps a term to its [(doc index, weight), ...] postings."""
    df = {}
    for tokens in doc_tokens:
        for term in set(tokens):
            df[term] = df.get(term, 0) + 1
    d = len(doc_tokens)
    idf = {term: math.log((1.0 + d) / (1.0 + n)) + 1.0 for term, n in df.items()}
    inverted = {}
    for doc_idx, tokens in enumerate(doc_tokens):
        for term, weight in _vectorize_ref(idf, tokens).items():
            inverted.setdefault(term, []).append((doc_idx, weight))
    return idf, inverted


def retrieve_ref(idf, inverted, query_tokens, k):
    """Top-k [(doc index, similarity clamped to 1.0), ...]: best first, ties
    by doc index, zero similarities dropped."""
    scores = {}
    for term, qw in _vectorize_ref(idf, query_tokens).items():
        for doc_idx, dw in inverted.get(term, ()):
            scores[doc_idx] = scores.get(doc_idx, 0.0) + qw * dw
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    hits = []
    for doc_idx, sim in ranked[:k]:
        if sim <= 0.0:
            break
        hits.append((doc_idx, min(sim, 1.0)))
    return hits
