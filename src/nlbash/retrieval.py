"""TF-IDF retrieval baseline with logistic-regression confidence calibration.

The baseline indexes NL-command training pairs, answers a query with the
top-k cosine matches, optionally prunes hits that share a template (inside
``retrieve``, on ranked document positions, so only returned hits are
built), and answers each hit with confidence 1.0 or, calibrated, with the
fitted probability that the hit scores positively. Each stage is
independently switchable so ablations can be compared. Normalization
yields class tokens only: the baseline fills no arguments, so the literals
they replace are not kept. A fitted ``CalibrationModel`` is written and
read with ``save`` and ``load``. ``dedupe_hits`` prunes a hit list the way
``retrieve(..., dedupe=True)`` prunes its ranking; it is not exported, nor
is ``save_index``, the one writer of the index file, which needs only the
pairs: ``TfIdfIndex.load`` builds the index.

Weights use raw term counts times a smoothed inverse document frequency,
ln((1 + D) / (1 + df)) + 1, and vectors are L2-normalized, so cosine
similarities live in [0, 1]. Hits with zero similarity are dropped;
returning nothing is better than returning confident garbage.

numpy is executed on first use: each function that needs it imports it
locally, so importing this module (and the package) does not run numpy.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import re
from array import array
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

from .corpus import NUMBER, Example, _finite, decode_json, json_field
from .errors import DegenerateLabelsError, EmptyCorpusError, SchemaError
from .metric import Prediction, ScoredPrediction, prediction_score
from .parser import parse
from .template import TemplateCommand, normalize_template
from .vocab import UtilityVocabulary, _filtered_templates

INDEX_FORMAT_VERSION = 1

# Candidates retrieved per requested hit when template duplicates are pruned.
DEDUPE_POOL_FACTOR = 5
# Calibrated confidences are lowered only when P(every hit negative) reaches this.
LOWER_THRESHOLD = 0.8
# Full-batch gradient descent settings of the calibration fit.
CALIBRATION_LEARNING_RATE = 0.1
CALIBRATION_EPOCHS = 500

_STRIP_CHARS = ".,!?;:()[]{}<>\"'`"
_QUOTED = re.compile(r"\"[^\"]*\"|'[^']*'")
# The constant classes in priority order, one alternation: a word's class is
# the first alternative that spans all of it (``fullmatch`` backtracks into
# the next alternative), read off as ``lastgroup``.
_CONSTANT = re.compile(
    r"(?P<IP>\d{1,3}(?:\.\d{1,3}){3}(?::\d+)?)"
    r"|(?P<NUMBER>[+-]?\d+(?:\.\d+)?)"
    r"|(?P<PATH>~?/[^\s]*|\.{1,2}/[^\s]*|[\w.*-]+\.[A-Za-z0-9]{1,4}|[^\s]*\*[^\s]*)"
)


def normalize_nl(utterance: str) -> list[str]:
    """Tokenize an utterance, replacing constant-like tokens with classes.

    Quoted strings, IPv4 addresses, numbers, and path/filename shapes
    become the class tokens STRING, IP, NUMBER, and PATH; other words are
    lowercased with their punctuation stripped.
    """
    tokens: list[str] = []
    pos = 0
    for m in _QUOTED.finditer(utterance):
        _classify_words(utterance[pos : m.start()], tokens)
        tokens.append("STRING")
        pos = m.end()
    _classify_words(utterance[pos:], tokens)
    return tokens


def _classify_words(text: str, tokens: list[str]) -> None:
    """Append the tokens of unquoted ``text`` in order."""
    for raw in text.split():
        word = raw.strip(_STRIP_CHARS)
        # Every constant class needs a digit, '.', '/' or '*', so a word of
        # letters alone is never one.
        if word.isalpha():
            tokens.append(word.lower())
        elif word:
            m = _CONSTANT.fullmatch(word)
            tokens.append(word.lower() if m is None else m.lastgroup)


def plain_tokens(utterance: str) -> list[str]:
    """Raw tokenization: lowercase, punctuation-stripped words."""
    out = []
    for raw in utterance.split():
        word = raw.strip(_STRIP_CHARS).lower()
        if word:
            out.append(word)
    return out


@dataclass(frozen=True, slots=True)
class IndexedDocument:
    invocation: str
    command: str
    template: TemplateCommand


@dataclass(frozen=True, slots=True)
class RetrievalHit:
    command: str
    template: TemplateCommand
    similarity: float


def _tokens(utterance: str, normalize: bool) -> list[str]:
    """The index tokenizer: ``normalize_nl`` tokens or ``plain_tokens``."""
    return normalize_nl(utterance) if normalize else plain_tokens(utterance)


class _AnalysedPairs:
    """NL-command pairs tokenized and templated once, for every index built on them.

    ``documents`` holds the pairs with their templates. Each pair's distinct term
    ids, in first-occurrence order, are ``terms[offsets[i]:offsets[i + 1]]``
    with their counts at the same places in ``counts``; term id ``t`` is the
    term ``names[t]``, numbered by first occurrence over all pairs. Each
    distinct command is templated once, read from the vocabulary's table when
    a corpus filter with that vocabulary object kept the command and parsed
    otherwise, and equal templates are one interned object. ``take`` selects
    pairs and shares the analysis.
    """

    def __init__(self, pairs: Sequence[tuple[str, str]], vocab: UtilityVocabulary | None, normalize: bool):
        self.documents: list[IndexedDocument] = []
        ids: dict[str, int] = {}
        by_command: dict[str, TemplateCommand] = {}
        interned: dict[TemplateCommand, TemplateCommand] = {}
        filtered = _filtered_templates(vocab)
        self.terms, self.counts, self.offsets = array("i"), array("i"), array("l", [0])
        for nl, cmd in pairs:
            nl, cmd = str(nl), str(cmd)
            doc_counts: dict[int, int] = {}
            for token in _tokens(nl, normalize):
                term = ids.setdefault(token, len(ids))
                doc_counts[term] = doc_counts.get(term, 0) + 1
            self.terms.extend(doc_counts)
            self.counts.extend(doc_counts.values())
            self.offsets.append(len(self.terms))
            template = by_command.get(cmd)
            if template is None:
                template = filtered.get(cmd) or normalize_template(parse(cmd, vocab))
                template = by_command[cmd] = interned.setdefault(template, template)
            self.documents.append(IndexedDocument(nl, cmd, template))
        self.names = list(ids)
        self.selected: Sequence[int] = range(len(self.documents))  # positions in the analysis

    @classmethod
    def of(cls, pairs: Sequence[tuple[str, str]], vocab: UtilityVocabulary | None, normalize: bool):
        """``pairs`` if already analysed, else their analysis."""
        return pairs if isinstance(pairs, cls) else cls(pairs, vocab, normalize)

    def take(self, positions: Sequence[int]) -> "_AnalysedPairs":
        """The pairs at ``positions``, in that order, on the same analysis."""
        view = copy.copy(self)
        view.documents = [self.documents[i] for i in positions]
        view.selected = [self.selected[i] for i in positions]
        return view

    def __len__(self) -> int:
        return len(self.documents)


class TfIdfIndex:
    """Immutable TF-IDF index over NL-command pairs; queries are thread-safe.

    The build reads one analysis of the pairs: each invocation tokenized
    once into term ids, each distinct command templated once (parsed unless
    a corpus filter with the vocabulary object recorded its template), equal
    templates one interned object. Plain pairs are analysed on entry;
    ``TfIdfPredictor.with_calibration`` analyses once and builds both of
    its indexes from that.

    The postings are one CSR matrix whose rows are the analysis's term
    ids: row ``t`` holds the documents ``_indices[_indptr[t]:_indptr[t + 1]]``
    (ascending) with their weights in ``_data``, and ``_idf[t]`` is its
    idf. ``_rows`` maps each term of the index's own documents to its row,
    so a query drops the terms that only other pairs of the analysis
    have. ``_scores`` scatter-adds a query's rows into one score vector,
    which ``retrieve`` ranks, breaking ties by insertion order.
    """

    def __init__(
        self,
        pairs: Sequence[tuple[str, str]],
        vocab: UtilityVocabulary | None = None,
        normalize: bool = False,
    ):
        import numpy as np

        if not pairs:
            raise EmptyCorpusError("cannot index an empty corpus")
        self.normalize = normalize
        analysed = _AnalysedPairs.of(pairs, vocab, normalize)
        self.documents: list[IndexedDocument] = analysed.documents
        offsets, terms, counts = analysed.offsets, analysed.terms, analysed.counts
        df = [0] * len(analysed.names)
        for i in analysed.selected:
            for term in terms[offsets[i] : offsets[i + 1]]:
                df[term] += 1
        names = analysed.names
        self._rows: dict[str, int] = {names[term]: term for term, n in enumerate(df) if n}

        d = len(self.documents)
        self._idf = [math.log((1.0 + d) / (1.0 + n)) + 1.0 for n in df]
        # Each posting goes to its row's next free slot (a counting sort, so
        # the build leaves no argsort-sized temporaries on the heap); rows
        # fill in document order, so a row's documents come out ascending.
        self._indptr = [0, *itertools.accumulate(df)]
        free = self._indptr[:-1]
        indices, data = array("l", [0]) * self._indptr[-1], array("d", [0.0]) * self._indptr[-1]
        for doc, i in enumerate(analysed.selected):
            a, b = offsets[i], offsets[i + 1]
            doc_terms = terms[a:b]
            for term, weight in zip(doc_terms, self._weigh(doc_terms, counts[a:b])):
                pos = free[term]
                free[term] = pos + 1
                indices[pos] = doc
                data[pos] = weight
        self._indices, self._data = np.asarray(indices), np.asarray(data)

    def _weigh(self, rows: Sequence[int], counts: Sequence[int]) -> list[float]:
        """L2-normalized weights of ``rows`` with term ``counts``, in their order."""
        idf = self._idf
        vec = [c * idf[row] for row, c in zip(rows, counts)]
        norm = math.sqrt(sum([w * w for w in vec]))
        return [w / norm for w in vec] if norm > 0 else vec

    def _vectorize(self, tokens: Sequence[str]) -> tuple[list[int], list[float]]:
        """A query's rows and weights; terms the index lacks are dropped."""
        counts: dict[int, int] = {}
        for t in tokens:
            row = self._rows.get(t)
            if row is not None:
                counts[row] = counts.get(row, 0) + 1
        rows = list(counts)
        return rows, self._weigh(rows, counts.values())

    def _scores(self, nlc: str) -> np.ndarray:
        """Each document's cosine similarity to ``nlc``, unclamped."""
        import numpy as np

        scores = np.zeros(len(self.documents))
        indptr, indices, data = self._indptr, self._indices, self._data
        for row, qw in zip(*self._vectorize(_tokens(nlc, self.normalize))):
            a, b = indptr[row], indptr[row + 1]
            np.add.at(scores, indices[a:b], qw * data[a:b])
        return scores

    def __len__(self) -> int:
        return len(self.documents)

    def save(self, path: str | Path) -> None:
        """Persist to JSON with ``save_index``; the index is rebuilt deterministically on load."""
        save_index([(doc.invocation, doc.command) for doc in self.documents], path, self.normalize)

    @classmethod
    def load(cls, path: str | Path, vocab: UtilityVocabulary | None = None) -> "TfIdfIndex":
        """Rebuild a saved index.

        Raises SchemaError unless the file holds ``{"version": 1, "normalize":
        bool, "pairs": [[str, str], ...]}``; the pairs then raise what the
        constructor raises.
        """
        where = str(path)
        payload = decode_json(Path(path).read_bytes(), where)
        version = json_field(payload, "version", int, where)
        if version != INDEX_FORMAT_VERSION:
            raise SchemaError(f"{where}: unsupported index version: {version!r}")
        normalize = json_field(payload, "normalize", bool, where)
        pairs = json_field(payload, "pairs", list, where)
        if not all(type(p) is list and list(map(type, p)) == [str, str] for p in pairs):
            raise SchemaError(f"{where}: 'pairs' must be a list of [invocation, command] strings")
        return cls([(nl, cmd) for nl, cmd in pairs], vocab=vocab, normalize=normalize)


def save_index(pairs: Sequence[tuple[str, str]], path: str | Path, normalize: bool) -> None:
    """Write the index file of ``pairs``, from which ``TfIdfIndex.load`` builds the index.

    The one writer of the format: nothing is tokenized, parsed or weighed
    here. Raises EmptyCorpusError, before the file is opened, when ``pairs``
    is empty, as building an index over them would.
    """
    if not pairs:
        raise EmptyCorpusError("cannot index an empty corpus")
    payload = {
        "version": INDEX_FORMAT_VERSION,
        "normalize": normalize,
        "pairs": [[nl, cmd] for nl, cmd in pairs],
    }
    Path(path).write_text(json.dumps(payload, ensure_ascii=False), encoding="utf-8")


def retrieve(index: TfIdfIndex, nlc: str, k: int, dedupe: bool = False) -> list[RetrievalHit]:
    """Top-k cosine matches, best first, zero-similarity hits dropped.

    Each query term, in first-occurrence order, scatter-adds its weight
    times its CSR row into one float64 score vector (``np.add.at``), so a
    similarity is the same sum in the same order however the index is laid
    out. ``np.partition`` finds the n-th best score; the documents at or
    above it (and above zero) are sorted by (-score, document index), so
    ties break by document insertion order, also at the n-th place. n is
    k, or with ``dedupe`` k * ``DEDUPE_POOL_FACTOR``: the ranked documents
    are then walked in order, a document whose template an earlier one
    already has is skipped, and the walk stops at k kept documents, which
    gives what ``dedupe_hits`` gives on the pool's hits. Hits are built
    for the returned documents only.
    """
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    n = k * DEDUPE_POOL_FACTOR if dedupe else k
    scores = index._scores(nlc)
    d = len(scores)
    kth = np.partition(scores, d - n)[d - n] if d > n else 0.0
    candidates = np.flatnonzero(scores >= kth if kth > 0.0 else scores > 0.0)
    ranked = candidates[np.argsort(-scores[candidates], kind="stable")[:n]].tolist()
    documents = index.documents
    if dedupe:
        seen: set[TemplateCommand] = set()
        kept = []
        for doc_idx in ranked:
            template = documents[doc_idx].template
            if template not in seen:
                seen.add(template)
                kept.append(doc_idx)
                if len(kept) == k:
                    break
        ranked = kept
    hits = []
    for doc_idx, sim in zip(ranked, np.minimum(scores[ranked], 1.0).tolist()):
        doc = documents[doc_idx]
        hits.append(RetrievalHit(doc.command, doc.template, sim))
    return hits


def dedupe_hits(hits: Sequence[RetrievalHit], k: int) -> list[RetrievalHit]:
    """Keep the highest-ranked hit per distinct template, up to k of them."""
    seen: set[TemplateCommand] = set()
    out: list[RetrievalHit] = []
    for hit in hits:
        if hit.template in seen:
            continue
        seen.add(hit.template)
        out.append(hit)
        if len(out) == k:
            break
    return out


# ---------------------------------------------------------------------------
# Confidence calibration


@dataclass(frozen=True)
class CalibrationModel:
    """Logistic model over (similarity, flag count, utility count)."""

    weights: tuple[float, ...]
    bias: float
    feature_means: tuple[float, ...]
    feature_stds: tuple[float, ...]

    def probability(self, features: Sequence[float]) -> float:
        z = self.bias
        columns = (self.weights, features, self.feature_means, self.feature_stds)
        for w, x, m, s in zip(*columns, strict=True):
            z += w * (x - m) / s
        return _sigmoid(z)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self)), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "CalibrationModel":
        """Read a model written by ``save``.

        Raises SchemaError naming ``path`` unless the file holds an object
        whose ``weights``, ``feature_means`` and ``feature_stds`` are lists
        of one length, whose ``bias`` is a number, every number finite and
        every std positive.
        """
        where = str(path)
        obj = decode_json(Path(path).read_bytes(), where)
        lists = {}
        for key in ("weights", "feature_means", "feature_stds"):
            lists[key] = tuple(_finite(v, key, where) for v in json_field(obj, key, list, where))
        if len({len(v) for v in lists.values()}) != 1:
            raise SchemaError(f"{where}: weights, means and stds differ in length")
        if not all(s > 0.0 for s in lists["feature_stds"]):
            raise SchemaError(f"{where}: 'feature_stds' must be positive")
        bias = _finite(json_field(obj, "bias", NUMBER, where), "bias", where)
        return cls(bias=bias, **lists)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def hit_features(hit: RetrievalHit) -> list[float]:
    return [hit.similarity, float(hit.template.flag_count()), float(len(hit.template.units))]


def train_calibrator(
    features: Sequence[Sequence[float]],
    labels: Sequence[int],
) -> CalibrationModel:
    """Fit a logistic regression by full-batch gradient descent on log-loss.

    Features are standardized with training statistics that are stored in
    the model. Raises DegenerateLabelsError for fewer than two rows or a
    single class, and ValueError when features and labels do not pair up.
    """
    import numpy as np

    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    if len(x) != len(y) or (len(x) and x.ndim != 2):
        raise ValueError("need one row of features per label")
    if len(x) < 2:
        raise DegenerateLabelsError("need at least two (features, label) rows")
    if len(set(int(v) for v in y)) < 2:
        raise DegenerateLabelsError("calibration labels contain a single class")

    means = x.mean(axis=0)
    stds = x.std(axis=0)
    stds[stds == 0.0] = 1.0
    z = (x - means) / stds

    n, d = z.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(CALIBRATION_EPOCHS):
        logits = z @ w + b
        grad = 1.0 / (1.0 + np.exp(-np.clip(logits, -500, 500))) - y
        w -= CALIBRATION_LEARNING_RATE * (z.T @ grad) / n
        b -= CALIBRATION_LEARNING_RATE * float(grad.mean())
    return CalibrationModel(
        weights=tuple(float(v) for v in w),
        bias=float(b),
        feature_means=tuple(float(v) for v in means),
        feature_stds=tuple(float(v) for v in stds),
    )


def calibrate(hits: Sequence[RetrievalHit], model: CalibrationModel) -> list[Prediction]:
    """Each hit's command, in rank order, with its fitted positive-probability
    as the confidence, clamped to [0.01, 1.0]."""
    return [
        Prediction(hit.command, min(max(model.probability(hit_features(hit)), 0.01), 1.0))
        for hit in hits
    ]


def make_calibration_data(
    pairs: Sequence[tuple[str, str]],
    vocab: UtilityVocabulary | None = None,
    holdout_fraction: float = 0.2,
    seed: int = 0,
    k: int = 5,
    normalize: bool = False,
    dedupe: bool = True,
) -> tuple[list[list[float]], list[int]]:
    """Build calibration rows by retrieving a held-out slice of the pairs.

    The held-out invocations are queried against an index over the rest;
    each hit becomes one row labeled 1 when it scores positively against
    the held-out reference. The pairs are analysed once (see
    ``TfIdfIndex``): the index is built over the rest of that analysis,
    and each held-out reference takes its template from it. Raises
    DegenerateLabelsError when the pairs are too few to leave both sides
    of the split non-empty.
    """
    import numpy as np

    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pairs))
    n_holdout = max(1, int(round(len(pairs) * holdout_fraction)))
    holdout_idx = set(int(i) for i in order[:n_holdout])
    train = [i for i in range(len(pairs)) if i not in holdout_idx]
    holdout = [i for i in range(len(pairs)) if i in holdout_idx]
    if not train or not holdout:
        raise DegenerateLabelsError("holdout split left one side empty")

    analysed = _AnalysedPairs.of(pairs, vocab, normalize)
    index = TfIdfIndex(analysed.take(train), vocab=vocab, normalize=normalize)
    features: list[list[float]] = []
    labels: list[int] = []
    for i in holdout:
        ref = analysed.documents[i]
        for hit in retrieve(index, ref.invocation, k, dedupe):
            scored = ScoredPrediction(template=hit.template, delta=1.0)
            label = 1 if prediction_score(scored, [ref.template]) > 0.0 else 0
            features.append(hit_features(hit))
            labels.append(label)
    return features, labels


# ---------------------------------------------------------------------------
# Predictor adapter


class TfIdfPredictor:
    """Retrieval baseline exposing the harness predictor contract.

    Stages are switchable: ``dedupe`` prunes template duplicates
    (``retrieve(index, nlc, k, dedupe)`` draws them from a pool
    ``DEDUPE_POOL_FACTOR`` times deeper), ``normalize`` applies
    constant-aware NL tokenization, and ``calibration`` adjusts confidences.

    Calibration is applied the way it pays off under the metric: per-hit
    positive-probabilities are combined into the chance that every hit
    scores negatively, and only when that chance reaches
    ``LOWER_THRESHOLD`` are the hit confidences actually lowered.
    Confidently keeping delta at 1.0 for sets that look right costs
    nothing, while lowering delta on sets that look wrong shrinks the
    penalty the averaging branch hands out.
    """

    def __init__(
        self,
        pairs: Sequence[tuple[str, str]],
        vocab: UtilityVocabulary | None = None,
        normalize: bool = False,
        dedupe: bool = False,
        calibration: CalibrationModel | None = None,
    ):
        self.index = TfIdfIndex(pairs, vocab=vocab, normalize=normalize)
        # One immutable default-confidence answer per distinct command,
        # shared by every hit set that calibration leaves at 1.0.
        self._predictions = {doc.command: Prediction(doc.command) for doc in self.index.documents}
        self.dedupe = dedupe
        self.calibration = calibration
        self.name = "tfidf"
        if dedupe:
            self.name += "+dedupe"
        if normalize:
            self.name += "+normalize"
        if calibration is not None:
            self.name += "+calibrated"

    @classmethod
    def with_calibration(
        cls,
        pairs: Sequence[tuple[str, str]],
        vocab: UtilityVocabulary | None = None,
        normalize: bool = True,
        dedupe: bool = True,
        seed: int = 0,
        k: int = 5,
    ) -> "TfIdfPredictor":
        """Fit a calibrator on a held-out slice, then index all pairs.

        The pairs are analysed once: each invocation tokenized, each
        distinct command parsed and templated. The calibration index (the
        pairs outside the held-out slice), the held-out references and the
        final index all read that one analysis.
        """
        analysed = _AnalysedPairs(pairs, vocab, normalize)
        features, labels = make_calibration_data(
            analysed,
            vocab=vocab,
            seed=seed,
            k=k,
            normalize=normalize,
            dedupe=dedupe,
        )
        model = train_calibrator(features, labels)
        return cls(analysed, vocab=vocab, normalize=normalize, dedupe=dedupe, calibration=model)

    def predict(self, nlc: str, k: int) -> list[Prediction]:
        hits = retrieve(self.index, nlc, k, self.dedupe)
        if self.calibration is not None and hits:
            all_negative = 1.0
            for hit in hits:
                all_negative *= 1.0 - self.calibration.probability(hit_features(hit))
            if all_negative >= LOWER_THRESHOLD:
                return calibrate(hits, self.calibration)
        return [self._predictions[h.command] for h in hits]


def pairs_from_examples(examples: Sequence[Example]) -> list[tuple[str, str]]:
    """Flatten examples into (invocation, reference) training pairs."""
    return [(ex.invocation, ref) for ex in examples for ref in ex.references]
