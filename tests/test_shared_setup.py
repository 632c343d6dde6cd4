"""The calibrated baseline's set-up analyses its pairs once and shares it.

``TfIdfPredictor.with_calibration`` tokenizes every pair once, parses every
distinct command once, and builds the calibration index (the train side of
the split) and the full index from that one analysis. These tests hold it
to the two-index set-up in ``reference_impl`` bit for bit, and count the
work it does.
"""

import pytest

from nlbash import retrieval
from nlbash.corpus import filter_examples
from nlbash.parser import parse
from nlbash.retrieval import (
    TfIdfIndex,
    TfIdfPredictor,
    _AnalysedPairs,
    _tokens,
    make_calibration_data,
    pairs_from_examples,
    retrieve,
)
from nlbash.synth import toy_corpus
from nlbash.template import normalize_template
from nlbash.vocab import default_vocabulary
from reference_impl import calibration_data_ref, with_calibration_ref

VOCAB = default_vocabulary()
SEED = 7


def toy_pairs(n, seed):
    return pairs_from_examples(filter_examples(toy_corpus(n, seed=seed), VOCAB).kept)


def tagged_pairs(n, seed):
    """Every invocation ends in a word of its own, so each held-out
    invocation holds a term that the train side lacks."""
    return [(f"{nl} tag{i}", cmd) for i, (nl, cmd) in enumerate(toy_pairs(n, seed))]


CORPORA = {"toy": lambda: toy_pairs(1200, 41), "holdout-only-terms": lambda: tagged_pairs(1200, 42)}


def hexed(rows):
    return [[float.hex(x) for x in row] for row in rows]


def index_state(index):
    return (
        index._rows,
        [float.hex(x) for x in index._idf],
        index._indptr,
        index._indices.tolist(),
        [float.hex(x) for x in index._data.tolist()],
        [(d.invocation, d.command, d.template) for d in index.documents],
    )


def term_view(index):
    """Each term's idf and postings (documents, weights), floats by float.hex,
    and the documents: the index, whatever numbers its rows."""
    terms = {}
    for term, row in index._rows.items():
        a, b = index._indptr[row], index._indptr[row + 1]
        terms[term] = (
            float.hex(index._idf[row]),
            index._indices[a:b].tolist(),
            [float.hex(x) for x in index._data[a:b].tolist()],
        )
    return terms, len(index._indices), [(d.invocation, d.command, d.template) for d in index.documents]


def model_fields(model):
    return [
        [float.hex(x) for x in values]
        for values in (model.weights, (model.bias,), model.feature_means, model.feature_stds)
    ]


@pytest.mark.parametrize("corpus", CORPORA)
@pytest.mark.parametrize("normalize", [False, True])
def test_calibration_rows_equal_the_two_index_oracle(corpus, normalize):
    pairs = CORPORA[corpus]()
    got_x, got_y = make_calibration_data(pairs, VOCAB, seed=SEED, normalize=normalize)
    want_x, want_y = calibration_data_ref(pairs, VOCAB, seed=SEED, normalize=normalize)
    assert got_y == want_y
    assert hexed(got_x) == hexed(want_x)


@pytest.mark.parametrize("corpus", CORPORA)
@pytest.mark.parametrize("normalize", [False, True])
def test_a_selection_of_the_analysis_indexes_like_a_fresh_build(corpus, normalize):
    pairs = CORPORA[corpus]()
    train = [i for i in range(len(pairs)) if i % 5]
    shared = TfIdfIndex(_AnalysedPairs(pairs, VOCAB, normalize).take(train), VOCAB, normalize)
    fresh = TfIdfIndex([pairs[i] for i in train], VOCAB, normalize)
    assert term_view(shared) == term_view(fresh)
    held_out = {term for i in range(0, len(pairs), 5) for term in _tokens(pairs[i][0], normalize)}
    assert len(shared._rows) == len(fresh._rows) and not held_out <= set(shared._rows)
    for nl, _ in pairs[::5]:  # held-out queries, terms the index lacks included
        assert retrieve(shared, nl, 25) == retrieve(fresh, nl, 25)


@pytest.mark.parametrize("corpus", CORPORA)
def test_with_calibration_equals_the_two_index_oracle(corpus):
    pairs = CORPORA[corpus]()
    got = TfIdfPredictor.with_calibration(pairs, VOCAB, seed=SEED)
    want = with_calibration_ref(pairs, VOCAB, seed=SEED)
    assert got.calibration == want.calibration
    assert model_fields(got.calibration) == model_fields(want.calibration)
    assert index_state(got.index) == index_state(want.index)
    queries = [ex.invocation for ex in toy_corpus(2000, seed=43)]
    for query in queries:
        assert [(p.cmd, float.hex(p.confidence)) for p in got.predict(query, 5)] == [
            (p.cmd, float.hex(p.confidence)) for p in want.predict(query, 5)
        ], query


@pytest.mark.parametrize("normalize", [False, True])
def test_with_calibration_parses_each_command_and_tokenizes_each_pair_once(monkeypatch, normalize):
    pairs = toy_pairs(600, 44)
    calls = {"parse": 0, "tokenize": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(retrieval, "parse", counted("parse", retrieval.parse))
    tokenizer = "normalize_nl" if normalize else "plain_tokens"
    monkeypatch.setattr(retrieval, tokenizer, counted("tokenize", getattr(retrieval, tokenizer)))
    TfIdfPredictor.with_calibration(pairs, VOCAB, normalize=normalize)
    holdout_queries = max(1, round(0.2 * len(pairs)))
    assert calls == {"parse": len({cmd for _, cmd in pairs}), "tokenize": len(pairs) + holdout_queries}


def test_the_analysis_interns_equal_templates_across_commands():
    analysed = _AnalysedPairs(
        [("list files", "ls -la /a"), ("list them", "ls -al /b"), ("again", "ls -la /a"), ("disk", "df -h")],
        VOCAB, False,
    )
    a, b, c, d = (doc.template for doc in analysed.documents)
    assert a is b is c and a is not d
    view = analysed.take([3, 1])
    assert [doc.template for doc in view.documents] == [d, a]
    assert list(view) == [("disk", "df -h"), ("list them", "ls -al /b")]


@pytest.mark.parametrize("corpus", CORPORA)
def test_each_document_template_reads_like_a_fresh_template_of_its_command(corpus):
    pairs = CORPORA[corpus]()
    predictor = TfIdfPredictor.with_calibration(pairs, VOCAB, seed=SEED)
    for doc in predictor.index.documents:
        assert repr(doc.template) == repr(normalize_template(parse(doc.command, VOCAB))), doc.command
