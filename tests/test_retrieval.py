import json
import math
import random
import re

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlbash.errors import DegenerateLabelsError, EmptyCorpusError, NlbashError, SchemaError
from nlbash.retrieval import (
    DEDUPE_POOL_FACTOR,
    INDEX_FORMAT_VERSION,
    CalibrationModel,
    RetrievalHit,
    TfIdfIndex,
    TfIdfPredictor,
    _tokens,
    calibrate,
    dedupe_hits,
    hit_features,
    make_calibration_data,
    normalize_nl,
    pairs_from_examples,
    plain_tokens,
    retrieve,
    train_calibrator,
)
from nlbash.corpus import filter_examples
from nlbash.parser import parse
from nlbash.synth import toy_corpus
from nlbash.template import normalize_template
from nlbash.vocab import default_vocabulary
from reference_impl import index_ref, normalize_nl_ref, retrieve_ref, scores_ref
from strategies import json_values

VOCAB = default_vocabulary()


def template_of(cmd):
    return normalize_template(parse(cmd, VOCAB))


def idf(index, term):
    return index._idf[index._rows[term]]


# --- NL normalization -------------------------------------------------------

def test_numbers_become_class_tokens():
    assert normalize_nl("delete files older than 30 days") == [
        "delete", "files", "older", "than", "NUMBER", "days"]


def test_ip_addresses_classified_before_numbers():
    assert normalize_nl("ping 192.168.0.1") == ["ping", "IP"]


def test_no_constants_passes_through():
    assert normalize_nl("list files") == ["list", "files"]


def test_quoted_strings_extracted():
    assert normalize_nl('copy "install.txt" to the home folder') == [
        "copy", "STRING", "to", "the", "home", "folder"]


def test_paths_classified():
    assert normalize_nl("show the contents of /var/log/syslog now") == [
        "show", "the", "contents", "of", "PATH", "now"]


def test_filenames_and_globs_classified():
    assert normalize_nl("compress notes.txt and every *.log file").count("PATH") == 2


def test_tokens_lowercased_punctuation_stripped():
    assert normalize_nl("List, the FILES!") == ["list", "the", "files"]
    assert plain_tokens("List, the FILES!") == ["list", "the", "files"]


def test_normalize_nl_equals_the_one_regex_per_class_chain_on_the_toy_corpus():
    for ex in toy_corpus(3000, seed=33):
        assert normalize_nl(ex.invocation) == normalize_nl_ref(ex.invocation)[0], ex.invocation


_NL_TEXT = st.lists(
    st.sampled_from(["1", "22", "255", ".", ":", "/", "~", "*", "-", "+", "'", '"', " ", "a", "Z",
                     "x.txt", "..", "8080", "é", "٣", "\t", ",", "!", "(", "_"])
    | st.characters(),
    max_size=30,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(text=_NL_TEXT)
def test_normalize_nl_equals_the_one_regex_per_class_chain(text):
    assert normalize_nl(text) == normalize_nl_ref(text)[0]


# --- index / retrieve --------------------------------------------------------

PAIRS = [
    ("list all files with details", "ls -la"),
    ("delete empty files", "find . -type f -empty -delete"),
    ("show free disk space", "df -h"),
    ("count lines in a file", "wc -l notes.txt"),
    ("search a file for text", "grep -i pattern notes.txt"),
]


def test_disjoint_documents_have_zero_similarity():
    index = TfIdfIndex([("alpha beta", "ls"), ("gamma delta", "df")], VOCAB)
    hits = retrieve(index, "alpha beta", k=5)
    assert len(hits) == 1  # the disjoint doc is dropped entirely
    assert hits[0].command == "ls"


def test_self_similarity_is_one():
    index = TfIdfIndex(PAIRS, VOCAB)
    hits = retrieve(index, PAIRS[0][0], k=1)
    assert hits[0].similarity == pytest.approx(1.0, abs=1e-9)
    assert hits[0].command == PAIRS[0][1]


def test_idf_rare_terms_weigh_more():
    docs = [("shared alpha", "ls"), ("shared beta", "df"), ("shared gamma", "du -s .")]
    index = TfIdfIndex(docs, VOCAB)
    # a term present in all docs gets a lower idf than a singleton term
    assert idf(index, "shared") < idf(index, "alpha")
    d = len(docs)
    assert idf(index, "shared") == pytest.approx(math.log((1 + d) / (1 + 3)) + 1, abs=1e-12)
    assert idf(index, "alpha") == pytest.approx(math.log((1 + d) / (1 + 1)) + 1, abs=1e-12)


def test_vectors_are_l2_normalized():
    index = TfIdfIndex(PAIRS, VOCAB)
    squared = np.bincount(index._indices, weights=index._data**2, minlength=len(index))
    assert squared.tolist() == pytest.approx([1.0] * len(index), abs=1e-9)


def test_document_frequencies_counted_once_per_document():
    index = TfIdfIndex([("files files files", "ls"), ("files here", "df")], VOCAB)
    # df 2 of 2 documents: ln(3 / 3) + 1; counting occurrences would give df 4
    assert idf(index, "files") == pytest.approx(1.0, abs=1e-12)


def test_k_larger_than_corpus_returns_everything_relevant():
    index = TfIdfIndex(PAIRS, VOCAB)
    hits = retrieve(index, "files disk lines text details", k=50)
    assert len(hits) <= len(PAIRS)


def test_unknown_vocabulary_query_returns_empty():
    index = TfIdfIndex(PAIRS, VOCAB)
    assert retrieve(index, "zzz qqq", k=5) == []


def test_retrieval_is_deterministic():
    index = TfIdfIndex(PAIRS, VOCAB)
    a = retrieve(index, "show files", k=5)
    b = retrieve(index, "show files", k=5)
    assert a == b


def test_similarities_bounded():
    index = TfIdfIndex(PAIRS, VOCAB)
    for query in ("list files", "disk space", "count the lines", "show details"):
        for hit in retrieve(index, query, k=5):
            assert 0.0 <= hit.similarity <= 1.0


def test_ties_break_by_insertion_order():
    index = TfIdfIndex([("same words", "ls"), ("same words", "df")], VOCAB)
    hits = retrieve(index, "same words", k=2)
    assert [h.command for h in hits] == ["ls", "df"]


def test_ties_at_the_kth_score_keep_the_earliest_documents():
    pairs = [("same words", f"ls /d{i}") for i in range(5)] + [("same words here", "df")]
    hits = retrieve(TfIdfIndex(pairs, VOCAB), "same words", k=2)
    assert [h.command for h in hits] == ["ls /d0", "ls /d1"]


def test_duplicate_commands_share_one_template():
    index = TfIdfIndex([("list files", "ls -la"), ("show files", "ls -la"), ("disk", "df -h")], VOCAB)
    assert index.documents[0].template is index.documents[1].template


# --- retrieval oracle -------------------------------------------------------

def ref_hits(index, ref, query, k):
    idf_ref, inverted = ref
    hits = []
    for doc_idx, sim in retrieve_ref(idf_ref, inverted, _tokens(query, index.normalize), k):
        doc = index.documents[doc_idx]
        hits.append((doc.command, doc.template, float.hex(sim)))
    return hits


def rows_of(hits):
    return [(h.command, h.template, float.hex(h.similarity)) for h in hits]


def got_hits(index, query, k):
    return rows_of(retrieve(index, query, k))


@pytest.mark.parametrize("normalize", [False, True])
def test_retrieve_equals_the_dict_oracle_bit_for_bit(normalize):
    data = filter_examples(toy_corpus(800, seed=31), VOCAB).kept
    index = TfIdfIndex(pairs_from_examples(data), VOCAB, normalize=normalize)
    ref = index_ref([_tokens(doc.invocation, index.normalize) for doc in index.documents])
    queries = [ex.invocation for ex in toy_corpus(2000, seed=32)]
    tied = 0
    for query in queries:
        want = ref_hits(index, ref, query, 25)
        assert got_hits(index, query, 25) == want, query
        tied += len(want) == 25 and want[-1][2] == want[-2][2]
    assert tied > 0  # some queries tie at the 25th score


_WORDS = st.sampled_from(["list", "files", "disk", "space", "show", "the", "all"])
_PHRASES = st.lists(_WORDS, min_size=0, max_size=4).map(" ".join)
_CORPORA = st.lists(
    st.tuples(_PHRASES, st.sampled_from(["ls -la", "df -h", "du -s .", "ls"]), st.integers(1, 3)),
    min_size=1, max_size=8,
).map(lambda docs: [(nl, cmd) for nl, cmd, copies in docs for _ in range(copies)])


@settings(max_examples=200, deadline=None)
@given(pairs=_CORPORA, query=_PHRASES, k=st.integers(1, 6), normalize=st.booleans())
def test_retrieve_equals_the_dict_oracle_with_duplicate_documents(pairs, query, k, normalize):
    index = TfIdfIndex(pairs, VOCAB, normalize=normalize)
    ref = index_ref([_tokens(nl, index.normalize) for nl, _ in pairs])
    assert got_hits(index, query, k) == ref_hits(index, ref, query, k)


# --- deduped retrieval ----------------------------------------------------------

@pytest.fixture(scope="module", params=[False, True], ids=["plain", "normalize"])
def large_index(request):
    data = filter_examples(toy_corpus(5000, seed=41), VOCAB).kept
    index = TfIdfIndex(pairs_from_examples(data), VOCAB, normalize=request.param)
    assert len(index) >= 5000
    return index


_LARGE_QUERIES = [ex.invocation for ex in toy_corpus(2000, seed=42)]


@pytest.mark.parametrize("k", [1, 5, 10])
def test_deduped_retrieve_equals_dedupe_hits_of_the_pool(large_index, k):
    pruned = 0
    for query in _LARGE_QUERIES:
        want = rows_of(dedupe_hits(retrieve(large_index, query, k * DEDUPE_POOL_FACTOR), k))
        assert rows_of(retrieve(large_index, query, k, dedupe=True)) == want, query
        pruned += want != got_hits(large_index, query, k)
    assert pruned > 0 or k == 1  # dedupe changes some answers; the best hit always stays


def test_score_vector_equals_the_fancy_index_loop_bit_for_bit(large_index):
    for query in _LARGE_QUERIES:
        assert large_index._scores(query).tobytes() == scores_ref(large_index, query).tobytes(), query


_COMMANDS = st.sampled_from(["ls -la /a", "ls -al /b", "ls", "df -h", "du -s .", "du -s /tmp", "find . -name x"])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 4), normalize=st.booleans())
def test_deduped_retrieve_keeps_tie_order_at_the_pool_edge_and_the_kth_template(data, k, normalize):
    pool = k * DEDUPE_POOL_FACTOR
    query = data.draw(_PHRASES.filter(bool), label="query")
    # Copies of the query tie at the top score. Their number straddles the
    # pool's size, and their few templates put the k-th distinct template
    # among tied documents.
    tied = data.draw(st.lists(_COMMANDS, min_size=max(1, pool - 3), max_size=pool + 3), label="tied")
    others = data.draw(_CORPORA, label="others")
    pairs = data.draw(st.permutations(others + [(query, cmd) for cmd in tied]), label="pairs")
    index = TfIdfIndex(pairs, VOCAB, normalize=normalize)
    got = rows_of(retrieve(index, query, k, dedupe=True))
    assert got == rows_of(dedupe_hits(retrieve(index, query, pool), k))
    seen, want = set(), []
    for row in ref_hits(index, index_ref([_tokens(nl, index.normalize) for nl, _ in pairs]), query, pool):
        if row[1] not in seen and len(want) < k:
            seen.add(row[1])
            want.append(row)
    assert got == want


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        TfIdfIndex([], VOCAB)


def test_invalid_k_rejected():
    index = TfIdfIndex(PAIRS, VOCAB)
    with pytest.raises(ValueError):
        retrieve(index, "files", k=0)


def test_index_save_load_round_trip(tmp_path):
    index = TfIdfIndex(PAIRS, VOCAB, normalize=True)
    path = tmp_path / "index.json"
    index.save(path)
    loaded = TfIdfIndex.load(path, VOCAB)
    assert loaded.normalize is True
    assert retrieve(loaded, "list files", k=3) == retrieve(index, "list files", k=3)


def test_index_save_writes_version_normalize_and_pairs_in_input_order(tmp_path):
    pairs = list(reversed(PAIRS))
    path = tmp_path / "index.json"
    TfIdfIndex(pairs, VOCAB, normalize=True).save(path)
    assert json.loads(path.read_text(encoding="utf-8")) == {
        "version": INDEX_FORMAT_VERSION,
        "normalize": True,
        "pairs": [[nl, cmd] for nl, cmd in pairs],
    }


# --- dedupe -------------------------------------------------------------------

def hit(cmd, sim):
    return RetrievalHit(cmd, template_of(cmd), sim)


@pytest.mark.parametrize(
    "text",
    [
        '{"version": 2, "normalize": false, "pairs": [["list files", "ls"]]}',
        '{"version": true, "normalize": false, "pairs": [["list files", "ls"]]}',
        '{"version": 1, "normalize": 1, "pairs": [["list files", "ls"]]}',
        '{"version": 1, "normalize": false}',
        '{"version": 1, "normalize": false, "pairs": [[1, 2]]}',
        '{"version": 1, "normalize": false, "pairs": [["list files"]]}',
        "[]",
        "not json",
    ],
)
def test_index_load_rejects_a_file_that_is_not_a_saved_index(tmp_path, text):
    path = tmp_path / "index.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError):
        TfIdfIndex.load(path, VOCAB)


_NEAR_INDEX = st.fixed_dictionaries(
    {
        "version": st.just(1) | json_values,
        "normalize": st.booleans() | json_values,
        "pairs": st.lists(st.lists(st.sampled_from(["ls -l", "list files", "frobnicate"]) | json_values,
                                   max_size=3), max_size=3) | json_values,
    }
)


@settings(max_examples=200, deadline=None)
@given(payload=json_values | _NEAR_INDEX)
@example(payload={"version": 1, "normalize": False, "pairs": [["list \ud800", "ls -l"]]})
def test_index_load_raises_only_nlbash_errors(tmp_path_factory, payload):
    tmp = tmp_path_factory.mktemp("index")
    path = tmp / "index.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        index = TfIdfIndex.load(path, VOCAB)
    except NlbashError:
        return
    index.save(tmp / "saved.json")  # what loads can be written back


def test_dedupe_drops_duplicate_templates():
    hits = [hit("ls -la /a", 0.9), hit("ls -la /b", 0.8), hit("find . -name x", 0.7)]
    got = dedupe_hits(hits, k=2)
    assert [h.command for h in got] == ["ls -la /a", "find . -name x"]


def test_dedupe_all_unique_unchanged():
    hits = [hit("ls -la", 0.9), hit("df -h", 0.8)]
    assert dedupe_hits(hits, k=5) == hits


def test_dedupe_many_copies_collapse_to_one():
    hits = [hit(f"ls -la /d{i}", 0.9 - i * 0.01) for i in range(10)]
    assert len(dedupe_hits(hits, k=5)) == 1


def test_dedupe_preserves_order_and_never_grows():
    hits = [hit("ls -la /a", 0.9), hit("df -h", 0.85), hit("ls -al /b", 0.8), hit("du -s .", 0.7)]
    got = dedupe_hits(hits, k=3)
    assert [h.command for h in got] == ["ls -la /a", "df -h", "du -s ."]
    assert len(got) <= len(hits)


def test_equal_templates_of_different_commands_hash_alike_and_dedupe_together():
    index = TfIdfIndex([("list files here", "ls -la /a"), ("list files there", "ls -al /b"),
                        ("list disk", "df -h")], VOCAB)
    first, second, other = (doc.template for doc in index.documents)
    assert first is second and hash(first) == hash(template_of("ls -a -l"))
    hits = retrieve(index, "list files", k=3)
    assert [h.command for h in hits] == ["ls -la /a", "ls -al /b", "df -h"]
    assert [h.command for h in dedupe_hits(hits, k=3)] == ["ls -la /a", "df -h"]


_HIT_LISTS = st.lists(
    st.tuples(st.sampled_from(["ls -la /a", "ls -al /b", "ls -l", "df -h", "du -s .", "find . -name x",
                               "find /tmp -name y", "sort -r f | uniq -c"]),
              st.floats(0.01, 1.0)),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(raw=_HIT_LISTS, k=st.integers(1, 6))
def test_dedupe_keeps_the_same_hits_for_interned_and_fresh_templates(raw, k):
    fresh = [RetrievalHit(cmd, template_of(cmd), sim) for cmd, sim in raw]
    interned = {}
    shared = [RetrievalHit(h.command, interned.setdefault(h.template, h.template), h.similarity)
              for h in fresh]
    assert dedupe_hits(shared, k) == dedupe_hits(fresh, k)
    assert [h.command for h in dedupe_hits(shared, k)] == [h.command for h in dedupe_hits(fresh, k)]


# --- calibration ----------------------------------------------------------------

def test_trainer_fits_separable_data():
    rng = random.Random(0)
    features = [[rng.uniform(0.8, 1.0), 1.0, 1.0] for _ in range(50)]
    features += [[rng.uniform(0.0, 0.2), 1.0, 1.0] for _ in range(50)]
    labels = [1] * 50 + [0] * 50
    model = train_calibrator(features, labels)
    correct = sum(
        (model.probability(x) >= 0.5) == bool(y) for x, y in zip(features, labels)
    )
    assert correct == len(labels)


def test_trainer_rejects_single_class():
    with pytest.raises(DegenerateLabelsError):
        train_calibrator([[0.1, 1, 1], [0.9, 2, 1]], [1, 1])


@pytest.mark.parametrize("rows", [0, 1])
def test_trainer_rejects_fewer_than_two_rows(rows):
    with pytest.raises(DegenerateLabelsError):
        train_calibrator([[0.5, 1, 1]] * rows, [1] * rows)


def test_trainer_rejects_features_and_labels_of_different_lengths():
    with pytest.raises(ValueError):
        train_calibrator([[0.1, 1, 1], [0.9, 2, 1]], [1, 0, 1])


@pytest.mark.parametrize("size", [1, 3])
def test_calibration_data_from_too_few_pairs_is_degenerate(size):
    with pytest.raises(DegenerateLabelsError):
        features, labels = make_calibration_data(PAIRS[:size], VOCAB)
        train_calibrator(features, labels)


def test_fit_beats_the_zero_model_on_its_own_rows():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 3))
    logits = x @ np.array([1.5, -0.7, 0.3]) + 0.2
    y = (rng.random(200) < 1 / (1 + np.exp(-logits))).astype(int)
    model = train_calibrator(x.tolist(), y.tolist())
    p = np.array([model.probability(row) for row in x.tolist()])
    loss = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p))
    assert loss < math.log(2)  # the zero model answers 0.5 everywhere


def test_trainer_recovers_weight_signs():
    rng = np.random.default_rng(11)
    true_w = np.array([2.0, -1.0, 0.5])
    x = rng.normal(size=(600, 3))
    probs = 1 / (1 + np.exp(-(x @ true_w + 0.3)))
    y = (rng.random(600) < probs).astype(int)
    model = train_calibrator(x.tolist(), y.tolist())
    assert np.all(np.sign(model.weights) == np.sign(true_w))


def test_calibrate_zero_model_gives_half():
    model = CalibrationModel(
        weights=(0.0, 0.0, 0.0), bias=0.0, feature_means=(0.0, 0.0, 0.0), feature_stds=(1.0, 1.0, 1.0)
    )
    hits = [hit("ls -la", 0.9), hit("df -h", 0.4)]
    out = calibrate(hits, model)
    assert all(p.confidence == 0.5 for p in out)


def test_calibrate_saturates_near_one():
    model = CalibrationModel(
        weights=(50.0, 0.0, 0.0), bias=0.0, feature_means=(0.0, 0.0, 0.0), feature_stds=(1.0, 1.0, 1.0)
    )
    out = calibrate([hit("ls -la", 0.9)], model)
    assert out[0].confidence == pytest.approx(1.0, abs=1e-6)


def test_calibrate_confidences_clamped_and_order_kept():
    model = CalibrationModel(
        weights=(-50.0, 0.0, 0.0), bias=0.0, feature_means=(0.0, 0.0, 0.0), feature_stds=(1.0, 1.0, 1.0)
    )
    hits = [hit("ls -la", 0.9), hit("df -h", 0.4)]
    out = calibrate(hits, model)
    assert [p.cmd for p in out] == [h.command for h in hits]
    assert all(p.confidence == 0.01 for p in out)


def test_model_json_round_trip(tmp_path):
    model = train_calibrator([[0.9, 1, 1], [0.1, 3, 2], [0.8, 1, 1], [0.2, 4, 2]], [1, 0, 1, 0])
    path = tmp_path / "model.json"
    model.save(path)
    assert CalibrationModel.load(path) == model


_MODEL = {"weights": [1.0, 0.0, 0.5], "bias": 0.1, "feature_means": [0.5, 1, 1],
          "feature_stds": [0.2, 1, 1]}


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("not json", id="not-json"),
        pytest.param("[1]", id="list"),
        pytest.param('"model"', id="string"),
        pytest.param(json.dumps({k: v for k, v in _MODEL.items() if k != "bias"}), id="no-bias"),
        pytest.param(json.dumps({k: v for k, v in _MODEL.items() if k != "feature_stds"}), id="no-stds"),
        pytest.param(json.dumps({**_MODEL, "weights": "ab"}), id="string-weights"),
        pytest.param(json.dumps({**_MODEL, "weights": [1.0, "x", 0.5]}), id="string-weight"),
        pytest.param(json.dumps({**_MODEL, "weights": [1.0, True, 0.5]}), id="bool-weight"),
        pytest.param(json.dumps({**_MODEL, "bias": "0.1"}), id="string-bias"),
        pytest.param(json.dumps({**_MODEL, "bias": None}), id="null-bias"),
        pytest.param(json.dumps({**_MODEL, "feature_means": [0.5, 1, float("inf")]}), id="inf-mean"),
        pytest.param(json.dumps({**_MODEL, "bias": float("nan")}), id="nan-bias"),
        pytest.param(json.dumps({**_MODEL, "bias": 10**400}), id="huge-int-bias"),
        pytest.param(json.dumps({**_MODEL, "weights": [1.0, 0.0]}), id="short-weights"),
        pytest.param(json.dumps({**_MODEL, "feature_stds": [0.2, 0, 1]}), id="zero-std"),
    ],
)
def test_calibration_load_rejects_a_file_that_is_not_a_saved_model(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError, match="model.json"):
        CalibrationModel.load(path)


def test_calibration_load_rejects_bad_utf8(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"bias": "\xff"}')
    with pytest.raises(SchemaError, match="invalid UTF-8"):
        CalibrationModel.load(path)


def test_calibration_load_reads_ints_as_floats(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_MODEL), encoding="utf-8")
    model = CalibrationModel.load(path)
    assert model.feature_means == (0.5, 1.0, 1.0) and model.bias == 0.1
    assert all(type(v) is float for v in model.feature_stds)


_NEAR_MODEL = st.fixed_dictionaries(
    {key: st.lists(st.floats() | st.integers() | json_values, max_size=3) | json_values
     for key in ("weights", "feature_means", "feature_stds")}
    | {"bias": st.floats() | st.integers() | json_values}
)


@settings(max_examples=200, deadline=None)
@given(payload=json_values | _NEAR_MODEL)
def test_calibration_load_raises_only_nlbash_errors(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("model") / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    try:
        CalibrationModel.load(path)
    except NlbashError:
        pass


@pytest.mark.parametrize("width", [0, 1, 2, 4])
def test_a_calibration_model_of_another_width_is_not_applied(tmp_path, width):
    # hit_features gives 3 numbers; a model of another width is refused when it is read
    lists = {"weights": [1.0] * width, "feature_means": [0.5] * width, "feature_stds": [0.2] * width}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**lists, "bias": 0.0}), encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(f"{path}: weights, means and stds must each hold 3 numbers")):
        CalibrationModel.load(path)
    # and one built in memory fails when applied, rather than drop or invent features
    built = CalibrationModel(bias=0.0, **{key: tuple(v) for key, v in lists.items()})
    with pytest.raises(ValueError):
        TfIdfPredictor(PAIRS, VOCAB, calibration=built).predict("list all files", 3)


def test_hit_features_are_similarity_flags_utilities():
    h = hit("find . -name x -type f | wc -l", 0.77)
    sim, flags, utils = hit_features(h)
    assert sim == 0.77
    assert flags == 3.0  # name, type, l
    assert utils == 2.0


def test_make_calibration_data_produces_both_classes():
    corpus = filter_examples(toy_corpus(400, seed=21), VOCAB).kept
    features, labels = make_calibration_data(pairs_from_examples(corpus), VOCAB, seed=3)
    assert len(features) == len(labels) > 100
    assert 0 < sum(labels) < len(labels)


# --- predictor adapter ----------------------------------------------------------

def test_predictor_respects_k_and_confidence_default():
    predictor = TfIdfPredictor([(nl, cmd) for nl, cmd in PAIRS], VOCAB)
    preds = predictor.predict("list all files with details", k=3)
    assert 1 <= len(preds) <= 3
    assert all(p.confidence == 1.0 for p in preds)
    assert preds[0].cmd == "ls -la"


def test_predictor_dedupe_returns_distinct_templates():
    pairs = [(f"list files number {i}", "ls -la /tmp") for i in range(8)]
    pairs += [("list files differently", "ls -lt /tmp")]
    predictor = TfIdfPredictor(pairs, VOCAB, dedupe=True)
    preds = predictor.predict("list files", k=5)
    templates = {template_of(p.cmd) for p in preds}
    assert len(templates) == len(preds)


def test_predictor_lowers_confidence_only_when_set_looks_hopeless():
    # similarity-only model: p is tiny below 0.6 similarity, near 1 above
    model = CalibrationModel(
        weights=(2.0, 0.0, 0.0),
        bias=0.0,
        feature_means=(0.6, 0.0, 0.0),
        feature_stds=(0.2, 1.0, 1.0),
    )
    pairs = [
        ("list every file with all details", "ls -la"),
        ("show free disk space on filesystems", "df -h"),
        ("count the lines inside a file", "wc -l notes.txt"),
    ]
    predictor = TfIdfPredictor(pairs, VOCAB, calibration=model)

    # shares a single weak term with each document: low similarity, all
    # hits look wrong, so the whole set gets lowered
    hopeless = predictor.predict("file", k=5)
    assert hopeless and all(p.confidence < 1.0 for p in hopeless)

    # near-verbatim query: the top hit looks right, confidences stay at 1.0
    confident = predictor.predict("list every file with all details", k=5)
    assert confident[0].confidence == 1.0


def test_predictor_returns_the_calibrated_confidences_of_a_lowered_set():
    model = CalibrationModel(
        weights=(2.0, 0.0, 0.0),
        bias=0.0,
        feature_means=(0.6, 0.0, 0.0),
        feature_stds=(0.2, 1.0, 1.0),
    )
    pairs = [
        ("list every file with all details", "ls -la"),
        ("show free disk space on filesystems", "df -h"),
        ("count the lines inside a file", "wc -l notes.txt"),
    ]
    predictor = TfIdfPredictor(pairs, VOCAB, calibration=model)
    query = "list every file with all details"
    default = predictor.predict(query, k=5)  # looks right: the shared answers
    lowered = predictor.predict("file", k=5)
    want = calibrate(retrieve(predictor.index, "file", k=5), model)
    assert lowered == want
    assert all(p.confidence < 1.0 for p in lowered)
    assert all(p.confidence == 1.0 for p in default + predictor.predict(query, k=5))
