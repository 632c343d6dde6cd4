"""Straight-line reference transcription of the scoring rules.

Deliberately independent of the package: operates on plain tuples and
sets, shares no helpers with the implementation under test, and trades
every cleverness for being obviously a literal reading of the three
scoring equations (flag score, per-prediction score, example
aggregation), of TF-IDF retrieval (dict postings, dict accumulation,
one full sort) and of constant-aware tokenization (one regex per class,
tried in turn). Used by the oracle-equivalence tests.

The template (``normalize_template_ref``) walks the reference parser's own
tree and splits each FLAG element's text with the vocabulary, the way
templates were built before the parser recorded flag names, so that
``SimpleCommand.flags`` and ``erased_args`` can be compared with it.

Four exceptions wire the package's own pieces the straightforward way:

- the calibrated set-up (``calibration_data_ref``, ``with_calibration_ref``)
  uses the package's index, parser and scorer, with a fresh index over the
  train side and every held-out reference parsed again, so that the shared
  single-analysis set-up can be compared with it;
- the harness loop (``evaluate_ref``) uses the package's parser, template,
  metric and report types, and parses and templates every reference and
  every prediction each time it meets one, so that the memoized
  ``evaluate`` can be compared with it. It checks the prediction contract
  and clamps each confidence with two helpers of its own, the checks
  ``evaluate`` made before it converted each confidence once;
- the parser (``tokenize_ref``, ``parse_ref``) is the package's parser as it
  stood with frozen-dataclass nodes, per-word ``Element`` nodes and a
  ``peek``/``take`` cursor, copied unchanged but for the two names and
  raising the package's errors, so that the named-tuple tokens, the
  counted ``erased_args`` and the sentinel cursor can be compared with it;
- the score vector (``scores_ref``) reads the package's index and query
  weights and adds each query row with the fancy-index ``+=`` that
  ``retrieve`` used before ``np.add.at``, so that the two can be compared
  bit for bit.
"""

import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from nlbash.errors import BashSyntaxError, UnknownUtilityError
from nlbash.vocab import UtilityVocabulary, default_vocabulary


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


def scores_ref(index, nlc):
    """The index's score vector for ``nlc``: one fancy-index ``+=`` per query row."""
    from nlbash.retrieval import _tokens

    scores = np.zeros(len(index.documents))
    indptr, indices, data = index._indptr, index._indices, index._data
    for row, qw in zip(*index._vectorize(_tokens(nlc, index.normalize))):
        a, b = indptr[row], indptr[row + 1]
        scores[indices[a:b]] += qw * data[a:b]  # a row holds each document once
    return scores


_STRIP = ".,!?;:()[]{}<>\"'`"
_QUOTED_REF = re.compile(r"\"[^\"]*\"|'[^']*'")
_IP_REF = re.compile(r"\d{1,3}(?:\.\d{1,3}){3}(?::\d+)?")
_NUMBER_REF = re.compile(r"[+-]?\d+(?:\.\d+)?")
_PATH_REF = re.compile(r"~?/[^\s]*|\.{1,2}/[^\s]*|[\w.*-]+\.[A-Za-z0-9]{1,4}|[^\s]*\*[^\s]*")


def normalize_nl_ref(utterance):
    """(tokens, constants): quoted strings, then IP, NUMBER and PATH words,
    each class tried by its own fullmatch in that order."""
    pieces = []
    pos = 0
    for m in _QUOTED_REF.finditer(utterance):
        pieces.extend((False, w) for w in utterance[pos : m.start()].split())
        pieces.append((True, m.group(0)))
        pos = m.end()
    pieces.extend((False, w) for w in utterance[pos:].split())
    tokens, constants = [], []
    for quoted, raw in pieces:
        if quoted:
            tokens.append("STRING")
            constants.append(raw[1:-1])
            continue
        word = raw.strip(_STRIP)
        if not word:
            continue
        if _IP_REF.fullmatch(word):
            tokens.append("IP")
            constants.append(word)
        elif _NUMBER_REF.fullmatch(word):
            tokens.append("NUMBER")
            constants.append(word)
        elif _PATH_REF.fullmatch(word):
            tokens.append("PATH")
            constants.append(word)
        else:
            tokens.append(word.lower())
    return tokens, constants


def _flag_names_ref(text, utility, vocab):
    if text.startswith("--"):
        name = text[2:]
        return [name] if name else []
    body = text[1:]
    if len(body) == 1 or body in vocab.unsplittable_flags(utility):
        return [body]
    return list(body)


def normalize_template_ref(ast, vocab):
    """(template text, erased count per unit) of a ``parse_ref`` tree: each
    command of ``ast.walk()`` gives utility[sorted flags], its flags split
    from its FLAG elements and its erased count the number of its other
    elements."""
    units, erased = [], []
    for cmd in ast.walk():
        flags = set()
        for element in cmd.elements:
            if element.kind is ElementKind.FLAG:
                flags.update(_flag_names_ref(element.text, cmd.utility, vocab))
        units.append(cmd.utility + "[" + ",".join(sorted(flags)) + "]")
        erased.append(sum(1 for e in cmd.elements if e.kind is not ElementKind.FLAG))
    return " | ".join(units), erased


def calibration_data_ref(pairs, vocab, holdout_fraction=0.2, seed=0, k=5, normalize=False, dedupe=True):
    """Calibration rows the two-index way: the same split, a fresh index
    over the train side's plain pairs, each held-out reference parsed."""
    from nlbash.metric import ScoredPrediction, prediction_score
    from nlbash.parser import parse
    from nlbash.retrieval import DEDUPE_POOL_FACTOR, TfIdfIndex, dedupe_hits, hit_features, retrieve
    from nlbash.template import normalize_template

    order = np.random.default_rng(seed).permutation(len(pairs))
    held = set(int(i) for i in order[: max(1, int(round(len(pairs) * holdout_fraction)))])
    train = [p for i, p in enumerate(pairs) if i not in held]
    holdout = [p for i, p in enumerate(pairs) if i in held]
    index = TfIdfIndex(train, vocab=vocab, normalize=normalize)
    features, labels = [], []
    for nl, cmd in holdout:
        ref = normalize_template(parse(cmd, vocab))
        hits = dedupe_hits(retrieve(index, nl, k * DEDUPE_POOL_FACTOR), k) if dedupe else retrieve(index, nl, k)
        for hit in hits:
            score = prediction_score(ScoredPrediction(template=hit.template, delta=1.0), [ref])
            features.append(hit_features(hit))
            labels.append(1 if score > 0.0 else 0)
    return features, labels


def with_calibration_ref(pairs, vocab, normalize=True, dedupe=True, seed=0, k=5):
    """The calibrated predictor from ``calibration_data_ref`` and a fresh full index."""
    from nlbash.retrieval import TfIdfPredictor, train_calibrator

    features, labels = calibration_data_ref(pairs, vocab, seed=seed, k=k, normalize=normalize, dedupe=dedupe)
    model = train_calibrator(features, labels)
    return TfIdfPredictor(pairs, vocab=vocab, normalize=normalize, dedupe=dedupe, calibration=model)


def _clamp(value, lo, hi):
    return min(max(float(value), lo), hi)


def _contract_violation(predictions):
    """The first prediction lacking a str cmd or a real confidence, not a bool,
    that ``float()`` converts to a finite value, described."""
    import numbers

    from nlbash.harness import _describe

    for i, p in enumerate(predictions):
        cmd, confidence = getattr(p, "cmd", None), getattr(p, "confidence", None)
        try:
            # float() runs a subclass's __float__; math.isfinite alone would
            # read a float subclass's value without calling it.
            real = isinstance(confidence, numbers.Real) and not isinstance(confidence, bool)
            finite = real and math.isfinite(float(confidence))
        except Exception:  # a raising __float__, an int past the float range
            finite = False
        if not issubclass(type(cmd), str) or not finite:
            return f"prediction {i} needs a str cmd and a finite confidence, got {_describe(p)}"
    return None


def evaluate_ref(predictor, dataset, k=5, vocab=None):
    """The harness loop with no memo: every reference and prediction parsed where met,
    each confidence checked and then converted by its own helper."""
    import time

    from nlbash.corpus import dataset_fingerprint
    from nlbash.errors import BashSyntaxError, UnknownUtilityError
    from nlbash.harness import EvaluationReport, ExampleResult, LatencyStats, _describe
    from nlbash.metric import (
        Aggregation,
        ExampleScore,
        ScoredPrediction,
        aggregate_scores,
        dataset_score,
        prediction_score,
    )
    from nlbash.parser import parse
    from nlbash.template import normalize_template

    results = []
    unparseable = 0
    failures = 0
    for ex in dataset:
        ref_templates = [normalize_template(parse(r, vocab)) for r in ex.references]
        error = None
        start = time.perf_counter()
        try:
            raw_predictions = list(predictor.predict(ex.invocation, k))
        except Exception as exc:
            error = _describe(exc)
        elapsed = time.perf_counter() - start
        if error is None:
            raw_predictions = raw_predictions[:k]
            error = _contract_violation(raw_predictions)
        if error is not None:
            failures += 1
            score = ExampleScore(-1.0, (-1.0,), Aggregation.AVERAGE)
            results.append(ExampleResult(ex.id, score, elapsed, error=error))
            continue
        if not raw_predictions:
            results.append(ExampleResult(ex.id, ExampleScore(0.0, (), Aggregation.AVERAGE), elapsed))
            continue
        per_prediction = []
        for p in raw_predictions:
            delta = _clamp(p.confidence, 0.0, 1.0)
            try:
                template = normalize_template(parse(p.cmd, vocab))
            except (BashSyntaxError, UnknownUtilityError):
                unparseable += 1
                per_prediction.append(-delta)
                continue
            scored = ScoredPrediction(template=template, delta=delta)
            per_prediction.append(prediction_score(scored, ref_templates))
        results.append(ExampleResult(ex.id, aggregate_scores(per_prediction), elapsed))

    return EvaluationReport(
        predictor=getattr(predictor, "name", type(predictor).__name__),
        k=k,
        per_example=results,
        mean_score=dataset_score([r.score for r in results]),
        latency=LatencyStats.from_samples([r.latency_s for r in results]),
        dataset_fingerprint=dataset_fingerprint(dataset),
        unparseable_prediction_count=unparseable,
        predictor_failure_count=failures,
    )


# ---------------------------------------------------------------------------
# The parser with frozen-dataclass nodes and a peek/take cursor

# Utilities that run another command given as their trailing words.
WRAPPER_UTILITIES = frozenset({"sudo", "xargs", "time", "nice"})

# Flags whose payload is a nested command terminated by ';' or '+', for a
# utility whose vocabulary entry lists them as unsplittable (find).
EXEC_FLAGS = frozenset({"exec", "execdir", "ok", "okdir"})

_RESERVED_WORDS = frozenset(
    "if then elif else fi for while until do done case esac function select coproc in".split()
)

_WORD_BREAK = set(" \t\n\r|;&<>()`")

# Deepest nesting of commands (wrapper targets, -exec payloads, $( ) and
# backtick substitutions) that parse accepts; deeper text is refused
# rather than exhausting the interpreter's recursion limit.
MAX_NESTING_DEPTH = 64


class TokenKind(Enum):
    WORD = "word"
    PIPE = "pipe"
    REDIRECT = "redirect"
    SEMI = "semi"
    SUBST_OPEN = "subst_open"
    SUBST_CLOSE = "subst_close"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    start: int
    end: int


class ElementKind(Enum):
    FLAG = "flag"
    ARG = "arg"


@dataclass(frozen=True)
class Element:
    kind: ElementKind
    text: str


@dataclass(frozen=True)
class SimpleCommand:
    """One pipeline stage: a utility plus its flags/arguments.

    ``flags`` holds its flag names, without dashes. ``nested`` holds the
    commands this stage runs itself — the target of a wrapper like
    sudo/xargs, an ``-exec`` payload, or the stages of a ``$( )`` /
    backtick substitution outside double quotes — in source order.
    """

    utility: str
    elements: tuple[Element, ...]
    flags: frozenset[str]
    nested: tuple["SimpleCommand", ...] = ()

    def erased_count(self) -> int:
        return sum(1 for e in self.elements if e.kind is not ElementKind.FLAG)


@dataclass(frozen=True)
class CommandAST:
    """Parsed pipeline plus everything needed to reproduce its text."""

    stages: tuple[SimpleCommand, ...]
    raw: str
    tokens: tuple[Token, ...]

    def walk(self):
        """All simple commands, pipeline order, nested after their host."""
        for stage in self.stages:
            yield from _walk(stage)


def _walk(cmd: SimpleCommand):
    yield cmd
    for sub in cmd.nested:
        yield from _walk(sub)


# ---------------------------------------------------------------------------
# Lexer


def _skip_quoted(s: str, j: int) -> int:
    """Return the index just past the quoted string that opens at s[j]."""
    if s[j] == "'":
        k = s.find("'", j + 1)
        if k == -1:
            raise BashSyntaxError("unbalanced single quote")
        return k + 1
    n = len(s)
    k = j + 1
    while k < n and s[k] != '"':
        k += 2 if s[k] == "\\" else 1
    if k >= n:
        raise BashSyntaxError("unbalanced double quote")
    return k + 1


def _scan_word(s: str, i: int) -> int:
    """Return the end index of the word starting at i; an unquoted ``$(`` ends it."""
    n = len(s)
    j = i
    while j < n:
        c = s[j]
        if c == "'" or c == '"':
            j = _skip_quoted(s, j)
        elif c == "\\":
            if j + 1 >= n:
                raise BashSyntaxError("trailing backslash")
            j += 2
        elif c in _WORD_BREAK or (c == "$" and s[j + 1 : j + 2] == "("):
            break
        else:
            j += 1
    return j


# A redirect operator: [fd]>, [fd]>>, [fd]<, &>, &>>, or an fd duplication
# such as 2>&1, <&0 or >&-. As in Bash, only ASCII digits name an fd.
# _REDIRECT_START gates the match so that ordinary words skip the regex.
_REDIRECT = re.compile(r"&>>?|[0-9]*(?:>>?|<)(?:&(?:[0-9]+|-))?")
_REDIRECT_START = frozenset("<>&0123456789")


def tokenize_ref(text: str) -> list[Token]:
    """Lex command text into tokens. Raises BashSyntaxError."""
    tokens: list[Token] = []
    stack: list[str] = []  # open substitution delimiters: '(' or '`'
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\n\r":
            i += 1
            continue
        if c == "|":
            if text[i + 1 : i + 2] == "|":
                raise BashSyntaxError("'||' lists are not supported")
            tokens.append(Token(TokenKind.PIPE, "|", i, i + 1))
            i += 1
        elif c == ";":
            tokens.append(Token(TokenKind.SEMI, ";", i, i + 1))
            i += 1
        elif c == "\\" and text[i + 1 : i + 2] == ";":
            tokens.append(Token(TokenKind.SEMI, "\\;", i, i + 2))
            i += 2
        elif c in _REDIRECT_START and (m := _REDIRECT.match(text, i)):
            op, j = m.group(), m.end()
            nxt = text[j : j + 1]
            if op[-1] in "<>":  # a plain operator: refuse <<, <( / >( and a bare >&
                if op[-1] == "<" and nxt == "<":
                    raise BashSyntaxError("here-documents are not supported")
                if nxt == "(":
                    raise BashSyntaxError("process substitution is not supported")
                if nxt == "&" and op[0] != "&":
                    raise BashSyntaxError(f"bad redirect at offset {i}")
            tokens.append(Token(TokenKind.REDIRECT, op, i, j))
            i = j
        elif c == "&":
            if text[i + 1 : i + 2] == "&":
                raise BashSyntaxError("'&&' lists are not supported")
            raise BashSyntaxError("background '&' is not supported")
        elif c == "$" and text[i + 1 : i + 2] == "(":
            if text[i + 2 : i + 3] == "(":
                raise BashSyntaxError("arithmetic expansion is not supported")
            tokens.append(Token(TokenKind.SUBST_OPEN, "$(", i, i + 2))
            stack.append("(")
            i += 2
        elif c == "`":
            if stack and stack[-1] == "`":
                tokens.append(Token(TokenKind.SUBST_CLOSE, "`", i, i + 1))
                stack.pop()
            else:
                tokens.append(Token(TokenKind.SUBST_OPEN, "`", i, i + 1))
                stack.append("`")
            i += 1
        elif c == ")":
            if stack and stack[-1] == "(":
                tokens.append(Token(TokenKind.SUBST_CLOSE, ")", i, i + 1))
                stack.pop()
                i += 1
            else:
                raise BashSyntaxError("unbalanced ')'")
        elif c == "(":
            raise BashSyntaxError("subshells are not supported")
        else:
            j = _scan_word(text, i)  # every character it stops at has a branch above
            tokens.append(Token(TokenKind.WORD, text[i:j], i, j))
            i = j
    if stack:
        raise BashSyntaxError("unterminated command substitution")
    return tokens


# ---------------------------------------------------------------------------
# Parser


def _is_flag_word(text: str) -> bool:
    return text.startswith("-") and len(text) > 1 and text != "--"


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0
        self.depth = 0  # simple commands open on the current nesting path

    def peek(self) -> Token | None:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def take(self) -> Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok


def _parse_simple(cur: _Cursor, vocab: UtilityVocabulary, in_exec: bool) -> SimpleCommand:
    """One simple command; ``in_exec`` (an -exec payload) lets ';' or '+' end it."""
    cur.depth += 1
    if cur.depth > MAX_NESTING_DEPTH:
        raise BashSyntaxError(
            f"commands nested deeper than {MAX_NESTING_DEPTH} levels are not supported"
        )
    tok = cur.peek()
    if tok is None or tok.kind is not TokenKind.WORD:
        raise BashSyntaxError("empty pipeline stage")
    cur.take()
    word = tok.text
    if word in _RESERVED_WORDS:
        raise BashSyntaxError(f"shell control flow ({word!r}) is not supported")
    utility = vocab.lookup(word)
    if utility is None:
        raise UnknownUtilityError(word)
    glued = cur.peek()
    if glued is not None and glued.kind is TokenKind.SUBST_OPEN and glued.start == tok.end:
        raise BashSyntaxError(f"command name {word!r} is glued to a substitution")

    unsplittable = vocab.unsplittable_flags(utility)
    elements: list[Element] = []
    flags: set[str] = set()
    nested: list[SimpleCommand] = []
    may_wrap = utility in WRAPPER_UTILITIES

    while True:
        tok = cur.peek()
        # tokenize pairs every SUBST_CLOSE with an open substitution
        if tok is None or tok.kind is TokenKind.PIPE or tok.kind is TokenKind.SUBST_CLOSE:
            break
        if in_exec and (tok.kind is TokenKind.SEMI or tok.text == "+"):
            break  # the end of the surrounding -exec clause, left to the caller
        if tok.kind is TokenKind.SEMI:
            raise BashSyntaxError("';' command sequences are not supported")
        if tok.kind is TokenKind.SUBST_OPEN:
            cur.take()
            nested.extend(_parse_pipeline(cur, vocab))  # its own scope, so it stops
            cur.take()  # only at the close that tokenize paired with this open
            continue
        if tok.kind is TokenKind.REDIRECT:
            cur.take()
            # fd duplications like 2>&1 are self-contained; everything else,
            # &> included, consumes the following word as its target.
            if "&" not in tok.text[1:]:
                target = cur.peek()
                if target is None or target.kind is not TokenKind.WORD:
                    raise BashSyntaxError(f"redirect {tok.text!r} is missing its target")
                cur.take()
                elements.append(Element(ElementKind.ARG, target.text))
            continue
        # WORD
        if _is_flag_word(tok.text):
            cur.take()
            head, eq, value = tok.text.partition("=") if tok.text[1] == "-" else (tok.text, "", "")
            elements.append(Element(ElementKind.FLAG, head))
            if eq:
                elements.append(Element(ElementKind.ARG, value))
            name = head[1:]
            if name[0] == "-":  # --name; its value is erased, and a bare '--=v' names no flag
                if len(name) > 1:
                    flags.add(name[1:])
            elif name in unsplittable:
                flags.add(name)
                if name in EXEC_FLAGS and (payload := _parse_exec_payload(cur, vocab)):
                    nested.append(payload)
            else:  # a bundle, -la: one flag per character
                flags.update(name)
            continue
        if may_wrap and vocab.lookup(tok.text) is not None:
            nested.append(_parse_simple(cur, vocab, in_exec))
            break
        cur.take()
        elements.append(Element(ElementKind.ARG, tok.text))

    cur.depth -= 1
    return SimpleCommand(utility, tuple(elements), frozenset(flags), tuple(nested))


def _parse_exec_payload(cur: _Cursor, vocab: UtilityVocabulary) -> SimpleCommand | None:
    tok = cur.peek()
    if tok is None or tok.kind is not TokenKind.WORD or _is_flag_word(tok.text):
        return None  # bare -exec with no payload; leave the stream alone
    payload = _parse_simple(cur, vocab, in_exec=True)
    end = cur.peek()  # the payload stopped at the end, '|', a close, ';' or '+'
    if end is not None and (end.kind is TokenKind.SEMI or end.text == "+"):
        cur.take()
    return payload


def _parse_pipeline(cur: _Cursor, vocab: UtilityVocabulary) -> list[SimpleCommand]:
    stages = [_parse_simple(cur, vocab, in_exec=False)]
    while (tok := cur.peek()) is not None and tok.kind is TokenKind.PIPE:
        cur.take()
        stages.append(_parse_simple(cur, vocab, in_exec=False))
    return stages


def parse_ref(command_text: str, vocab: UtilityVocabulary | None = None) -> CommandAST:
    """Parse command text into a pipeline AST.

    Raises BashSyntaxError for text outside the supported grammar and
    UnknownUtilityError when a stage names a utility missing from the
    vocabulary (the default vocabulary is used when none is given).
    """
    if not command_text or not command_text.strip():
        raise BashSyntaxError("empty command")
    if vocab is None:
        vocab = default_vocabulary()
    tokens = tokenize_ref(command_text)
    cur = _Cursor(tokens)
    stages = _parse_pipeline(cur, vocab)
    leftover = cur.peek()
    if leftover is not None:
        raise BashSyntaxError(f"unexpected {leftover.text!r} at offset {leftover.start}")
    return CommandAST(stages=tuple(stages), raw=command_text, tokens=tuple(tokens))
