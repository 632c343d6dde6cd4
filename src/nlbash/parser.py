"""Bash pipeline parser with byte-exact reconstruction.

The grammar is deliberately narrow: a command is a pipeline of simple
commands, each a utility followed by flags, arguments, redirects,
``$( )`` / backtick substitutions, and an ``-exec utility ... \\;`` payload
after an exec flag the vocabulary lists for that utility (find's). Anything
else — ``&&`` / ``||`` lists, ``;`` sequences, subshells, here-docs, process
substitution, arithmetic, control flow, a command name glued to a
substitution (``ls$(cmd)``), nesting deeper than MAX_NESTING_DEPTH — raises
BashSyntaxError, which is exactly how corpus filtering rejects it.

Every unquoted substitution is a nested command, also one inside a word
(``x=$(cmd)``); only one inside double quotes (``"$(cmd)"``) stays opaque
argument text, its utility neither checked nor templated. A substitution is
its own scope: a ';' or '+' inside it never ends an enclosing ``-exec``.

Each simple command records its flag names in ``SimpleCommand.flags``, read
with the vocabulary at parse time: ``--name=value`` gives ``name``, a
single-dash word listed for the utility stays whole (``find -name``), and
any other splits per character (``ls -la`` gives l and a).

The lexer reads a word with one compiled pattern, ``_WORD``: quoted
strings and backslash escapes stay inside the word, and an unquoted space,
tab, CR, LF, one of ``|;&<>()`` or a backtick, or a ``$(``, ends it. Other
whitespace (``\\x0b``, ``\\xa0``) is word text, and a quote never closed or a
backslash that ends the text is a BashSyntaxError.

Every token keeps its original text and span, so ``reconstruct`` returns
the input byte for byte for any command ``parse`` accepts. No shell
expansion is performed. Every parse record (``Token``, ``SimpleCommand``,
``CommandAST``) is an immutable named tuple: besides its named fields it
unpacks, indexes and compares equal to a plain tuple of the same values,
and ``_replace`` gives a changed copy.

All functions here are pure and safe for concurrent use.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .errors import BashSyntaxError, UnknownUtilityError
from .vocab import UtilityVocabulary, default_vocabulary

# Utilities that run another command given as their trailing words.
WRAPPER_UTILITIES = frozenset({"sudo", "xargs", "time", "nice"})

# Flags whose payload is a nested command terminated by ';' or '+', for a
# utility whose vocabulary entry lists them as unsplittable (find).
EXEC_FLAGS = frozenset({"exec", "execdir", "ok", "okdir"})

_RESERVED_WORDS = frozenset(
    "if then elif else fi for while until do done case esac function select coproc in".split()
)

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


class Token(NamedTuple):
    kind: TokenKind
    text: str
    start: int
    end: int


# Aliases of the kinds, read on every token the parser builds or reads.
_WORD_KIND, _PIPE, _SEMI = TokenKind.WORD, TokenKind.PIPE, TokenKind.SEMI
_SUBST_OPEN, _SUBST_CLOSE = TokenKind.SUBST_OPEN, TokenKind.SUBST_CLOSE


class SimpleCommand(NamedTuple):
    """One pipeline stage: a utility plus its flags/arguments.

    ``flags`` holds its flag names, without dashes. ``erased_args`` counts
    the words a template erases: plain arguments, the value of
    ``--name=value`` (also of ``--=v``) and redirect targets. ``nested``
    holds the commands this stage runs itself — the target of a wrapper
    like sudo/xargs, an ``-exec`` payload, or the stages of a ``$( )`` /
    backtick substitution outside double quotes — in source order. Like
    every parse record, it is a named tuple.
    """

    utility: str
    flags: frozenset[str]
    erased_args: int
    nested: tuple["SimpleCommand", ...] = ()


class CommandAST(NamedTuple):
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


# A redirect operator: [fd]>, [fd]>>, [fd]<, &>, &>>, or an fd duplication
# such as 2>&1, <&0 or >&-. As in Bash, only ASCII digits name an fd.
# _REDIRECT_START gates the match so that ordinary words skip the regex.
_REDIRECT = re.compile(r"&>>?|[0-9]*(?:>>?|<)(?:&(?:[0-9]+|-))?")
_REDIRECT_START = frozenset("<>&0123456789")

# A word: any mix of unquoted characters other than space, tab, CR, LF and
# |;&<>()` , a '$' not opening '$(', whole '...' strings, whole "..." strings
# with their backslash escapes, and \x escapes. A match that stops at a quote
# or a backslash stopped at one that is never closed or that ends the text;
# _WORD_ERRORS names which.
_WORD = re.compile(r"""(?:[^ \t\n\r|;&<>()`'"\\$]+|\$(?!\()|'[^']*'|"(?:[^"\\]|\\.)*"|\\.)*""", re.S)
_WORD_ERRORS = {"'": "unbalanced single quote", '"': "unbalanced double quote", "\\": "trailing backslash"}


def tokenize(text: str) -> list[Token]:
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
            tokens.append(Token(_PIPE, "|", i, i + 1))
            i += 1
        elif c == ";":
            tokens.append(Token(_SEMI, ";", i, i + 1))
            i += 1
        elif c == "\\" and text[i + 1 : i + 2] == ";":
            tokens.append(Token(_SEMI, "\\;", i, i + 2))
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
            tokens.append(Token(_SUBST_OPEN, "$(", i, i + 2))
            stack.append("(")
            i += 2
        elif c == "`":
            if stack and stack[-1] == "`":
                tokens.append(Token(_SUBST_CLOSE, "`", i, i + 1))
                stack.pop()
            else:
                tokens.append(Token(_SUBST_OPEN, "`", i, i + 1))
                stack.append("`")
            i += 1
        elif c == ")":
            if stack and stack[-1] == "(":
                tokens.append(Token(_SUBST_CLOSE, ")", i, i + 1))
                stack.pop()
                i += 1
            else:
                raise BashSyntaxError("unbalanced ')'")
        elif c == "(":
            raise BashSyntaxError("subshells are not supported")
        else:
            j = _WORD.match(text, i).end()
            if (error := _WORD_ERRORS.get(text[j : j + 1])) is not None:
                raise BashSyntaxError(error)
            tokens.append(Token(_WORD_KIND, text[i:j], i, j))  # any other stop has a branch above
            i = j
    if stack:
        raise BashSyntaxError("unterminated command substitution")
    return tokens


# ---------------------------------------------------------------------------
# Parser


def _is_flag_word(text: str) -> bool:
    return text.startswith("-") and len(text) > 1 and text != "--"


class _Cursor:
    def __init__(self, tokens: list[Token | None]):
        self.tokens = tokens  # ended by a None sentinel, read at tokens[pos]
        self.pos = 0
        self.depth = 0  # simple commands open on the current nesting path


def _parse_simple(cur: _Cursor, vocab: UtilityVocabulary, in_exec: bool) -> SimpleCommand:
    """One simple command; ``in_exec`` (an -exec payload) lets ';' or '+' end it."""
    cur.depth += 1
    if cur.depth > MAX_NESTING_DEPTH:
        raise BashSyntaxError(
            f"commands nested deeper than {MAX_NESTING_DEPTH} levels are not supported"
        )
    tokens = cur.tokens
    tok = tokens[cur.pos]
    if tok is None or tok.kind is not _WORD_KIND:
        raise BashSyntaxError("empty pipeline stage")
    cur.pos += 1
    word = tok.text
    if word in _RESERVED_WORDS:
        raise BashSyntaxError(f"shell control flow ({word!r}) is not supported")
    utility = vocab.lookup(word)
    if utility is None:
        raise UnknownUtilityError(word)
    glued = tokens[cur.pos]
    if glued is not None and glued.kind is _SUBST_OPEN and glued.start == tok.end:
        raise BashSyntaxError(f"command name {word!r} is glued to a substitution")

    unsplittable = vocab.unsplittable_flags(utility)
    erased_args = 0
    flags: set[str] = set()
    nested: list[SimpleCommand] = []
    may_wrap = utility in WRAPPER_UTILITIES

    while (tok := tokens[cur.pos]) is not None:
        kind, text = tok.kind, tok.text
        if kind is _WORD_KIND:
            if in_exec and text == "+":
                break  # the end of the surrounding -exec clause, left to the caller
            if _is_flag_word(text):
                cur.pos += 1
                head, eq, _ = text.partition("=") if text[1] == "-" else (text, "", "")
                if eq:
                    erased_args += 1
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
            if may_wrap and vocab.lookup(text) is not None:
                nested.append(_parse_simple(cur, vocab, in_exec))
                break
            cur.pos += 1
            erased_args += 1
            continue
        # tokenize pairs every SUBST_CLOSE with an open substitution
        if kind is _PIPE or kind is _SUBST_CLOSE:
            break
        if kind is _SEMI:
            if in_exec:
                break
            raise BashSyntaxError("';' command sequences are not supported")
        cur.pos += 1
        if kind is _SUBST_OPEN:
            nested.extend(_parse_pipeline(cur, vocab))  # its own scope, so it stops
            cur.pos += 1  # only at the close that tokenize paired with this open
            continue
        # REDIRECT: fd duplications like 2>&1 are self-contained; everything
        # else, &> included, consumes the following word as its target.
        if "&" not in text[1:]:
            target = tokens[cur.pos]
            if target is None or target.kind is not _WORD_KIND:
                raise BashSyntaxError(f"redirect {text!r} is missing its target")
            cur.pos += 1
            erased_args += 1

    cur.depth -= 1
    return SimpleCommand(utility, frozenset(flags), erased_args, tuple(nested))


def _parse_exec_payload(cur: _Cursor, vocab: UtilityVocabulary) -> SimpleCommand | None:
    tok = cur.tokens[cur.pos]
    if tok is None or tok.kind is not _WORD_KIND or _is_flag_word(tok.text):
        return None  # bare -exec with no payload; leave the stream alone
    payload = _parse_simple(cur, vocab, in_exec=True)
    end = cur.tokens[cur.pos]  # the payload stopped at the end, '|', a close, ';' or '+'
    if end is not None and (end.kind is _SEMI or end.text == "+"):
        cur.pos += 1
    return payload


def _parse_pipeline(cur: _Cursor, vocab: UtilityVocabulary) -> list[SimpleCommand]:
    stages = [_parse_simple(cur, vocab, in_exec=False)]
    while (tok := cur.tokens[cur.pos]) is not None and tok.kind is _PIPE:
        cur.pos += 1
        stages.append(_parse_simple(cur, vocab, in_exec=False))
    return stages


def parse(command_text: str, vocab: UtilityVocabulary | None = None) -> CommandAST:
    """Parse command text into a pipeline AST.

    Raises BashSyntaxError for text outside the supported grammar and
    UnknownUtilityError when a stage names a utility missing from the
    vocabulary (the default vocabulary is used when none is given).
    """
    if not command_text or not command_text.strip():
        raise BashSyntaxError("empty command")
    if vocab is None:
        vocab = default_vocabulary()
    tokens = tokenize(command_text)
    cur = _Cursor([*tokens, None])
    stages = _parse_pipeline(cur, vocab)
    leftover = cur.tokens[cur.pos]
    if leftover is not None:
        raise BashSyntaxError(f"unexpected {leftover.text!r} at offset {leftover.start}")
    return CommandAST(stages=tuple(stages), raw=command_text, tokens=tuple(tokens))


def reconstruct(ast: CommandAST) -> str:
    """Rebuild command text from the token stream, byte for byte."""
    parts: list[str] = []
    pos = 0
    for tok in ast.tokens:
        parts.append(ast.raw[pos : tok.start])
        parts.append(tok.text)
        pos = tok.end
    parts.append(ast.raw[pos:])
    return "".join(parts)
