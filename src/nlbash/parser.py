"""Bash pipeline parser with byte-exact reconstruction.

The grammar is deliberately narrow: a command is a pipeline of simple
commands, each a utility followed by flags, arguments, redirects,
``$( )`` / backtick substitutions, and an ``-exec utility ...`` payload
after an exec flag the vocabulary lists for that utility (find's). Anything
else — ``&&`` / ``||`` lists, ``;`` or newline sequences, subshells,
here-docs, process substitution, arithmetic, control flow, a command name
glued to a substitution (``ls$(cmd)``), a ``time`` keyword that times no
command (``time -p | wc``, ``ls $(\\ntime)``), nesting deeper than
MAX_NESTING_DEPTH — raises BashSyntaxError, which is exactly how corpus
filtering rejects it.

A redirect has one rule, Bash's: an operator (``[fd]>``, ``[fd]>>``,
``[fd]>|``, ``[fd]<``, ``[fd]<>``, ``[fd]>&``, ``[fd]<&``, ``&>``,
``&>>``) takes the next word as its target, and that word decides
whether it duplicates, closes or opens a file. So the ``1`` of ``2>&1``
and the ``-`` of ``>&-`` are targets as the ``f`` of ``> f`` is, and a
``#`` glued to a target is word text (``ls 2>&1#ls -x`` is ``ls[x]``).
After ``>&`` or ``<&`` and any blanks, digits before a ``<`` or ``>``
are the target, not the next operator's fd (``echo >&3<&0 x`` erases 3
words), and a ``-`` is a whole word, so what is glued to it starts a
word of its own (``ls >&--exec`` is ``ls[c,e,x]``; in ``ls >&-#x`` the
``#`` opens a comment). A target may open with a substitution, a nested
command like any other (``ls > $(date).log`` is ``ls[] | date[]``). A
target is one erased word, never a flag, an ``-exec`` end word or a
wrapper's target; an operator with no word after it is refused (``ls
>&``, ``ls >&>x``).

An ``-exec`` payload ends where GNU find ends it: at a word that find reads
as ``;`` once Bash has removed its quotes (``\\;``, ``';'``, ``";"``), or
at one it reads as ``+`` (``+``, ``\\+``, ``'+'``, ``"+"``) right after a
word it receives as ``{}`` (``{}``, ``'{}'``, ``"{}"``, ``\\{\\}``; find
receives no redirect). That word is consumed and the host command reads on.
Any other ``+`` is an argument (``find . -exec echo + {} \\;``), and a bare
``;`` separates commands, so it is refused: find never receives it. A
payload with no end word runs to the end of the text, a ``|`` or the close
of its substitution. A payload that opens with a word find reads as ``;``
names no command, and GNU find refuses it, so it is a BashSyntaxError
(``find . -exec \\; -print``). An exec flag inside a payload opens no
payload of its own, since find ends the outer payload at the first end
word: ``find . -exec find . -exec ls {} + +`` is ``find[exec] |
find[exec]``, the inner find erasing ``.``, ``ls`` and ``{}``.

An unquoted newline ends a command, as ``;`` does, so it is refused, except
directly after ``|`` and at either end of the text or of a substitution; a
redirect target is never read from the next line. A backslash-newline (a
line continuation) is refused, and CR is word text.

Every substitution is a nested command, also one inside a word
(``x=$(cmd)``), a string (``"$(cmd)"``) or a ``${...}`` (``${a:-$(cmd)}``),
but an empty one (``$()``, ``$( )``, two backticks) adds none; each is
its own scope: a ';' or '+' inside it never ends an enclosing
``-exec``. A word that substitutions split is erased once, by its piece
before the first (``x=$(ls)y`` erases one word, ``$(ls)y`` none), and a
piece after a substitution is never a flag, an ``-exec`` end word or a
wrapper's target. A quoted or escaped command word (``\\rm``, ``'rm'``,
``"ls"``) names the utility that Bash's quote removal leaves, and is never
a reserved word or the ``time`` keyword.

Each simple command records its flag names in ``SimpleCommand.flags``, read
with the vocabulary at parse time: ``--name=value`` gives ``name``, a
single-dash word listed for the utility stays whole (``find -name``), and
any other splits per character (``ls -la`` gives l and a). A bare ``--``
ends the options (POSIX utility syntax guideline 10), so ``rm -- -rf`` is
``rm[]``, also inside an ``-exec`` payload; a wrapper, and a utility with
unsplittable flags (find's primaries are no options), read on past it.

The lexer reads a plain word, with no quote, escape, ``$`` or ``#`` to read
and a blank, ``|`` or the end of the text right after it, together with the
blanks before it in one match of ``_PLAIN``; most words are plain. Any
other word it reads with ``_WORD`` and, through each string and ``${...}``
it opens and closes (these nest), with ``_read_on``: quoted strings
(``$'...'`` with its backslash escapes), ``${...}`` and backslash escapes
stay inside the word, and an unquoted space, tab, LF, one of ``|;&<>()`` or
a backtick, or a ``$(``, ends it. Other whitespace (CR, ``\\x0b``,
``\\xa0``) is word text, and only ASCII digits name a redirect's file
descriptor (``²>x`` is the word ``²`` and ``>x``). A backtick
substitution's body is the text up to its first unescaped backtick, lexed
like a text of its own, since Bash finds that backtick before it reads the
body. A ``#`` that starts a word opens a comment that runs to the end of
the line or of the text, so ``ls -la # list files`` is ``ls[a,l]``; inside
a word (``a#b``, ``$(ls)#x``) it is word text. A string, ``${`` or ``$(``
that the end of its text leaves open is a BashSyntaxError, also at a
backtick substitution's closing backtick (``echo `echo "`ls`"` ``).

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
from .vocab import UtilityVocabulary, _shared_default

# Utilities that run another command given as their trailing words.
WRAPPER_UTILITIES = frozenset({"sudo", "xargs", "time", "nice"})

# Flags whose payload is a nested command, for a utility whose vocabulary
# entry lists them as unsplittable (find). The words that find reads as ';',
# '+' and '{}', which end a payload (see the module docstring):
EXEC_FLAGS = frozenset({"exec", "execdir", "ok", "okdir"})
_SEMIS = frozenset({"\\;", "';'", '";"'})
_PLUSES = frozenset({"+", "\\+", "'+'", '"+"'})
_BRACES = frozenset({"{}", "'{}'", '"{}"', "\\{\\}"})

# Bash's reserved words but 'time', which parse reads as the utility: those
# that open a compound command ('!' negates a pipeline), then the others.
_OPENERS = frozenset("if for while until case select function coproc { [[ !".split())
_RESERVED_WORDS = _OPENERS | frozenset("then elif else fi do done esac } ]] in".split())
# What Bash refuses right after its 'time' keyword: a '|', a ')' on the
# keyword's line, or a reserved word that opens no command there.
_TIMED_STOPS = _RESERVED_WORDS - _OPENERS | {"|", ")"}

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

# Builds a parse record from the tuple of its fields: the instance that
# calling the class makes, without the class's Python-level __new__.
_new = tuple.__new__


class SimpleCommand(NamedTuple):
    """One pipeline stage: a utility plus its flags/arguments.

    ``flags`` holds its flag names, without dashes. ``erased_args`` counts
    the words a template erases: plain arguments, the value of
    ``--name=value`` (also of ``--=v``) and redirect targets, a
    duplication's too (the ``1`` of ``2>&1``). ``nested``
    holds the commands this stage runs itself — the target of a wrapper like
    sudo/xargs, an ``-exec`` payload, or the stages of a substitution — in
    source order. Like every parse record, it is a named tuple.
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

    def walk(self) -> list[SimpleCommand]:
        """A new list of all simple commands, pipeline order, nested after their host."""
        commands: list[SimpleCommand] = []
        _walk(self.stages, commands)
        return commands


def _walk(cmds: tuple[SimpleCommand, ...], into: list[SimpleCommand]) -> None:
    for cmd in cmds:
        into.append(cmd)
        if cmd.nested:
            _walk(cmd.nested, into)


# ---------------------------------------------------------------------------
# Lexer


# A redirect operator, [fd]>, [fd]>>, [fd]>|, [fd]<, [fd]<>, [fd]>&, [fd]<&, &> or &>>,
# takes the next word as its target, as in Bash (the 1 of 2>&1 too); only ASCII digits
# name an fd. _REDIRECT_START lets ordinary words skip the regex.
_REDIRECT = re.compile(r"&>>?|[0-9]*(?:>>|>\||<>|[<>]&?)")
_REDIRECT_START = frozenset("<>&0123456789")
# After '>&' or '<&' and any blanks, Bash reads a '-' as a word of its own ('ls >&-x'
# passes x, and in 'ls >&-#x' the '#' opens a comment), and digits before a '<' or
# '>' as a target, not the next operator's fd ('echo >&3<&0'): this matches either.
_DUP_TARGET = re.compile(r"[ \t]*(-|[0-9]+(?=[<>]))(?:#[^\n]*)?")

# A word: any mix of unquoted characters other than space, tab, LF and
# |;&<>()` (CR is word text), '$' pieces, whole '...' and $'...' strings,
# and escapes of any character but LF, up to a '"' or '${' (read on by
# _read_on) or a substitution; _WORD_ERRORS names each stop that is an error.
_BARE = r"""\$\$|\$(?![({[])"""  # inside "...", '$$' or a '$' that opens nothing
# Outside "...", a whole $'...' (a backslash escapes any character, a quote
# too), '$$', or a '$' that opens nothing:
_UNQUOTED = r"""\$'(?:[^'\\]|\\.)*'|\$\$|\$(?![({['])"""
_WORD = re.compile(r"""(?:[^ \t\n|;&<>()`'"\\$]+|%s|'[^']*'|\\[^\n])*""" % _UNQUOTED, re.S)
_DOUBLE = re.compile(r"""(?:[^"\\$`]|\\.|%s)*""" % _BARE, re.S)  # in "...", to a '"', '${' or substitution
# In '${...}', to a '}' outside quotes and escapes, a '"', a '${' or a substitution ('<(' too):
_BRACE = re.compile(r"""(?:[^}`'"\\$<>]|[<>](?!\()|\\.|%s|'[^']*')*""" % _UNQUOTED, re.S)
# A plain word and the blanks before it: no quote, escape or '$' to read,
# no '#' to open a comment, and a blank, '|' or the end right after, so no
# branch of tokenize but the word's would take it (a digit-led word names
# no fd, as no '<' or '>' follows its digits). Every other start goes to
# those branches.
_PLAIN = re.compile(r"""[ \t]*([^ \t\n|;&<>()`'"\\$#][^ \t\n|;&<>()`'"\\$]*)(?=[ \t\n|]|\Z)""")
# Text up to its first unescaped backtick, quoted or not, where Bash ends a
# backtick substitution, or else to the end, a lone backslash there too.
_TO_BACKTICK = re.compile(r"(?:[^`\\]|\\.)*\\?", re.S)
_WORD_ERRORS = {
    "'": "unbalanced single quote",
    "$'": "unbalanced single quote",
    "\\": "trailing backslash",
    "\\\n": "line continuations are not supported",
    "$[": "arithmetic expansion is not supported",
}
_UNCLOSED = {'"': "unbalanced double quote", "{": "unterminated '${'"}


def _read_on(text: str, i: int, n: int, stack: list[str]) -> int:
    """Read a word on from ``i`` through each "..." and ${...} it opens and closes,
    up to ``n``; return where it ends or meets a substitution, those open on ``stack``."""
    while True:
        top = stack[-1] if stack else None
        i = (_DOUBLE if top == '"' else _BRACE if top == "{" else _WORD).match(text, i, n).end()
        c = text[i : i + 1]
        if c == "}" or c == '"' and top == '"':  # only brace text stops at '}'
            stack.pop()
        elif c == '"':
            stack.append(c)
        elif text.startswith("${", i):
            stack.append("{")
            i += 1
        else:
            return i
        i += 1


def tokenize(text: str) -> list[Token]:
    """Lex command text into tokens. Raises BashSyntaxError."""
    tokens: list[Token] = []
    stack: list[str] = []  # open contexts: '(' or '`' of a substitution, '"' or '{' of a '${' around one
    ends: list[int] = []  # per open backtick substitution, the end of the text around its body
    plain = _PLAIN.match  # read per call, so a test can switch the fast path off
    i = 0
    n = size = len(text)  # n: the end of the text, or of the backtick substitution's body
    while i < size:
        if m := plain(text, i, n):
            j = m.end()
            word = m[1]
            tokens.append(_new(Token, (_WORD_KIND, word, j - len(word), j)))
            i = j
            continue
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c == "\n":
            # A newline is a blank directly after '|' and at either end of the
            # text or of a substitution. Anywhere else it ends the command, as
            # ';' does, and the parser refuses it; a run of blanks counts once.
            j = i + 1
            while text[j : j + 1] in (" ", "\t", "\n"):
                j += 1
            nxt = text[j : j + 1]
            closes = stack and nxt == (")" if stack[-1] == "(" else "`")
            if tokens and tokens[-1].kind not in (_PIPE, _SUBST_OPEN) and nxt and not closes:
                tokens.append(_new(Token, (_SEMI, "\n", i, i + 1)))
            i = j
            continue
        if c == "|":
            if text[i + 1 : i + 2] == "|":
                raise BashSyntaxError("'||' lists are not supported")
            tokens.append(_new(Token, (_PIPE, "|", i, i + 1)))
            i += 1
        elif c == ";":
            tokens.append(_new(Token, (_SEMI, ";", i, i + 1)))
            i += 1
        elif c in _REDIRECT_START and (m := _REDIRECT.match(text, i, n)):
            op, j = m.group(), m.end()
            nxt = text[j : j + 1]
            if op[-1] == "<" and nxt == "<":
                raise BashSyntaxError("here-documents are not supported")
            if nxt == "(":
                raise BashSyntaxError("process substitution is not supported")
            tokens.append(_new(Token, (TokenKind.REDIRECT, op, i, j)))
            i = j
            if op[-1] == "&" and (m := _DUP_TARGET.match(text, j, n)):
                tokens.append(_new(Token, (_WORD_KIND, m[1], m.start(1), m.end(1))))
                i = m.end()
        elif c == "&":
            if text[i + 1 : i + 2] == "&":
                raise BashSyntaxError("'&&' lists are not supported")
            raise BashSyntaxError("background '&' is not supported")
        elif c == "$" and text[i + 1 : i + 2] == "(":
            if text[i + 2 : i + 3] == "(":
                raise BashSyntaxError("arithmetic expansion is not supported")
            tokens.append(_new(Token, (_SUBST_OPEN, "$(", i, i + 2)))
            stack.append("(")
            i += 2
        elif c == "`" and i < n:  # an open: its body is lexed up to where Bash ends it
            tokens.append(_new(Token, (_SUBST_OPEN, "`", i, i + 1)))
            stack.append("`")
            ends.append(n)
            n = _TO_BACKTICK.match(text, i + 1, n).end()
            i += 1
        elif c == ")" or c == "`":  # a close; a backtick here is at n, its body's end
            if c == ")" and not (stack and stack[-1] == "("):
                raise BashSyntaxError("unbalanced ')'")
            if c == "`":  # what the body leaves open is unclosed, as at the end of any text
                if stack[-1] != "`":
                    raise BashSyntaxError(_UNCLOSED.get(stack[-1], "unterminated command substitution"))
                n = ends.pop()
            tokens.append(_new(Token, (_SUBST_CLOSE, c, i, i + 1)))
            stack.pop()
            i += 1
            if stack and stack[-1] in '"{':  # the word resumes, to its end or the next substitution
                j = _read_on(text, i, n, stack)
                if j > i:  # the rest of the word, if any, is the next word token
                    tokens.append(_new(Token, (_WORD_KIND, text[i:j], i, j)))
                i = j
        elif c == "(":
            raise BashSyntaxError("subshells are not supported")
        elif c == "#" and not (tokens and tokens[-1].end == i and tokens[-1].kind in (_WORD_KIND, _SUBST_CLOSE)):
            # a '#' that starts a word opens a comment, to the end of the line or of the text
            j = text.find("\n", i, n)
            i = n if j < 0 else j
        else:
            j = _WORD.match(text, i, n).end()
            if j < n and text[j] in "'\"\\$":  # most words stop at a blank or an operator
                if text[j] == '"' or text.startswith("${", j):
                    j = _read_on(text, j, n, stack)
                error = _WORD_ERRORS.get(text[j : j + 2]) or _WORD_ERRORS.get(text[j : j + 1])
                if error is not None:  # else the word's end or a substitution opener
                    raise BashSyntaxError(error)
            tokens.append(_new(Token, (_WORD_KIND, text[i:j], i, j)))  # any other stop has a branch above
            i = j
    if stack:
        raise BashSyntaxError(_UNCLOSED.get(stack[-1], "unterminated command substitution"))
    return tokens


# ---------------------------------------------------------------------------
# Parser


def _is_flag_word(text: str) -> bool:
    return text.startswith("-") and len(text) > 1 and text != "--"


# A command word with a quote or a backslash but no '$' or backtick, and the
# pieces of Bash's quote removal: an escape, a '...', or a "..." in which a
# backslash escapes only '"', itself and a newline.
_QUOTED_NAME = re.compile(r"""[^$`]*['"\\][^$`]*""")
_QUOTE_PIECE = re.compile(r"""\\(.)|'([^']*)'|"((?:[^"\\]|\\.)*)\"""", re.S)
_ESCAPE_IN_DOUBLE = re.compile(r'\\(["\\])|\\\n')


def _unquoted(m: re.Match[str]) -> str:
    piece = m[m.lastindex]
    return _ESCAPE_IN_DOUBLE.sub(r"\1", piece) if m.lastindex == 3 else piece


def _unquoted_lookup(vocab: UtilityVocabulary, word: str) -> str | None:
    """``vocab.lookup`` of a quoted or escaped command word (``\\rm``, ``'rm'``,
    ``"ls"``) after Bash's quote removal; None for any other word."""
    if _QUOTED_NAME.fullmatch(word) is None:
        return None
    return vocab.lookup(_QUOTE_PIECE.sub(_unquoted, word))


class _Cursor:
    def __init__(self, tokens: list[Token | None]):
        self.tokens = tokens  # ended by a None sentinel, read at tokens[pos]
        self.pos = 0
        self.depth = 0  # simple commands open on the current nesting path


def _parse_simple(cur: _Cursor, vocab: UtilityVocabulary, in_exec: bool) -> SimpleCommand:
    """One simple command; ``in_exec`` (an -exec payload) lets find's end word
    end it, and keeps an exec flag in it from opening a payload of its own."""
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
    utility = vocab.lookup(word) or _unquoted_lookup(vocab, word)
    if utility is None:
        raise UnknownUtilityError(word)
    glued = tokens[cur.pos]
    if glued is not None and glued.kind is _SUBST_OPEN and glued.start == tok.end:
        raise BashSyntaxError(f"command name {word!r} is glued to a substitution")

    unsplittable = vocab.flags[utility]  # lookup returns a key of this map
    erased_args = 0
    flags: set[str] = set()
    nested: list[SimpleCommand] = []
    may_wrap = utility in WRAPPER_UTILITIES
    options = True  # until a bare '--' ends them, below
    received = None  # the last word that find receives from this command

    while (tok := tokens[cur.pos]) is not None:
        kind, text = tok.kind, tok.text
        if kind is _WORD_KIND:
            if in_exec and (text in _SEMIS or text in _PLUSES and received in _BRACES):
                break  # the end of the surrounding -exec clause, left to the caller
            received = text
            if options and _is_flag_word(text):
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
                    if not in_exec and name in EXEC_FLAGS and (payload := _parse_exec_payload(cur, vocab, name)):
                        nested.append(payload)
                else:  # a bundle, -la: one flag per character
                    flags.update(name)
                continue
            if may_wrap and (vocab.lookup(text) or _unquoted_lookup(vocab, text)):
                nested.append(_parse_simple(cur, vocab, in_exec))
                break
            if text == "--" and not (may_wrap or unsplittable):
                options = False  # a wrapper, or find's expression, reads on past it
            cur.pos += 1
            erased_args += 1
            continue
        # tokenize pairs every SUBST_CLOSE with an open substitution
        if kind is _PIPE or kind is _SUBST_CLOSE:
            break
        if kind is _SEMI:
            if text == "\n":
                raise BashSyntaxError("newline-separated command sequences are not supported")
            raise BashSyntaxError("';' command sequences are not supported")
        cur.pos += 1
        if kind is _SUBST_OPEN:
            received = None  # its output, not '{}'
            if tokens[cur.pos].kind is not _SUBST_CLOSE:  # '$()' and '``' run no command
                nested.extend(_parse_pipeline(cur, vocab))  # its own scope, so it stops
            cur.pos += 1  # only at the close that tokenize paired with this open
            while (rest := tokens[cur.pos]) is not None and rest.kind is _WORD_KIND and rest.start == tokens[cur.pos - 1].end:
                cur.pos += 1  # the rest of the word the substitution is in, counted with it
            continue
        # REDIRECT: its target, one erased word, is a word or opens with a substitution (read next)
        target = tokens[cur.pos]
        erased_args += 1
        if target is not None and target.kind is _WORD_KIND:
            cur.pos += 1
        elif target is None or target.kind is not _SUBST_OPEN:
            raise BashSyntaxError(f"redirect {text!r} is missing its target")

    cur.depth -= 1
    return _new(SimpleCommand, (utility, frozenset(flags), erased_args, tuple(nested)))


def _parse_exec_payload(cur: _Cursor, vocab: UtilityVocabulary, flag: str) -> SimpleCommand | None:
    tok = cur.tokens[cur.pos]
    if tok is None or tok.kind is not _WORD_KIND or tok.text == '"' or _is_flag_word(tok.text):
        return None  # bare -exec, or one led by a substitution, quoted or not; leave the stream alone
    if tok.text in _SEMIS:  # GNU find refuses it too: "invalid argument `;' to `-exec'"
        raise BashSyntaxError(f"'-{flag}' has no command before {tok.text!r}")
    payload = _parse_simple(cur, vocab, in_exec=True)
    end = cur.tokens[cur.pos]  # the payload stopped at the end, '|', a close or its end word
    if end is not None and end.kind is _WORD_KIND:
        cur.pos += 1
    return payload


def _parse_pipeline(cur: _Cursor, vocab: UtilityVocabulary) -> list[SimpleCommand]:
    stages = [_parse_simple(cur, vocab, in_exec=False)]
    while (tok := cur.tokens[cur.pos]) is not None and tok.kind is _PIPE:
        cur.pos += 1
        stages.append(_parse_simple(cur, vocab, in_exec=False))
    return stages


def _check_time_keywords(tokens: list[Token], text: str) -> None:
    """Refuse a Bash ``time`` keyword that times no command. Bash reads a
    'time' as its keyword where it leads the text or, after a newline, a
    ``$( )``. Past the keywords there (each with at most ``-p`` and then
    ``--``), a word in ``_OPENERS`` is refused as it is at a command's start
    (``time if``, ``time ! ls``), and a stop in ``_TIMED_STOPS`` as timing
    nothing. Only a word token holds any of these texts but '|' and ')'."""
    texts = [t.text for t in tokens] + [""]
    for k, tok in enumerate(tokens):
        if tok.text != "time" or k and not (texts[k - 1] == "$(" and "\n" in text[tokens[k - 1].end : tok.start]):
            continue
        i = k
        while texts[i] == "time":
            i += 1
            for option in ("-p", "--"):
                if texts[i] == option:
                    i += 1
        if texts[i] in _OPENERS:  # Bash times the compound command, which parse refuses
            raise BashSyntaxError(f"shell control flow ({texts[i]!r}) is not supported")
        if texts[i] in _TIMED_STOPS and not (texts[i] == ")" and "\n" in text[tokens[i - 1].end : tokens[i].start]):
            raise BashSyntaxError(f"'time' has no command before {texts[i]!r}")


def parse(command_text: str, vocab: UtilityVocabulary | None = None) -> CommandAST:
    """Parse command text into a pipeline AST.

    Raises BashSyntaxError for text outside the supported grammar and
    UnknownUtilityError when a stage names a utility missing from the
    vocabulary (the default vocabulary is used when none is given).
    """
    if not command_text or not command_text.strip():
        raise BashSyntaxError("empty command")
    if vocab is None:
        vocab = _shared_default()
    tokens = tokenize(command_text)
    if tokens and tokens[0].text == "time" or "\n" in command_text:  # where a keyword may be
        _check_time_keywords(tokens, command_text)
    ast_tokens = tuple(tokens)
    tokens.append(None)
    stages = _parse_pipeline(_Cursor(tokens), vocab)
    return _new(CommandAST, (tuple(stages), command_text, ast_tokens))


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
