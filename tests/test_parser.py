import hashlib
import os
import re
import shutil
import signal
import subprocess
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from strategies import shell_text

from nlbash import parser
from nlbash.errors import BashSyntaxError, NlbashError, UnknownUtilityError
from nlbash.parser import (
    _BRACES,
    _PLUSES,
    _SEMIS,
    MAX_NESTING_DEPTH,
    CommandAST,
    SimpleCommand,
    Token,
    TokenKind,
    parse,
    reconstruct,
    tokenize,
)
from nlbash.synth import command_corpus, toy_corpus
from nlbash.template import TemplateCommand, TemplateUnit, normalize_template
from nlbash.vocab import default_vocabulary

VOCAB = default_vocabulary()

ROUND_TRIP_COMMANDS = [
    "ls",
    "ls -la /tmp",
    "find . -type f -empty -delete",
    "df --total | tail -n 1",
    "df   --total |  tail -n 1",  # odd spacing survives
    "grep -i 'foo bar' f.txt",
    'grep -i "foo bar" f.txt',
    "find . -regextype posix-egrep -regex REGEX -type f",
    "find . -type f -empty -print0 | xargs -0 /bin/rm",
    "find . -name '*.py' -exec grep -l TODO {} \\;",
    "find /tmp -name core -exec rm {} +",
    "sudo chown root process",
    "nice -n 10 tar -czf x.tgz .",
    "kill $( jobs -p )",
    "kill $(jobs -p)",
    "echo `date`",
    "sort f.txt | uniq -c | sort -rn",
    "ps aux | grep nginx",
    "echo done >> log.txt",
    "cat f.txt 2>/dev/null",
    "grep foo f.txt > out.txt 2>&1",
    "tar -xzf a.tar.gz -C /tmp ",
]


@pytest.mark.parametrize("cmd", ROUND_TRIP_COMMANDS)
def test_round_trip_byte_exact(cmd):
    assert reconstruct(parse(cmd, VOCAB)) == cmd


def test_single_stage_parse():
    ast = parse("find . -type f -empty -delete", VOCAB)
    assert len(ast.stages) == 1
    assert ast.stages[0].utility == "find"


def test_pipeline_stage_order():
    ast = parse("df --total | tail -n 1", VOCAB)
    assert [s.utility for s in ast.stages] == ["df", "tail"]


def test_unknown_utility_rejected():
    with pytest.raises(UnknownUtilityError):
        parse("frobnicate -x", VOCAB)


def test_unknown_utility_in_substitution_rejected():
    with pytest.raises(UnknownUtilityError):
        parse("kill $( frobnicate -p )", VOCAB)


def test_parse_without_a_vocabulary_reads_with_the_default_one():
    text = "find . -name x -exec sudo rm {} + | wc -l"
    assert parse(text) == parse(text, VOCAB)
    with pytest.raises(UnknownUtilityError):
        parse("frobnicate -x")


def test_utility_path_resolves_to_basename():
    ast = parse("/bin/rm -f stale.txt", VOCAB)
    assert ast.stages[0].utility == "rm"


@pytest.mark.parametrize(
    "cmd",
    [
        "",
        "   ",
        "grep 'unterminated",
        'grep "unterminated',
        "df |",
        "| df",
        "df || true",
        "df && ls",
        "sleep 5 &",
        "ls ; pwd",
        "(cd /tmp)",
        "diff <(sort a) <(sort b)",
        "cat <<EOF",
        "cat <<< hello",
        "echo $(date",
        "echo `date",
        "for f in *; do echo $f; done",
        "if true; then ls; fi",
        "echo )",
        "ls > ",
        "ls >&",
        "ls &>(sort)",
        "ls 2<<EOF",
        "ls &>&1",
        "ls$(date)",
        "ls`date`",
        "sudo wc$(x) f",
        "find . -exec rm$(x) {} \\;",
        "echo x$((1 + 2))",
        "find . -exec rm {} ;",
    ],
)
def test_unsupported_or_malformed_rejected(cmd):
    with pytest.raises(BashSyntaxError):
        parse(cmd, VOCAB)


def test_assignment_prefix_rejected_as_unknown_utility():
    # 'v=$(...)' is one word in utility position; not a known utility
    with pytest.raises(UnknownUtilityError):
        parse("v=$(whoami | tr a-z A-Z)", VOCAB)


# What may lie between tokens: blanks, and comments that run to the end of a line.
_GAP = re.compile(r"(?:[ \t\n]|#[^\n]*(?=\n|\Z))*")


def test_token_spans_tile_the_source():
    cmd = "grep -i 'a b'  f.txt |  # keep\n wc -l # count"
    tokens = tokenize(cmd)
    pos = 0
    for tok in tokens:
        assert _GAP.fullmatch(cmd, pos, tok.start)  # blanks or a comment between tokens
        assert cmd[tok.start : tok.end] == tok.text
        pos = tok.end
    assert cmd[pos:] == " # count"


def test_token_kinds():
    kinds = [t.kind for t in tokenize("df --total | tail -n 1 > out.txt")]
    assert kinds == [
        TokenKind.WORD,
        TokenKind.WORD,
        TokenKind.PIPE,
        TokenKind.WORD,
        TokenKind.WORD,
        TokenKind.WORD,
        TokenKind.REDIRECT,
        TokenKind.WORD,
    ]


def test_substitution_tokens():
    kinds = [t.kind for t in tokenize("kill $( jobs -p )")]
    assert kinds == [
        TokenKind.WORD,
        TokenKind.SUBST_OPEN,
        TokenKind.WORD,
        TokenKind.WORD,
        TokenKind.SUBST_CLOSE,
    ]


def test_wrapper_nesting():
    ast = parse("sudo chown root process", VOCAB)
    stage = ast.stages[0]
    assert stage.utility == "sudo"
    assert len(stage.nested) == 1
    assert stage.nested[0].utility == "chown"


def test_wrapper_chain():
    ast = parse("sudo time find /tmp -name core", VOCAB)
    names = [c.utility for c in ast.walk()]
    assert names == ["sudo", "time", "find"]


def test_wrapper_skips_non_utility_words():
    # '-I {}' and '{}' belong to xargs; cp starts the wrapped command
    ast = parse("find . -name '*.o' | xargs -I {} cp {} /tmp", VOCAB)
    xargs_stage = ast.stages[1]
    assert xargs_stage.utility == "xargs"
    assert [c.utility for c in xargs_stage.nested] == ["cp"]


def test_exec_payload_nested_and_terminated():
    ast = parse("find . -name x -exec cat {} \\; -delete", VOCAB)
    stage = ast.stages[0]
    assert [c.utility for c in stage.nested] == ["cat"]
    assert stage.flags == {"name", "exec", "delete"}


def test_exec_payload_without_terminator_is_lenient():
    ast = parse("find . -empty -exec rm {}", VOCAB)
    assert [c.utility for c in ast.stages[0].nested] == ["rm"]


def test_exec_unknown_target_rejected():
    with pytest.raises(UnknownUtilityError):
        parse("find . -exec frobnicate {} \\;", VOCAB)


def test_substitution_is_its_own_scope_inside_an_exec_payload():
    ast = parse("find . -exec echo $(ls +) \\;", VOCAB)
    assert [(c.utility, c.flags) for c in ast.walk()] == [
        ("find", frozenset({"exec"})), ("echo", frozenset()), ("ls", frozenset())
    ]
    assert [c.erased_args for c in ast.walk()] == [1, 0, 1]  # '.' and the '+' inside
    backticks = parse("find . -exec echo `ls +` +", VOCAB)
    assert [c.utility for c in backticks.walk()] == ["find", "echo", "ls"]
    with pytest.raises(BashSyntaxError, match="';' command sequences are not supported"):
        parse("find . -exec echo $(ls ;) \\;", VOCAB)


def test_substitution_with_pipeline_inside():
    ast = parse("echo $(ls /tmp | wc -l)", VOCAB)
    names = [c.utility for c in ast.walk()]
    assert names == ["echo", "ls", "wc"]


def test_midword_substitution_splits_the_word():
    tokens = tokenize("echo prefix$(date)suffix")
    assert [t.text for t in tokens] == ["echo", "prefix", "$(", "date", ")", "suffix"]
    assert [t.kind for t in tokens[1:]] == [
        TokenKind.WORD,
        TokenKind.SUBST_OPEN,
        TokenKind.WORD,
        TokenKind.SUBST_CLOSE,
        TokenKind.WORD,
    ]


def test_a_duplications_target_is_the_word_after_it():
    # the 1 of 2>&1 is its target, so a wrapper still runs the word after it
    assert [(c.utility, c.erased_args) for c in parse("sudo 2>&1 ls", VOCAB).walk()] == [
        ("sudo", 1), ("ls", 0)
    ]
    assert [(c.utility, c.erased_args) for c in parse("sudo > out ls", VOCAB).walk()] == [
        ("sudo", 1), ("ls", 0)
    ]
    assert parse("ls 2>&1", VOCAB).stages[0].erased_args == 1
    with pytest.raises(BashSyntaxError, match="missing its target"):
        parse("ls >", VOCAB)


@pytest.mark.parametrize(
    "cmd, args",
    [
        ("ls &> out.txt", ["out.txt"]),
        ("ls &>> out.txt", ["out.txt"]),
        ("ls >&- x", ["-", "x"]),
        ("ls 10<&0 x", ["0", "x"]),
        ("ls 2>>err.txt", ["err.txt"]),
        ("ls >&out.txt", ["out.txt"]),
        ("ls <&-x", ["-", "x"]),
    ],
)
def test_every_redirect_takes_the_next_word_as_its_target(cmd, args):
    ast = parse(cmd, VOCAB)
    assert [t.text for t in ast.tokens if t.kind is TokenKind.WORD][1:] == args
    assert ast.stages[0].erased_args == len(args)


@settings(max_examples=400, deadline=None)
@given(shell_text)
def test_every_redirect_of_an_accepted_text_is_followed_by_its_target(text):
    try:
        tokens = parse(text, VOCAB).tokens
    except NlbashError:
        return
    for tok, after in zip(tokens, tokens[1:] + (None,)):
        if tok.kind is TokenKind.REDIRECT:
            assert after is not None and after.kind in (TokenKind.WORD, TokenKind.SUBST_OPEN), text


def test_only_ascii_digits_name_a_file_descriptor():
    tokens = tokenize("echo ²>x")
    assert [(t.kind, t.text) for t in tokens] == [
        (TokenKind.WORD, "echo"),
        (TokenKind.WORD, "²"),
        (TokenKind.REDIRECT, ">"),
        (TokenKind.WORD, "x"),
    ]


DEEPLY_NESTED = [
    "sudo " * 3000 + "ls",
    "echo " + "$( echo " * 1500 + "ls" + " )" * 1500,
]


@pytest.mark.parametrize("cmd", DEEPLY_NESTED, ids=["sudo", "substitution"])
def test_nesting_past_the_limit_is_a_syntax_error(cmd):
    with pytest.raises(BashSyntaxError, match="nested deeper"):
        parse(cmd, VOCAB)


def test_nesting_at_the_limit_parses():
    cmd = "sudo " * (MAX_NESTING_DEPTH - 1) + "ls"
    assert len(list(parse(cmd, VOCAB).walk())) == MAX_NESTING_DEPTH
    with pytest.raises(BashSyntaxError):
        parse("sudo " + cmd, VOCAB)


@pytest.mark.parametrize(
    "cmd, walk",
    [
        ("find . -exec rm {}", [("find", 1), ("rm", 1)]),  # the payload runs to the end
        ("find . -exec", [("find", 1)]),
        ("ls $(pwd)", [("ls", 0), ("pwd", 0)]),  # the close is the last token
        ("echo `date`", [("echo", 0), ("date", 0)]),
        ("sudo", [("sudo", 0)]),
        ("echo $()", [("echo", 0)]),  # an empty substitution runs no command
    ],
)
def test_the_token_stream_may_end_at_any_stop(cmd, walk):
    assert [(c.utility, c.erased_args) for c in parse(cmd, VOCAB).walk()] == walk


@pytest.mark.parametrize(
    "cmd, message",
    [
        ("ls >", "redirect '>' is missing its target"),
        ("ls 2>>", "redirect '2>>' is missing its target"),
        ("ls |", "empty pipeline stage"),
    ],
)
def test_the_token_stream_may_end_where_a_token_is_needed(cmd, message):
    with pytest.raises(BashSyntaxError, match=message):
        parse(cmd, VOCAB)


def test_attached_flag_value_is_an_argument():
    stage = parse("ls --color=auto", VOCAB).stages[0]
    assert stage.flags == {"color"} and stage.erased_args == 1


def test_quoted_strings_are_single_arguments():
    ast = parse("grep -i 'foo bar' f.txt", VOCAB)
    assert ast.stages[0].erased_args == 2
    assert "'foo bar'" in [t.text for t in ast.tokens]


def test_parse_is_deterministic():
    cmd = "find . -name '*.log' -exec rm {} \\;"
    assert parse(cmd, VOCAB) == parse(cmd, VOCAB)


def test_round_trip_over_generated_corpus():
    commands = command_corpus(500, seed=3)
    for cmd in commands:
        assert reconstruct(parse(cmd, VOCAB)) == cmd


@settings(max_examples=400, deadline=None)
@given(shell_text)
def test_parse_raises_only_nlbash_error_and_round_trips(text):
    try:
        ast = parse(text, VOCAB)
    except NlbashError:
        return
    assert reconstruct(ast) == text


def test_tokens_are_immutable_named_tuples():
    assert Token._fields == ("kind", "text", "start", "end")
    tokens = tokenize("ls -l | wc")
    assert all(type(t) is Token for t in tokens)
    for name in Token._fields:
        with pytest.raises(AttributeError):
            setattr(tokens[0], name, None)
    # the one change from frozen dataclasses: they are tuples
    assert tokens[0] == tuple(tokens[0]) == (TokenKind.WORD, "ls", 0, 2)


def test_parse_records_and_templates_keep_their_classes():
    # the parser and normalize_template build them with tuple.__new__
    ast = parse("find . -exec rm {} \\; | sudo wc -l $(ls)", VOCAB)
    template = normalize_template(ast)
    records = [(ast, CommandAST), (template, TemplateCommand)]
    records += [(t, Token) for t in ast.tokens] + [(c, SimpleCommand) for c in ast.walk()]
    records += [(u, TemplateUnit) for u in template.units]
    for record, cls in records:
        assert type(record) is cls
        assert record == cls(*record) and hash(record) == hash(cls(*record))
        assert tuple(getattr(record, name) for name in cls._fields) == tuple(record)
        copy = record._replace()
        assert type(copy) is cls and copy == record


# The golden table: each text with its pipeline line (the stage utilities, as
# `nlbash parse` prints them), template and erased count per command of
# walk(), or the error it raises. Every row was checked by hand against the
# grammar in the parser's docstring, so a diff of this table shows each
# intended parser change. Rows pin what parse does today, also where a
# planned change would read the text otherwise (a value glued to its
# option, as in `cut -d:`, still splits into flags).
GOLDEN = [
    ('ls', ('ls', 'ls[]', (0,))),
    ('ls -la /tmp', ('ls', 'ls[a,l]', (1,))),
    ('find . -type f -empty -delete', ('find', 'find[delete,empty,type]', (2,))),
    ('df --total | tail -n 1', ('df | tail', 'df[total] | tail[n]', (0, 1))),
    ('df   --total |  tail -n 1', ('df | tail', 'df[total] | tail[n]', (0, 1))),
    ("grep -i 'foo bar' f.txt", ('grep', 'grep[i]', (2,))),
    ('grep -i "foo bar" f.txt', ('grep', 'grep[i]', (2,))),
    ('find . -regextype posix-egrep -regex REGEX -type f', ('find', 'find[regex,regextype,type]', (4,))),
    ('find . -type f -empty -print0 | xargs -0 /bin/rm', ('find | xargs', 'find[empty,print0,type] | xargs[0] | rm[]', (2, 0, 0))),
    ("find . -name '*.py' -exec grep -l TODO {} \\;", ('find', 'find[exec,name] | grep[l]', (2, 2))),
    ('find /tmp -name core -exec rm {} +', ('find', 'find[exec,name] | rm[]', (2, 1))),
    ('sudo chown root process', ('sudo', 'sudo[] | chown[]', (0, 2))),
    ('nice -n 10 tar -czf x.tgz .', ('nice', 'nice[n] | tar[c,f,z]', (1, 2))),
    ('kill $( jobs -p )', ('kill', 'kill[] | jobs[p]', (0, 0))),
    ('kill $(jobs -p)', ('kill', 'kill[] | jobs[p]', (0, 0))),
    ('echo `date`', ('echo', 'echo[] | date[]', (0, 0))),
    ('sort f.txt | uniq -c | sort -rn', ('sort | uniq | sort', 'sort[] | uniq[c] | sort[n,r]', (1, 0, 0))),
    ('ps aux | grep nginx', ('ps | grep', 'ps[] | grep[]', (1, 1))),
    ('echo done >> log.txt', ('echo', 'echo[]', (2,))),
    ('cat f.txt 2>/dev/null', ('cat', 'cat[]', (2,))),
    ('grep foo f.txt > out.txt 2>&1', ('grep', 'grep[]', (4,))),
    ('tar -xzf a.tar.gz -C /tmp ', ('tar', 'tar[C,f,x,z]', (2,))),
    ('', BashSyntaxError('empty command')),
    ('   ', BashSyntaxError('empty command')),
    ("grep 'unterminated", BashSyntaxError('unbalanced single quote')),
    ('grep "unterminated', BashSyntaxError('unbalanced double quote')),
    ('df |', BashSyntaxError('empty pipeline stage')),
    ('| df', BashSyntaxError('empty pipeline stage')),
    ('df || true', BashSyntaxError("'||' lists are not supported")),
    ('df && ls', BashSyntaxError("'&&' lists are not supported")),
    ('sleep 5 &', BashSyntaxError("background '&' is not supported")),
    ('ls ; pwd', BashSyntaxError("';' command sequences are not supported")),
    ('(cd /tmp)', BashSyntaxError('subshells are not supported')),
    ('diff <(sort a) <(sort b)', BashSyntaxError('process substitution is not supported')),
    ('cat <<EOF', BashSyntaxError('here-documents are not supported')),
    ('cat <<< hello', BashSyntaxError('here-documents are not supported')),
    ('echo $(date', BashSyntaxError('unterminated command substitution')),
    ('echo `date', BashSyntaxError('unterminated command substitution')),
    ('for f in *; do echo $f; done', BashSyntaxError("shell control flow ('for') is not supported")),
    ('if true; then ls; fi', BashSyntaxError("shell control flow ('if') is not supported")),
    ('echo )', BashSyntaxError("unbalanced ')'")),
    ('ls > ', BashSyntaxError("redirect '>' is missing its target")),
    ('ls >&', BashSyntaxError("redirect '>&' is missing its target")),
    ('ls &>(sort)', BashSyntaxError('process substitution is not supported')),
    ('ls 2<<EOF', BashSyntaxError('here-documents are not supported')),
    ('ls &>&1', BashSyntaxError("background '&' is not supported")),
    ('ls$(date)', BashSyntaxError("command name 'ls' is glued to a substitution")),
    ('ls`date`', BashSyntaxError("command name 'ls' is glued to a substitution")),
    ('sudo wc$(x) f', BashSyntaxError("command name 'wc' is glued to a substitution")),
    ('find . -exec rm$(x) {} \\;', BashSyntaxError("command name 'rm' is glued to a substitution")),
    ('echo x$((1 + 2))', BashSyntaxError('arithmetic expansion is not supported')),
    ('echo -exec ls {} \\;', ('echo', 'echo[c,e,x]', (3,))),
    ('frobnicate -x', UnknownUtilityError('frobnicate')),
    ('kill $( frobnicate -p )', UnknownUtilityError('frobnicate')),
    ('v=$(whoami | tr a-z A-Z)', UnknownUtilityError('v=')),
    ('find . -exec frobnicate {} \\;', UnknownUtilityError('frobnicate')),
    ('ls >', BashSyntaxError("redirect '>' is missing its target")),
    ('ls 2>>', BashSyntaxError("redirect '2>>' is missing its target")),
    ('ls |', BashSyntaxError('empty pipeline stage')),
    ('echo $()', ('echo', 'echo[]', (0,))),
    ('find . -exec echo $(ls ;) \\;', BashSyntaxError("';' command sequences are not supported")),
    ('/bin/rm -f stale.txt', ('rm', 'rm[f]', (1,))),
    ("cut -d' ' -f1 a", ('cut', "cut[ ,',1,d,f]", (1,))),
    ('awk -F: x a', ('awk', 'awk[:,F]', (2,))),
    ('xargs -I{} cp {} /tmp', ('xargs', 'xargs[I,{,}] | cp[]', (0, 2))),
    ('grep -e"x y" f', ('grep', 'grep[ ,",e,x,y]', (1,))),
    ('sort -k2,2n f', ('sort', 'sort[,,2,k,n]', (1,))),
    ('rm -- -rf', ('rm', 'rm[]', (2,))),
    ('grep -- -v f', ('grep', 'grep[]', (3,))),
    ('awk -F, x f', ('awk', 'awk[,,F]', (2,))),
    ('cut -d: -f1 a', ('cut', 'cut[1,:,d,f]', (1,))),
    ('cut -d, -f2 x.csv', ('cut', 'cut[,,2,d,f]', (1,))),
    ('xargs -I % cp % /tmp', ('xargs', 'xargs[I] | cp[]', (1, 2))),
    ('find . -exec rm -- -x {} \\;', ('find', 'find[exec] | rm[]', (1, 3))),
    ('find . -exec rm -- {} +', ('find', 'find[exec] | rm[]', (1, 2))),
    ('sudo -- ls -la', ('sudo', 'sudo[] | ls[a,l]', (1, 0))),
    ('ls -- --', ('ls', 'ls[]', (2,))),
    ('rm -f -- -x > out', ('rm', 'rm[f]', (3,))),
    ('ls\nrm -rf /tmp/x', BashSyntaxError('newline-separated command sequences are not supported')),
    ('sudo\nls', BashSyntaxError('newline-separated command sequences are not supported')),
    ('ls \\\n-la', BashSyntaxError('line continuations are not supported')),
    ('ls &>\nls', BashSyntaxError("redirect '&>' is missing its target")),
    ('ls >\nf', BashSyntaxError("redirect '>' is missing its target")),
    ('sort <\nf', BashSyntaxError("redirect '<' is missing its target")),
    ('echo 2>\nx', BashSyntaxError("redirect '2>' is missing its target")),
    ('ls\n| wc', BashSyntaxError('newline-separated command sequences are not supported')),
    ('echo ${ls ', BashSyntaxError("unterminated '${'")),
    ('ls\r', UnknownUtilityError('ls\r')),
    ('ls \r', ('ls', 'ls[]', (1,))),
    ('echo ${HOME}/x', ('echo', 'echo[]', (1,))),
    ('echo $(ls\nrm)', BashSyntaxError('newline-separated command sequences are not supported')),
    ('echo `ls\nrm`', BashSyntaxError('newline-separated command sequences are not supported')),
    ('find . -exec rm {}\n-print', BashSyntaxError('newline-separated command sequences are not supported')),
    ('\n\nls |\n\n wc\n\n', ('ls | wc', 'ls[] | wc[]', (0, 0))),
    ('ls |\nwc', ('ls | wc', 'ls[] | wc[]', (0, 0))),
    ('echo $(\nls\n)', ('echo', 'echo[] | ls[]', (0, 0))),
    ('echo `\nls\n`', ('echo', 'echo[] | ls[]', (0, 0))),
    ('ls -l\\\n', BashSyntaxError('line continuations are not supported')),
    ('echo "a\\\nb"', ('echo', 'echo[]', (1,))),
    ("echo 'a\nb'", ('echo', 'echo[]', (1,))),
    ('find . -exec ls {} +', ('find', 'find[exec] | ls[]', (1, 1))),
    ('find . -exec -print', ('find', 'find[exec,print]', (1,))),
    ('ls > -la', ('ls', 'ls[]', (1,))),
    ('sudo > ls wc', ('sudo', 'sudo[] | wc[]', (1, 0))),
    ('sudo 2>&1 ls', ('sudo', 'sudo[] | ls[]', (1, 0))),
    ('sudo > out ls', ('sudo', 'sudo[] | ls[]', (1, 0))),
    ('find . -name x -exec cat {} \\; -delete', ('find', 'find[delete,exec,name] | cat[]', (2, 1))),
    ('find . -empty -exec rm {}', ('find', 'find[empty,exec] | rm[]', (1, 1))),
    ('find . -exec', ('find', 'find[exec]', (1,))),
    ('ls $(pwd)', ('ls', 'ls[] | pwd[]', (0, 0))),
    ('sudo', ('sudo', 'sudo[]', (0,))),
    ('find . -exec echo $(ls +) \\;', ('find', 'find[exec] | echo[] | ls[]', (1, 0, 1))),
    ('find . -exec echo `ls +` +', ('find', 'find[exec] | echo[] | ls[]', (1, 1, 1))),
    ('echo $(ls /tmp | wc -l)', ('echo', 'echo[] | ls[] | wc[l]', (0, 1, 0))),
    ('echo prefix$(date)suffix', ('echo', 'echo[] | date[]', (1, 0))),
    ('ls &> out.txt', ('ls', 'ls[]', (1,))),
    ('ls &>> out.txt', ('ls', 'ls[]', (1,))),
    ('ls >&- x', ('ls', 'ls[]', (2,))),
    ('ls 10<&0 x', ('ls', 'ls[]', (2,))),
    ('ls 2>>err.txt', ('ls', 'ls[]', (1,))),
    ('echo ²>x', ('echo', 'echo[]', (2,))),
    ('sudo time find /tmp -name core', ('sudo', 'sudo[] | time[] | find[name]', (0, 0, 2))),
    ("find . -name '*.o' | xargs -I {} cp {} /tmp", ('find | xargs', 'find[name] | xargs[I] | cp[]', (2, 1, 2))),
    ('ls --color=auto', ('ls', 'ls[color]', (1,))),
    ('ls --=v', ('ls', 'ls[]', (1,))),
    ('find / -EXdsx -name linux', ('find', 'find[E,X,d,name,s,x]', (2,))),
    ('grep -ok x f', ('grep', 'grep[k,o]', (2,))),
    ('ls "$(frobnicate)"', UnknownUtilityError('frobnicate')),
    ('echo x=$(ls)', ('echo', 'echo[] | ls[]', (1, 0))),
    ('echo a`ls`b', ('echo', 'echo[] | ls[]', (1, 0))),
    ('tail -n 1', ('tail', 'tail[n]', (1,))),
    ('echo "$("', BashSyntaxError('unbalanced double quote')),
    ('echo "${"', BashSyntaxError('unbalanced double quote')),
    ('echo "`"', BashSyntaxError('unbalanced double quote')),
    ('echo $(ls #)', BashSyntaxError('unterminated command substitution')),
    ('ls #x', ('ls', 'ls[]', (0,))),
    ('ls -la # list files', ('ls', 'ls[a,l]', (0,))),
    ('ls # x | wc', ('ls', 'ls[]', (0,))),
    ('echo >#x', BashSyntaxError("redirect '>' is missing its target")),
    ("ls #'\n'", BashSyntaxError('unbalanced single quote')),
    ('x=$(ls)#y', UnknownUtilityError('x=')),
    ('echo `ls`#x', ('echo', 'echo[] | ls[]', (0, 0))),
    ('echo $(ls # c\n)', ('echo', 'echo[] | ls[]', (0, 0))),
    ('ls |# a\n# b\nwc', ('ls | wc', 'ls[] | wc[]', (0, 0))),
    ('echo `ls #`x', ('echo', 'echo[] | ls[]', (0, 0))),
    ('echo "$(ls #)"', BashSyntaxError('unterminated command substitution')),
    ('echo "$(ls a#b)"', ('echo', 'echo[] | ls[]', (1, 1))),
    ('echo $(ls)#x', ('echo', 'echo[] | ls[]', (0, 0))),
    ('echo "$(ls)"', ('echo', 'echo[] | ls[]', (1, 0))),
    ('echo "`date`"', ('echo', 'echo[] | date[]', (1, 0))),
    ('echo "${a}b"', ('echo', 'echo[]', (1,))),
    ("echo $'a\\'b'", ('echo', 'echo[]', (1,))),
    ("echo $'\\'' '", BashSyntaxError('unbalanced single quote')),
    ("echo $'x", BashSyntaxError('unbalanced single quote')),
    ('echo "$\'"', ('echo', 'echo[]', (1,))),
    ('echo ${a b}', ('echo', 'echo[]', (1,))),
    ('echo ${a$(ls)}', ('echo', 'echo[] | ls[]', (1, 0))),
    ('echo ${a <(}', BashSyntaxError('process substitution is not supported')),
    ('echo ${a:-$b}', ('echo', 'echo[]', (1,))),
    ('echo ${x:-"d"}', ('echo', 'echo[]', (1,))),
    ('echo ${x:-"}"}', ('echo', 'echo[]', (1,))),
    ('echo ${x:-"}', BashSyntaxError('unbalanced double quote')),
    ('cd "$(dirname "$0")"', ('cd', 'cd[] | dirname[]', (1, 1))),
    ('echo "$(basename $f)"', ('echo', 'echo[] | basename[]', (1, 1))),
    ('mkdir "$(date +"%F")"', ('mkdir', 'mkdir[] | date[]', (1, 1))),
    ("echo \"$(awk '{print $1}' f)\"", ('echo', 'echo[] | awk[]', (1, 2))),
    ('echo "a`b"c`d"', BashSyntaxError('unbalanced double quote')),
    ('echo "$(echo "$(ls)")"', ('echo', 'echo[] | echo[] | ls[]', (1, 1, 0))),
    ('echo $[1]', BashSyntaxError('arithmetic expansion is not supported')),
    ('ls >>&1', BashSyntaxError("background '&' is not supported")),
    ('find -- . -name x', ('find', 'find[name]', (3,))),
    ('find -- . -exec ls {} \\;', ('find', 'find[exec] | ls[]', (2, 1))),
    ('echo a#b', ('echo', 'echo[]', (1,))),
    ('ls\r\n', UnknownUtilityError('ls\r')),
    ('ls \x00', ('ls', 'ls[]', (1,))),
    ('echo \ud800', ('echo', 'echo[]', (1,))),
    ('time | wc', BashSyntaxError("'time' has no command before '|'")),
    ('time -p | wc', BashSyntaxError("'time' has no command before '|'")),
    ('time -- | wc', BashSyntaxError("'time' has no command before '|'")),
    ('time -p -- | wc', BashSyntaxError("'time' has no command before '|'")),
    ('time time | wc', BashSyntaxError("'time' has no command before '|'")),
    ('time', ('time', 'time[]', (0,))),
    ('time -p', ('time', 'time[p]', (0,))),
    ('time x | wc', ('time | wc', 'time[] | wc[]', (1, 0))),
    ('time -x | wc', ('time | wc', 'time[x] | wc[]', (0, 0))),
    ('time 2>x | wc', ('time | wc', 'time[] | wc[]', (1, 0))),
    ('time -p -p | wc', ('time | wc', 'time[p] | wc[]', (0, 0))),
    ('ls | time | wc', ('ls | time | wc', 'ls[] | time[] | wc[]', (0, 0, 0))),
    ('sudo time | wc', ('sudo | wc', 'sudo[] | time[] | wc[]', (0, 0, 0))),
    ('echo $(time | wc)', ('echo', 'echo[] | time[] | wc[]', (0, 0, 0))),
    ('/usr/bin/time | wc', ('time | wc', 'time[] | wc[]', (0, 0))),
    ('time }', BashSyntaxError("'time' has no command before '}'")),
    # After its keywords, Bash reads '!' as negation, which parse refuses as it
    # refuses '! ls'. After a '$(' and a newline, 'time' is Bash's keyword
    # too, and a ')' on its line times nothing.
    ('time ! ls', BashSyntaxError("shell control flow ('!') is not supported")),
    ('time -p ! ls', BashSyntaxError("shell control flow ('!') is not supported")),
    ('ls $(\ntime)', BashSyntaxError("'time' has no command before ')'")),
    ('ls $(\ntime -p)', BashSyntaxError("'time' has no command before ')'")),
    ('ls $(\ntime -- )', BashSyntaxError("'time' has no command before ')'")),
    ('ls $(\ntime | wc)', BashSyntaxError("'time' has no command before '|'")),
    ('echo "$(\ntime)"', BashSyntaxError("'time' has no command before ')'")),
    ('ls $( # c\n time)', BashSyntaxError("'time' has no command before ')'")),
    ('ls $(\ntime ls)', ('ls', 'ls[] | time[] | ls[]', (0, 0, 0))),
    ('ls $(\ntime\n)', ('ls', 'ls[] | time[]', (0, 0))),
    ('ls $(\ntime -p # c\n)', ('ls', 'ls[] | time[p]', (0, 0))),
    ('echo $(time)', ('echo', 'echo[] | time[]', (0, 0))),
    ("echo ${x:-$'a\\'b'}", ('echo', 'echo[]', (1,))),
    ("echo \"$(echo $'\\'')\"", ('echo', 'echo[] | echo[]', (1, 1))),
    ('echo $$ $${x}', ('echo', 'echo[]', (2,))),
    ('echo "$$(ls)"', ('echo', 'echo[]', (1,))),
    ('echo $$(ls)', BashSyntaxError('subshells are not supported')),
    ('echo $$$(ls)', ('echo', 'echo[] | ls[]', (1, 0))),
    ('echo \\;', ('echo', 'echo[]', (1,))),
    ('xargs sh -c x \\;', ('xargs', 'xargs[] | sh[c]', (0, 2))),
    ("find . -exec rm {} ';' -print", ('find', 'find[exec,print] | rm[]', (1, 1))),
    ('find . -exec rm {} \\+ -print', ('find', 'find[exec,print] | rm[]', (1, 1))),
    ("find . -exec rm '{}' + -print", ('find', 'find[exec,print] | rm[]', (1, 1))),
    ('find . -exec echo + {} \\;', ('find', 'find[exec] | echo[]', (1, 2))),
    ('find . -exec sudo rm {} +', ('find', 'find[exec] | sudo[] | rm[]', (1, 0, 1))),
    ('find . -exec rm {} ;', BashSyntaxError("';' command sequences are not supported")),
    ('find . -exec \\; -print', BashSyntaxError("'-exec' has no command before '\\\\;'")),
    ("find . -exec ';'", BashSyntaxError("'-exec' has no command before \"';'\"")),
    ('find . -exec {} +', UnknownUtilityError('{}')),
    # find ends the outer payload at the first end word, so an inner -exec opens none
    ('find . -exec find . -exec ls {} + +', ('find', 'find[exec] | find[exec]', (2, 3))),
    ('find . -exec find . -exec ls {} \\; \\;', ('find', 'find[exec] | find[exec]', (2, 3))),
    ("echo `ls 'a b'`", ('echo', 'echo[] | ls[]', (0, 1))),
    ("echo `ls '`' `", BashSyntaxError('unbalanced single quote')),
    ('echo `echo "`ls`"`', BashSyntaxError('unbalanced double quote')),
    ("echo `ls '\\`'`", ('echo', 'echo[] | ls[]', (0, 1))),
    # A substitution inside "..." is a command, as outside. A word that
    # substitutions split is erased once, by its piece before the first, and
    # a piece glued behind one is never a flag or a wrapper's target.
    ('cd "$(dirname x)"', ('cd', 'cd[] | dirname[]', (1, 1))),
    ('kill "$( jobs -p )"', ('kill', 'kill[] | jobs[p]', (1, 0))),
    ('echo x=$(ls)y', ('echo', 'echo[] | ls[]', (1, 0))),
    ('echo $(ls)y', ('echo', 'echo[] | ls[]', (0, 0))),
    ('echo $(ls)-la', ('echo', 'echo[] | ls[]', (0, 0))),
    ('sudo $(ls)rm', ('sudo', 'sudo[] | ls[]', (0, 0))),
    ('echo "a$(pwd)$(ls)b"c "$(date)"\'q\'', ('echo', 'echo[] | pwd[] | ls[] | date[]', (2, 0, 0, 0))),
    ('ls > "$(pwd)"', ('ls', 'ls[] | pwd[]', (1, 0))),
    ('find . -exec "$(ls)" \\;', ('find', 'find[exec] | ls[]', (3, 0))),
    ('find . -exec $(ls) \\;', ('find', 'find[exec] | ls[]', (2, 0))),
    ('echo "$(ls)', BashSyntaxError('unbalanced double quote')),
    ('echo "$(ls', BashSyntaxError('unterminated command substitution')),
    ('echo "$(ls)$[1]"', BashSyntaxError('arithmetic expansion is not supported')),
    ('echo "$((1))"', BashSyntaxError('arithmetic expansion is not supported')),
    ('echo "$(;)"', BashSyntaxError('empty pipeline stage')),
    ('echo "$(>>)"', BashSyntaxError('empty pipeline stage')),
    ('time "$(!)"', BashSyntaxError("shell control flow ('!') is not supported")),
    ('"$(ls)"', UnknownUtilityError('"')),
    # A quoted or escaped command word names the utility that quote removal
    # leaves; it is never a reserved word or the 'time' keyword.
    ('\\rm -rf x', ('rm', 'rm[f,r]', (1,))),
    ("'rm' -rf x", ('rm', 'rm[f,r]', (1,))),
    ('"ls" -la', ('ls', 'ls[a,l]', (0,))),
    ('sudo \\rm x', ('sudo', 'sudo[] | rm[]', (0, 1))),
    ("find . -exec 'rm' {} +", ('find', 'find[exec] | rm[]', (1, 1))),
    ('"/bin/rm" x', ('rm', 'rm[]', (1,))),
    ('l"s" -l', ('ls', 'ls[l]', (0,))),
    ('"time" -p | wc', ('time | wc', 'time[p] | wc[]', (0, 0))),
    ('"if" x', UnknownUtilityError('"if"')),
    ('"l\\s"', UnknownUtilityError('"l\\s"')),
    ('"ls$(pwd)"', UnknownUtilityError('"ls')),
    ('"ls"$(pwd)', BashSyntaxError('command name \'"ls"\' is glued to a substitution')),
    ('! ls', BashSyntaxError("shell control flow ('!') is not supported")),
    ('[[ -f x ]]', BashSyntaxError("shell control flow ('[[') is not supported")),
    # A substitution inside ${...} is a command too, and a ${...} nests.
    ('echo ${a:-$(pwd)}', ('echo', 'echo[] | pwd[]', (1, 0))),
    ('cd "${1:-$(pwd)}"', ('cd', 'cd[] | pwd[]', (1, 0))),
    ('echo ${a:-${b:-c}}', ('echo', 'echo[]', (1,))),
    ('echo "${a:-"}"}"', ('echo', 'echo[]', (1,))),
    ('echo ${a:-`pwd`}', ('echo', 'echo[] | pwd[]', (1, 0))),
    ('echo ${a//x/$(ls)}', ('echo', 'echo[] | ls[]', (1, 0))),
    ('echo ${a:-"$(ls)"}', ('echo', 'echo[] | ls[]', (1, 0))),
    ('echo ${a:-$(echo })}', ('echo', 'echo[] | echo[]', (1, 1))),
    ('echo ${a:-$(ls)', BashSyntaxError("unterminated '${'")),
    ("echo ${a:-$(ls)'}", BashSyntaxError('unbalanced single quote')),
    ('echo "${a:-$(ls)}', BashSyntaxError('unbalanced double quote')),
    ('echo ${a:-$[1]}', BashSyntaxError('arithmetic expansion is not supported')),
    # Inside a backtick substitution, Bash ends it at the first backtick, also
    # one inside a ${...} or a $( ), and a comment runs to that backtick; what
    # the body leaves open there is unclosed, as at the end of a text.
    ('echo `echo ${a:-`ls`}`', BashSyntaxError("unterminated '${'")),
    ('echo `echo $(echo `ls`)`', BashSyntaxError('unterminated command substitution')),
    ('echo `echo $(ls #x)`ls`)`', BashSyntaxError('unterminated command substitution')),
    ('echo `echo "$(ls)"\'`\'`', BashSyntaxError('unbalanced single quote')),
    ("echo `echo ${a:-$(ls)'`'}`", BashSyntaxError('unbalanced single quote')),
    ('echo `echo a #x`', ('echo', 'echo[] | echo[]', (0, 1))),
    ('echo "[`echo d #)`]"', ('echo', 'echo[] | echo[]', (1, 1))),
    ('echo `echo a #x\\`y`', ('echo', 'echo[] | echo[]', (0, 1))),
    ('echo `echo $(echo a #x\n)`', ('echo', 'echo[] | echo[] | echo[]', (0, 0, 1))),
    ('echo `ls #`\n`', BashSyntaxError('unterminated command substitution')),
    # find receives no redirect, so a '+' ends a payload only right after a
    # '{}' that find receives.
    ('find . -execdir echo a< {} + -print', ('find', 'find[execdir] | echo[i,n,p,r,t]', (1, 3))),
    ('find /tmp -name x -exec sudo ls {} 3<&0 + -exec ls {} +', ('find', 'find[exec,name] | sudo[] | ls[] | ls[]', (2, 0, 2, 1))),
    # Every redirect operator, '>&' and '<&' too, takes the next word as its
    # target, one erased word: a substitution may open it, and digits right
    # after an '&' are that target, so a '#' glued to them is word text.
    ('ls > $(date +%F).log', ('ls', 'ls[] | date[]', (1, 1))),
    ('ls > `date`.log', ('ls', 'ls[] | date[]', (1, 0))),
    ('ls >&out.txt', ('ls', 'ls[]', (1,))),
    ('echo >&3<&0 x', ('echo', 'echo[]', (3,))),
    ('ls 2>&1#ls -x', ('ls', 'ls[x]', (1,))),
    ('ls 2>&1-x', ('ls', 'ls[]', (1,))),
    ('ls 2>&x', ('ls', 'ls[]', (1,))),
    ('ls >&>x', BashSyntaxError("redirect '>&' is missing its target")),
    # After '>&' or '<&' and any blanks, Bash reads digits before a '<' or '>'
    # as the target, and a '-' as a whole word, so what is glued to it is a
    # word of its own, and a '#' there opens a comment.
    ('echo >& 3>f', ('echo', 'echo[]', (2,))),
    ('ls >&--exec', ('ls', 'ls[c,e,x]', (1,))),
    ('ls >& -x', ('ls', 'ls[]', (2,))),
    ('ls 2>&-1', ('ls', 'ls[]', (2,))),
    ('ls >&-#x', ('ls', 'ls[]', (1,))),
    # After the 'time' keyword, a reserved word that opens a compound command
    # is refused as at a command's start; one that closes or continues one
    # times nothing.
    ('time if true; then ls; fi', BashSyntaxError("shell control flow ('if') is not supported")),
    ('time { ls; }', BashSyntaxError("shell control flow ('{') is not supported")),
    ('time [[ -f x ]]', BashSyntaxError("shell control flow ('[[') is not supported")),
    ('time while true; do ls; done', BashSyntaxError("shell control flow ('while') is not supported")),
    ('time fi', BashSyntaxError("'time' has no command before 'fi'")),
    ('time do', BashSyntaxError("'time' has no command before 'do'")),
    # '>|' and '<>' are operators, and an empty substitution runs no command.
    ('ls >| f', ('ls', 'ls[]', (1,))),
    ('ls 2>|f', ('ls', 'ls[]', (1,))),
    ('ls <> f', ('ls', 'ls[]', (1,))),
    ('cat 3<>f', ('cat', 'cat[]', (1,))),
    ('ls >|', BashSyntaxError("redirect '>|' is missing its target")),
    ('ls >|| wc', BashSyntaxError("redirect '>|' is missing its target")),
    ('ls <>>f', BashSyntaxError("redirect '<>' is missing its target")),
    ('ls <>&1', BashSyntaxError("background '&' is not supported")),
    ('echo ``', ('echo', 'echo[]', (0,))),
    ('echo $( )', ('echo', 'echo[]', (0,))),
    ('echo a$()b', ('echo', 'echo[]', (1,))),
    ('ls > $()', ('ls', 'ls[]', (1,))),
    ('echo $(ls $())', ('echo', 'echo[] | ls[]', (0, 0))),
]


def _outcome(text):
    try:
        ast = parse(text, VOCAB)
    except NlbashError as exc:
        return type(exc), str(exc)
    pipeline = " | ".join(s.utility for s in ast.stages)
    return pipeline, str(normalize_template(ast)), tuple(c.erased_args for c in ast.walk())


@pytest.mark.parametrize("text, expected", GOLDEN, ids=[repr(text) for text, _ in GOLDEN])
def test_golden_parse(text, expected):
    if isinstance(expected, NlbashError):
        expected = type(expected), str(expected)
    assert _outcome(text) == expected


# The same-output gate for parser work: a SHA-256 over the outcome above
# of every distinct text of two generated corpora. A change meant to read
# some of them otherwise updates the pin, and CHANGES.md names the change.
OUTCOMES_SHA256 = "637f9819d3a1e79d40b4af08e597a1be9adadc70ae772634d681a3c07c5d37fe"


def test_parse_outcomes_of_the_generated_corpora_match_the_pin():
    texts = set(command_corpus(5000, seed=0))
    texts.update(ref for ex in toy_corpus(2000, seed=0) for ref in ex.references)
    digest = hashlib.sha256()
    for text in sorted(texts):
        digest.update(repr((text, _outcome(text))).encode("utf-8", "surrogatepass"))
    assert digest.hexdigest() == OUTCOMES_SHA256


# Texts that `bash -n` refuses and that a looser reading of lines, '${',
# "..." or redirects would accept: a redirect whose target is on the next
# line, a newline before '|', a '${' that no '}' closes, that holds a
# substitution Bash reads on past its '}' or a string it leaves open, or
# that a process substitution interrupts, a substitution inside "..." that
# Bash reads on past the closing quote, a comment that hides a ')', a
# quote or a redirect target, a comment that a backtick ends before the
# line does, a quoted backtick that ends the backtick substitution around
# it, '>>&', '$[', a '$'...'' whose escaped quote leaves it open, a '$$'
# read as '$' and '${', a 'time' keyword that times no command (leading the
# text, or a '$( )' after a newline), a substitution inside "..." that
# names no command, a '#' glued to a duplication's target (word text, so
# no comment hides the '$(' after it), and a redirect whose next word is
# another redirect.
BASH_PINNED = [
    "ls &>\nls", "ls >\nf", "sort <\nf", "echo 2>\nx", "ls\n| wc", "echo ${ls ",
    "echo ${a <(}", "echo ${`}` ", "echo ${$(ls }", 'echo ${"}" "}',
    'echo "$("', 'echo "${"', 'echo "`"', 'echo `ls "`"`', 'echo "$(ls \')"',
    "echo $(ls #)", 'echo "$(ls #)"', "echo >#x", "ls #'\n'", "echo `ls #`\n`",
    "ls >>&-", "echo $[", "echo $'\\'' '", "echo ${x:-$'\\'}''", "echo \"${x:-$'\\'}\"",
    "time | wc", "time -p -- | wc", "time time | wc", "time }", "time $${\n;ls #}",
    "echo `ls '`' `", 'echo "$(;)"', 'echo "$(>>)"', 'time "$(!)"', 'echo ${x:-"}',
    'echo `echo "$(ls)"\'`\'`', "echo `echo ${a:-$(ls)'`'}`",
    "ls $(\ntime)", "ls $(\ntime -p)", "ls $(\ntime -- )", "ls $(\ntime | wc)", 'echo "$(\ntime)"',
    "ls $( # c\n time)", "ls 2>&1#$(", "echo > 3>f", "time fi", "time do",
]
_BASH = shutil.which("bash")
# No BASH_ENV: a non-interactive Bash would read that file first.
_BASH_ENV = {k: v for k, v in os.environ.items() if k != "BASH_ENV"}
needs_bash = pytest.mark.skipif(_BASH is None, reason="no bash on PATH to check the parser against")


def _assert_bash_reads_what_parse_accepts(text):
    """Bash only reads the text (-n), from stdin so that NULs and lone surrogates reach it too."""
    try:
        parse(text, VOCAB)
    except NlbashError:
        return
    done = subprocess.run(
        [_BASH, "--norc", "--noprofile", "-n"],
        input=text.encode("utf-8", "surrogatepass"),
        env=_BASH_ENV,
        capture_output=True,
    )
    assert done.returncode == 0, (text, done.stderr)


@needs_bash
@pytest.mark.parametrize(
    "text", BASH_PINNED + [t for t, out in GOLDEN if not isinstance(out, NlbashError)], ids=repr
)
def test_bash_reads_every_pinned_or_golden_text_parse_accepts(text):
    _assert_bash_reads_what_parse_accepts(text)


@needs_bash
@pytest.mark.parametrize(
    "word, find_reads",
    [(w, ";") for w in sorted(_SEMIS)] + [(w, "+") for w in sorted(_PLUSES)]
    + [(w, "{}") for w in sorted(_BRACES)],
)
def test_bash_hands_find_what_each_exec_end_spelling_stands_for(word, find_reads):
    done = subprocess.run(
        [_BASH, "--norc", "--noprofile", "-c", f'printf "%s\\n" {word}'],
        env=_BASH_ENV,
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stdout) == (0, find_reads + "\n"), (word, done.stderr)


# `bash -n` does not parse a backtick substitution's body, so these run
# Bash on texts of builtins only: a comment in one ends at its closing
# backtick, and a backtick inside a ${...} or $( ) in one ends it, so that
# Bash fails where parse refuses.
@needs_bash
@pytest.mark.parametrize(
    "text, prints",
    [
        ("echo `echo a #x`", "a\n"),
        ('echo "[`echo d #)`]"', "[d]\n"),
        ("echo `echo a #x\\`y`", "a\n"),
        ("echo `echo $(echo a #x\n)`", "a\n"),
        ("echo `echo ${a:-`echo x`}`", None),
        ("echo `echo $(echo `echo x`)`", None),
        ("echo `echo $(echo a #x)`echo`)`", None),
    ],
)
def test_bash_runs_backtick_texts_of_builtins_as_parse_reads_them(text, prints, bash_home):
    done = subprocess.run(
        [_BASH, "--norc", "--noprofile", "-c", text],
        env={"PATH": str(bash_home / "nowhere")}, cwd=bash_home, capture_output=True, text=True,
    )
    if prints is None:
        assert done.stderr, (text, done.stdout)
        with pytest.raises(BashSyntaxError):
            parse(text, VOCAB)
    else:
        assert (done.stdout, done.stderr) == (prints, ""), text
        parse(text, VOCAB)


@needs_bash
@settings(max_examples=300, deadline=None)
@given(shell_text)
def test_bash_reads_every_generated_text_parse_accepts(text):
    _assert_bash_reads_what_parse_accepts(text)


def _bash_prints_otherwise(ast):
    """Whether Bash may print the text back with another template: it drops a
    NUL as it reads, prints the 'time' keyword's '--' as '-p', and prints
    every redirect after the words of its command. A moved redirect target
    runs its substitutions after theirs. Counted loosely: a word that starts
    apart from the token before it, after a redirect and its target in the
    same pipeline stage."""
    texts = [tok.text for tok in ast.tokens]
    if "\0" in ast.raw or any(t == "time" and "--" in texts[i + 1 : i + 3] for i, t in enumerate(texts)):
        return True
    redirected = [False]  # per open substitution: a redirect in its current stage
    end, target_next = None, False
    for tok in ast.tokens:
        kind = tok.kind
        if kind in (TokenKind.WORD, TokenKind.SUBST_OPEN) and tok.start != end and redirected[-1] and not target_next:
            return True
        target_next = kind is TokenKind.REDIRECT
        if kind is TokenKind.REDIRECT:
            redirected[-1] = True
        elif kind is TokenKind.PIPE:
            redirected[-1] = False
        elif kind is TokenKind.SUBST_OPEN:
            redirected.append(False)
        elif kind is TokenKind.SUBST_CLOSE:
            redirected.pop()
        end = tok.end
    return False


@pytest.fixture(scope="module")
def bash_home(tmp_path_factory):
    return tmp_path_factory.mktemp("bash_home")


def _assert_bash_reprints_the_template(text, home):
    """Wrap an accepted text as ``f() {⏎text⏎}``, let Bash define f and print
    it back with ``declare -f f``, and parse the body. Bash runs with only a
    PATH that points nowhere, in a directory of its own, and only once
    ``bash -n`` has accepted the wrapper: parse accepts no ';', '&' or
    newline in command position, so it is one definition, which runs
    nothing."""
    try:
        ast = parse(text, VOCAB)
    except NlbashError:
        return
    if _bash_prints_otherwise(ast):
        return
    wrapper = f"f() {{\n{text}\n}}\n".encode("utf-8", "surrogatepass")
    env = {"PATH": str(home / "nowhere")}
    checked = subprocess.run([_BASH, "--norc", "--noprofile", "-n"], input=wrapper, env=env, cwd=home, capture_output=True)
    assert checked.returncode == 0, (text, checked.stderr)
    done = subprocess.run(
        [_BASH, "--norc", "--noprofile"], input=wrapper + b"declare -f f\n", env=env, cwd=home, capture_output=True
    )
    printed = done.stdout.decode("utf-8", "surrogatepass")
    body = printed[printed.index("{ \n") + 3 : printed.rindex("}")]
    assert normalize_template(parse(body, VOCAB)) == normalize_template(ast), (text, body)


@needs_bash
@pytest.mark.parametrize("text", [t for t, out in GOLDEN if not isinstance(out, NlbashError)], ids=repr)
def test_bash_reprints_every_golden_text_parse_accepts_with_its_template(text, bash_home):
    _assert_bash_reprints_the_template(text, bash_home)


@needs_bash
@settings(max_examples=300, deadline=None)
@given(shell_text)
def test_bash_reprints_every_generated_text_parse_accepts_with_its_template(bash_home, text):
    _assert_bash_reprints_the_template(text, bash_home)


@pytest.mark.parametrize(
    "text, otherwise",
    [
        ("ls > f", False), ("ls > f | wc x", False), ('ls > "$(pwd)"', False), ("ls 2>&1", False),
        ("ls > f x", True), ("ls 2>&1 x", True), ("echo > f $(ls)", True), ("echo $(ls > f x)", True),
        ("time -- ls", True), ("time -p -- ls", True), ("ls \0", True),
    ],
)
def test_the_reprint_oracle_leaves_out_what_bash_prints_otherwise(text, otherwise):
    assert _bash_prints_otherwise(parse(text, VOCAB)) is otherwise


@settings(max_examples=400, deadline=None)
@given(shell_text)
def test_token_spans_tile_the_text_with_blanks_or_comments_between(text):
    try:
        tokens = tokenize(text)
    except NlbashError:
        return
    pos = 0
    for tok in tokens:
        assert pos <= tok.start < tok.end and text[tok.start : tok.end] == tok.text
        assert _GAP.fullmatch(text, pos, tok.start), (text, tok)
        pos = tok.end
    assert _GAP.fullmatch(text, pos), text


class _Stuck(Exception):
    pass


def _stop_the_lexer(signum, frame):
    """Raise in a frame of the parser module only: an exception raised in a
    callback that the lexer's allocations ran (a gc callback) is swallowed,
    so the timer fires again instead."""
    if frame is not None and frame.f_globals.get("__name__") == parser.__name__:
        signal.setitimer(signal.ITIMER_REAL, 0)
        raise _Stuck


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="no interval timer to bound the call")
@settings(max_examples=400, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(shell_text)
def test_the_lexer_ends_on_every_generated_text(text):
    """A lexer loop that stops advancing fails here, with its text, instead
    of hanging the run: an alarm is armed around the call only. No shrinking,
    which would spend the alarm's second on every smaller text that hangs."""
    previous = signal.signal(signal.SIGALRM, _stop_the_lexer)
    signal.setitimer(signal.ITIMER_REAL, 1.0, 0.01)  # then every 10 ms, until it stops the lexer
    try:
        tokenize(text)
    except NlbashError:
        pass
    except _Stuck:
        pytest.fail(f"tokenize ran for over 1 s on {text!r}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _tokens_or_error(text):
    try:
        return tokenize(text)
    except NlbashError as exc:
        return type(exc), str(exc)


def _assert_the_plain_word_path_reads_as_the_general_path(text):
    with mock.patch.object(parser, "_PLAIN", re.compile(r"(?!)")):  # never matches
        general = _tokens_or_error(text)
    assert _tokens_or_error(text) == general, text


# Words at the plain-word pattern's edges: glued to each character that
# ends it or that it leaves to the general path, with a '#' inside, or led
# by a digit.
PLAIN_EDGES = [
    "ls a;", "ls a&", "ls a<b", "ls a>b", "ls a(", "ls a)", "echo $(ls a)", "echo `ls a`",
    "ls a'b'", 'ls a"b"', "ls a$", "ls a$b", "ls a\\ b", "ls a#b", "ls #a", "ls 2x", "ls 2>f",
    "ls 22 x", "ls a|wc", "ls a\tb\n", " \t ls  a ", "ls a\rb", "ls \xa0a",
]


@pytest.mark.parametrize(
    "text", PLAIN_EDGES + BASH_PINNED + [text for text, _ in GOLDEN], ids=repr
)
def test_the_plain_word_path_reads_every_edge_pinned_or_golden_text_as_the_general_path(text):
    _assert_the_plain_word_path_reads_as_the_general_path(text)


@settings(max_examples=400, deadline=None)
@given(shell_text)
def test_the_plain_word_path_reads_every_generated_text_as_the_general_path(text):
    _assert_the_plain_word_path_reads_as_the_general_path(text)


@settings(max_examples=400, deadline=None)
@given(shell_text)
def test_every_template_flag_comes_from_a_dash_led_word(text):
    try:
        ast = parse(text, VOCAB)
    except NlbashError:
        return
    sources = set()  # --name=v gives name; -word gives the whole word or one of its characters
    for tok in ast.tokens:
        if tok.kind is TokenKind.WORD and tok.text.startswith("--"):
            sources.add(tok.text[2:].partition("=")[0])
        elif tok.kind is TokenKind.WORD and tok.text.startswith("-"):
            sources.update([tok.text[1:], *tok.text[1:]])
    for cmd in ast.walk():
        assert cmd.flags <= sources, (text, cmd)


# Rewrites that Bash reads as the same command, each built from the token
# spans of a parse: a template must not depend on how the words are spelled.
# A plain argument word holds only characters that Bash gives no meaning,
# is not led by a dash and names no utility (so it is no command word).
_PLAIN_ARGUMENT = re.compile(r"[A-Za-z0-9_./:=,@%+-]+")
_FLAG_BUNDLE = re.compile(r"-[A-Za-z]{2,}")


def _quote_a_plain_argument(ast):
    """One text per plain argument word, that word single-quoted."""
    text = ast.raw
    for tok in ast.tokens:
        if (tok.kind is TokenKind.WORD and _PLAIN_ARGUMENT.fullmatch(tok.text)
                and not tok.text.startswith("-") and VOCAB.lookup(tok.text) is None):
            yield f"{text[:tok.start]}'{tok.text}'{text[tok.end:]}"


def _split_a_flag_bundle(ast):
    """One text per single-dash bundle of letters, split one flag a word
    (``-la`` -> ``-l -a``), when no utility of the command has unsplittable
    flags. A redirect target is left alone: split, all its letters but the
    first would become words of the command."""
    if any(VOCAB.flags[cmd.utility] for cmd in ast.walk()):
        return
    text, tokens = ast.raw, ast.tokens
    for i, tok in enumerate(tokens):
        if (tok.kind is TokenKind.WORD and _FLAG_BUNDLE.fullmatch(tok.text)
                and not (i and tokens[i - 1].kind is TokenKind.REDIRECT)):
            yield text[:tok.start] + " ".join(f"-{c}" for c in tok.text[1:]) + text[tok.end:]


def _quote_a_substitution_word(ast):
    """One text per word that is one whole ``$( )`` substitution, that word
    double-quoted."""
    text, tokens = ast.raw, ast.tokens
    opens = []
    for i, tok in enumerate(tokens):
        if tok.kind is TokenKind.SUBST_OPEN:
            opens.append(i)
        elif tok.kind is TokenKind.SUBST_CLOSE:
            j = opens.pop()
            first = tokens[j]
            glued_before = j > 0 and tokens[j - 1].end == first.start
            glued_after = i + 1 < len(tokens) and tokens[i + 1].start == tok.end
            if first.text == "$(" and not glued_before and not glued_after:
                yield f'{text[:first.start]}"{text[first.start:tok.end]}"{text[tok.end:]}'


def _quote_a_command_word(ast):
    """Three texts per plain word that names a utility, that word
    single-quoted, double-quoted or led by a backslash. Bash removes the
    quotes before it runs a command word, and any other such word stays an
    argument."""
    text = ast.raw
    for tok in ast.tokens:
        if tok.kind is TokenKind.WORD and _PLAIN_ARGUMENT.fullmatch(tok.text) and VOCAB.lookup(tok.text):
            for spelled in (f"'{tok.text}'", f'"{tok.text}"', f"\\{tok.text}"):
                yield text[:tok.start] + spelled + text[tok.end:]


SPELLING_REWRITES = [_quote_a_plain_argument, _split_a_flag_bundle, _quote_a_substitution_word, _quote_a_command_word]
_GENERATED = command_corpus(5000, seed=0)


def _rewrites_keeping_the_template(text, rewrite):
    """How many rewrites of ``text`` there are; each must parse to the same template."""
    ast = parse(text, VOCAB)
    template = normalize_template(ast)
    rewritten = list(rewrite(ast))
    for new in rewritten:
        assert normalize_template(parse(new, VOCAB)) == template, (text, new)
    return len(rewritten)


def test_spelling_rewrites_of_the_generated_corpus_keep_the_template():
    rewritten = {
        rewrite.__name__: sum(_rewrites_keeping_the_template(text, rewrite) > 0 for text in _GENERATED)
        for rewrite in SPELLING_REWRITES
    }
    assert rewritten == {
        "_quote_a_plain_argument": 4333, "_split_a_flag_bundle": 455,
        "_quote_a_substitution_word": 46, "_quote_a_command_word": 5000,
    }


@pytest.mark.parametrize("rewrite", SPELLING_REWRITES, ids=lambda f: f.__name__)
@settings(max_examples=400, deadline=None)
@given(text=st.one_of(st.sampled_from(_GENERATED), shell_text))
def test_spelling_rewrites_keep_the_template(rewrite, text):
    try:
        parse(text, VOCAB)
    except NlbashError:
        return
    _rewrites_keeping_the_template(text, rewrite)
