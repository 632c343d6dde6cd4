import pytest
from hypothesis import given, settings
from reference_impl import SimpleCommand as SimpleCommandRef
from reference_impl import parse_ref, tokenize_ref
from strategies import shell_text

from nlbash.errors import BashSyntaxError, NlbashError, UnknownUtilityError
from nlbash.parser import (
    MAX_NESTING_DEPTH,
    Token,
    TokenKind,
    parse,
    reconstruct,
    tokenize,
)
from nlbash.synth import command_corpus, toy_corpus
from nlbash.template import normalize_template
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
        "ls 2>&x",
        "ls &>(sort)",
        "ls 2<<EOF",
        "ls &>&1",
        "ls$(date)",
        "ls`date`",
        "sudo wc$(x) f",
        "find . -exec rm$(x) {} \\;",
        "echo x$((1 + 2))",
        "echo -exec ls {} \\;",
    ],
)
def test_unsupported_or_malformed_rejected(cmd):
    with pytest.raises(BashSyntaxError):
        parse(cmd, VOCAB)


def test_assignment_prefix_rejected_as_unknown_utility():
    # 'v=$(...)' is one word in utility position; not a known utility
    with pytest.raises(UnknownUtilityError):
        parse("v=$(whoami | tr a-z A-Z)", VOCAB)


def test_token_spans_tile_the_source():
    cmd = "grep -i 'a b'  f.txt | wc -l"
    tokens = tokenize(cmd)
    pos = 0
    for tok in tokens:
        assert cmd[pos : tok.start].strip() == ""  # only whitespace between tokens
        assert cmd[tok.start : tok.end] == tok.text
        pos = tok.end


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


def test_self_contained_redirects_take_no_target():
    # the word after 2>&1 is not its target, so a wrapper still runs it
    assert [(c.utility, c.erased_args) for c in parse("sudo 2>&1 ls", VOCAB).walk()] == [
        ("sudo", 0), ("ls", 0)
    ]
    assert [(c.utility, c.erased_args) for c in parse("sudo > out ls", VOCAB).walk()] == [
        ("sudo", 1), ("ls", 0)
    ]
    assert parse("ls 2>&1", VOCAB).stages[0].erased_args == 0
    with pytest.raises(BashSyntaxError, match="missing its target"):
        parse("ls >", VOCAB)


@pytest.mark.parametrize(
    "cmd, args",
    [
        ("ls &> out.txt", ["out.txt"]),
        ("ls &>> out.txt", ["out.txt"]),
        ("ls >&- x", ["x"]),
        ("ls 10<&0 x", ["x"]),
        ("ls 2>>err.txt", ["err.txt"]),
    ],
)
def test_redirect_takes_a_target_unless_it_duplicates_an_fd(cmd, args):
    ast = parse(cmd, VOCAB)
    assert [t.text for t in ast.tokens if t.kind is TokenKind.WORD][1:] == args
    assert ast.stages[0].erased_args == len(args)


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
        ("echo $()", "empty pipeline stage"),
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


def _erased(cmd):
    """The package counts erased words; the reference counts its ARG elements."""
    return cmd.erased_count() if isinstance(cmd, SimpleCommandRef) else cmd.erased_args


def _stage_tree(cmd):
    return cmd.utility, cmd.flags, _erased(cmd), tuple(_stage_tree(n) for n in cmd.nested)


def _outcome(tokenize_fn, parse_fn, text):
    """Tokens, then the stage trees (erased counts included) and template, or each step's error."""
    try:
        tokens = [(t.kind.value, t.text, t.start, t.end) for t in tokenize_fn(text)]
    except NlbashError as exc:
        tokens = (type(exc), str(exc))
    try:
        ast = parse_fn(text, VOCAB)
    except NlbashError as exc:
        return tokens, (type(exc), str(exc))
    ast_tokens = [(t.kind.value, t.text, t.start, t.end) for t in ast.tokens]
    trees = [_stage_tree(s) for s in ast.stages]
    return tokens, ast_tokens, ast.raw, trees, str(normalize_template(ast))


def _assert_matches_reference(text):
    assert _outcome(tokenize, parse, text) == _outcome(tokenize_ref, parse_ref, text), text


def test_parser_matches_reference_on_generated_commands():
    references = [r for ex in toy_corpus(2000, seed=0) for r in ex.references]
    for text in command_corpus(5000, seed=0) + references + ROUND_TRIP_COMMANDS:
        _assert_matches_reference(text)


@settings(max_examples=600, deadline=None)
@given(shell_text)
def test_parser_matches_reference_on_shell_text(text):
    _assert_matches_reference(text)
