import copy
import pickle
import random

import pytest

from nlbash.parser import parse
from nlbash.template import TemplateCommand, TemplateUnit, flatten_utilities, normalize_template
from nlbash.vocab import default_vocabulary, parse_vocabulary

VOCAB = default_vocabulary()


def template_of(cmd):
    return normalize_template(parse(cmd, VOCAB))


def erased_counts(cmd):
    """Erased argument-like tokens per template unit, read off the parsed command."""
    return tuple(c.erased_args for c in parse(cmd, VOCAB).walk())


def test_arguments_are_erased():
    t = template_of("grep /dev/disk0s2")
    assert t.units == (TemplateUnit("grep", frozenset()),)
    assert erased_counts("grep /dev/disk0s2") == (1,)


def test_flag_bundle_splits_per_character():
    t = template_of("ls -la")
    assert t.units[0].flags == frozenset({"l", "a"})


def test_unknown_bundle_splits_known_flag_stays_whole():
    t = template_of("find / -EXdsx -name linux")
    assert t.units[0].flags == frozenset({"E", "X", "d", "s", "x", "name"})


def test_known_long_flags_not_split():
    t = template_of("find . -regextype posix-egrep -regex REGEX -type f")
    assert t.units[0].flags == frozenset({"regextype", "regex", "type"})


def test_double_dash_flag_with_value():
    t = template_of("find . --max-depth=2 -name x")
    assert "max-depth" in t.units[0].flags


def test_bare_double_dash_with_value_names_no_flag():
    assert template_of("ls --=v").units == (TemplateUnit("ls", frozenset()),)
    assert erased_counts("ls --=v") == (1,)


def test_double_dash_flag_plain():
    t = template_of("df --total")
    assert t.units[0].flags == frozenset({"total"})


def test_flag_attached_value_erased_not_a_flag():
    t = template_of("tail -n 1")
    assert t.units[0].flags == frozenset({"n"})
    assert erased_counts("tail -n 1") == (1,)


def test_pipeline_units_in_order():
    t = template_of("df --total | tail -n 1")
    assert [u.utility for u in t.units] == ["df", "tail"]


def test_wrapped_commands_flatten_into_units():
    t = template_of("sudo chown root process")
    assert [u.utility for u in t.units] == ["sudo", "chown"]


def test_exec_target_is_own_unit_and_exec_stays_a_flag():
    t = template_of("find . -name x -exec rm -f {} \\;")
    assert [u.utility for u in t.units] == ["find", "rm"]
    assert "exec" in t.units[0].flags
    assert t.units[1].flags == frozenset({"f"})


@pytest.mark.parametrize("cmd", ["echo x=$(ls)", "echo a`ls`b"])
def test_midword_substitution_is_its_own_unit(cmd):
    assert [u.utility for u in template_of(cmd).units] == ["echo", "ls"]


def test_exec_flags_open_a_payload_only_where_the_vocabulary_lists_them():
    assert template_of("grep -ok x f").units == (TemplateUnit("grep", frozenset({"k", "o"})),)


def test_double_quoted_substitution_stays_argument_text():
    t = template_of('ls "$(frobnicate)"')
    assert t.units == (TemplateUnit("ls", frozenset()),)
    assert erased_counts('ls "$(frobnicate)"') == (1,)


def test_equality_ignores_erased_arg_counts():
    a = template_of("ls -la /tmp")
    b = template_of("ls -la /tmp /var")
    assert a == b
    assert hash(a) == hash(b)
    assert erased_counts("ls -la /tmp") == (1,) and erased_counts("ls -la /tmp /var") == (2,)


def test_hash_is_kept_and_copies_hash_again():
    a = template_of("ls -la /tmp")
    assert hash(a) == hash((a.units,)) == hash(a)  # the value dataclass would generate
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        # str sorts the flags; a frozenset rebuilt by a copy may iterate, so repr, differently
        assert copied == a and hash(copied) == hash(a) and str(copied) == str(a)
    assert repr(a) == "TemplateCommand(units=(TemplateUnit(utility='ls', flags=frozenset({" + (
        ", ".join(repr(f) for f in a.units[0].flags)) + "})),))"


def test_templates_usable_as_dict_keys():
    seen = {template_of("ls -la /tmp"): 1}
    assert seen[template_of("ls -al /home")] == 1  # same flags, any order


def test_idempotence_under_placeholder_substitution():
    original = template_of("find /var/log -name '*.log' -mtime +30 -delete")
    substituted = template_of("find PATH -name REGEX -mtime NUM -delete")
    assert original == substituted


def test_flag_order_invariance():
    rng = random.Random(8)
    flags = ["-type", "f", "-name", "'*.c'", "-empty"]
    base = template_of("find /src -type f -name '*.c' -empty")
    for _ in range(20):
        pairs = [("-type", "f"), ("-name", "'*.c'"), ("-empty", None)]
        rng.shuffle(pairs)
        tokens = []
        for flag, value in pairs:
            tokens.append(flag)
            if value:
                tokens.append(value)
        assert template_of("find /src " + " ".join(tokens)) == base


def test_flatten_utilities_examples():
    assert flatten_utilities(parse("df | grep x", VOCAB)) == ["df", "grep"]
    assert flatten_utilities(parse("sudo chown root process", VOCAB)) == ["sudo", "chown"]
    assert flatten_utilities(parse("ls", VOCAB)) == ["ls"]


def test_flatten_keeps_repeated_utilities():
    got = flatten_utilities(parse("sort f.txt | uniq | sort -r", VOCAB))
    assert got == ["sort", "uniq", "sort"]


def test_flatten_substitution_contributes_after_host():
    got = flatten_utilities(parse("kill $( jobs -p )", VOCAB))
    assert got == ["kill", "jobs"]


def test_redirect_target_counts_as_erased_argument():
    assert erased_counts("echo done >> log.txt") == (2,)  # 'done' and 'log.txt'


def test_custom_vocabulary_is_read_at_parse_time_only():
    vocab = parse_vocabulary("frob\t-xyz,exec\nls\n")
    assert str(normalize_template(parse("frob -xyz -ab --long=1", vocab))) == "frob[a,b,long,xyz]"
    # -exec listed for frob opens a payload, as it does for find
    assert str(normalize_template(parse("frob -exec ls -la {} +", vocab))) == "frob[exec] | ls[a,l]"
    # not listed for frob in this vocabulary, so it splits
    assert str(normalize_template(parse("frob -name x", vocab))) == "frob[a,e,m,n]"
