"""Walk through the Bash parser: ASTs, byte-exact reconstruction, templates.

Run:  python3 demos/01_parsing_and_templates.py
"""

from nlbash import (
    BashSyntaxError,
    UnknownUtilityError,
    flatten_utilities,
    normalize_template,
    parse,
    reconstruct,
)

# A command is parsed into a pipeline of simple commands. Every token
# keeps its exact source text, so the AST reconstructs the input byte for
# byte - the property the corpus filter is built on.
cmd = "df   --total |  tail -n 1"
ast = parse(cmd)
print("input:        ", repr(cmd))
print("stages:       ", [stage.utility for stage in ast.stages])
print("reconstructed:", repr(reconstruct(ast)))
print("byte-exact:   ", reconstruct(ast) == cmd)
print()

# Templates erase arguments and normalize flags into sets. Single-dash
# bundles split per character unless the vocabulary knows the token is a
# real long flag of that utility (find -name stays whole, ls -la splits).
for cmd in (
    "grep /dev/disk0s2",
    "ls -la",
    "find / -EXdsx -name linux",
    "find . -regextype posix-egrep -regex REGEX -type f",
):
    template = normalize_template(parse(cmd))
    print(f"{cmd:<55} -> {template}")
print()

# Wrappers (sudo, xargs, time, nice), find -exec payloads, and $( )
# substitutions flatten into a left-to-right utility sequence; order is
# what the accuracy metric compares.
for cmd in (
    "sudo chown root process",
    "find . -type f -empty -print0 | xargs -0 /bin/rm",
    "find . -name '*.py' -exec grep -l TODO {} \\;",
    "kill $( jobs -p )",
):
    print(f"{cmd:<55} -> {flatten_utilities(parse(cmd))}")
print()

# Anything outside the pipeline grammar is a parse error - which is
# exactly how filtering rejects it.
for cmd in ("frobnicate -x", "grep 'unterminated", "ls && pwd", "diff <(sort a) <(sort b)"):
    try:
        parse(cmd)
        print(f"{cmd:<35} -> accepted")
    except (BashSyntaxError, UnknownUtilityError) as exc:
        print(f"{cmd:<35} -> rejected: {exc}")
