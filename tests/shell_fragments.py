"""The fragments that random shell text is built from, as plain lists, and
``SHAPES``, the shapes it takes: the ``shell_text`` strategy of
``strategies.py`` builds them, and so does ``tools/readings.py``, which runs
without hypothesis.

Shell metacharacters and digits, fragments that reach the parser's nesting
and redirect paths and the lexer's word edges (\\x0b, \\x0c, \\xa0 and \\r
are word text, not breaks; a quoted string may span a line; a text may end
in one backslash), the places where Bash reads a line differently from a
blank (a redirect or '|' next to a newline; an open '${'), a redirect's
target as Bash reads it (one that opens with a substitution, a duplication
target glued to word text or to another redirect, a '-' after '>&' and a
blank, and a '>&>' that has none), a bare '--' that ends the options, a '#' that may open a comment, a
leading 'time' keyword, a $'...' string, the quoted and escaped ';' and '+'
that may end an -exec payload, words at the edges of the lexer's plain-word
pattern (glued to a character that ends it, holding a '#', led by a digit),
a substitution that opens or closes inside "...", a '${...}' that opens,
nests or closes around a substitution or a string, a quoted or escaped
command word, a backtick substitution's body cut or ended by what Bash reads
before its closing backtick (a lone backslash that ends the text, an open
quote or comment, an escaped backtick, and a '${', '"' or '$(' left open
before a backtick), and any other character.
"""

META = list("<>&|;$()`'\"\\ 0123456789")
FRAGMENTS = [
    "ls ", "echo ", "sudo ", "xargs ", "find . ", "-exec ", " {} ", " \\;", " + ", "--a=",
    "-n ", "$(", ")", "`", " | ", "2>&1", ">&-", "&>", "<&", "<<", "<(", "\t", "\n", "²",
    "\\\n", "\x0b", "\x0c", "\xa0", "$", "$x", '"a\\"b"', "'a'\"b\"", "'a\nb'", "a\\",
    ">\n", "&>\n", "\n| ", "${", "}", "\r", " -- ", "#", " #", "-p ", "$'", "\\'", "';'", " \\+",
    "a;", "a&", "a<", "a>", "a(", "a)", "a`", "a'", 'a"', "a$", "a#b", " 2x", " 2>f",
    '"$(', ')"', '"`', '`"', '"a$(', ')b"', "${a:-", "${a//x/", '"${', "\\}", '}"', "}}",
    "`ls \\", "`echo '", "`#", "\\`", "${a`", '"a`', "$(ls`",
    "> $(", ">`", ">&f ", "2>&1#", ">&3<&0 ", ">&>", ">& -",
]
WORDS = ["a ", "-x ", "'q r' ", '"$(ls)" ', "x=$(cat) ", "> f ", "3<&0 "]
# Leads of text that opens with a known utility, so that a fair share of it parses.
COMMAND_LEADS = ["ls ", "echo ", "sudo ", "find . ", "time ", "\\ls ", "'echo' ", 'sudo "ls" ']
# find with an -exec payload, a shape the text above seldom builds. A '+'
# ends the payload only right after '{}', and the parser must consume it
# there, or it becomes find's argument; any other '+' is an argument.
EXEC_HOSTS = ["find . ", "find /tmp -name x ", "sudo find . "]
EXEC_FLAGS = ["-exec ", "-execdir ", "-ok ", "-okdir "]
EXEC_UTILITIES = ["ls ", "echo ", "rm ", "grep -l x ", "sudo ls ", "find . -exec ls "]
EXEC_ENDS = ["{} +", " {} + ", "+", "{} \\;"]
EXEC_TAILS = ["", " -print", " | wc -l", " -exec ls {} +", " +"]
# A backtick substitution, bare or opened inside "...", '$( )' or '${...}',
# whose body the text ends or cuts: at its closing backtick, or at the end
# of the text, after a lone backslash too.
BACKTICK_OPENS = ["echo `", 'echo "`', "echo $(ls `", "echo ${a:-`", "ls `echo "]
BACKTICK_ENDS = ["", "`", "\\", "` x", "`)", '`"', "`}"]

# Stands for any character in a run below.
ANY = None
# The shapes of random text, each a sequence of parts joined in order. A
# part is a list, one piece of which it takes, or a run (lists, most): up to
# `most` pieces, each taken from one of `lists`, so that a list named twice
# is taken twice as often. Add a shape here and both the strategy and the
# reading differential build it.
SHAPES = [
    [([META, META, FRAGMENTS, ANY], 40)],
    [COMMAND_LEADS, ([FRAGMENTS, WORDS, WORDS], 12)],
    [EXEC_HOSTS, EXEC_FLAGS, EXEC_UTILITIES, ([WORDS, FRAGMENTS], 3), EXEC_ENDS, EXEC_TAILS],
    [BACKTICK_OPENS, ([FRAGMENTS, WORDS], 4), BACKTICK_ENDS],
]
