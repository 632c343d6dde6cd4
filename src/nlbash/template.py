"""Argument-erased command templates: the unit the accuracy metric compares.

A template reduces a command to an ordered sequence of (utility, flag set)
pairs: one per command of ``CommandAST.walk()``, with the flag names the
parser recorded in ``SimpleCommand.flags``. Arguments, flag values, and
redirect targets are erased; how many a utility had is
``SimpleCommand.erased_args`` on the parsed command. The AST is all a
template needs: the vocabulary was read when the command was parsed.

Units and templates are immutable named tuples, like the parse records:
equality, hash, pickling and copying are those of the tuple of their
fields (a template hashes as ``hash((units,))``), and they also unpack,
index and compare equal to plain tuples.
"""

from __future__ import annotations

from typing import NamedTuple

from .parser import CommandAST

# Builds a record from the tuple of its fields: the instance that calling
# the class makes, without the class's Python-level __new__.
_new = tuple.__new__


class TemplateUnit(NamedTuple):
    utility: str
    flags: frozenset[str]

    def __str__(self) -> str:
        inner = ",".join(sorted(self.flags))
        return f"{self.utility}[{inner}]"


class TemplateCommand(NamedTuple):
    """Sequence of (utility, flag set) units in pipeline/nesting order.

    Two commands differing only in their arguments are the same template:
    equal units, so equal templates with equal hashes, usable as dict keys.
    """

    units: tuple[TemplateUnit, ...]

    def flag_count(self) -> int:
        return sum(len(u.flags) for u in self.units)

    def __str__(self) -> str:
        return " | ".join(str(u) for u in self.units)


def normalize_template(ast: CommandAST) -> TemplateCommand:
    """Normalize a parsed command into its scoring template."""
    units = tuple([_new(TemplateUnit, (cmd.utility, cmd.flags)) for cmd in ast.walk()])
    return _new(TemplateCommand, (units,))


def flatten_utilities(ast: CommandAST) -> list[str]:
    """Utility names in left-to-right order, wrappers before their targets.

    Pipeline stages contribute in order; a wrapper (sudo, xargs, ...), an
    ``-exec`` payload, or a ``$( )`` substitution contributes the host
    utility first and then the nested ones. Repeated utilities are kept —
    position matters to the metric.
    """
    return [cmd.utility for cmd in ast.walk()]
