"""Argument-erased command templates: the unit the accuracy metric compares.

A template reduces a command to an ordered sequence of (utility, flag set)
pairs: one per command of ``CommandAST.walk()``, with the flag names the
parser recorded in ``SimpleCommand.flags``. Arguments, flag values, and
redirect targets are erased; how many a utility had is
``SimpleCommand.erased_args`` on the parsed command. The AST is all a
template needs: the vocabulary was read when the command was parsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .parser import CommandAST


@dataclass(frozen=True, slots=True)
class TemplateUnit:
    utility: str
    flags: frozenset[str]

    def __str__(self) -> str:
        inner = ",".join(sorted(self.flags))
        return f"{self.utility}[{inner}]"


@dataclass(frozen=True, slots=True)
class TemplateCommand:
    """Sequence of (utility, flag set) units in pipeline/nesting order.

    Two commands differing only in their arguments are the same template.
    The hash is computed once, on first use, and kept.
    """

    units: tuple[TemplateUnit, ...]
    # Set by the first ``__hash__`` call, so building a template costs nothing extra.
    _hash: int = field(init=False, repr=False, compare=False)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.units,))  # the hash dataclass would generate
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):  # rebuilt from the fields: a cached hash holds only in its process
        return TemplateCommand, (self.units,)

    def flag_count(self) -> int:
        return sum(len(u.flags) for u in self.units)

    def __str__(self) -> str:
        return " | ".join(str(u) for u in self.units)


def normalize_template(ast: CommandAST) -> TemplateCommand:
    """Normalize a parsed command into its scoring template."""
    return TemplateCommand(tuple(TemplateUnit(cmd.utility, cmd.flags) for cmd in ast.walk()))


def flatten_utilities(ast: CommandAST) -> list[str]:
    """Utility names in left-to-right order, wrappers before their targets.

    Pipeline stages contribute in order; a wrapper (sudo, xargs, ...), an
    ``-exec`` payload, or a ``$( )`` substitution contributes the host
    utility first and then the nested ones. Repeated utilities are kept —
    position matters to the metric.
    """
    return [cmd.utility for cmd in ast.walk()]
