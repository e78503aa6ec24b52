"""Clause matrices: the compiler's working representation of a rule set.

A matrix row keeps the rule's patterns; the compiler reads only their shape,
so a pattern variable counts as a wildcard.  What the variables mean comes
from the row's rule, whose left-hand side was analysed once when it was
made (``patterns.analyse_lhs``): one set of constraints per row, keyed by
position, and the bindings needed to instantiate the right-hand side
(``Rule.env``).  A repeated-variable constraint pairs a later occurrence of
a pattern variable with its first, as ``patterns.match_patterns`` compares
each later occurrence with the first binding, so k occurrences make k-1
constraints.  A variable-occurrence constraint is a position plus the
abstractions whose binders may occur free there.  A binder is named by the
position of its abstraction.  Positions refer to the original
left-hand-side argument sequence; the matrix carries the position of each
of its columns, and the operators below move it with the column.
``specialize`` builds every case of a Switch in one pass over the rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .patterns import PatSymb, PatVar, Pattern, Rule, WILDCARD
from .terms import Position

NlKey = frozenset  # of two patterns.Occurrences: the first and a later one
# a position and the abstractions whose binders may occur free there
ClKey = tuple[Position, frozenset]
ConstraintKey = Union[NlKey, ClKey]


@dataclass(slots=True)
class ClauseRow:
    patterns: tuple[Pattern, ...]
    constraints: frozenset[ConstraintKey]
    rule: Rule


@dataclass(slots=True)
class ClauseMatrix:
    rows: tuple[ClauseRow, ...]
    positions: tuple[Position, ...]  # one per column


def from_rules(rules: Sequence[Rule]) -> ClauseMatrix:
    """Encode the rules of one head as a matrix, in their order, as wide as
    the widest rule; a shorter rule's row ends in wildcards."""
    width = max((r.arity for r in rules), default=0)
    rows = []
    for r in rules:
        constraints = {
            frozenset((occs[0], occ))
            for occs in r.occurrences.values()
            for occ in occs[1:]
        }
        constraints.update((pos, frozenset(formals)) for pos, formals in r.restricted)
        pad = (WILDCARD,) * (width - r.arity)
        rows.append(ClauseRow(r.lhs_args + pad, frozenset(constraints), r))
    return ClauseMatrix(tuple(rows), tuple((i,) for i in range(1, width + 1)))


def _with_patterns(row: ClauseRow, patterns: tuple[Pattern, ...]) -> ClauseRow:
    return ClauseRow(patterns, row.constraints, row.rule)


# the abstraction case, built as a one-argument case among the symbol cases
_LAMBDA = (None, 1)


def specialize(
    m: ClauseMatrix,
) -> tuple[
    dict[tuple[str, int], ClauseMatrix], Optional[ClauseMatrix], Optional[ClauseMatrix]
]:
    """Every case of a Switch on the first column, from one pass over the
    rows: the symbol cases keyed by (symbol, argument count) in sorted
    order, the abstraction case (None if no row has an abstraction in the
    column) and the default case (None if no row has a variable there).
    A case replaces the column by the subpatterns under its head and keeps
    the compatible rows in row order; a variable row is padded into every
    case, and the default case drops the column."""
    cases: dict[tuple, list[ClauseRow]] = {}
    default: list[ClauseRow] = []
    for row in m.rows:
        p = row.patterns[0]
        rest = row.patterns[1:]
        tp = type(p)
        if tp is PatVar:
            for (_, argc), rows in cases.items():
                rows.append(_with_patterns(row, (WILDCARD,) * argc + rest))
            default.append(_with_patterns(row, rest))
            continue
        if tp is PatSymb:
            key, sub = (p.symbol, len(p.args)), p.args
        else:
            key, sub = _LAMBDA, (p.body,)
        if key not in cases:
            # a new case starts with the variable rows seen so far
            pad = (WILDCARD,) * key[1]
            cases[key] = [_with_patterns(d, pad + d.patterns) for d in default]
        cases[key].append(_with_patterns(row, sub + rest))
    pos, after = m.positions[0], m.positions[1:]
    built = {
        key: ClauseMatrix(
            tuple(rows), tuple(pos + (j,) for j in range(1, key[1] + 1)) + after
        )
        for key, rows in cases.items()
    }
    lam = built.pop(_LAMBDA, None)
    default_case = ClauseMatrix(tuple(default), after) if default else None
    return {key: built[key] for key in sorted(built)}, lam, default_case


def swap_columns(m: ClauseMatrix, i: int) -> ClauseMatrix:
    """Exchange columns 1 and ``i`` (1-based) in every row."""
    k = i - 1

    def swapped(xs: tuple) -> tuple:
        xs = list(xs)
        xs[0], xs[k] = xs[k], xs[0]
        return tuple(xs)

    rows = tuple(_with_patterns(row, swapped(row.patterns)) for row in m.rows)
    return ClauseMatrix(rows, swapped(m.positions))


def cond_succ(key: ConstraintKey, m: ClauseMatrix) -> ClauseMatrix:
    """Assume constraint ``key`` holds: drop it from every row."""
    rows = tuple(
        ClauseRow(row.patterns, row.constraints - {key}, row.rule)
        if key in row.constraints
        else row
        for row in m.rows
    )
    return ClauseMatrix(rows, m.positions)


def cond_fail(key: ConstraintKey, m: ClauseMatrix) -> ClauseMatrix:
    """Assume constraint ``key`` failed: drop the rows that require it."""
    rows = tuple(row for row in m.rows if key not in row.constraints)
    return ClauseMatrix(rows, m.positions)
