"""Clause matrices: the compiler's working representation of a rule set.

A matrix row keeps the rule's patterns; the compiler reads only their shape,
so a pattern variable counts as a wildcard.  What the variables mean comes
from the row's rule, whose left-hand side was analysed once when it was
made (``patterns.analyse_lhs``), as three side structures keyed by
position: repeated-variable constraints (a pair of occurrences),
variable-occurrence constraints (a position plus the abstractions whose
binders it may use), and the bindings needed to instantiate the right-hand
side (``Rule.env``).  A binder is named by the position of its abstraction.
Positions refer to the original left-hand-side argument sequence; the
matrix carries the position of each of its columns, and the decomposition
operators below move it with the column.  ``spec_symbols`` builds every
symbol case of a column in one pass over the rows, so a Switch with k cases
costs one visit per row plus one per padded variable row, not k visits per
row.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from .patterns import PatAbst, PatSymb, PatVar, Pattern, Rule, WILDCARD
from .terms import Position

NlKey = frozenset  # of two patterns.Occurrences
# a position and the abstractions whose binders may occur free there
ClKey = tuple[Position, frozenset]
ConstraintKey = Union[NlKey, ClKey]


@dataclass(slots=True)
class ClauseRow:
    patterns: tuple[Pattern, ...]
    nl: frozenset[NlKey]
    cl: frozenset[ClKey]
    rule: Rule


@dataclass(slots=True)
class ClauseMatrix:
    rows: tuple[ClauseRow, ...]
    positions: tuple[Position, ...]  # one per column


def from_rules(head: str, rules: Sequence[Rule]) -> ClauseMatrix:
    """Encode rules with one head symbol and equal arity as a matrix."""
    if not rules:
        return ClauseMatrix((), ())
    width = rules[0].arity
    for r in rules:
        if r.arity != width:
            raise ValueError(
                f"arity mismatch for {head}: {r.arity} vs {width} ({r.label})"
            )
    rows = []
    for r in rules:
        nl = frozenset(
            frozenset((occs[i], occs[j]))
            for occs in r.occurrences.values()
            for i in range(len(occs))
            for j in range(i + 1, len(occs))
        )
        cl = frozenset((pos, frozenset(formals)) for pos, formals in r.restricted)
        rows.append(ClauseRow(r.lhs_args, nl, cl, r))
    return ClauseMatrix(tuple(rows), tuple((i,) for i in range(1, width + 1)))


def _with_patterns(row: ClauseRow, patterns: tuple[Pattern, ...]) -> ClauseRow:
    return ClauseRow(patterns, row.nl, row.cl, row.rule)


def spec_symbols(m: ClauseMatrix) -> dict[tuple[str, int], ClauseMatrix]:
    """Every symbol case of the first column, keyed by (symbol, argument
    count) in sorted order.  A case keeps the rows compatible with the
    column being that symbol applied to exactly that many arguments, and
    replaces the column by the argument subpatterns.  Once the keys are
    known, one pass over the rows fills every case in row order: a symbol
    row goes to its own case, a variable row is padded into every case and
    an abstraction row into none."""
    keys = {
        (p.symbol, len(p.args))
        for row in m.rows
        if type(p := row.patterns[0]) is PatSymb
    }
    cases: dict[tuple[str, int], list[ClauseRow]] = {key: [] for key in sorted(keys)}
    for row in m.rows:
        p = row.patterns[0]
        tp = type(p)
        if tp is PatSymb:
            cases[p.symbol, len(p.args)].append(
                _with_patterns(row, p.args + row.patterns[1:])
            )
        elif tp is PatVar:
            rest = row.patterns[1:]
            for (_, argc), rows in cases.items():
                rows.append(_with_patterns(row, (WILDCARD,) * argc + rest))
    pos = m.positions[0]
    return {
        (name, argc): ClauseMatrix(
            tuple(rows),
            tuple(pos + (j,) for j in range(1, argc + 1)) + m.positions[1:],
        )
        for (name, argc), rows in cases.items()
    }


def spec_lambda(m: ClauseMatrix) -> ClauseMatrix:
    """Keep rows compatible with the first column being an abstraction;
    the column is replaced by the abstraction body."""
    rows = []
    for row in m.rows:
        p = row.patterns[0]
        tp = type(p)
        if tp is PatAbst:
            rows.append(_with_patterns(row, (p.body,) + row.patterns[1:]))
        elif tp is PatVar:
            rows.append(_with_patterns(row, (WILDCARD,) + row.patterns[1:]))
    return ClauseMatrix(tuple(rows), (m.positions[0] + (1,),) + m.positions[1:])


def spec_default(m: ClauseMatrix) -> ClauseMatrix:
    """Keep rows whose first column is a pattern variable, dropping it."""
    rows = [
        _with_patterns(row, row.patterns[1:])
        for row in m.rows
        if type(row.patterns[0]) is PatVar
    ]
    return ClauseMatrix(tuple(rows), m.positions[1:])


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
    rows = []
    for row in m.rows:
        if key in row.nl or key in row.cl:
            row = ClauseRow(row.patterns, row.nl - {key}, row.cl - {key}, row.rule)
        rows.append(row)
    return ClauseMatrix(tuple(rows), m.positions)


def cond_fail(key: ConstraintKey, m: ClauseMatrix) -> ClauseMatrix:
    """Assume constraint ``key`` failed: drop the rows that require it."""
    rows = tuple(row for row in m.rows if key not in row.nl and key not in row.cl)
    return ClauseMatrix(rows, m.positions)
