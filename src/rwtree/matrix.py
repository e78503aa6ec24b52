"""Clause matrices: the compiler's working representation of a rule set.

A matrix row keeps the rule patterns with every pattern variable erased to a
wildcard; what the variables meant survives in three side structures:
repeated-variable constraints (unordered position pairs), variable-occurrence
constraints (position plus the allowed binder arguments), and the bindings
needed to instantiate the right-hand side.  All positions refer to the
original left-hand-side argument sequence and never change under the
decomposition operators below.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .patterns import (
    PatAbst,
    PatSymb,
    PatVar,
    Pattern,
    Rule,
    WILDCARD,
    iter_pattern_vars,
    rhs_meta_occurrences,
)
from .terms import Position, Term, Var

NlKey = frozenset  # of two Positions
ClEntry = tuple[Position, tuple[Var, ...]]


@dataclass(frozen=True, slots=True)
class ClKey:
    """Closedness constraint identified by position and snapshot slots."""

    pos: Position
    slots: frozenset[int]


ConstraintKey = Union[NlKey, ClKey]


@dataclass(slots=True)
class ClauseRow:
    patterns: tuple[Pattern, ...]
    nl: frozenset[NlKey] = frozenset()
    cl: frozenset[ClEntry] = frozenset()
    env: dict[str, tuple[Position, tuple[Var, ...]]] = field(default_factory=dict)
    rhs: Term = None
    source: str = ""
    # binder identity -> index in the evaluator's binder snapshot; filled in
    # as abstraction columns are opened during compilation
    binder_index: dict[int, int] = field(default_factory=dict)

    def cl_key(self, entry: ClEntry) -> Optional[ClKey]:
        pos, allowed = entry
        try:
            slots = frozenset(self.binder_index[v.vid] for v in allowed)
        except KeyError:
            return None
        return ClKey(pos, slots)

    def has_key(self, key: ConstraintKey) -> bool:
        if isinstance(key, ClKey):
            return any(self.cl_key(e) == key for e in self.cl)
        return key in self.nl


@dataclass(slots=True)
class ClauseMatrix:
    rows: tuple[ClauseRow, ...]
    width: int
    depth: int = 0  # binders opened on the path to this matrix


def erase_vars(p: Pattern) -> Pattern:
    """Replace every pattern variable, named or not, by a bare wildcard."""
    tp = type(p)
    if tp is PatVar:
        return WILDCARD
    if tp is PatSymb:
        return PatSymb(p.symbol, tuple(erase_vars(a) for a in p.args))
    return PatAbst(p.var, erase_vars(p.body))


def from_rules(head: str, rules: Sequence[Rule]) -> ClauseMatrix:
    """Encode rules with one head symbol and equal arity as a matrix."""
    if not rules:
        return ClauseMatrix((), 0)
    width = rules[0].arity
    for r in rules:
        if r.arity != width:
            raise ValueError(
                f"arity mismatch for {head}: {r.arity} vs {width} ({r.label})"
            )
    rows = []
    for r in rules:
        occurrences: dict[str, list[tuple[Position, tuple[Var, ...]]]] = {}
        cl_entries: set[ClEntry] = set()
        for pv, pos, scope in iter_pattern_vars(r.lhs_args):
            if pv.name is not None:
                occurrences.setdefault(pv.name, []).append((pos, pv.args))
            # restrictive only if some binder in scope is not allowed
            if pv.name is not None and {v.vid for v in pv.args} < {
                v.vid for v in scope
            }:
                cl_entries.add((pos, pv.args))
        nl_pairs: set[NlKey] = set()
        for occs in occurrences.values():
            if len(occs) > 1:
                ps = [pos for pos, _ in occs]
                for i in range(len(ps)):
                    for j in range(i + 1, len(ps)):
                        nl_pairs.add(frozenset((ps[i], ps[j])))
        rhs_names = {m.name for m in rhs_meta_occurrences(r.rhs)}
        env = {
            name: occurrences[name][0]
            for name in rhs_names
            if name in occurrences
        }
        rows.append(
            ClauseRow(
                patterns=tuple(erase_vars(p) for p in r.lhs_args),
                nl=frozenset(nl_pairs),
                cl=frozenset(cl_entries),
                env=env,
                rhs=r.rhs,
                source=r.label,
            )
        )
    return ClauseMatrix(tuple(rows), width)


def _with_patterns(row: ClauseRow, patterns: tuple[Pattern, ...]) -> ClauseRow:
    return ClauseRow(
        patterns=patterns,
        nl=row.nl,
        cl=row.cl,
        env=row.env,
        rhs=row.rhs,
        source=row.source,
        binder_index=row.binder_index,
    )


def specialise(symbol: str, argc: int, m: ClauseMatrix) -> ClauseMatrix:
    """Keep rows compatible with the first column being ``symbol`` applied
    to exactly ``argc`` arguments; the column is replaced by the argument
    subpatterns."""
    rows = []
    for row in m.rows:
        p = row.patterns[0]
        tp = type(p)
        if tp is PatSymb:
            if p.symbol == symbol and len(p.args) == argc:
                rows.append(_with_patterns(row, p.args + row.patterns[1:]))
        elif tp is PatVar:
            pad = (WILDCARD,) * argc
            rows.append(_with_patterns(row, pad + row.patterns[1:]))
        # abstraction rows are incompatible
    return ClauseMatrix(tuple(rows), m.width - 1 + argc, m.depth)


def spec_lambda(m: ClauseMatrix) -> ClauseMatrix:
    """Keep rows compatible with the first column being an abstraction.

    The abstraction binder of each surviving row is bound to the snapshot
    slot that the evaluator will fill when it opens this column.
    """
    rows = []
    for row in m.rows:
        p = row.patterns[0]
        tp = type(p)
        if tp is PatAbst:
            new = _with_patterns(row, (p.body,) + row.patterns[1:])
            new.binder_index = {**row.binder_index, p.var.vid: m.depth}
            rows.append(new)
        elif tp is PatVar:
            rows.append(_with_patterns(row, (WILDCARD,) + row.patterns[1:]))
    return ClauseMatrix(tuple(rows), m.width, m.depth + 1)


def spec_default(m: ClauseMatrix) -> ClauseMatrix:
    """Keep rows whose first column is a pattern variable, dropping it."""
    rows = [
        _with_patterns(row, row.patterns[1:])
        for row in m.rows
        if type(row.patterns[0]) is PatVar
    ]
    return ClauseMatrix(tuple(rows), m.width - 1, m.depth)


def swap_columns(m: ClauseMatrix, i: int) -> ClauseMatrix:
    """Exchange columns 1 and ``i`` (1-based) in every row."""
    k = i - 1
    rows = []
    for row in m.rows:
        ps = list(row.patterns)
        ps[0], ps[k] = ps[k], ps[0]
        rows.append(_with_patterns(row, tuple(ps)))
    return ClauseMatrix(tuple(rows), m.width, m.depth)


def cond_succ(key: ConstraintKey, m: ClauseMatrix) -> ClauseMatrix:
    """Assume constraint ``key`` holds: drop it from every row."""
    rows = []
    for row in m.rows:
        if isinstance(key, ClKey):
            cl = frozenset(e for e in row.cl if row.cl_key(e) != key)
            nl = row.nl
        else:
            nl = row.nl - {key}
            cl = row.cl
        if nl is row.nl and cl is row.cl:
            rows.append(row)
        else:
            new = _with_patterns(row, row.patterns)
            new.nl = nl
            new.cl = cl
            rows.append(new)
    return ClauseMatrix(tuple(rows), m.width, m.depth)


def cond_fail(key: ConstraintKey, m: ClauseMatrix) -> ClauseMatrix:
    """Assume constraint ``key`` failed: drop the rows that require it."""
    rows = tuple(row for row in m.rows if not row.has_key(key))
    return ClauseMatrix(rows, m.width, m.depth)
