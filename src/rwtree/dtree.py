"""Decision trees and the matrix-to-tree compiler.

A tree is a small program over a stack of subject terms and a store of saved
subterms: Switch head-normalises the stack top and dispatches on its head,
Swap reorders the stack, Store saves a stack entry without inspecting it, BinNl
and BinCl decide the repeated-variable and variable-occurrence constraints,
Eos tests whether the subject has enough arguments for a rule, and Leaf
yields its rule's right-hand side, built from the store by the builder that
``patterns.rhs_builder`` compiles when the leaf is made.

A position that a constraint or a right-hand side needs is saved exactly
once.  If some Switch inspects it, that Switch saves it after head
normalisation (its ``store`` flag), so right-hand sides are built from
normalised subterms; otherwise a Store saves it unevaluated, and a column
is never forced only to be stored.

As in Lambdapi, a head has one tree for all of its rules in text order
(``trees_of_ruleset``): an Eos decides whether the subject is wide enough
before a wider rule is tried, and a leaf reattaches the arguments past its
own rule's arity.  Compilation reduces a clause matrix step by step in one
work-list loop (``compile_matrix``), and each step decides the first head
or check that naive meets in the first row, so the tree forces nothing that
the declarative matcher would not.  When several rules apply, the tree
assumes confluence and may fire any of them, but no rule fires past a wider
rule above it.  A Switch takes all of its cases from one pass over the rows
(``matrix.specialize``).  The compiler says where something is only by
position: the matrix carries the position of each column, and each work
item maps each saved position to its store slot and each opened
abstraction, named by its position, to its index in the binder snapshot.

A tree is walked in one place: ``iter_tree`` yields every node in preorder
with its depth and edge label, taking a node's children from ``_edges``.
``tree_stats``, ``tree_text`` and ``to_dot`` consume that walk, so none of
them recurses, and both renderings print the same text for a node.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

from .matrix import (
    ClauseMatrix,
    ClauseRow,
    ConstraintKey,
    cond_fail,
    cond_succ,
    from_rules,
    specialize,
    swap_columns,
)
from .patterns import (
    Builder,
    Occurrence,
    PatVar,
    Rule,
    encloses,
    rhs_builder,
    validate_rules,
)
from .terms import Position


class DTree:
    __slots__ = ()


@dataclass(slots=True)
class Leaf(DTree):
    rule: Rule
    # pattern-variable name -> (store slot, indices into that slot's
    # binder snapshot selecting the closure formals)
    env: dict[str, tuple[int, tuple[int, ...]]]
    # build(store) -> the instantiated rhs; compiled from the rule and env
    # when the leaf is made (``patterns.rhs_builder``)
    build: Builder = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.build = rhs_builder(self.rule, self.env)


@dataclass(slots=True)
class Fail(DTree):
    pass


FAIL = Fail()


@dataclass(slots=True)
class Swap(DTree):
    index: int  # column exchanged with the front, always >= 2
    child: DTree


@dataclass(slots=True)
class Store(DTree):
    # saves stack entry ``index`` (1 is the top), unevaluated, without
    # popping it; only for positions that no Switch inspects
    child: DTree
    index: int = 1


@dataclass(slots=True)
class Switch(DTree):
    # symbol cases are keyed by (name, applied argument count); insertion
    # order is the deterministic case order used for printing
    sym_cases: dict[tuple[str, int], DTree]
    lam_case: Optional[DTree] = None
    default_case: Optional[DTree] = None
    # save the head-normalised top in the next store slot before dispatch
    store: bool = False


@dataclass(slots=True)
class BinNl(DTree):
    succ: DTree
    slots: tuple[int, int]
    fail: DTree
    # per slot, indices into its binder snapshot selecting the formals; the
    # k-th formals of the two are renamed to one variable before comparing
    formals: tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(slots=True)
class BinCl(DTree):
    succ: DTree
    slot: int
    allowed: tuple[int, ...]  # snapshot indices
    fail: DTree
    # snapshot indices of the binders that enclose the slot's position and
    # are not allowed; only these are rejected, since the binder of a
    # sibling abstraction may occur free in the saved term
    restricted: tuple[int, ...]


@dataclass(slots=True)
class Eos(DTree):
    succ: DTree
    arity: int  # succ when the subject has at least this many arguments
    fail: DTree


def _key_positions(key: ConstraintKey) -> tuple[Position, ...]:
    """The positions a constraint reads: both occurrences of a
    repeated-variable key, or the one position of a closedness key."""
    return tuple(pos for pos, _ in key) if type(key) is frozenset else key[:1]


def _pending_positions(m: ClauseMatrix) -> dict[int, set[Position]]:
    """The positions that each row's rule, keyed by its id, needs stored
    before it can fire or be checked: those that its right-hand side and its
    constraints read.  Made once per compile, as a constraint leaves a row
    only when it is decided, and its positions are stored by then."""
    return {
        id(row.rule): {pos for pos, _ in row.rule.env.values()}.union(
            *map(_key_positions, row.constraints)
        )
        for row in m.rows
    }


def _first_item(row: ClauseRow, positions: tuple) -> int | ConstraintKey | None:
    """The first head or check that naive meets when it tries ``row``, in
    preorder: a head as its column (1-based), a check as its constraint,
    None if the row has neither.  A check is met at its last position, and
    a closedness check before an equality at the same position."""
    item, first = None, None
    for i, p in enumerate(row.patterns):
        if type(p) is not PatVar and (first is None or positions[i] < first[0]):
            item, first = i + 1, (positions[i],)
    for key in row.constraints:
        at = (max(_key_positions(key)), type(key) is frozenset)
        if first is None or at < first:
            item, first = key, at
    return item


def _switch_column(m: ClauseMatrix, first: int, have: int) -> int:
    """Among the columns that naive forces whenever it finishes, the one with
    the most heads, leftmost on ties.  These are the columns where some
    row's first item is a head and every row above it has a head too, so
    ``first``, the first row's first item, is one.  A row wider than the
    ``have`` arguments known to be present adds no column, since naive may
    skip it.  Rows are read only while they can still add a column."""
    rows, positions = m.rows, m.positions
    if len(rows) == 1:
        return first
    found = {first}
    common = {i for i, p in enumerate(rows[0].patterns, 1) if type(p) is not PatVar}
    for r in rows[1:]:
        if common <= found:
            break
        item = _first_item(r, positions) if r.rule.arity <= have else None
        if item in common:
            found.add(item)
        common = {i for i in common if type(r.patterns[i - 1]) is not PatVar}
    heads = {i: sum(type(r.patterns[i - 1]) is not PatVar for r in rows) for i in found}
    return max(sorted(found), key=heads.get)


def _selector(occ: Occurrence, slot_of: dict, binder_of: dict) -> tuple:
    """Store slot and snapshot selector of a pattern-variable occurrence."""
    pos, formals = occ
    return slot_of[pos], tuple(binder_of[at] for at in formals)


def compile_matrix(m: ClauseMatrix) -> DTree:
    """Compile a clause matrix to a decision tree.

    Total: an empty matrix compiles to Fail.  One loop over a work list, so
    no pattern width or depth costs Python stack.  A work item is a matrix,
    how many arguments the subject is known to have (at first the smallest
    arity of the rows), the store slot of each saved position, the snapshot
    index of each opened abstraction (named by its position), and where its
    node goes: a field of its parent or a case of a Switch.  Each pass takes
    the first row's first item (``_first_item``), builds one node and pushes
    the node's children:

    - a first row wider than that: an Eos tests its arity, as naive skips
      the rule without reading anything; the "no" child keeps narrower rows;
    - no item: the row yields;
    - a check: decide it;
    - a head: the first later row of wildcards with no checks and no wider
      row above it yields, if there is one, behind an Eos if it is wider
      than the arguments known; otherwise switch on the column that
      ``_switch_column`` picks, behind a Swap unless it is column 1, and
      save it there if a constraint or right-hand side needs it.

    A row yields, and a check is decided, only once every column that it
    reads is stored: before that, a Store saves the leftmost one.
    """
    top: dict = {}
    least = min((r.rule.arity for r in m.rows), default=0)
    pending = _pending_positions(m)
    todo: list[tuple] = [(m, least, {}, {}, top, None)]
    while todo:
        m, have, slot_of, binder_of, into, at = todo.pop()
        below: list[tuple] = []  # the children's work items, in print order
        rows = m.rows
        item = _first_item(rows[0], m.positions) if rows else None
        check = type(item) is frozenset or type(item) is tuple
        read = _key_positions(item) if check else ()
        # the row that yields; one with checks might force what rows above skip
        row, wide = None, 0
        for r in () if check else rows:
            if r.rule.arity >= wide and not r.constraints:
                for p in r.patterns:
                    if type(p) is not PatVar:
                        break
                else:
                    row, read = r, pending[id(r.rule)]
                    break
            wide = max(wide, r.rule.arity)
        need = rows[0].rule.arity if rows else 0
        if need <= have and row is not None:
            need = row.rule.arity
        store = 0
        for i, p in enumerate(m.positions if read else (), 1):
            if p in read and p not in slot_of:
                store = i
                break
        if not rows:
            node = FAIL
        elif need > have:
            node = Eos(None, need, None)
            few = tuple(r for r in rows if r.rule.arity < need)
            below = [
                (m, need, slot_of, binder_of, node, "succ"),
                (replace(m, rows=few), have, slot_of, binder_of, node, "fail"),
            ]
        elif store:
            node = Store(None, store)
            stored = {**slot_of, m.positions[store - 1]: len(slot_of)}
            below = [(m, have, stored, binder_of, node, "child")]
        elif row is not None:
            sel = {}
            for n, occ in row.rule.env.items():
                sel[n] = _selector(occ, slot_of, binder_of)
            node = Leaf(row.rule, sel)
        elif not check:
            col = _switch_column(m, item, have)
            if col > 1:
                m = swap_columns(m, col)
            pos = m.positions[0]
            save = pos not in slot_of and any(pos in pending[id(r.rule)] for r in rows)
            if save:
                slot_of = {**slot_of, pos: len(slot_of)}
            cases, lam, default = specialize(m)
            switch = Switch(dict.fromkeys(cases), None, None, save)
            node = Swap(col, switch) if col > 1 else switch
            below = [
                (sub, have, slot_of, binder_of, switch.sym_cases, case)
                for case, sub in cases.items()
            ]
            if lam is not None:
                opened = {**binder_of, pos: len(binder_of)}
                below += [(lam, have, slot_of, opened, switch, "lam_case")]
            if default is not None:
                below += [(default, have, slot_of, binder_of, switch, "default_case")]
        else:
            if type(item) is frozenset:
                sels = sorted(_selector(occ, slot_of, binder_of) for occ in item)
                (i, sel_i), (j, sel_j) = sels
                node = BinNl(None, (i, j), None, (sel_i, sel_j))
            else:
                pos, allowed = item
                within = tuple(sorted(binder_of[b] for b in allowed))
                shut = (k for b, k in binder_of.items() if encloses(b, pos))
                restricted = tuple(sorted(k for k in shut if k not in within))
                node = BinCl(None, slot_of[pos], within, None, restricted)
            below = [
                (cond_succ(item, m), have, slot_of, binder_of, node, "succ"),
                (cond_fail(item, m), have, slot_of, binder_of, node, "fail"),
            ]
        if type(into) is dict:
            into[at] = node
        else:
            setattr(into, at, node)
        todo.extend(reversed(below))
    return top[None]


def trees_of_ruleset(
    rules: Sequence[Rule], *, by_head: Optional[dict[str, list[Rule]]] = None
) -> dict[str, DTree]:
    """Validate the rules, raising RuleSetError, then compile one tree per
    head from all of its rules, of every arity, in text order.  A caller
    that has grouped ``rules`` by head already passes that as ``by_head``."""
    validate_rules(rules)
    if by_head is None:
        by_head = {}
        for r in rules:
            by_head.setdefault(r.head, []).append(r)
    return {head: compile_matrix(from_rules(rs)) for head, rs in by_head.items()}


# ---------------------------------------------------------------------------
# Inspection helpers


def _edges(node: DTree) -> list[tuple[Optional[str], DTree]]:
    """Children in print order, each with its edge label: none below Swap
    and Store, the case below Switch, yes or no below BinNl, BinCl and Eos."""
    t = type(node)
    if t is Swap or t is Store:
        return [(None, node.child)]
    if t is Switch:
        out = [(f"{name}/{argc}", c) for (name, argc), c in node.sym_cases.items()]
        if node.lam_case is not None:
            out.append(("lambda", node.lam_case))
        if node.default_case is not None:
            out.append(("*", node.default_case))
        return out
    if t is BinNl or t is BinCl or t is Eos:
        return [("yes", node.succ), ("no", node.fail)]
    return []


def iter_tree(tree: DTree) -> Iterator[tuple[int, Optional[str], DTree]]:
    """Preorder over all nodes as ``(depth, edge label, node)``; the root
    has depth 0 and no label.  The n-th item is the node that ``to_dot``
    numbers n.  Iterative, so a tree of any depth can be walked."""
    todo: list[tuple[int, Optional[str], DTree]] = [(0, None, tree)]
    while todo:
        item = todo.pop()
        yield item
        depth, _, node = item
        todo.extend((depth + 1, label, c) for label, c in reversed(_edges(node)))


def tree_stats(tree: DTree) -> dict:
    """Node counts by kind, maximum depth and maximum store size."""
    counts: dict[str, int] = {}
    max_depth = max_store = 0
    # saves[d]: how many of the first d nodes on the current path save a
    # subterm, that is, are a Store or a storing Switch
    saves = [0]
    for depth, _, node in iter_tree(tree):
        t = type(node)
        name = t.__name__.lower()
        counts[name] = counts.get(name, 0) + 1
        max_depth = max(max_depth, depth + 1)
        del saves[depth + 1 :]
        saves.append(saves[depth] + (t is Store or (t is Switch and node.store)))
        max_store = max(max_store, saves[-1])
    return {"counts": counts, "depth": max_depth, "store_size": max_store}


def _saved_text(slot: int, selector: tuple[int, ...]) -> str:
    """A store slot, with the snapshot indices of its formals if any."""
    return f"s{slot}[{','.join(map(str, selector))}]" if selector else f"s{slot}"


def _node_text(node: DTree, print_rhs) -> str:
    """One node's text, the same in both renderings."""
    t = type(node)
    if t is Leaf:
        binds = ", ".join(
            f"${n}<-{_saved_text(slot, sel)}"
            for n, (slot, sel) in sorted(node.env.items())
        )
        return f"leaf {print_rhs(node.rule.rhs)}" + (f" {{{binds}}}" if binds else "")
    if t is Fail:
        return "fail"
    if t is BinNl:
        return "eq? {} {}".format(*map(_saved_text, node.slots, node.formals))
    if t is BinCl:
        return f"closed? s{node.slot} within [{','.join(map(str, node.allowed))}]"
    if t is Eos:
        return f"args >= {node.arity}?"
    if t is Swap:
        return f"swap {node.index}"
    if t is Store:
        return "store" if node.index == 1 else f"store {node.index}"
    return "switch store" if node.store else "switch"


def tree_text(tree: DTree, print_rhs=repr) -> str:
    """Indented text rendering, deterministic."""
    return "\n".join(
        "  " * depth + (f"{label}: " if label else "") + _node_text(node, print_rhs)
        for depth, label, node in iter_tree(tree)
    )


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


# dot shapes other than the default box
_SHAPES = {Leaf: ", shape=ellipse", Fail: ", shape=ellipse", Switch: ", shape=circle"}


def to_dot(tree: DTree, print_rhs=repr) -> str:
    """Graphviz rendering; node ``n<k>`` is the k-th node of ``iter_tree``."""
    lines = ["digraph dtree {", "  node [shape=box, fontname=monospace];"]
    path: list[int] = []  # ids of the nodes above the current one
    for nid, (depth, label, node) in enumerate(iter_tree(tree)):
        text = _esc(_node_text(node, print_rhs))
        lines.append(f'  n{nid} [label="{text}"{_SHAPES.get(type(node), "")}];')
        del path[depth:]
        if path:
            edge = f' [label="{_esc(label)}"]' if label else ""
            lines.append(f"  n{path[-1]} -> n{nid}{edge};")
        path.append(nid)
    lines.append("}")
    return "\n".join(lines)
