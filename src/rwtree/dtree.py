"""Decision trees and the matrix-to-tree compiler.

A tree is a small program over a stack of subject terms and a store of saved
subterms: Switch head-normalises the stack top and dispatches on its head,
Swap reorders the stack, Store saves a stack entry without inspecting it, BinNl
and BinCl decide the repeated-variable and variable-occurrence constraints,
and Leaf yields an instantiable right-hand side.

A position that a constraint or a right-hand side needs is saved exactly
once.  If some Switch inspects it, that Switch saves it after head
normalisation (its ``store`` flag), so right-hand sides are built from
normalised subterms; otherwise a Store saves it unevaluated, and a column
is never forced only to be stored.

Compilation reduces a clause matrix step by step; ``choose_action`` picks
each step by one fixed rule, which switches on the column with the most
heads.  A Switch takes all of its symbol cases from one pass over the rows
(``matrix.spec_symbols``).  The compiler says where something is only by
position: the matrix carries the position of each column, and the compile
state maps each saved position to its store slot and each opened
abstraction, named by its position, to its index in the binder snapshot.

A tree is walked in one place: ``iter_tree`` yields every node in preorder
with its depth and edge label, taking a node's children from ``_edges``.
``tree_stats``, ``tree_text`` and ``to_dot`` consume that walk, so none of
them recurses, and both renderings print the same text for a node.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from .matrix import (
    ClauseMatrix,
    ConstraintKey,
    Occurrence,
    cond_fail,
    cond_succ,
    from_rules,
    spec_default,
    spec_lambda,
    spec_symbols,
    swap_columns,
)
from .patterns import (
    PatAbst,
    PatVar,
    Rule,
    SubstitutionError,
    validate_rules,
)
from .terms import Abst, App, MetaApp, Position, Prod, Term, Var, subst


class DTree:
    __slots__ = ()


# The evaluator's store: saved subterms, each with the binders opened when
# it was saved.
StoreEntries = Sequence[tuple[Term, tuple[Var, ...]]]
Builder = Callable[[StoreEntries], Term]


@dataclass(slots=True)
class Leaf(DTree):
    rhs: Term
    # pattern-variable name -> (store slot, indices into that slot's
    # binder snapshot selecting the closure formals)
    env: dict[str, tuple[int, tuple[int, ...]]]
    # build(store) -> the instantiated rhs; compiled from rhs and env when
    # the leaf is made
    build: Builder = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.build = rhs_builder(self.rhs, self.env)


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


# ---------------------------------------------------------------------------
# Right-hand-side builders


def rhs_builder(rhs: Term, env: dict[str, tuple[int, tuple[int, ...]]]) -> Builder:
    """Compile a right-hand side into a function of the store.

    The built term equals ``patterns.apply_subst`` node for node: subterms
    without pattern variables are the shared rhs objects, a bare ``$x`` is
    its stored term, ``$u[a...]`` substitutes the built arguments for the
    selected snapshot binders, and the nodes above a pattern variable are
    rebuilt around the rhs binders.  Raises SubstitutionError on an unbound
    name or an arity mismatch.
    """
    build = _builder(rhs, env)
    return build if build is not None else lambda store: rhs


def _builder(t: Term, env) -> Optional[Builder]:
    """Builder for ``t``, or None when ``t`` has no pattern variable."""
    tt = type(t)
    if tt is MetaApp:
        entry = env.get(t.name)
        if entry is None:
            raise SubstitutionError(f"unbound pattern variable ${t.name}")
        slot, selector = entry
        if len(selector) != len(t.args):
            raise SubstitutionError(
                f"arity mismatch for ${t.name}: "
                f"{len(selector)} formals, {len(t.args)} arguments"
            )
        if not t.args:
            return lambda store: store[slot][0]
        pairs = tuple((k, rhs_builder(a, env)) for k, a in zip(selector, t.args))

        def build_meta(store):
            term, snapshot = store[slot]
            return subst(term, {snapshot[k].vid: arg(store) for k, arg in pairs})

        return build_meta
    if tt is App:
        fn, arg = _builder(t.fn, env), _builder(t.arg, env)
        if fn is None and arg is None:
            return None
        if fn is None:
            head = t.fn
            return lambda store: App(head, arg(store))
        if arg is None:
            last = t.arg
            return lambda store: App(fn(store), last)
        return lambda store: App(fn(store), arg(store))
    if tt is Abst or tt is Prod:
        body = t.body if tt is Abst else t.codomain
        dom, inner = _builder(t.domain, env), _builder(body, env)
        if dom is None and inner is None:
            return None
        var, domain = t.var, t.domain
        dom = dom or (lambda store: domain)
        inner = inner or (lambda store: body)
        return lambda store: tt(var, dom(store), inner(store))
    return None  # Var, Symb, Sort, or an absent Abst domain


@dataclass(slots=True)
class CompileState:
    # store slot of each saved position
    slot_of: dict[Position, int] = field(default_factory=dict)
    # snapshot index of each opened abstraction, named by its position
    binder_of: dict[Position, int] = field(default_factory=dict)


Action = Union[
    tuple[str, int],  # ("yield", row) | ("specialize", column) | ("store", column)
    tuple[str, ConstraintKey],  # ("solve_nl", key) | ("solve_cl", key)
]


def _pending_positions(m: ClauseMatrix) -> set[Position]:
    """Positions that must be stored before a row can fire or be checked."""
    out: set[Position] = set()
    for row in m.rows:
        for pair in row.nl:
            out.update(pos for pos, _ in pair)
        for pos, _ in row.cl:
            out.add(pos)
        for pos, _ in row.env.values():
            out.add(pos)
    return out


def _solvable_keys(m: ClauseMatrix, st: CompileState) -> list[tuple[str, ConstraintKey]]:
    done = st.slot_of
    cl = {key for row in m.rows for key in row.cl if key[0] in done}
    nl = {
        pair
        for row in m.rows
        for pair in row.nl
        if all(pos in done for pos, _ in pair)
    }
    # the abstractions of one cl key all enclose its position, so sorting
    # them by position sorts them in the order they were opened
    out: list[tuple[str, ConstraintKey]] = [
        ("solve_cl", k) for k in sorted(cl, key=lambda k: (k[0], sorted(k[1])))
    ]
    out += [("solve_nl", k) for k in sorted(nl, key=sorted)]
    return out


def _column_heads(m: ClauseMatrix, i: int) -> int:
    return sum(1 for row in m.rows if type(row.patterns[i]) is not PatVar)


def _constraints_touching(m: ClauseMatrix, pos: Position) -> int:
    n = len(pos)
    count = 0
    for row in m.rows:
        for pair in row.nl:
            count += sum(1 for p, _ in pair if p[:n] == pos)
        for p, _ in row.cl:
            if p[:n] == pos:
                count += 1
    return count


def _unstored_column(
    m: ClauseMatrix, st: CompileState, wanted: set[Position]
) -> Optional[Action]:
    for i, pos in enumerate(m.positions):
        if pos in wanted and pos not in st.slot_of:
            return ("store", i + 1)
    return None


def _best_structural_column(m: ClauseMatrix) -> Optional[int]:
    best = None
    best_key = None
    for i, pos in enumerate(m.positions):
        heads = _column_heads(m, i)
        if heads == 0:
            continue
        key = (-heads, _constraints_touching(m, pos), i)
        if best_key is None or key < best_key:
            best_key = key
            best = i + 1
    return best


def choose_action(m: ClauseMatrix, st: CompileState) -> Action:
    """Next compilation step for a nonempty matrix.

    The first row that is all wildcards and unconstrained wins: store the
    leftmost of its right-hand-side positions that is not stored yet, or
    yield it once all are, without inspecting any column.  Otherwise work
    on the column with the most symbol or abstraction heads (ties: fewer
    constraints touching its position, then lower index); otherwise solve a
    decided constraint; otherwise store a column whose position a
    constraint still needs.
    """
    for k, row in enumerate(m.rows):
        if row.nl or row.cl or any(type(p) is not PatVar for p in row.patterns):
            continue
        needed = {pos for pos, _ in row.env.values()}
        return _unstored_column(m, st, needed) or ("yield", k)
    col = _best_structural_column(m)
    if col is not None:
        return ("specialize", col)
    solvable = _solvable_keys(m, st)
    if solvable:
        return solvable[0]
    action = _unstored_column(m, st, _pending_positions(m))
    if action is None:
        raise AssertionError("no action applies to a nonempty matrix")
    return action


def _slot_selector(st: CompileState, occ: Occurrence) -> tuple[int, tuple[int, ...]]:
    """Store slot and snapshot selector of a pattern-variable occurrence."""
    pos, formals = occ
    return st.slot_of[pos], tuple(st.binder_of[at] for at in formals)


def compile_matrix(m: ClauseMatrix) -> DTree:
    """Compile a clause matrix to a decision tree.

    Total: an empty matrix compiles to Fail.  A position that a constraint
    or a right-hand-side binding refers to is stored once: by the Switch
    that consumes it, after head normalisation, or by a Store when no
    Switch inspects it.
    """
    return _compile(m, CompileState())


def _compile(m: ClauseMatrix, st: CompileState) -> DTree:
    if not m.rows:
        return FAIL
    kind, arg = choose_action(m, st)
    if kind == "yield":
        row = m.rows[arg]
        env = {name: _slot_selector(st, occ) for name, occ in row.env.items()}
        return Leaf(row.rhs, env)
    if kind == "solve_nl":
        (i, sel_i), (j, sel_j) = sorted(_slot_selector(st, occ) for occ in arg)
        succ, fail = _compile(cond_succ(arg, m), st), _compile(cond_fail(arg, m), st)
        return BinNl(succ, (i, j), fail, (sel_i, sel_j))
    if kind == "solve_cl":
        pos, allowed = arg
        restricted = sorted(
            k
            for at, k in st.binder_of.items()
            if at not in allowed and len(at) < len(pos) and pos[: len(at)] == at
        )
        return BinCl(
            _compile(cond_succ(arg, m), st),
            st.slot_of[pos],
            tuple(sorted(st.binder_of[at] for at in allowed)),
            _compile(cond_fail(arg, m), st),
            tuple(restricted),
        )
    i = arg
    if kind == "store":
        return Store(_compile(m, _stored(st, m.positions[i - 1])), i)
    # "specialize": bring column i to the front first
    if i == 1:
        return _compile_front(m, st)
    return Swap(i, _compile_front(swap_columns(m, i), st))


def _stored(st: CompileState, pos: Position) -> CompileState:
    """State after saving ``pos`` in the next store slot."""
    return CompileState({**st.slot_of, pos: len(st.slot_of)}, st.binder_of)


def _compile_front(m: ClauseMatrix, st: CompileState) -> DTree:
    pos = m.positions[0]
    store = pos not in st.slot_of and pos in _pending_positions(m)
    if store:
        st = _stored(st, pos)

    sym_cases = {key: _compile(sub, st) for key, sub in spec_symbols(m).items()}
    lam_case = default_case = None
    if any(type(row.patterns[0]) is PatAbst for row in m.rows):
        opened = CompileState(st.slot_of, {**st.binder_of, pos: len(st.binder_of)})
        lam_case = _compile(spec_lambda(m), opened)
    if any(type(row.patterns[0]) is PatVar for row in m.rows):
        default_case = _compile(spec_default(m), st)
    return Switch(sym_cases, lam_case, default_case, store)


def trees_of_ruleset(rules: Sequence[Rule]) -> dict[tuple[str, int], DTree]:
    """Validate the rules, raising RuleSetError, then compile one tree per
    (head symbol, left-hand-side arity) group."""
    validate_rules(rules)
    groups: dict[tuple[str, int], list[Rule]] = {}
    for r in rules:
        groups.setdefault((r.head, r.arity), []).append(r)
    return {
        (head, arity): compile_matrix(from_rules(head, rs))
        for (head, arity), rs in groups.items()
    }


# ---------------------------------------------------------------------------
# Inspection helpers


def _edges(node: DTree) -> list[tuple[Optional[str], DTree]]:
    """Children in print order, each with its edge label: none below Swap
    and Store, the case below Switch, yes or no below BinNl and BinCl."""
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
    if t is BinNl or t is BinCl:
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
        return f"leaf {print_rhs(node.rhs)}" + (f" {{{binds}}}" if binds else "")
    if t is Fail:
        return "fail"
    if t is BinNl:
        return "eq? {} {}".format(*map(_saved_text, node.slots, node.formals))
    if t is BinCl:
        return f"closed? s{node.slot} within [{','.join(map(str, node.allowed))}]"
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
