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

Compilation reduces a clause matrix step by step.  The step to take next is
chosen by a pluggable heuristic; every heuristic must produce a tree that the
declarative matcher validates, they only differ in shape and efficiency.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .matrix import (
    ClauseMatrix,
    ClauseRow,
    ClKey,
    ConstraintKey,
    cond_fail,
    cond_succ,
    from_rules,
    spec_default,
    spec_lambda,
    specialise,
    swap_columns,
)
from .patterns import PatAbst, PatSymb, PatVar, Rule, SubstitutionError
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


@dataclass(slots=True)
class BinCl(DTree):
    succ: DTree
    slot: int
    allowed: tuple[int, ...]  # snapshot indices
    fail: DTree


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
    positions: tuple[Position, ...]
    store_size: int = 0
    slot_of: dict[Position, int] = field(default_factory=dict)


Action = Union[
    tuple[str, int],  # ("yield", row) | ("specialize", column) | ("store", column)
    tuple[str, ConstraintKey],  # ("solve_nl", key) | ("solve_cl", key)
]

Chooser = Callable[[ClauseMatrix, CompileState], Action]


def _pending_positions(m: ClauseMatrix) -> set[Position]:
    """Positions that must be stored before a row can fire or be checked."""
    out: set[Position] = set()
    for row in m.rows:
        for pair in row.nl:
            out |= pair
        for pos, _ in row.cl:
            out.add(pos)
        for pos, _ in row.env.values():
            out.add(pos)
    return out


def _solvable_keys(m: ClauseMatrix, st: CompileState) -> list[tuple[str, ConstraintKey]]:
    done = st.slot_of
    cl: set[ClKey] = set()
    nl: set[frozenset] = set()
    for row in m.rows:
        for entry in row.cl:
            if entry[0] in done:
                key = row.cl_key(entry)
                if key is not None:
                    cl.add(key)
        for pair in row.nl:
            if all(p in done for p in pair):
                nl.add(pair)
    out: list[tuple[str, ConstraintKey]] = [
        ("solve_cl", k) for k in sorted(cl, key=lambda k: (k.pos, sorted(k.slots)))
    ]
    out += [("solve_nl", k) for k in sorted(nl, key=lambda k: sorted(k))]
    return out


def _column_heads(m: ClauseMatrix, i: int) -> int:
    return sum(1 for row in m.rows if type(row.patterns[i]) is not PatVar)


def _constraints_touching(m: ClauseMatrix, pos: Position) -> int:
    n = len(pos)
    count = 0
    for row in m.rows:
        for pair in row.nl:
            count += sum(1 for p in pair if p[:n] == pos)
        for p, _ in row.cl:
            if p[:n] == pos:
                count += 1
    return count


def _unstored_column(st: CompileState, wanted: set[Position]) -> Optional[Action]:
    for i, pos in enumerate(st.positions):
        if pos in wanted and pos not in st.slot_of:
            return ("store", i + 1)
    return None


def _choose(m: ClauseMatrix, st: CompileState, structural: Callable) -> Action:
    for k, row in enumerate(m.rows):
        if row.nl or row.cl or any(type(p) is not PatVar for p in row.patterns):
            continue
        needed = {pos for pos, _ in row.env.values()}
        return _unstored_column(st, needed) or ("yield", k)
    col = structural(m, st)
    if col is not None:
        return ("specialize", col)
    solvable = _solvable_keys(m, st)
    if solvable:
        return solvable[0]
    action = _unstored_column(st, _pending_positions(m))
    if action is None:
        raise AssertionError("no action applies to a nonempty matrix")
    return action


def _best_structural_column(m: ClauseMatrix, st: CompileState) -> Optional[int]:
    best = None
    best_key = None
    for i in range(m.width):
        heads = _column_heads(m, i)
        if heads == 0:
            continue
        key = (-heads, _constraints_touching(m, st.positions[i]), i)
        if best_key is None or key < best_key:
            best_key = key
            best = i + 1
    return best


def _leftmost_structural_column(m: ClauseMatrix, st: CompileState) -> Optional[int]:
    for i in range(m.width):
        if _column_heads(m, i) > 0:
            return i + 1
    return None


def choose_max_constructors(m: ClauseMatrix, st: CompileState) -> Action:
    return _choose(m, st, _best_structural_column)


def choose_left_right(m: ClauseMatrix, st: CompileState) -> Action:
    return _choose(m, st, _leftmost_structural_column)


HEURISTICS: dict[str, Chooser] = {
    "max-constructors": choose_max_constructors,
    "left-right": choose_left_right,
}


def choose_action(
    m: ClauseMatrix, st: CompileState, heuristic: str = "max-constructors"
) -> Action:
    """Next compilation step for a nonempty matrix.

    The first row that is all wildcards and unconstrained wins: store the
    leftmost of its right-hand-side positions that is not stored yet, or
    yield it once all are, without inspecting any column.  Otherwise work
    on the column with the most symbol or abstraction heads (ties: fewer
    constraints touching its position, then lower index); otherwise solve a
    decided constraint; otherwise store a column whose position a
    constraint still needs.
    """
    return HEURISTICS[heuristic](m, st)


def _make_leaf(row: ClauseRow, st: CompileState) -> Leaf:
    env = {}
    for name, (pos, formals) in row.env.items():
        slot = st.slot_of[pos]
        env[name] = (slot, tuple(row.binder_index[v.vid] for v in formals))
    return Leaf(row.rhs, env)


def compile_matrix(
    m: ClauseMatrix,
    st: Optional[CompileState] = None,
    heuristic: str = "max-constructors",
) -> DTree:
    """Compile a clause matrix to a decision tree.

    Total: an empty matrix compiles to Fail.  A position that a constraint
    or a right-hand-side binding refers to is stored once: by the Switch
    that consumes it, after head normalisation, or by a Store when no
    Switch inspects it.
    """
    if st is None:
        st = CompileState(tuple((i,) for i in range(1, m.width + 1)))
    choose = HEURISTICS[heuristic]
    return _compile(m, st, choose)


def _compile(m: ClauseMatrix, st: CompileState, choose: Chooser) -> DTree:
    if not m.rows:
        return FAIL
    kind, arg = choose(m, st)
    if kind == "yield":
        return _make_leaf(m.rows[arg], st)
    if kind == "solve_nl":
        key = arg
        a, b = sorted(key)
        slots = (st.slot_of[a], st.slot_of[b])
        slots = (min(slots), max(slots))
        return BinNl(
            _compile(cond_succ(key, m), st, choose),
            slots,
            _compile(cond_fail(key, m), st, choose),
        )
    if kind == "solve_cl":
        key = arg
        return BinCl(
            _compile(cond_succ(key, m), st, choose),
            st.slot_of[key.pos],
            tuple(sorted(key.slots)),
            _compile(cond_fail(key, m), st, choose),
        )
    i = arg
    if kind == "store":
        return Store(_compile(m, _stored(st, i), choose), i)
    # "specialize": bring column i to the front first
    if i == 1:
        return _compile_front(m, st, choose)
    m = swap_columns(m, i)
    ps = list(st.positions)
    ps[0], ps[i - 1] = ps[i - 1], ps[0]
    st = CompileState(tuple(ps), st.store_size, st.slot_of)
    return Swap(i, _compile_front(m, st, choose))


def _stored(st: CompileState, i: int) -> CompileState:
    """State after saving column ``i`` (1-based) in the next store slot."""
    pos = st.positions[i - 1]
    return CompileState(
        st.positions, st.store_size + 1, {**st.slot_of, pos: st.store_size}
    )


def _compile_front(m: ClauseMatrix, st: CompileState, choose: Chooser) -> DTree:
    pos = st.positions[0]
    store = pos not in st.slot_of and pos in _pending_positions(m)
    if store:
        st = _stored(st, 1)

    sym_keys = sorted(
        {
            (p.symbol, len(p.args))
            for row in m.rows
            if type(p := row.patterns[0]) is PatSymb
        }
    )
    has_lam = any(type(row.patterns[0]) is PatAbst for row in m.rows)
    has_wild = any(type(row.patterns[0]) is PatVar for row in m.rows)
    rest = st.positions[1:]

    sym_cases = {}
    for name, argc in sym_keys:
        sub_positions = tuple(pos + (j,) for j in range(1, argc + 1)) + rest
        sub_st = CompileState(sub_positions, st.store_size, st.slot_of)
        sym_cases[(name, argc)] = _compile(specialise(name, argc, m), sub_st, choose)
    lam_case = None
    if has_lam:
        sub_st = CompileState((pos + (1,),) + rest, st.store_size, st.slot_of)
        lam_case = _compile(spec_lambda(m), sub_st, choose)
    default_case = None
    if has_wild:
        sub_st = CompileState(rest, st.store_size, st.slot_of)
        default_case = _compile(spec_default(m), sub_st, choose)
    return Switch(sym_cases, lam_case, default_case, store)


def trees_of_ruleset(
    rules: Sequence[Rule], heuristic: str = "max-constructors"
) -> dict[tuple[str, int], DTree]:
    """Compile one tree per (head symbol, left-hand-side arity) group."""
    groups: dict[tuple[str, int], list[Rule]] = {}
    for r in rules:
        groups.setdefault((r.head, r.arity), []).append(r)
    return {
        (head, arity): compile_matrix(from_rules(head, rs), heuristic=heuristic)
        for (head, arity), rs in groups.items()
    }


# ---------------------------------------------------------------------------
# Inspection helpers


def iter_tree(tree: DTree):
    """Preorder over all nodes."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        t = type(node)
        if t in (Swap, Store):
            todo.append(node.child)
        elif t is Switch:
            children = list(node.sym_cases.values())
            if node.lam_case is not None:
                children.append(node.lam_case)
            if node.default_case is not None:
                children.append(node.default_case)
            todo.extend(reversed(children))
        elif t in (BinNl, BinCl):
            todo.append(node.fail)
            todo.append(node.succ)


def tree_stats(tree: DTree) -> dict:
    """Node counts by kind, maximum depth and maximum store size."""
    counts: dict[str, int] = {}
    max_depth = 0
    max_store = 0
    todo: list[tuple[DTree, int, int]] = [(tree, 1, 0)]
    while todo:
        node, depth, stores = todo.pop()
        name = type(node).__name__.lower()
        counts[name] = counts.get(name, 0) + 1
        max_depth = max(max_depth, depth)
        t = type(node)
        if t is Store or (t is Switch and node.store):
            stores += 1
            max_store = max(max_store, stores)
        if t in (Store, Swap):
            todo.append((node.child, depth + 1, stores))
        elif t is Switch:
            for child in node.sym_cases.values():
                todo.append((child, depth + 1, stores))
            if node.lam_case is not None:
                todo.append((node.lam_case, depth + 1, stores))
            if node.default_case is not None:
                todo.append((node.default_case, depth + 1, stores))
        elif t in (BinNl, BinCl):
            todo.append((node.succ, depth + 1, stores))
            todo.append((node.fail, depth + 1, stores))
    return {"counts": counts, "depth": max_depth, "store_size": max_store}


def erase_stores(tree: DTree) -> DTree:
    """Tree with every Store node spliced out and every Switch store flag
    cleared; shape comparison helper."""
    t = type(tree)
    if t is Store:
        return erase_stores(tree.child)
    if t is Swap:
        return Swap(tree.index, erase_stores(tree.child))
    if t is Switch:
        return Switch(
            {k: erase_stores(v) for k, v in tree.sym_cases.items()},
            erase_stores(tree.lam_case) if tree.lam_case is not None else None,
            erase_stores(tree.default_case)
            if tree.default_case is not None
            else None,
        )
    if t is BinNl:
        return BinNl(erase_stores(tree.succ), tree.slots, erase_stores(tree.fail))
    if t is BinCl:
        return BinCl(
            erase_stores(tree.succ), tree.slot, tree.allowed, erase_stores(tree.fail)
        )
    return tree


def tree_equal(a: DTree, b: DTree) -> bool:
    """Structural equality; Leaf right-hand sides compare by identity."""
    ta = type(a)
    if ta is not type(b):
        return False
    if ta is Fail:
        return True
    if ta is Leaf:
        return a.rhs is b.rhs and a.env == b.env
    if ta is Swap:
        return a.index == b.index and tree_equal(a.child, b.child)
    if ta is Store:
        return a.index == b.index and tree_equal(a.child, b.child)
    if ta is Switch:
        if a.store != b.store or list(a.sym_cases) != list(b.sym_cases):
            return False
        if not all(tree_equal(a.sym_cases[k], b.sym_cases[k]) for k in a.sym_cases):
            return False
        for x, y in ((a.lam_case, b.lam_case), (a.default_case, b.default_case)):
            if (x is None) != (y is None):
                return False
            if x is not None and not tree_equal(x, y):
                return False
        return True
    if ta is BinNl:
        return (
            a.slots == b.slots
            and tree_equal(a.succ, b.succ)
            and tree_equal(a.fail, b.fail)
        )
    if ta is BinCl:
        return (
            a.slot == b.slot
            and a.allowed == b.allowed
            and tree_equal(a.succ, b.succ)
            and tree_equal(a.fail, b.fail)
        )
    return False


def _store_label(node: Store) -> str:
    return "store" if node.index == 1 else f"store {node.index}"


def tree_text(tree: DTree, print_rhs=repr) -> str:
    """Indented text rendering, deterministic."""
    lines: list[str] = []

    def go(node: DTree, indent: int, prefix: str = ""):
        pad = "  " * indent + prefix
        t = type(node)
        if t is Leaf:
            binds = ""
            if node.env:
                binds = " {" + ", ".join(
                    f"${n}<-s{slot}"
                    + (f"[{','.join(map(str, sel))}]" if sel else "")
                    for n, (slot, sel) in sorted(node.env.items())
                ) + "}"
            lines.append(f"{pad}leaf {print_rhs(node.rhs)}{binds}")
        elif t is Fail:
            lines.append(f"{pad}fail")
        elif t is Swap:
            lines.append(f"{pad}swap {node.index}")
            go(node.child, indent + 1)
        elif t is Store:
            lines.append(f"{pad}{_store_label(node)}")
            go(node.child, indent + 1)
        elif t is Switch:
            lines.append(f"{pad}switch store" if node.store else f"{pad}switch")
            for (name, argc), child in node.sym_cases.items():
                go(child, indent + 1, f"{name}/{argc}: ")
            if node.lam_case is not None:
                go(node.lam_case, indent + 1, "lambda: ")
            if node.default_case is not None:
                go(node.default_case, indent + 1, "*: ")
        elif t is BinNl:
            i, j = node.slots
            lines.append(f"{pad}eq? s{i} s{j}")
            go(node.succ, indent + 1, "yes: ")
            go(node.fail, indent + 1, "no: ")
        elif t is BinCl:
            sel = ",".join(map(str, node.allowed))
            lines.append(f"{pad}closed? s{node.slot} within [{sel}]")
            go(node.succ, indent + 1, "yes: ")
            go(node.fail, indent + 1, "no: ")

    go(tree, 0)
    return "\n".join(lines)


def to_dot(tree: DTree, print_rhs=repr) -> str:
    """Graphviz rendering with deterministic preorder node ids."""
    lines = ["digraph dtree {", "  node [shape=box, fontname=monospace];"]
    counter = [0]

    def esc(s: str) -> str:
        return s.replace("\\", "\\\\").replace('"', '\\"')

    def emit(node: DTree) -> int:
        nid = counter[0]
        counter[0] += 1
        t = type(node)
        if t is Leaf:
            lines.append(f'  n{nid} [label="{esc(print_rhs(node.rhs))}", shape=ellipse];')
        elif t is Fail:
            lines.append(f'  n{nid} [label="x", shape=ellipse];')
        elif t is Swap:
            lines.append(f'  n{nid} [label="swap {node.index}"];')
            c = emit(node.child)
            lines.append(f"  n{nid} -> n{c};")
        elif t is Store:
            lines.append(f'  n{nid} [label="{_store_label(node)}"];')
            c = emit(node.child)
            lines.append(f"  n{nid} -> n{c};")
        elif t is Switch:
            label = "switch store" if node.store else "switch"
            lines.append(f'  n{nid} [label="{label}", shape=circle];')
            for (name, argc), child in node.sym_cases.items():
                c = emit(child)
                lines.append(f'  n{nid} -> n{c} [label="{esc(name)}/{argc}"];')
            if node.lam_case is not None:
                c = emit(node.lam_case)
                lines.append(f'  n{nid} -> n{c} [label="lambda"];')
            if node.default_case is not None:
                c = emit(node.default_case)
                lines.append(f'  n{nid} -> n{c} [label="*"];')
        elif t is BinNl:
            i, j = node.slots
            lines.append(f'  n{nid} [label="s{i} = s{j} ?"];')
            c1 = emit(node.succ)
            c2 = emit(node.fail)
            lines.append(f'  n{nid} -> n{c1} [label="yes"];')
            lines.append(f'  n{nid} -> n{c2} [label="no"];')
        elif t is BinCl:
            sel = ",".join(map(str, node.allowed))
            lines.append(f'  n{nid} [label="fv(s{node.slot}) in [{sel}] ?"];')
            c1 = emit(node.succ)
            c2 = emit(node.fail)
            lines.append(f'  n{nid} -> n{c1} [label="yes"];')
            lines.append(f'  n{nid} -> n{c2} [label="no"];')
        return nid

    emit(tree)
    lines.append("}")
    return "\n".join(lines)
