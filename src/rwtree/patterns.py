"""Rewrite-rule patterns, rule validation, the declarative matcher and
right-hand-side instantiation.

The matcher here is the reference semantics: it walks a pattern vector over a
term vector directly, with no compilation, in one loop over a work list.  The
compiled engine is checked against it, so this module must stay simple and
obviously correct.

A right-hand side is instantiated in one place, ``rhs_builder``, which
generates one straight-line function of a store and binders for it.  Both
engines compile it when a rule first fires, and keep it: a tree Leaf one
over the tree's store slots and the binders opened on the path to the Leaf
(``engine.instantiate``), and ``apply_subst`` one per rule over the match
witness, a store keyed by name whose closures carry their own formals.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .terms import (
    Abst,
    App,
    MetaApp,
    Position,
    Sort,
    Symb,
    Term,
    Var,
    alpha_eq,
    build_app,
    free_vars,
    fresh_var,
    subst,
)


class RuleSetError(Exception):
    """One or more rules failed validation."""

    def __init__(self, violations: dict[str, list[str]]):
        self.violations = violations
        lines = [
            f"{label}: {msg}" for label, msgs in violations.items() for msg in msgs
        ]
        super().__init__("invalid rules:\n" + "\n".join(lines))


class Pattern:
    __slots__ = ()


@dataclass(slots=True)
class PatVar(Pattern):
    """Higher-order pattern variable applied to distinct bound variables.

    ``name`` is None for the anonymous wildcard ``_``, which binds nothing
    and imposes no condition.
    """

    name: Optional[str]
    args: tuple[Var, ...] = ()

    def __repr__(self):
        base = "_" if self.name is None else f"${self.name}"
        if self.args:
            return base + "[" + ",".join(v.name for v in self.args) + "]"
        return base


@dataclass(slots=True)
class PatSymb(Pattern):
    symbol: str
    args: tuple[Pattern, ...] = ()

    def __repr__(self):
        if not self.args:
            return self.symbol
        return "(" + " ".join([self.symbol] + [repr(a) for a in self.args]) + ")"


@dataclass(slots=True)
class PatAbst(Pattern):
    var: Var
    body: Pattern

    def __repr__(self):
        return f"(\\{self.var.name}, {self.body!r})"


WILDCARD = PatVar(None, ())


# The right-hand-side binders that change from one firing to the next,
# keyed by the vid of the rule's binder Var: each stands for the subject
# binder that is the j-th formal of a pattern variable, given as (name, j),
# or for a fresh variable at every firing (None).  An absent binder keeps
# the rule's Var.  See ``analyse_rhs``.
BinderSource = Optional[tuple[str, int]]
BinderSources = dict[int, BinderSource]


# An occurrence of a pattern variable: its position and, for each of its
# arguments, the position of the abstraction binding it (None when no
# enclosing abstraction does, which validation reports).
Occurrence = tuple[Position, tuple[Optional[Position], ...]]


@dataclass(slots=True)
class Rule:
    head: str
    lhs_args: tuple[Pattern, ...]
    rhs: Term
    label: str = ""
    # computed once, when the rule is made, by one walk of each side, for
    # validation, the clause matrix and both engines: each named pattern
    # variable's occurrences and those some enclosing binder may not reach
    # (``analyse_lhs``); the rhs's pattern-variable applications in preorder,
    # the first occurrence of each name it uses, and the rhs binders that
    # change per firing (``analyse_rhs``); and the arity, ``len(lhs_args)``
    occurrences: dict[str, list[Occurrence]] = field(
        init=False, repr=False, compare=False
    )
    restricted: tuple[Occurrence, ...] = field(init=False, repr=False, compare=False)
    rhs_metas: tuple[MetaApp, ...] = field(init=False, repr=False, compare=False)
    env: dict[str, Occurrence] = field(init=False, repr=False, compare=False)
    binders: BinderSources = field(init=False, repr=False, compare=False)
    arity: int = field(init=False, repr=False, compare=False)
    # the naive engine's builder, compiled on the rule's first naive firing
    # (``apply_subst``), so that set-up compiles none
    naive_build: Optional[Builder] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.arity = len(self.lhs_args)
        self.occurrences, self.restricted = analyse_lhs(self.lhs_args)
        self.rhs_metas, self.env, self.binders = analyse_rhs(self)

    def __repr__(self):
        lhs = " ".join([self.head] + [repr(p) for p in self.lhs_args])
        return f"<{self.label or 'rule'}: {lhs} --> {self.rhs!r}>"


class Closure(NamedTuple):
    """Match witness for one pattern variable: a term abstracted over the
    traversed binders the variable was applied to.  A Substitution is a
    store keyed by name: a builder reads the body of an entry where a tree
    Leaf's reads a slot, and its formals where a Leaf's reads the binders
    opened on the path (see ``rhs_builder``)."""

    body: Term
    formals: tuple[Var, ...]


Substitution = dict[str, Closure]


def analyse_lhs(
    pats: Sequence[Pattern],
) -> tuple[dict[str, list[Occurrence]], tuple[Occurrence, ...]]:
    """One walk of a left-hand side: the occurrences of each named pattern
    variable, keyed in the order names first occur, and the occurrences
    that some enclosing binder may not reach, because the variable is not
    applied to it.  Wildcards are not recorded.

    Positions are sequence positions: component one selects the argument,
    the rest descends into it.  Preorder, so each name's occurrences come
    in increasing lexicographic order and its first occurrence comes first.
    """
    occurrences: dict[str, list[Occurrence]] = {}
    restricted: list[Occurrence] = []
    # the scope pairs each enclosing binder's vid with the position of its
    # abstraction, outermost first
    stack = [(p, (i,), ()) for i, p in enumerate(pats, start=1)]
    stack.reverse()
    while stack:
        q, pos, scope = stack.pop()
        tq = type(q)
        if tq is PatVar:
            if q.name is None:
                continue
            abst_of = dict(scope)
            occ = (pos, tuple(abst_of.get(v.vid) for v in q.args))
            occurrences.setdefault(q.name, []).append(occ)
            if len(q.args) < len(scope):
                restricted.append(occ)
        elif tq is PatSymb:
            for j in range(len(q.args), 0, -1):
                stack.append((q.args[j - 1], pos + (j,), scope))
        else:  # PatAbst
            stack.append((q.body, pos + (1,), scope + ((q.var.vid, pos),)))
    return occurrences, tuple(restricted)


def encloses(at: Position, pos: Position) -> bool:
    """Whether the abstraction at ``at`` encloses position ``pos``: its
    position is a proper prefix of ``pos``."""
    return len(at) < len(pos) and pos[: len(at)] == at


def validate_rule(rule: Rule) -> list[str]:
    """Check rule well-formedness; returns a list of violations (empty = ok).

    Checks: pattern-variable arguments are distinct variables bound by
    enclosing abstractions, right-hand-side variables all occur on the left,
    and every occurrence of a name uses one arity.
    """
    violations: list[str] = []
    for name, occs in rule.occurrences.items():
        arity = len(occs[0][1])
        for pos, formals in occs:
            for k, at in enumerate(formals):
                if at is None:
                    violations.append(
                        f"argument {k + 1} of ${name} at {_fmt(pos)} "
                        "is not bound by an enclosing abstraction"
                    )
                elif at in formals[:k]:
                    violations.append(
                        f"non-distinct bound arguments of ${name} at {_fmt(pos)}"
                    )
                    break
            if len(formals) != arity:
                violations.append(
                    f"inconsistent arity for ${name}: {arity} vs {len(formals)}"
                )

    for m in rule.rhs_metas:
        if m.name is None:
            violations.append("wildcard _ in right-hand side")
            continue
        occs = rule.occurrences.get(m.name)
        if occs is None:
            violations.append(f"unbound rhs variable ${m.name}")
        elif len(occs[0][1]) != len(m.args):
            violations.append(
                f"rhs arity mismatch for ${m.name}: "
                f"{len(occs[0][1])} vs {len(m.args)}"
            )
    return violations


def validate_rules(rules: Sequence[Rule]) -> None:
    """Validate every rule; raise RuleSetError with all the violations,
    keyed by rule label (``rule N`` when a rule has none).  Rules that
    share a label keep their violations under it in order."""
    bad: dict[str, list[str]] = {}
    for i, rule in enumerate(rules, start=1):
        violations = validate_rule(rule)
        if violations:
            bad.setdefault(rule.label or f"rule {i}", []).extend(violations)
    if bad:
        raise RuleSetError(bad)


def _fmt(pos: tuple[int, ...]) -> str:
    return ".".join(map(str, pos)) if pos else "e"


def analyse_rhs(
    rule: Rule,
) -> tuple[tuple[MetaApp, ...], dict[str, Occurrence], BinderSources]:
    """One walk of the right-hand side: its pattern-variable applications
    in preorder, the first occurrence on the left of each name they use,
    and the binder each of its abstractions takes when the rule fires.

    A binder whose scope holds no pattern variable and refers to no binder
    that changes per firing is a constant: it keeps the rule's Var and is
    not in the map.  Every other binder ``x`` stands for the subject binder
    that is the j-th formal of ``$u``, mapped as ``(u, j)``, when, with A
    the left-hand-side abstraction of that formal:

    1. every pattern variable in x's scope first occurs under A, so A's
       binder is free in what they stand for only as a formal of A;
    2. nothing in x's scope refers to an outer right-hand-side binder that
       was also given A, which x would capture.

    The formals that ``x`` is passed to are tried first, then every formal
    of the pattern variables in its scope.  A binder that gets none of them,
    or whose scope holds no pattern variable but refers to a changing
    binder, is a fresh variable at every firing (None).  So ``$u[x]`` with
    ``x`` mapped to ``(u, 0)`` needs no renaming, nor does the beta step
    ``(\\s, b) s`` of a result that reuses ``s``.  A Var that binds two
    abstractions of the right-hand side, which no parsed rule has, is fresh
    at both when either changes.
    """
    rhs = rule.rhs
    tr = type(rhs)
    if tr is Symb or tr is Sort:
        return (), {}, {}
    # every abstraction, outer ones first, as its binder's vid; every
    # pattern-variable application and every bound variable, in preorder,
    # with the abstractions enclosing it
    vids: list[int] = []
    meta_apps: list[tuple[MetaApp, tuple[int, ...]]] = []
    var_refs: list[tuple[Var, tuple[int, ...]]] = []
    todo: list[tuple[Term, tuple[int, ...]]] = [(rhs, ())]
    while todo:
        t, chain = todo.pop()
        tt = type(t)
        if tt is App:
            todo.append((t.arg, chain))
            todo.append((t.fn, chain))
        elif tt is Var:
            var_refs.append((t, chain))
        elif tt is MetaApp:
            meta_apps.append((t, chain))
            todo.extend((a, chain) for a in reversed(t.args))
        elif tt is Abst:
            todo.append((t.body, chain + (len(vids),)))
            vids.append(t.var.vid)
    rhs_metas = tuple(m for m, _ in meta_apps)
    env = {
        m.name: occs[0] for m in rhs_metas if (occs := rule.occurrences.get(m.name))
    }
    if not meta_apps or not vids:
        return rhs_metas, env, {}

    def binder_of(v: Var, chain: tuple[int, ...]) -> Optional[int]:
        for i in reversed(chain):
            if vids[i] == v.vid:
                return i
        return None

    # per abstraction: the pattern variables in its scope, the outer
    # abstractions its scope refers to and the formals its binder is
    # passed to
    metas: list[set[str]] = [set() for _ in vids]
    outer: list[set[int]] = [set() for _ in vids]
    passed: list[list[tuple[str, int]]] = [[] for _ in vids]
    for m, chain in meta_apps:
        for i in chain:
            metas[i].add(m.name)
        for j, a in enumerate(m.args):
            if type(a) is Var and (k := binder_of(a, chain)) is not None:
                passed[k].append((m.name, j))
    for v, chain in var_refs:
        k = binder_of(v, chain)
        for i in chain:
            if k is not None and i > k:
                outer[i].add(k)
    if not any(metas):
        return rhs_metas, env, {}  # every binder is a constant

    changes: list[bool] = []
    given: list[Optional[Position]] = []  # the A of each abstraction's source
    out: BinderSources = {}
    for i, vid in enumerate(vids):
        changes.append(bool(metas[i]) or any(changes[r] for r in outer[i]))
        given.append(None)
        if not changes[i]:
            continue
        out[vid] = None
        if not all(m in env for m in metas[i]):
            continue  # an unbound name or a wildcard, which validation reports
        taken = {given[r] for r in outer[i]}
        in_scope = [(u, j) for u in sorted(metas[i]) for j in range(len(env[u][1]))]
        for u, j in passed[i] + in_scope:
            formals = env[u][1]
            at = formals[j] if j < len(formals) else None
            if at is None or at in taken:
                continue
            if all(encloses(at, env[m][0]) for m in metas[i]):
                out[vid], given[i] = (u, j), at
                break
    for vid in out:
        if vids.count(vid) > 1:
            out[vid] = None
    return rhs_metas, env, out


def abstract_formals(t: Term, formals: Sequence[Var]) -> Term:
    """``\\x1, … \\xk, t`` for the formals ``x1 … xk`` of one occurrence of
    a pattern variable.  Two occurrences of a non-linear variable are
    compared this way: the equality binds the k-th binder of each side to
    one level, so ``$v[x]`` matched against ``c x`` and ``$v[y]`` against
    ``c y`` agree, with no fresh variable and no substitution."""
    for v in reversed(formals):
        t = Abst(v, None, t)
    return t


_NO_BINDERS: frozenset[int] = frozenset()
_NO_BINDER_MAP: dict[int, Var] = {}  # never written: a binder makes a new map


class Hooks(dict):
    """The relation the matcher decides, as one object: by default the
    syntactic one, and for an engine that matches modulo reduction a
    subclass (``engine.WhnfMemo``).

    - ``hooks[t]`` is the head normal form of a subject ``t``, taken before
      a structural pattern inspects it.  Here it is ``t`` itself, through a
      ``__missing__`` that stores nothing; a subclass may keep what it
      computes, so a hit runs no Python code.
    - ``known(t)`` is the term a named variable binds for its subject,
      before either check below sees it: an engine gives the head normal
      form it already has, as a tree Switch stores the one it made.
    - ``equal(a, b)`` decides the repeated-variable condition, on the two
      occurrences, each abstracted over its own formals
      (``abstract_formals``).
    - ``closed(t, vids)`` decides the variable-occurrence check: the term
      the variable binds, or None when one of the binder identities
      ``vids`` is free in ``t``.  An engine returns the normal form it
      checked, as soon as it finds no such variable.
    """

    __slots__ = ()

    def __missing__(self, t: Term) -> Term:
        return t

    def known(self, t: Term) -> Term:
        return t

    equal = staticmethod(alpha_eq)

    def closed(self, t: Term, vids: frozenset[int]) -> Optional[Term]:
        return None if free_vars(t) & vids else t


SYNTACTIC = Hooks()


def match_patterns(
    pats: Sequence[Pattern], terms: Sequence[Term], hooks: Hooks = SYNTACTIC
) -> Optional[Substitution]:
    """Match a pattern vector against a term vector, under the relation
    that ``hooks`` gives (see ``Hooks``).

    A subject abstraction is opened in place: its own body is matched under
    its own binder, renamed to a fresh variable only when a binder opened on
    this path already has its identity.  So every rule tried on the same
    arguments sees the same body objects.

    The walk is one loop over a work list, in preorder from the left, so the
    hooks see the same terms in the same order as a recursive walk would, and
    none is called after the first failed test.  Pattern depth costs no
    Python stack.  An argument is read only when the walk reaches it, no
    substitution is made before the first named variable binds, and
    ``hooks[t]`` is read only where a symbol or abstraction pattern inspects
    a head.  Each argument starts with no binder opened.

    Returns the substitution mapping each named pattern variable to a
    closure over its bound-variable arguments, or None on failure.
    """
    n = len(pats)
    if n != len(terms):
        return None
    sub: Optional[Substitution] = None
    # (pattern, subject, vids of the binders opened above it, pattern binder
    # vid -> subject binder), the next item last
    todo: list[tuple[Pattern, Term, frozenset[int], dict[int, Var]]] = []
    # the scope of the item in hand; a binder makes a new set and map, so
    # an empty scope is restored only after an item under a binder
    vset, bmap = _NO_BINDERS, _NO_BINDER_MAP
    i = 0
    while True:
        if todo:
            p, t, vset, bmap = todo.pop()
        elif i < n:
            p, t = pats[i], terms[i]
            i += 1
            if vset:
                vset, bmap = _NO_BINDERS, _NO_BINDER_MAP
        else:
            return {} if sub is None else sub
        tp = type(p)
        if tp is PatSymb:
            t = hooks[t]
            # unwind one application per argument, pushing the last first
            k = len(p.args)
            while k and type(t) is App:
                k -= 1
                todo.append((p.args[k], t.arg, vset, bmap))
                t = t.fn
            if k or type(t) is not Symb or t.name != p.symbol:
                return None
            continue
        if tp is PatVar:
            if p.name is None:
                continue
            t = hooks.known(t)
            if p.args:
                imgs = tuple(bmap[a.vid] for a in p.args)
                # the occurrence condition can only fail when some traversed
                # binder is outside the allowed arguments; do not normalize
                # otherwise
                restricted = vset - {v.vid for v in imgs}
            else:
                imgs, restricted = (), vset
            if restricted:
                # keep the normal form the check passed on: the raw term
                # may mention a binder that only reduction drops
                t = hooks.closed(t, restricted)
                if t is None:
                    return None
            if sub is None:
                sub = {}
            prev = sub.get(p.name)
            if prev is None:
                sub[p.name] = Closure(t, imgs)
            elif not hooks.equal(
                abstract_formals(prev.body, prev.formals), abstract_formals(t, imgs)
            ):
                return None
            continue
        # PatAbst
        t = hooks[t]
        if type(t) is not Abst:
            return None
        var, body = t.var, t.body
        # shadowed: under a shared name the inner binder would pass for the
        # outer one in bmap and in the closedness check
        if var.vid in vset:
            var = fresh_var(var.name)
            body = subst(body, {t.var.vid: var})
        todo.append((p.body, body, vset | {var.vid}, {**bmap, p.var.vid: var}))


class SubstitutionError(Exception):
    """Internal invariant failure: unbound or arity-mismatched variable."""


# A store of saved subterms.  The tree evaluator's store is a list of
# terms, read with the binders opened on the path to its Leaf; a match
# witness is a store keyed by name, each entry a closure with its formals.
StoreEntries = Union[Sequence[Term], Substitution]
Builder = Callable[[StoreEntries, Sequence[Var]], Term]
# pattern-variable name -> (store key, indices selecting the closure
# formals: into the Leaf's binders for a slot, into a closure's formals for
# a name)
BuilderEnv = dict[str, tuple[Union[int, str], tuple[int, ...]]]


def rhs_builder(rule: Rule, env: BuilderEnv) -> Builder:
    """Compile the rule's right-hand side into one function ``build(store,
    binders)`` of straight-line Python code.

    A work list walks the right-hand side in postorder and emits one
    assignment per rebuilt node, so neither compiling nor running a builder
    recurses.  Subterms without pattern variables or changing binders are
    the shared rhs objects, a bare ``$x`` is its stored term, and
    ``$u[a...]`` is one ``subst`` of the built arguments for the selected
    binders of ``$u``.  A binder that stands for a subject binder
    (``rule.binders``) is read in place: ``binders[k]`` under a tree Leaf,
    the k-th formal of the closure in a match witness.  So ``$u[x]`` with
    ``x`` that binder is the stored term itself.  A binder that is fresh at
    every firing is made with ``fresh_var`` before its body, which is built
    with it.  Constants, names included, reach the code as bound values,
    never as its text, so one shape's source is compiled once per process
    (``_maker``); ``App``, ``subst`` and ``fresh_var`` are this module's
    globals.  A right-hand side with no pattern variable is built
    as itself, unwalked.  Raises SubstitutionError on an unbound name or an
    arity mismatch.
    """
    rhs = rule.rhs
    if not rule.rhs_metas:
        return lambda store, binders: rhs
    values: list = []  # the constants, bound to c0, c1, ...
    const_of: dict[int, str] = {}
    lines: list[str] = []
    vals: list[Optional[str]] = []  # each built node's code; None: itself

    def const(x) -> str:
        name = const_of.get(id(x))
        if name is None:
            name = const_of[id(x)] = f"c{len(values)}"
            values.append(x)
        return name

    def read(key, k: Optional[int] = None) -> str:
        # a slot's term or the Leaf's binder k; a closure's body or formal k
        if type(key) is int:
            return f"s[{key}]" if k is None else f"b[{k}]"
        return f"s[{const(key)}]" + ("[0]" if k is None else f"[1][{k}]")

    def emit(expr: str) -> str:
        lines.append(f"t{len(lines)} = {expr}")
        return f"t{len(lines) - 1}"

    # (leaving, term, info): entering, info maps the vid of each enclosing
    # changing binder to the position of the left-hand-side abstraction
    # whose subject binder it is (for a fresh one, its code, which is no
    # position) and to its code; leaving, info is what rebuilding needs.
    # The position, not an index, names that binder: an index means one
    # binder under a tree Leaf, but another in each closure of a witness.
    todo: list = [(False, rhs, {})]
    while todo:
        leaving, t, info = todo.pop()
        tt = type(t)
        if leaving:
            if tt is MetaApp:  # info: the (formal index, argument) pairs
                args = vals[len(vals) - len(info) :]
                del vals[len(vals) - len(info) :]
                key = env[t.name][0]
                pairs = ", ".join(
                    f"{read(key, k)}.vid: {code or const(a)}"
                    for (k, a), code in zip(info, args)
                )
                vals.append(emit(f"subst({read(key)}, {{{pairs}}})"))
                continue
            last = vals.pop()
            first = vals.pop() if tt is App else info
            if not (first or last):
                vals.append(None)  # built as itself
            elif tt is App:
                fn, arg = first or const(t.fn), last or const(t.arg)
                vals.append(emit(f"App({fn}, {arg})"))
            else:  # Abst, first: the binder's code, None if constant
                var, body = first or const(t.var), last or const(t.body)
                vals.append(emit(f"Abst({var}, None, {body})"))
        elif tt is Var:
            vals.append(info[t.vid][1] if t.vid in info else None)
        elif tt is MetaApp:
            entry = env.get(t.name)
            if entry is None:
                raise SubstitutionError(f"unbound pattern variable ${t.name}")
            key, selector = entry
            if len(selector) != len(t.args):
                raise SubstitutionError(
                    f"arity mismatch for ${t.name}: "
                    f"{len(selector)} formals, {len(t.args)} arguments"
                )
            pairs = [
                (k, a)
                for k, at, a in zip(selector, rule.env[t.name][1], t.args)
                if not _passed_itself(a, at, info)
            ]
            if not pairs:
                vals.append(read(key))
                continue
            todo.append((True, t, pairs))
            todo += ((False, a, info) for _, a in reversed(pairs))
        elif tt is App:
            todo += ((True, t, None), (False, t.arg, info), (False, t.fn, info))
        elif tt is Abst:
            var, scope = t.var, info
            if var.vid not in rule.binders:  # the rule's Var
                code = None
                if var.vid in info:  # it shadows a changing binder
                    scope = {k: e for k, e in info.items() if k != var.vid}
            elif rule.binders[var.vid] is None:  # fresh
                code = emit(f"fresh_var({const(var.name)})")
                scope = {**info, var.vid: (code, code)}
            else:
                name, j = rule.binders[var.vid]
                key, selector = env[name]
                code = read(key, selector[j])
                scope = {**info, var.vid: (rule.env[name][1][j], code)}
            todo += ((True, t, code), (False, t.body, scope))
        else:  # Symb, Sort
            vals.append(None)
    params = ", ".join(f"c{i}" for i in range(len(values)))
    src = "".join(f"  {line}\n" for line in lines) + f"  return {vals[0]}\n"
    src = f"def make({params}):\n def build(s, b):\n{src} return build\n"
    return _maker(src)(*values)


@lru_cache(maxsize=1024)
def _maker(src: str) -> Callable[..., Builder]:
    """The ``make`` function that a builder's source defines, compiled once
    per process for each source text: right-hand sides of one shape share
    it, as their constants reach it only as arguments."""
    made: dict = {}
    exec(src, globals(), made)
    return made["make"]


def _passed_itself(a: Term, at: Optional[Position], bound) -> bool:
    """Whether ``a``, passed to a formal opened at the left-hand-side
    abstraction ``at``, is the binder that is that formal itself."""
    entry = bound.get(a.vid) if type(a) is Var else None
    return entry is not None and entry[0] == at


def apply_subst(sub: Substitution, rule: Rule) -> Term:
    """Instantiate the rule's right-hand side with a match witness: the
    naive engine's counterpart of ``engine.instantiate``.

    The witness is the store of the rule's naive builder, whose entry for
    each name is its closure, with formals ``0..k-1``.  That builder is
    compiled on the rule's first naive firing and kept on the rule.
    """
    build = rule.naive_build
    if build is None:
        env = {name: (name, tuple(range(len(f)))) for name, (_, f) in rule.env.items()}
        build = rule.naive_build = rhs_builder(rule, env)
    return build(sub, ())


def naive_rewrite_head(
    rules: Sequence[Rule],
    args: Sequence[Term],
    hooks: Hooks = SYNTACTIC,
) -> Optional[tuple[Rule, Term]]:
    """Try each rule in text order against a prefix of the arguments.

    Each rule tried is one call of ``match_patterns``, through this module's
    global, on ``args`` itself when the rule takes all of them; a rule wider
    than the arguments is passed over with no call, by its ``arity``.  No
    rule is skipped otherwise.  A try reads an argument only when its walk
    reaches it and makes no substitution before a variable binds, so the
    cost left is that each rule walks again what earlier rules walked:
    exactly the cost the compiled engine removes.  Every try gets the one
    ``hooks`` object.  Returns the first applicable rule together with its
    instantiated right-hand side applied to the leftover arguments.
    """
    n_args = len(args)
    for rule in rules:
        n = rule.arity
        if n > n_args:
            continue
        sub = match_patterns(rule.lhs_args, args if n == n_args else args[:n], hooks)
        if sub is not None:
            rhs = apply_subst(sub, rule)
            return rule, build_app(rhs, args[n:])
    return None
