"""Lambda terms with binders, unique variable identities and positions.

Terms are immutable after construction and may be shared freely, including
across threads.  A variable is identified by a process-global integer; the
display name is kept only for printing.  The mutable global state is the
fresh-variable counter (itertools.count, atomic under the GIL) and the cache
of interned symbols (``symb``), to which a name is only ever added.

The traversals that routinely see very deep terms (unary numerals, long
lists) are written iteratively so they do not depend on the interpreter
recursion limit.

A product ``Πx : A, B`` is encoded as in LF: ``Prod`` builds the symbol
``PI`` applied to ``A`` and the abstraction ``\\x, B``.  So ``Abst`` is the one
binder node, and its ``domain`` is always None.  Π is inert: no source text can
name it (``Π`` is a delimiter), no rule matches it and no step reduces it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

TYPE = "TYPE"
KIND = "KIND"


class TermError(Exception):
    pass


class RhsOnlyError(TermError):
    """A construct legal only in rule right-hand sides appeared elsewhere."""


class Term:
    __slots__ = ()


@dataclass(eq=False, slots=True)
class Sort(Term):
    kind: str  # TYPE or KIND

    def __repr__(self):
        return self.kind


@dataclass(eq=False, slots=True)
class Var(Term):
    vid: int
    name: str

    def __repr__(self):
        return f"{self.name}#{self.vid}"


@dataclass(eq=False, slots=True)
class Symb(Term):
    name: str

    def __repr__(self):
        return self.name


@dataclass(eq=False, slots=True)
class App(Term):
    fn: Term
    arg: Term

    def __repr__(self):
        return f"({self.fn!r} {self.arg!r})"


@dataclass(eq=False, slots=True)
class Abst(Term):
    var: Var
    domain: Optional[Term]
    body: Term

    def __repr__(self):
        return f"(\\{self.var!r}, {self.body!r})"


@dataclass(eq=False, slots=True)
class MetaApp(Term):
    """Pattern-variable application; legal only inside rule right-hand sides.

    ``name`` may be None for the wildcard written ``_`` (which is rejected
    outside left-hand sides by validation).
    """

    name: Optional[str]
    args: tuple[Term, ...]

    def __repr__(self):
        inner = ",".join(map(repr, self.args))
        return f"${self.name}[{inner}]" if self.args else f"${self.name}"


Position = tuple[int, ...]

_fresh_ids = itertools.count(1)

_symb_cache: dict[str, Symb] = {}


def fresh_var(name: str = "x") -> Var:
    return Var(next(_fresh_ids), name)


def symb(name: str) -> Symb:
    """Interned symbol constructor; symbols compare by name anyway."""
    s = _symb_cache.get(name)
    if s is None:
        s = _symb_cache[name] = Symb(name)
    return s


PI = symb("Π")


def Prod(var: Var, domain: Term, codomain: Term) -> Term:
    """The product ``Πvar : domain, codomain``, as ``Π domain (\\var, codomain)``."""
    return App(App(PI, domain), Abst(var, None, codomain))


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Decompose nested applications into (head, [arg1, ..., argn])."""
    args: list[Term] = []
    while type(t) is App:
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def build_app(head: Term, args: Sequence[Term]) -> Term:
    for a in args:
        head = App(head, a)
    return head


def free_vars(t: Term) -> set[int]:
    """Identities of the variables occurring free in ``t``.

    Raises RhsOnlyError on pattern-variable applications, which have no
    free-variable reading outside a rule right-hand side.
    """
    out: set[int] = set()
    todo: list[tuple[Term, frozenset[int]]] = [(t, frozenset())]
    while todo:
        x, bound = todo.pop()
        tx = type(x)
        if tx is Var:
            if x.vid not in bound:
                out.add(x.vid)
        elif tx is App:
            todo.append((x.fn, bound))
            todo.append((x.arg, bound))
        elif tx is Abst:
            todo.append((x.body, bound | {x.var.vid}))
        elif tx is MetaApp:
            raise RhsOnlyError("rhs-only construct: pattern variable in term")
        # Symb and Sort contribute nothing
    return out


# the jobs of ``subst``'s work list: substitute in a term; rename or keep an
# abstraction's binder, then do its body; rebuild an application or an
# abstraction from the results of its parts
_VISIT, _OPEN, _APP, _BIND = range(4)


def subst(t: Term, bindings: dict[int, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of variables by terms.

    Binders are renamed to fresh identities whenever a replacement term could
    be captured.  Unchanged subterms are returned as-is to preserve sharing.
    One loop over a work list, so term depth costs no Python stack.  Raises
    RhsOnlyError on pattern-variable applications, as ``free_vars`` does.
    """
    if not bindings:
        return t
    # union of the replacements' free variables, computed on first need:
    # most substitutions never go under a binder
    value_fvs: Optional[set[int]] = None
    done: list[Term] = []  # results, the last one on top
    # (job, term, the map to substitute, or for _BIND the binder to use)
    todo: list[tuple] = [(_VISIT, t, bindings)]
    while todo:
        job, x, m = todo.pop()
        if job == _VISIT:
            tx = type(x)
            if tx is Var:
                done.append(m.get(x.vid, x))
            elif tx is App:
                todo += ((_APP, x, None), (_VISIT, x.arg, m), (_VISIT, x.fn, m))
            elif tx is Abst:
                inner = m
                if x.var.vid in m:
                    inner = {k: u for k, u in m.items() if k != x.var.vid}
                todo.append((_OPEN, x, inner))
            elif tx is MetaApp:
                raise RhsOnlyError("rhs-only construct: pattern variable in term")
            else:  # Symb, Sort
                done.append(x)
        elif job == _OPEN:
            var = x.var
            if m and value_fvs is None:
                value_fvs = set().union(*map(free_vars, bindings.values()))
            if m and var.vid in value_fvs:
                var = fresh_var(var.name)
                m = {**m, x.var.vid: var}
            todo.append((_BIND, x, var))
            if m:
                todo.append((_VISIT, x.body, m))
            else:
                done.append(x.body)
        elif job == _APP:
            a2 = done.pop()
            f2 = done.pop()
            done.append(x if f2 is x.fn and a2 is x.arg else App(f2, a2))
        else:  # _BIND, with the binder in m
            b2 = done.pop()
            done.append(x if m is x.var and b2 is x.body else Abst(m, None, b2))
    return done[0]


def alpha_eq(t: Term, u: Term) -> bool:
    """Equality modulo renaming of bound variables.

    Pattern-variable applications compare by name and pointwise
    alpha-equivalent arguments.
    """
    return alpha_walk(t, u, {}, {}, None) is None


# the binder environments of a comparison: each variable bound so far, by
# identity, mapped to the level of the binder pair that bound it
Env = dict[int, object]


def alpha_walk(
    t: Term, u: Term, envl: Env, envr: Env, limit: Optional[int]
) -> Optional[int]:
    """``alpha_eq`` of ``t`` and ``u`` under binder environments, which
    stops after ``limit`` node pairs (None: no limit).

    Returns None when the terms are equal, and otherwise the number of node
    pairs it visited before it met a difference or its limit.  A variable
    bound in one environment equals only the variable bound at the same
    level in the other; two unbound ones compare by identity.  Each binder
    pair gets a level object of its own, so a binder that shadows one of
    the same identity never shares a level with another.
    """
    todo: list[tuple[Term, Term, Env, Env]] = [(t, u, envl, envr)]
    n = 0
    while todo:
        a, b, envl, envr = todo.pop()
        while True:  # go on with an application's function and a binder's body
            if n == limit:
                return n
            n += 1
            ta = type(a)
            if ta is not type(b):
                return n
            if ta is App:
                todo.append((a.arg, b.arg, envl, envr))
                a, b = a.fn, b.fn
                continue
            if ta is Symb:
                if a.name != b.name:
                    return n
            elif ta is Var:
                dl = envl.get(a.vid)
                dr = envr.get(b.vid)
                if dl is not dr or dl is None and a.vid != b.vid:
                    return n
            elif ta is Abst:
                k = object()
                envl = {**envl, a.var.vid: k}
                envr = {**envr, b.var.vid: k}
                a, b = a.body, b.body
                continue
            elif ta is Sort:
                if a.kind != b.kind:
                    return n
            elif ta is MetaApp:
                if a.name != b.name or len(a.args) != len(b.args):
                    return n
                for x, y in zip(a.args, b.args):
                    todo.append((x, y, envl, envr))
            else:
                raise TermError(f"unknown term node {ta!r}")
            break
    return None
