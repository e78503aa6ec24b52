"""Lambda terms with binders, unique variable identities and positions.

Terms are immutable after construction and may be shared freely, including
across threads.  A variable is identified by a process-global integer; the
display name is kept only for printing.  The fresh-variable counter is the
single piece of mutable global state (itertools.count, atomic under the GIL).

The traversals that routinely see very deep terms (unary numerals, long
lists) are written iteratively so they do not depend on the interpreter
recursion limit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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
class Prod(Term):
    var: Var
    domain: Term
    codomain: Term

    def __repr__(self):
        return f"(PI {self.var!r}: {self.domain!r}, {self.codomain!r})"


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
            if x.domain is not None:
                todo.append((x.domain, bound))
            todo.append((x.body, bound | {x.var.vid}))
        elif tx is Prod:
            todo.append((x.domain, bound))
            todo.append((x.codomain, bound | {x.var.vid}))
        elif tx is MetaApp:
            raise RhsOnlyError("rhs-only construct: pattern variable in term")
        # Symb and Sort contribute nothing
    return out


def subst(t: Term, bindings: dict[int, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of variables by terms.

    Binders are renamed to fresh identities whenever a replacement term could
    be captured.  Unchanged subterms are returned as-is to preserve sharing.
    """
    if not bindings:
        return t
    # Union of replacement free variables, computed lazily: most
    # substitutions never go under a binder.
    fv_cell: list[Optional[set[int]]] = [None]

    def value_fvs() -> set[int]:
        if fv_cell[0] is None:
            acc: set[int] = set()
            for u in bindings.values():
                acc |= free_vars(u)
            fv_cell[0] = acc
        return fv_cell[0]

    def go(x: Term, m: dict[int, Term]) -> Term:
        tx = type(x)
        if tx is Var:
            return m.get(x.vid, x)
        if tx is App:
            f2 = go(x.fn, m)
            a2 = go(x.arg, m)
            return x if (f2 is x.fn and a2 is x.arg) else App(f2, a2)
        if tx is Abst:
            d2 = go(x.domain, m) if x.domain is not None else None
            m2 = m
            if x.var.vid in m2:
                m2 = {k: u for k, u in m2.items() if k != x.var.vid}
            if not m2:
                return x if d2 is x.domain else Abst(x.var, d2, x.body)
            if x.var.vid in value_fvs():
                v2 = fresh_var(x.var.name)
                b2 = go(x.body, {**m2, x.var.vid: v2})
                return Abst(v2, d2, b2)
            b2 = go(x.body, m2)
            if b2 is x.body and d2 is x.domain:
                return x
            return Abst(x.var, d2, b2)
        if tx is Prod:
            d2 = go(x.domain, m)
            m2 = m
            if x.var.vid in m2:
                m2 = {k: u for k, u in m2.items() if k != x.var.vid}
            if m2 and x.var.vid in value_fvs():
                v2 = fresh_var(x.var.name)
                c2 = go(x.codomain, {**m2, x.var.vid: v2})
                return Prod(v2, d2, c2)
            c2 = go(x.codomain, m2) if m2 else x.codomain
            if d2 is x.domain and c2 is x.codomain:
                return x
            return Prod(x.var, d2, c2)
        if tx is MetaApp:
            args2 = tuple(go(a, m) for a in x.args)
            if all(a2 is a for a2, a in zip(args2, x.args)):
                return x
            return MetaApp(x.name, args2)
        return x  # Symb, Sort

    return go(t, bindings)


def alpha_eq(t: Term, u: Term) -> bool:
    """Equality modulo renaming of bound variables.

    Pattern-variable applications compare by name and pointwise
    alpha-equivalent arguments.  Abstraction domains compare when both are
    present; a term with a domain never equals one without.
    """
    todo: list[tuple[Term, Term, dict[int, int], dict[int, int]]] = [
        (t, u, {}, {})
    ]
    while todo:
        a, b, envl, envr = todo.pop()
        ta = type(a)
        if ta is not type(b):
            return False
        if ta is Var:
            dl = envl.get(a.vid)
            dr = envr.get(b.vid)
            if dl is None and dr is None:
                if a.vid != b.vid:
                    return False
            elif dl != dr:
                return False
        elif ta is App:
            todo.append((a.fn, b.fn, envl, envr))
            todo.append((a.arg, b.arg, envl, envr))
        elif ta is Symb:
            if a.name != b.name:
                return False
        elif ta is Sort:
            if a.kind != b.kind:
                return False
        elif ta is Abst:
            if (a.domain is None) != (b.domain is None):
                return False
            if a.domain is not None:
                todo.append((a.domain, b.domain, envl, envr))
            k = len(envl)
            el = dict(envl)
            el[a.var.vid] = k
            er = dict(envr)
            er[b.var.vid] = k
            todo.append((a.body, b.body, el, er))
        elif ta is Prod:
            todo.append((a.domain, b.domain, envl, envr))
            k = len(envl)
            el = dict(envl)
            el[a.var.vid] = k
            er = dict(envr)
            er[b.var.vid] = k
            todo.append((a.codomain, b.codomain, el, er))
        elif ta is MetaApp:
            if a.name != b.name or len(a.args) != len(b.args):
                return False
            for x, y in zip(a.args, b.args):
                todo.append((x, y, envl, envr))
        else:
            raise TermError(f"unknown term node {ta!r}")
    return True


def iter_nodes(t: Term) -> Iterator[Term]:
    """Preorder walk over every node, ignoring binder structure."""
    todo = [t]
    while todo:
        x = todo.pop()
        yield x
        tx = type(x)
        if tx is App:
            todo.append(x.arg)
            todo.append(x.fn)
        elif tx is Abst:
            if x.domain is not None:
                todo.append(x.domain)
            todo.append(x.body)
        elif tx is Prod:
            todo.append(x.codomain)
            todo.append(x.domain)
        elif tx is MetaApp:
            todo.extend(reversed(x.args))
