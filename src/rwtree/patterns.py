"""Rewrite-rule patterns, rule validation and the declarative matcher.

The matcher here is the reference semantics: it walks a pattern vector over a
term vector directly, with no compilation.  The compiled engine is checked
against it, so this module must stay simple and obviously correct.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .terms import (
    Abst,
    App,
    MetaApp,
    Prod,
    Symb,
    Term,
    Var,
    alpha_eq,
    build_app,
    free_vars,
    fresh_var,
    iter_nodes,
    spine,
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


@dataclass(slots=True)
class Rule:
    head: str
    lhs_args: tuple[Pattern, ...]
    rhs: Term
    label: str = ""

    @property
    def arity(self) -> int:
        return len(self.lhs_args)

    def __repr__(self):
        lhs = " ".join([self.head] + [repr(p) for p in self.lhs_args])
        return f"<{self.label or 'rule'}: {lhs} --> {self.rhs!r}>"


@dataclass(slots=True)
class Closure:
    """Match witness for one pattern variable: a term abstracted over the
    traversed binders the variable was applied to."""

    formals: tuple[Var, ...]
    body: Term


Substitution = dict[str, Closure]


def iter_pattern_vars(pats: Sequence[Pattern]):
    """Yield (pattern-var, position, scope) over a pattern vector; the scope
    pairs each enclosing binder with the position of its abstraction,
    outermost first.

    Positions are sequence positions: component one selects the argument,
    the rest descends into it.  Preorder, so positions come in increasing
    lexicographic order and the first occurrence of a name comes first.
    """
    stack = [(p, (i,), ()) for i, p in enumerate(pats, start=1)]
    stack.reverse()
    while stack:
        q, pos, scope = stack.pop()
        tq = type(q)
        if tq is PatVar:
            yield q, pos, scope
        elif tq is PatSymb:
            for j in range(len(q.args), 0, -1):
                stack.append((q.args[j - 1], pos + (j,), scope))
        else:  # PatAbst
            stack.append((q.body, pos + (1,), scope + ((q.var, pos),)))


def rhs_meta_occurrences(t: Term):
    """Yield every MetaApp node of a right-hand side, preorder."""
    return (x for x in iter_nodes(t) if type(x) is MetaApp)


def validate_rule(rule: Rule) -> list[str]:
    """Check rule well-formedness; returns a list of violations (empty = ok).

    Checks: pattern-variable arguments are distinct variables bound by
    enclosing abstractions, right-hand-side variables all occur on the left,
    and every occurrence of a name uses one arity.
    """
    violations: list[str] = []
    arities: dict[str, int] = {}

    for pv, pos, scope in iter_pattern_vars(rule.lhs_args):
        scope_ids = {v.vid for v, _ in scope}
        seen: set[int] = set()
        for a in pv.args:
            if a.vid in seen:
                violations.append(
                    f"non-distinct bound arguments of ${pv.name} at {_fmt(pos)}"
                )
                break
            seen.add(a.vid)
            if a.vid not in scope_ids:
                violations.append(
                    f"argument {a.name} of ${pv.name} at {_fmt(pos)} "
                    "is not bound by an enclosing abstraction"
                )
        if pv.name is not None:
            prev = arities.get(pv.name)
            if prev is None:
                arities[pv.name] = len(pv.args)
            elif prev != len(pv.args):
                violations.append(
                    f"inconsistent arity for ${pv.name}: {prev} vs {len(pv.args)}"
                )

    for m in rhs_meta_occurrences(rule.rhs):
        if m.name is None:
            violations.append("wildcard _ in right-hand side")
            continue
        if m.name not in arities:
            violations.append(f"unbound rhs variable ${m.name}")
        elif arities[m.name] != len(m.args):
            violations.append(
                f"rhs arity mismatch for ${m.name}: "
                f"{arities[m.name]} vs {len(m.args)}"
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


def shared_formals(
    t: Term, t_formals: Sequence[Var], u: Term, u_formals: Sequence[Var]
) -> tuple[Term, Term]:
    """``t`` and ``u`` with the k-th formal of each renamed to one shared
    fresh variable: two occurrences of a non-linear pattern variable under
    different binders are compared this way, so ``$v[x]`` matched against
    ``c x`` and ``$v[y]`` against ``c y`` agree."""
    shared = [fresh_var(v.name) for v in t_formals]
    return (
        subst(t, {v.vid: z for v, z in zip(t_formals, shared)}),
        subst(u, {v.vid: z for v, z in zip(u_formals, shared)}),
    )


_NO_BINDERS: frozenset[int] = frozenset()


def match_patterns(
    pats: Sequence[Pattern],
    terms: Sequence[Term],
    *,
    whnf: Optional[Callable[[Term], Term]] = None,
    equal: Optional[Callable[[Term, Term], bool]] = None,
    fv_normalize: Optional[Callable[[Term], Term]] = None,
) -> Optional[Substitution]:
    """Match a pattern vector against a term vector.

    The hooks make the matcher usable both as a purely syntactic relation
    (defaults) and as the reference for an engine that matches modulo
    reduction: ``whnf`` head-normalizes a subject before a structural
    pattern inspects it, ``equal`` decides the repeated-variable condition
    (on the two occurrences with their formals renamed alike, see
    ``shared_formals``), and ``fv_normalize`` is applied before the
    variable-occurrence check.

    Returns the substitution mapping each named pattern variable to a
    closure over its bound-variable arguments, or None on failure.
    """
    if len(pats) != len(terms):
        return None
    if equal is None:
        equal = alpha_eq
    sub: Substitution = {}

    def go(p: Pattern, t: Term, vset: frozenset[int], bmap: dict[int, Var]) -> bool:
        tp = type(p)
        if tp is PatVar:
            if p.name is None:
                return True
            imgs = tuple(bmap[a.vid] for a in p.args)
            # the occurrence condition can only fail when some traversed
            # binder is outside the allowed arguments; do not normalize
            # otherwise
            restricted = vset - {v.vid for v in imgs}
            if restricted:
                t1 = fv_normalize(t) if fv_normalize is not None else t
                if free_vars(t1) & restricted:
                    return False
            prev = sub.get(p.name)
            if prev is not None:
                if imgs:
                    return equal(*shared_formals(prev.body, prev.formals, t, imgs))
                return equal(prev.body, t)
            sub[p.name] = Closure(imgs, t)
            return True
        if whnf is not None:
            t = whnf(t)
        if tp is PatSymb:
            head, args = spine(t)
            if type(head) is not Symb or head.name != p.symbol:
                return False
            if len(args) != len(p.args):
                return False
            return all(go(q, u, vset, bmap) for q, u in zip(p.args, args))
        # PatAbst: the domain of the subject abstraction is ignored
        if type(t) is not Abst:
            return False
        v2 = fresh_var(t.var.name)
        body = subst(t.body, {t.var.vid: v2})
        return go(p.body, body, vset | {v2.vid}, {**bmap, p.var.vid: v2})

    for p, t in zip(pats, terms):
        if not go(p, t, _NO_BINDERS, {}):
            return None
    return sub


class SubstitutionError(Exception):
    """Internal invariant failure: unbound or arity-mismatched variable."""


def apply_subst(sub: Substitution, rhs: Term) -> Term:
    """Instantiate a right-hand side with a match witness.

    Every MetaApp is replaced by its closure body with the formals
    substituted by the (instantiated) arguments; the result contains no
    MetaApp.  Substitution is capture-avoiding.
    """
    tr = type(rhs)
    if tr is MetaApp:
        cl = sub.get(rhs.name)
        if cl is None:
            raise SubstitutionError(f"unbound pattern variable ${rhs.name}")
        if len(cl.formals) != len(rhs.args):
            raise SubstitutionError(
                f"arity mismatch for ${rhs.name}: "
                f"{len(cl.formals)} formals, {len(rhs.args)} arguments"
            )
        if not rhs.args:
            return cl.body
        args = [apply_subst(sub, a) for a in rhs.args]
        return subst(cl.body, {f.vid: a for f, a in zip(cl.formals, args)})
    if tr is App:
        f2 = apply_subst(sub, rhs.fn)
        a2 = apply_subst(sub, rhs.arg)
        return rhs if (f2 is rhs.fn and a2 is rhs.arg) else App(f2, a2)
    if tr is Abst:
        d2 = apply_subst(sub, rhs.domain) if rhs.domain is not None else None
        b2 = apply_subst(sub, rhs.body)
        if d2 is rhs.domain and b2 is rhs.body:
            return rhs
        return Abst(rhs.var, d2, b2)
    if tr is Prod:
        d2 = apply_subst(sub, rhs.domain)
        c2 = apply_subst(sub, rhs.codomain)
        if d2 is rhs.domain and c2 is rhs.codomain:
            return rhs
        return Prod(rhs.var, d2, c2)
    return rhs  # Var, Symb, Sort


def naive_rewrite_head(
    rules: Sequence[Rule],
    head: str,
    args: Sequence[Term],
    *,
    whnf: Optional[Callable[[Term], Term]] = None,
    equal: Optional[Callable[[Term, Term], bool]] = None,
    fv_normalize: Optional[Callable[[Term], Term]] = None,
) -> Optional[tuple[Rule, Term]]:
    """Try each rule in order against a prefix of the arguments.

    Head normalization of a scrutinized subterm is memoized for the duration
    of the call, so a subterm is normalized once even when several rules
    inspect it; the structural re-traversal per rule is not avoided, which
    is exactly the cost the compiled engine removes.  Returns the first
    applicable rule together with its instantiated right-hand side applied
    to the leftover arguments.
    """
    args = list(args)
    hook = whnf
    if whnf is not None:
        memo: dict[int, tuple[Term, Term]] = {}

        def hook(t: Term, _whnf=whnf, _memo=memo) -> Term:
            hit = _memo.get(id(t))
            if hit is not None:
                return hit[1]
            r = _whnf(t)
            _memo[id(t)] = (t, r)
            return r

    for rule in rules:
        n = len(rule.lhs_args)
        if n > len(args):
            continue
        sub = match_patterns(
            rule.lhs_args,
            args[:n],
            whnf=hook,
            equal=equal,
            fv_normalize=fv_normalize,
        )
        if sub is not None:
            result = apply_subst(sub, rule.rhs)
            return rule, build_app(result, args[n:])
    return None
