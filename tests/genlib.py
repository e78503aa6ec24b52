"""Random generators and fixed rule sets shared by the engine and
acceptance tests.

The rule generator stays inside a strongly-normalizing fragment: right-hand
sides contain constructors, bound variables and pattern variables but no
defined symbols, so any generated system terminates and the two matching
back ends can be compared without budget races.
"""
from __future__ import annotations

import random

from rwtree.patterns import PatAbst, PatSymb, PatVar, Rule, validate_rule
from rwtree.terms import (
    Abst,
    App,
    MetaApp,
    Term,
    Var,
    build_app,
    fresh_var,
    subst,
    symb,
)

FIB_RULES = """
symbol 0; symbol s; symbol +; symbol fib;
rule + 0 $m --> $m
with + (s $n) $m --> s (+ $n $m)
with + $m 0 --> $m
with + $m (s $n) --> s (+ $m $n);
rule fib 0 --> 0
with fib (s 0) --> s 0
with fib (s (s $n)) --> + (fib (s $n)) (fib $n);
"""

# quadratic list reversal: rev of a k-element list takes
# k + 1 rev steps and k (k + 1) / 2 append steps
REVNAT_RULES = """
symbol 0; symbol s; symbol nil; symbol cons; symbol append; symbol rev;
rule append nil $l --> $l
with append (cons $x $k) $l --> cons $x (append $k $l);
rule rev nil --> nil
with rev (cons $x $k) --> append (rev $k) (cons $x nil);
"""


def numeral(k: int) -> Term:
    """The unary numeral ``s (… (s 0))`` with ``k`` successors."""
    t: Term = symb("0")
    for _ in range(k):
        t = App(symb("s"), t)
    return t


def nat_list(values: list[int]) -> Term:
    """``cons v1 (… (cons vn nil))`` over unary numerals, built without
    the parser so its length is not bounded by parser nesting."""
    t: Term = symb("nil")
    for v in reversed(values):
        t = build_app(symb("cons"), [numeral(v), t])
    return t


CONSTRUCTORS = [("k0", 0), ("k1", 1), ("k2", 2), ("a", 0), ("b", 0)]
DEFINED = ["f", "g"]
PVAR_NAMES = ["x", "y", "z"]


class RuleSampler:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def pattern(self, depth: int, scope: tuple[Var, ...]) -> PatVar | PatSymb | PatAbst:
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            if rng.random() < 0.25:
                return PatVar(None, ())
            name = rng.choice(PVAR_NAMES)
            k = rng.randint(0, len(scope))
            args = tuple(rng.sample(scope, k)) if k else ()
            return PatVar(name, args)
        if roll < 0.8:
            sym, arity = rng.choice(CONSTRUCTORS)
            if arity and rng.random() < 0.15:
                arity -= 1  # partially applied constructor
            return PatSymb(
                sym, tuple(self.pattern(depth - 1, scope) for _ in range(arity))
            )
        v = fresh_var(rng.choice(["u", "v", "w"]))
        return PatAbst(v, self.pattern(depth - 1, scope + (v,)))

    def rhs(self, depth: int, lhs_vars: dict[str, int], scope: tuple[Var, ...]) -> Term:
        rng = self.rng
        roll = rng.random()
        if lhs_vars and (depth == 0 or roll < 0.45):
            name = rng.choice(sorted(lhs_vars))
            arity = lhs_vars[name]
            need = arity - len(scope)
            if need > 0:
                binders = tuple(fresh_var("w") for _ in range(need))
                inner = MetaApp(name, tuple(scope + binders)[:arity])
                t: Term = inner
                for v in reversed(binders):
                    t = Abst(v, None, t)
                return t
            args = tuple(rng.sample(scope, arity)) if arity else ()
            return MetaApp(name, args)
        if depth == 0 or roll < 0.8:
            sym, arity = rng.choice(CONSTRUCTORS)
            return build_app(
                symb(sym),
                [self.rhs(depth - 1, lhs_vars, scope) for _ in range(arity)],
            )
        v = fresh_var("r")
        return Abst(v, None, self.rhs(depth - 1, lhs_vars, scope + (v,)))

    def rule(self, head: str, arity: int, label: str) -> Rule:
        while True:
            pats = tuple(self.pattern(2, ()) for _ in range(arity))
            lhs_vars: dict[str, int] = {}
            ok = True
            stack = list(pats)
            while stack:
                p = stack.pop()
                if type(p) is PatVar and p.name is not None:
                    if p.name in lhs_vars and lhs_vars[p.name] != len(p.args):
                        ok = False
                        break
                    lhs_vars[p.name] = len(p.args)
                elif type(p) is PatSymb:
                    stack.extend(p.args)
                elif type(p) is PatAbst:
                    stack.append(p.body)
            if not ok:
                continue
            rule = Rule(head, pats, self.rhs(2, lhs_vars, ()), label)
            if not validate_rule(rule):
                return rule

    def ruleset(self) -> list[Rule]:
        rng = self.rng
        rules = []
        n = rng.randint(1, 4)
        for i in range(n):
            arity = rng.randint(1, 3)
            rules.append(self.rule("f", arity, f"f{i}"))
        if rng.random() < 0.4:
            rules.append(self.rule("g", rng.randint(1, 2), "g0"))
        return rules

    def subject_term(self, depth: int, scope: tuple[Var, ...] = ()) -> Term:
        rng = self.rng
        roll = rng.random()
        if depth == 0 or roll < 0.35:
            if scope and rng.random() < 0.4:
                return rng.choice(scope)
            sym, arity = rng.choice(CONSTRUCTORS)
            take = rng.randint(0, arity)
            return build_app(
                symb(sym), [self.subject_term(0, scope) for _ in range(take)]
            )
        if roll < 0.65:
            sym, arity = rng.choice(CONSTRUCTORS)
            return build_app(
                symb(sym),
                [self.subject_term(depth - 1, scope) for _ in range(arity)],
            )
        if roll < 0.85:
            head = rng.choice(DEFINED)
            k = rng.randint(0, 3)
            return build_app(
                symb(head),
                [self.subject_term(depth - 1, scope) for _ in range(k)],
            )
        v = fresh_var(rng.choice(["p", "q"]))
        return Abst(v, None, self.subject_term(depth - 1, scope + (v,)))

    def instance_of(self, rule: Rule) -> list[Term]:
        """Arguments likely to match: instantiate the rule's own patterns.

        A repeated variable reuses the body built at its first occurrence,
        with that occurrence's formals renamed to its own, so that
        non-linear rules fire often enough to exercise both branches.
        """
        memo: dict[str, tuple[tuple[Var, ...], Term]] = {}

        def fill(p) -> Term:
            if type(p) is PatVar:
                if p.name in memo:
                    formals, t = memo[p.name]
                    return subst(t, {f.vid: a for f, a in zip(formals, p.args)})
                t = self.subject_term(1, p.args)
                if p.name is not None:
                    memo[p.name] = (p.args, t)
                return t
            if type(p) is PatSymb:
                return build_app(symb(p.symbol), [fill(a) for a in p.args])
            v = fresh_var(p.var.name)
            body = fill(p.body)
            return Abst(v, None, subst(body, {p.var.vid: v}))

        return [fill(p) for p in rule.lhs_args]

    def subject_args(self, rules: list[Rule]) -> tuple[str, list[Term]]:
        rng = self.rng
        if rng.random() < 0.55:
            rule = rng.choice(rules)
            args = self.instance_of(rule)
            if rng.random() < 0.3:
                args.append(self.subject_term(1))
            return rule.head, args
        head = rng.choice(DEFINED)
        k = rng.randint(0, 3)
        return head, [self.subject_term(2) for _ in range(k)]


def loop_rule() -> Rule:
    """``loop --> loop``: a symbol whose head normalisation never ends."""
    return Rule("loop", (), symb("loop"), "loop")


def linear_wildcard_arities(rules: list[Rule], head: str) -> set[int]:
    """Arities of the rules for ``head`` whose arguments are distinct
    pattern variables: such a rule applies without inspecting anything."""
    out = set()
    for r in rules:
        if r.head != head or any(type(p) is not PatVar for p in r.lhs_args):
            continue
        names = [p.name for p in r.lhs_args if p.name is not None]
        if len(names) == len(set(names)):
            out.add(r.arity)
    return out

