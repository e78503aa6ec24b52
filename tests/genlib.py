"""Random generators and fixed rule sets shared by the engine and
acceptance tests.

The rule generator stays inside a strongly-normalizing fragment: right-hand
sides contain constructors, bound variables and pattern variables but no
defined symbols, so any generated system terminates and the two matching
back ends can be compared without budget races.
"""
from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Iterator, Optional

from rwtree import engine, patterns
from rwtree.patterns import Hooks, PatAbst, PatSymb, PatVar, Rule, validate_rule
from rwtree.syntax import parse_file
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


def mixed_arity_source() -> str:
    """200 rules of one head ``f`` over 20 arities, rule i of arity
    ``1 + i % 20``: a constant first argument, and each later one a pattern
    variable with probability 0.15, else a constant; every right-hand side
    is ``c0``.  Seeded, so the rules are the same at every call."""
    rng = random.Random(7)
    consts = [f"c{i}" for i in range(10)]
    lines = ["symbol f; " + " ".join(f"symbol {c};" for c in consts)]
    for i in range(200):
        args = [rng.choice(consts)]
        for j in range(1, 1 + i % 20):
            args.append(f"$x{j}" if rng.random() < 0.15 else rng.choice(consts))
        lines.append(f"rule f {' '.join(args)} --> c0;")
    return "\n".join(lines) + "\n"


def parse_term(text: str, scope: dict[str, Term]) -> Term:
    """Parse one term whose free names are the symbols named in ``scope``,
    as the term of a ``compute`` line after their declarations."""
    decls = "".join(f"symbol {name};\n" for name in scope)
    return parse_file(f"{decls}compute {text};").items[-1].term


def numeral(k: int) -> Term:
    """The unary numeral ``s (… (s 0))`` with ``k`` successors."""
    t: Term = symb("0")
    for _ in range(k):
        t = App(symb("s"), t)
    return t


def preorder(t: Term) -> list[Term]:
    """Every node of ``t`` in preorder."""
    out, todo = [], [t]
    while todo:
        x = todo.pop()
        out.append(x)
        tx = type(x)
        if tx is App:
            todo += (x.arg, x.fn)
        elif tx is Abst:
            todo.append(x.body)
        elif tx is MetaApp:
            todo.extend(reversed(x.args))
    return out


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


@contextmanager
def recorded_reads(read: set[int]) -> Iterator[set[int]]:
    """While open, add to ``read`` the id of every term that a naive rewrite
    attempt reads: each term passed to ``engine.whnf``, which is how the
    naive matcher head-normalises before it inspects a head, and every
    subterm of the terms passed to ``engine.equal_terms`` or to a
    closedness ``engine.normalise``.  Reads of nested attempts are added
    too.  A top-level argument that contains none of these is one that the
    attempt never looked at.  The three functions of the engine module are
    replaced while the context is open, so use it from one thread."""
    saved = engine.whnf, engine.equal_terms, engine.normalise
    whnf, equal_terms, normalise = saved

    def reading_whnf(ctx, t, steps=None):
        read.add(id(t))
        return whnf(ctx, t, steps)

    def reading_equal_terms(ctx, t, u, steps):
        read.update(map(id, preorder(t) + preorder(u)))
        return equal_terms(ctx, t, u, steps)

    def reading_normalise(ctx, t, steps, restricted):
        if restricted:
            read.update(map(id, preorder(t)))
        return normalise(ctx, t, steps, restricted)

    engine.whnf, engine.equal_terms, engine.normalise = (
        reading_whnf,
        reading_equal_terms,
        reading_normalise,
    )
    try:
        yield read
    finally:
        engine.whnf, engine.equal_terms, engine.normalise = saved


class _CountingHooks(Hooks):
    """``hooks`` as they are, except that each ``self[t]``, which stores
    nothing here, adds one to ``counts["naive"]``."""

    def __init__(self, hooks: Hooks, counts: dict[str, int]):
        self.hooks, self.counts = hooks, counts

    def __missing__(self, t: Term) -> Term:
        self.counts["naive"] += 1
        return self.hooks[t]

    def known(self, t: Term) -> Term:
        return self.hooks.known(t)

    def equal(self, a: Term, b: Term) -> bool:
        return self.hooks.equal(a, b)

    def closed(self, t: Term, vids: frozenset[int]) -> Optional[Term]:
        return self.hooks.closed(t, vids)


@contextmanager
def counted_inspections() -> Iterator[dict[str, int]]:
    """While open, count in the dict it yields the head inspections of
    rewrite attempts, nested ones included.  Under ``"tree"``: each Switch visit in
    the trace of ``engine.eval_tree``, whether it took a case or found none.
    Under ``"naive"``: each head normal form that ``patterns.match_patterns``
    reads off its hooks (``hooks[t]``), which the matcher does before it
    checks a symbol or abstraction pattern; the hooks are wrapped in
    ``_CountingHooks``.  Both functions are replaced while the context is
    open, so use it from one thread."""
    counts = {"tree": 0, "naive": 0}
    saved = engine.eval_tree, patterns.match_patterns
    eval_tree, match_patterns = saved

    def counting_eval_tree(ctx, tree, args, steps):
        trace: list = []
        try:
            return eval_tree(ctx, tree, args, steps, trace=trace)
        finally:
            counts["tree"] += sum(e[0] in ("switch", "no-case") for e in trace)

    def counting_match_patterns(pats, terms, hooks):
        return match_patterns(pats, terms, _CountingHooks(hooks, counts))

    engine.eval_tree, patterns.match_patterns = (
        counting_eval_tree,
        counting_match_patterns,
    )
    try:
        yield counts
    finally:
        engine.eval_tree, patterns.match_patterns = saved


@contextmanager
def fired_rules() -> Iterator[list[Rule]]:
    """While open, append to the list it yields every rule that a rewrite
    attempt fires, nested attempts included, in the order they fire: under
    the tree engine the rule of each leaf that ``engine.instantiate``
    builds, under naive each rule that ``patterns.naive_rewrite_head``
    returns.  An attempt that fires a rule fires it last, after every
    nested attempt its matching made.  Both functions are replaced in the
    engine module while the context is open, so use it from one thread."""
    fired: list[Rule] = []
    saved = engine.instantiate, engine.naive_rewrite_head
    instantiate, naive_rewrite_head = saved

    def recording_instantiate(leaf, store, binders):
        out = instantiate(leaf, store, binders)
        fired.append(leaf.rule)
        return out

    def recording_naive_rewrite_head(rules, args, hooks):
        found = naive_rewrite_head(rules, args, hooks)
        if found is not None:
            fired.append(found[0])
        return found

    engine.instantiate, engine.naive_rewrite_head = (
        recording_instantiate,
        recording_naive_rewrite_head,
    )
    try:
        yield fired
    finally:
        engine.instantiate, engine.naive_rewrite_head = saved
