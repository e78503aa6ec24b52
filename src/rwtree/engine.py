"""Tree evaluation, beta-reduction, normalization and convertibility.

The same normalization driver serves two interchangeable matching back ends:
the compiled decision trees and the rule-by-rule declarative matcher.  Terms
are matched modulo reduction.  Head normalisation (``whnf_stk``) pushes the
arguments onto its caller's stack, so a Switch and ``snf`` read them off
their own stacks instead of unwinding the term again, and a symbol that
heads no rule is never offered to a matcher.  A Switch head-normalizes the
stack top, if it is an application or a symbol that heads a rule, before it
inspects it, and stores that normal form when the tree asks for it.  In
convertibility mode a non-linearity check (``convertible``) compares before
it reduces: it skips a pair of subterms that are equal as they are,
head-normalises the others and stops at the first pair of heads that differ,
so neither side is normalised further than the comparison needs.  A
closedness check (``normalise``) stops at the first variable it rejects, and
a right-hand side is built from the normal form a passed check made.

Both engines build a right-hand side with the rule's builder, one
straight-line function that ``patterns.rhs_builder`` generates on first use
and keeps: a Leaf's on its first firing, run on the tree's store and the
binders opened on the path, and a rule's on its first naive firing, run on
the match witness, so set-up compiles none.  Neither renames to build it.
A rule's ``binders`` (``patterns.analyse_rhs``) say which subject binder
each right-hand-side binder stands for, and the result reuses that binder,
name included; a binder that stands for none is fresh at every firing, so
instantiation never captures.  So in ``d (\\x, sin
$u[x]) --> \\x, * (cos $u[x]) (d (\\x, $u[x]) x)`` both binders are the
subject's ``s``, ``$u[x]`` is the matched term itself, and the beta step
``(\\s, b) s`` is ``b``, all with no walk.

Both matchers open a subject abstraction in place: they go on with its own
body and record its own binder, and rename it to a fresh variable, with a
substitution walk, only when a binder opened on the path already has its
identity (shadowing).  So the naive engine's rules all see the same body
objects, and so does the record below.

A failed match keeps its work, and nothing else does.  Each evaluation's
``Steps`` holds one record, ``hnf``, written only when a rewrite attempt or
a closedness check fails: the term found stuck maps to itself, and every
term the failed match or check head-normalised maps to its normal form.
Terms hash by identity, so the key is the term object itself, as in a
naive attempt's memo.  ``whnf_stk`` reads the record before it reduces a
term, so a term whose match failed, and every term that match forced, is
normalised at most once per evaluation under either engine; on ``+ (… (+ (+
a 0) a) …) a`` with ``+ 0 $p --> $p`` and ``+ $p 0 --> $p`` both take 1 step
at any depth.  A successful match records only what its failed checks
reduced, so the reduced terms of a long evaluation are mostly not kept
alive, and ``whnf`` returns a head-normal term as it is under either engine.
A pattern variable binds the head normal form its engine already has for
its subject (a Switch's stored column, a Store's record, ``WhnfMemo.known``),
so with the ``hol`` rules ``* (+ a 0) 1`` takes 2 steps under both.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import AbstractSet, Optional, Sequence

from . import matrix
from .dtree import (
    BinCl,
    BinNl,
    DTree,
    Eos,
    Fail,
    Leaf,
    Store,
    Swap,
    Switch,
    compile_matrix,
)
from .patterns import Hooks, Rule, abstract_formals, naive_rewrite_head
from .patterns import rhs_builder, validate_rules
from .terms import (
    Abst,
    App,
    Env,
    MetaApp,
    Sort,
    Symb,
    Term,
    TermError,
    Var,
    alpha_eq,
    alpha_walk,
    build_app,
    free_vars,
    fresh_var,
    subst,
)

CONVERTIBLE = "convertible"
TREE = "tree"
MAX_STEPS = 10**8  # the default rewrite budget of one evaluation


class DivergenceError(Exception):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"rewrite budget of {budget} steps exhausted")


class Steps:
    """Per-evaluation rewrite-step budget; counts beta and rule steps.

    It also carries the evaluation's record of head normal forms: ``hnf``
    maps a term object, by identity, to its head normal form, for every
    term that a failed rewrite attempt found stuck (it maps to itself) or
    forced (normalised while a match was tried), and for every term that a
    failed closedness check head-normalised, even when the rewrite attempt
    around that check succeeds.  ``whnf_stk`` reads it before it reduces a
    term, so no such term is normalised twice.  The record lasts as long as
    this object: one ``whnf``/``snf``/``convertible`` call and the calls it
    makes, under one ``EvalContext``.  Do not share a ``Steps`` between
    contexts."""

    __slots__ = ("used", "budget", "hnf")

    def __init__(self, budget: int):
        self.budget = budget
        self.used = 0
        self.hnf: dict[Term, Term] = {}


@dataclass(slots=True)
class EvalContext:
    """Evaluation setup: rules grouped by head, one compiled tree per head
    under the tree engine (none under naive), budget, equality and engine.
    ``defined`` maps each head of a rule to the smallest arity of its rules.
    ``from_rules`` is the one place where the engine is chosen, and builds
    every context.  No field is reassigned; the one state that changes is
    the right-hand-side builder that a Leaf or a rule gets on its first
    firing."""

    trees: dict[str, DTree]
    rules_by_head: dict[str, list[Rule]]
    defined: dict[str, int]
    max_steps: int
    equality: str
    engine: str

    @classmethod
    def from_rules(
        cls,
        rules: Sequence[Rule],
        *,
        engine: str = TREE,
        max_steps: int = MAX_STEPS,
        equality: str = CONVERTIBLE,
    ) -> "EvalContext":
        """Validate the rules (raising RuleSetError), group them by head and,
        under the tree engine only, compile each head's tree from them."""
        validate_rules(rules)
        by_head: dict[str, list[Rule]] = {}
        for r in rules:
            by_head.setdefault(r.head, []).append(r)
        trees: dict[str, DTree] = {}
        if engine == TREE:
            for h, rs in by_head.items():
                trees[h] = compile_matrix(matrix.from_rules(rs))
        return cls(
            trees=trees,
            rules_by_head=by_head,
            defined={h: min(r.arity for r in rs) for h, rs in by_head.items()},
            max_steps=max_steps,
            equality=equality,
            engine=engine,
        )


# ---------------------------------------------------------------------------
# Normalization


def whnf_stk(
    ctx: EvalContext, t: Term, steps: Steps, stk: list[Term]
) -> tuple[Term, int, Term]:
    """Weak-head normalise ``t``, pushing the head's arguments onto the
    caller's stack ``stk`` (first argument last) above the entries it keeps.

    Returns the head, the number of arguments pushed and the term that head
    and arguments spell, built only if it does not exist yet.  The head is
    never an application, and it is an abstraction only with no arguments.
    Before it takes a beta step or offers a term to ``rewrite_head``, it
    looks the term object up in ``steps.hnf`` and goes on from the recorded
    normal form instead.  Only symbols in ``ctx.defined`` reach
    ``rewrite_head``; when the attempt fails, the term is recorded as its
    own head normal form.
    """
    defined = ctx.defined
    hnf = steps.hnf
    base = len(stk)
    whole: Optional[Term] = t  # what head and arguments spell, when it exists
    while True:
        while type(t) is App:
            stk.append(t.arg)
            t = t.fn
        tt = type(t)
        if not (tt is Abst and len(stk) > base or tt is Symb and t.name in defined):
            break
        if hnf and whole in hnf:
            nf = hnf[whole]
            if nf is whole:
                break
            t = whole = nf
            del stk[base:]
            continue
        if tt is Abst:
            arg = stk.pop()
            # (\s, b) s is b: a result that reuses its subject's binder
            t = t.body if arg is t.var else subst(t.body, {t.var.vid: arg})
            whole = None if len(stk) > base else t
        else:
            args = stk[: base - 1 : -1] if base else stk[::-1]
            reduced = rewrite_head(ctx, t.name, args, steps)
            if reduced is None:
                if whole is None:
                    whole = build_app(t, args)
                hnf[whole] = whole
                break
            t = whole = reduced
            del stk[base:]
        steps.used += 1
        if steps.used > steps.budget:
            raise DivergenceError(steps.budget)
    if whole is None:
        whole = build_app(t, stk[: base - 1 : -1] if base else stk[::-1])
    return t, len(stk) - base, whole


def whnf(ctx: EvalContext, t: Term, steps: Optional[Steps] = None) -> Term:
    """Weak-head normal form: beta-reduce and rewrite at the head until
    neither applies.  A term that is already in weak-head normal form is
    returned as it is."""
    if steps is None:
        steps = Steps(ctx.max_steps)
    return whnf_stk(ctx, t, steps, [])[2]


def snf(ctx: EvalContext, t: Term, steps: Optional[Steps] = None) -> Term:
    """Strong normal form (see ``normalise``)."""
    if steps is None:
        steps = Steps(ctx.max_steps)
    return normalise(ctx, t, steps, None)


def normalise(
    ctx: EvalContext, t: Term, steps: Steps, restricted: Optional[AbstractSet[int]]
) -> Optional[Term]:
    """Strong normal form: weak-head normalize, then normalize the
    arguments and abstraction bodies.  One loop over a work list,
    onto which ``whnf_stk`` pushes the arguments, so arbitrarily deep
    results (unary numerals, long lists) are fine.

    With a set of vids it is the closedness check of both engines: it
    returns None as soon as one of them, not rebound by an inner binder of
    the same identity, heads a weak-head normal form, so it takes no more
    steps than ``snf``.  It then records in ``steps.hnf`` every term it
    head-normalised, which the match that goes on would reduce again."""
    defined = ctx.defined
    work: list = [t]  # terms, and jobs that build from the results in out
    out: list[Term] = []
    # for a check, the record entry of each term it reduced
    forced: Optional[dict[Term, Term]] = {} if restricted else None
    while work:
        x = work.pop()
        tx = type(x)
        if tx is int:  # an application, from out[x:]
            if len(out) - x == 2:  # one argument: rebuild in place
                a = out.pop()
                out[-1] = App(out[-1], a)
            else:
                parts = out[x:]
                del out[x:]
                out.append(build_app(parts[0], parts[1:]))
            continue
        if tx is tuple:  # (binder to build or None, the vids restricted next)
            b, restricted = x
            if b is not None:
                out.append(Abst(b.var, None, out.pop()))
            continue
        if tx is Var or tx is Symb and x.name not in defined:
            head = x  # normal already
        else:
            head, n, whole = whnf_stk(ctx, x, steps, work)
            if n:  # the head is normal: its arguments were all it could take
                work.insert(len(work) - n, len(out))
            if forced is not None and whole is not x:
                forced[x] = whole
        th = type(head)
        if th is Abst:
            work.append((head, restricted))
            if restricted and head.var.vid in restricted:
                work += (head.body, (None, restricted - {head.var.vid}))
            else:
                work.append(head.body)
        elif th is MetaApp:
            raise TermError("rhs-only construct reached the evaluator")
        elif restricted and th is Var and head.vid in restricted:
            steps.hnf.update(forced)
            return None
        else:
            out.append(head)
    return out[0]


# the node pairs that each pair a conversion check decomposes adds to what
# its syntactic pre-checks may visit
PRECHECK_NODES = 32


def convertible(ctx: EvalContext, t: Term, u: Term, steps: Steps) -> bool:
    """Equality modulo beta and the rule set, decided lazily as Dedukti
    does, in one loop over pairs of terms with their binder environments.

    A pair whose left head is a defined symbol or a beta redex is first
    compared as it is (``alpha_walk``), and is done if that passes.  Any
    other pair is weak-head normalised, both sides onto one stack; its heads
    and argument counts are compared as ``alpha_eq`` compares those of two
    strong normal forms, and its arguments and bodies become pairs,
    the first argument next.  The first difference answers False.  As
    ``normalise`` never retries a rule at a head it found stuck, the answer
    is ``alpha_eq(snf(t), snf(u))`` whenever that finishes; but a subterm
    that diverges may go unreduced.

    A failed pre-check pays the node pairs it visited out of an allowance
    that starts at ``PRECHECK_NODES`` and grows by as much per decomposed
    pair; a passed one is free, as nothing it covered is visited again.  So
    the pre-checks visit at most a constant per decomposed pair, plus the
    pairs they pass.
    """
    defined = ctx.defined
    work: list[tuple[Term, Term, Env, Env]] = [(t, u, {}, {})]
    stk: list[Term] = []  # both sides' arguments: the left's, then the right's
    allowance = PRECHECK_NODES
    while work:
        a, b, envl, envr = work.pop()
        h = a
        while type(h) is App:
            h = h.fn
        # only reducing a defined head or a beta redex costs what a passed
        # pre-check would save
        if type(h) is Symb and h.name in defined or type(h) is Abst and h is not a:
            spent = alpha_walk(a, b, envl, envr, allowance)
            if spent is None:
                continue
            allowance -= spent
        allowance += PRECHECK_NODES
        ha, n, _ = whnf_stk(ctx, a, steps, stk)
        hb, m, _ = whnf_stk(ctx, b, steps, stk)
        th = type(ha)
        if th is not type(hb) or n != m:
            return False
        if th is Var:
            dl = envl.get(ha.vid)
            dr = envr.get(hb.vid)
            if dl is not dr or dl is None and ha.vid != hb.vid:
                return False
        elif th is Symb:
            if ha.name != hb.name:
                return False
        elif th is Abst:
            k = object()
            work.append(
                (ha.body, hb.body, {**envl, ha.var.vid: k}, {**envr, hb.var.vid: k})
            )
        elif th is Sort:
            if ha.kind != hb.kind:
                return False
        else:
            raise TermError("rhs-only construct reached the evaluator")
        if n:
            work += zip(stk[:n], stk[n:], repeat(envl, n), repeat(envr, n))
            stk.clear()
    return True


def equal_terms(ctx: EvalContext, t: Term, u: Term, steps: Steps) -> bool:
    if ctx.equality == CONVERTIBLE:
        return convertible(ctx, t, u, steps)
    return alpha_eq(t, u)


def closed_term(
    ctx: EvalContext, t: Term, shut: AbstractSet[int], steps: Steps
) -> Optional[Term]:
    """The variable-occurrence check of both engines: None when one of the
    binder identities ``shut`` is free in ``t``, else the term to bind.  In
    convertibility mode it is ``normalise``'s check, and the term to bind is
    the normal form it passed on: the raw term may mention a binder that
    only reduction drops.  Otherwise it is syntactic, and ``t`` itself."""
    if ctx.equality == CONVERTIBLE:
        return normalise(ctx, t, steps, shut)
    return None if free_vars(t) & shut else t


# ---------------------------------------------------------------------------
# Tree evaluation


def instantiate(leaf: Leaf, store: list[Term], binders: tuple[Var, ...]) -> Term:
    """Build the right-hand side of a matched rule from the stored subterms
    with the leaf's builder, compiled on its first firing and kept: the tree
    engine's counterpart of ``patterns.apply_subst``.

    Each pattern variable stands for its stored term, abstracted over the
    binders that the leaf's env selects among ``binders``, those opened on
    the path to the leaf (see ``patterns.rhs_builder``).
    """
    build = leaf.build
    if build is None:
        build = leaf.build = rhs_builder(leaf.rule, leaf.env)
    return build(store, binders)


def eval_tree(
    ctx: EvalContext,
    tree: DTree,
    args: list[Term],
    steps: Steps,
    trace: Optional[list] = None,
) -> Optional[Term]:
    """Run a decision tree on an argument vector.

    Returns the instantiated right-hand side, applied to the arguments past
    its rule's arity, or None when matching fails.  ``args`` is only read;
    an Eos takes its yes child when ``args`` has at least the node's arity.
    A Switch pops the stack top and, if it is an application or a symbol
    that heads a rule, weak-head normalizes it on the stack itself, which
    leaves the head's arguments there for a symbol case; if its store flag
    is set it saves that normal form before dispatching on the head.  Store
    saves a stack entry without popping or normalising it, as its recorded
    head normal form when ``steps.hnf`` has one.  A lambda case opens the
    abstraction in place: it pushes the body itself and records the
    abstraction's own binder, renamed to a fresh variable only when a binder
    opened on this path already has its identity.  The store holds terms
    only: the binders opened on the path only grow, so those opened when a
    term was saved are a prefix of those at the Leaf, which passes them once
    to its builder, and BinNl and BinCl read them by index.  When matching
    fails, every column a Switch normalised is recorded in ``steps.hnf``
    with its normal form, so no later attempt in the evaluation reduces it
    again.
    """
    stack: list[Term] = args[::-1]  # stack[-1] is the first column
    store: list[Term] = []
    binders: tuple[Var, ...] = ()  # opened so far; only ever grows
    hnf = steps.hnf
    defined = ctx.defined
    forced = None  # (column, normal form, next) for each column a Switch reduced
    node = tree
    while True:
        tn = type(node)
        if tn is Switch:
            x = stack.pop()
            tx = type(x)
            if tx is App or tx is Symb and x.name in defined:
                head, n, top = whnf_stk(ctx, x, steps, stack)
            else:  # head-normal: whnf_stk would return it at its first test
                head, n, top = x, 0, x
            if node.store:
                if trace is not None:
                    trace.append(("store", len(store)))
                store.append(top)
            if top is not x:
                forced = (x, top, forced)
            th = type(head)
            if th is Symb:
                child = node.sym_cases.get((head.name, n))
                if child is not None:
                    if trace is not None:
                        trace.append(("switch", (head.name, n)))
                    node = child
                    continue
            elif th is Abst and node.lam_case is not None:
                var, body = head.var, head.body
                # shadowed: under a shared name the inner binder would pass
                # for the outer one in the snapshot
                if var in binders:
                    var = fresh_var(var.name)
                    body = subst(body, {head.var.vid: var})
                if trace is not None:
                    trace.append(("switch", "lambda"))
                stack.append(body)
                binders += (var,)
                node = node.lam_case
                continue
            if node.default_case is not None:
                if trace is not None:
                    trace.append(("switch", "*"))
                if n:
                    del stack[-n:]
                node = node.default_case
                continue
            if trace is not None:
                trace.append(("no-case",))
            break
        if tn is Store:
            if trace is not None:
                trace.append(("store", len(store)))
            x = stack[-node.index]
            if hnf:
                x = hnf.get(x, x)
            store.append(x)
            node = node.child
            continue
        if tn is Swap:
            i = node.index
            stack[-1], stack[-i] = stack[-i], stack[-1]
            if trace is not None:
                trace.append(("swap", i))
            node = node.child
            continue
        if tn is Leaf:
            if trace is not None:
                trace.append(("leaf", len(store)))
            rhs = instantiate(node, store, binders)
            k = node.rule.arity
            return rhs if k == len(args) else build_app(rhs, args[k:])
        if tn is BinNl:
            i, j = node.slots
            sel_a, sel_b = node.formals
            a = abstract_formals(store[i], [binders[k] for k in sel_a])
            b = abstract_formals(store[j], [binders[k] for k in sel_b])
            ok = equal_terms(ctx, a, b, steps)
            if trace is not None:
                trace.append(("nl", (i, j), ok))
            node = node.succ if ok else node.fail
            continue
        if tn is BinCl:
            shut = set()  # a loop: a set comprehension costs a frame
            for k in node.restricted:
                shut.add(binders[k].vid)
            term = closed_term(ctx, store[node.slot], shut, steps)
            ok = term is not None
            if ok:
                store[node.slot] = term
            if trace is not None:
                trace.append(("cl", node.slot, ok))
            node = node.succ if ok else node.fail
            continue
        if tn is Eos:
            node = node.succ if len(args) >= node.arity else node.fail
            continue
        if tn is Fail:
            if trace is not None:
                trace.append(("fail",))
            break
        raise TermError(f"malformed tree node {tn!r}")
    while forced is not None:
        x, nf, forced = forced
        hnf[x] = nf
    return None


class WhnfMemo(Hooks):
    """The matcher's hooks for one naive rewrite attempt, under the
    attempt's ``ctx`` and ``steps``.  The dict is the attempt's memo of head
    normal forms, keyed by the term itself: a missing term is normalised
    with ``whnf`` and kept.  ``known`` gives the normal form that the memo
    or ``steps.hnf`` has for a subject, else the subject; ``equal`` is
    ``equal_terms``; ``closed`` is ``closed_term``."""

    __slots__ = ("ctx", "steps")

    def __missing__(self, u: Term) -> Term:
        nf = self[u] = whnf(self.ctx, u, self.steps)
        return nf

    def equal(self, a: Term, b: Term) -> bool:
        return equal_terms(self.ctx, a, b, self.steps)

    def closed(self, u: Term, shut: frozenset[int]) -> Optional[Term]:
        return closed_term(self.ctx, u, shut, self.steps)

    def known(self, u: Term) -> Term:
        nf = self.get(u)
        if nf is not None:
            return nf
        hnf = self.steps.hnf
        return hnf.get(u, u) if hnf else u


def rewrite_head(
    ctx: EvalContext, head: str, args: list[Term], steps: Steps
) -> Optional[Term]:
    """One rewrite attempt at a symbol head: under either engine none below
    the smallest arity of its rules, decided before anything is made; else
    one run of the head's tree if ``ctx.trees`` has one, or the first rule
    in text order that applies; the arguments past the rule's arity are
    reattached to its right-hand side.  ``args`` is only read.

    A failed attempt records in ``steps.hnf`` every term its matches
    head-normalised, so the rest of the evaluation starts from those normal
    forms.  Every rule the naive engine tries is matched under one
    ``WhnfMemo``: rules tried after the first do not reduce a subterm again,
    a hit runs no Python code, and a pattern variable binds the head normal
    form that the memo or the record has for its subject.  The memo's
    reduced entries join the record only when no rule applies.  A failed
    closedness check records its own."""
    least = ctx.defined.get(head)
    if least is None or len(args) < least:
        return None
    tree = ctx.trees.get(head)
    if tree is not None:
        return eval_tree(ctx, tree, args, steps)
    memo = WhnfMemo()  # set without an __init__, which costs a Python call
    memo.ctx, memo.steps = ctx, steps
    found = naive_rewrite_head(ctx.rules_by_head[head], args, memo)
    if found is None:
        # like a tree match, keep what was reduced; whnf_stk has recorded
        # each stuck term itself
        steps.hnf.update({u: nf for u, nf in memo.items() if nf is not u})
        return None
    return found[1]
