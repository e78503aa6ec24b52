"""Tree evaluation, beta-reduction, normalization and convertibility.

The same normalization driver serves two interchangeable matching back ends:
the compiled decision trees and the rule-by-rule declarative matcher.  Terms
are matched modulo reduction.  Head normalisation runs on a head and an
argument stack (``whnf_stk``), so a Switch and ``snf`` read the arguments
off the stack instead of unwinding the term again, and a symbol that heads
no rule is never offered to a matcher.  A Switch head-normalizes the stack
top before it inspects it, and stores that normal form when the tree asks
for it; a Leaf builds its right-hand side with the builder compiled when
the tree was.  A failed tree match keeps its work: it writes the head
normal form of every argument it forced back into the argument list, so
``whnf``, an enclosing Switch and ``snf`` start from the normal forms
instead of reducing the same arguments again.  The result of ``whnf`` may
therefore differ from the naive engine's in arguments that only a failed
match reduced; the two are convertible.  In convertibility mode the
constraint checks compare or inspect fully normalized terms.

No term is matched twice in one evaluation once it is known to be stuck.
The evaluation's ``Steps`` marks, by identity, every term whose rewrite
attempt failed without changing an argument and every term built from a
head-normal head and stack; ``whnf_stk`` returns a marked term without
offering it to ``rewrite_head``.  The mark lives as long as the ``Steps``
object, so nothing carries over from one evaluation, or one context, to
the next.  Both engines share ``whnf_stk`` and so both use the mark.  For
the naive engine this changes step counts, not results: its failed matches
keep no work, so each repeat used to reduce the forced arguments again.
On ``+ (… (+ (+ a 0) a) …) a`` with ``+ 0 $p --> $p`` and ``+ $p 0 --> $p``
it now takes 2 steps at any depth, where it took one per level.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import dtree as dt
from .dtree import DTree, trees_of_ruleset
from .patterns import Rule, naive_rewrite_head, shared_formals
from .terms import (
    Abst,
    App,
    MetaApp,
    Prod,
    Symb,
    Term,
    TermError,
    Var,
    alpha_eq,
    build_app,
    free_vars,
    fresh_var,
    subst,
)

CONVERTIBLE = "convertible"
ALPHA = "alpha"
TREE = "tree"
NAIVE = "naive"


class DivergenceError(Exception):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"rewrite budget of {budget} steps exhausted")


class Steps:
    """Per-evaluation rewrite-step budget; counts beta and rule steps.

    It also carries the evaluation's stuck mark: ``stuck`` maps ``id(term)``
    to every term found head-normal so far, and ``whnf_stk`` never offers a
    marked term to ``rewrite_head`` again.  The value keeps the term alive,
    so an id is never reused while the mark exists.  The mark lasts as long
    as this object: one ``whnf``/``snf``/``convertible`` call and the calls
    it makes, under one ``EvalContext``.  Do not share a ``Steps`` between
    contexts."""

    __slots__ = ("remaining", "used", "budget", "stuck")

    def __init__(self, budget: int):
        self.budget = budget
        self.remaining = budget
        self.used = 0
        self.stuck: dict[int, Term] = {}

    def tick(self):
        self.remaining -= 1
        self.used += 1
        if self.remaining < 0:
            raise DivergenceError(self.budget)


@dataclass(slots=True)
class EvalContext:
    """Immutable evaluation setup: compiled trees, rules, budget, equality
    and engine."""

    trees: dict[tuple[str, int], DTree]
    rules_by_head: dict[str, list[Rule]]
    tree_arities: dict[str, tuple[int, ...]]  # descending
    defined: frozenset[str]  # heads of rules, the same for both engines
    max_steps: int = 10**8
    equality: str = CONVERTIBLE
    engine: str = TREE

    @classmethod
    def from_rules(
        cls,
        rules: Sequence[Rule],
        *,
        engine: str = TREE,
        max_steps: int = 10**8,
        equality: str = CONVERTIBLE,
    ) -> "EvalContext":
        """Raises RuleSetError when a rule fails validation."""
        by_head: dict[str, list[Rule]] = {}
        for r in rules:
            by_head.setdefault(r.head, []).append(r)
        trees = trees_of_ruleset(rules)
        arities: dict[str, list[int]] = {}
        for head, arity in trees:
            arities.setdefault(head, []).append(arity)
        return cls(
            trees=trees,
            rules_by_head=by_head,
            defined=frozenset(by_head),
            tree_arities={
                h: tuple(sorted(a, reverse=True)) for h, a in arities.items()
            },
            max_steps=max_steps,
            equality=equality,
            engine=engine,
        )


# ---------------------------------------------------------------------------
# Normalization


def whnf_stk(
    ctx: EvalContext, t: Term, steps: Steps
) -> tuple[Term, list[Term], Optional[Term]]:
    """Weak-head normalise ``t`` on an argument stack.

    Returns the head, its arguments as a stack (first argument last) and
    the term that head and stack spell if that term already exists, else
    None.  The head is never an application, and it is an abstraction only
    when the stack is empty.  Only symbols in ``ctx.defined`` reach
    ``rewrite_head``, and only when the term they head is not marked stuck
    in ``steps.stuck``.  When the attempt fails and changes no argument,
    that term is marked.  When it fails but head-normalised some of the
    arguments, the stack holds those normal forms and the term returned is
    None; whoever builds that term marks it.
    """
    defined = ctx.defined
    stuck = steps.stuck
    stk: list[Term] = []
    whole: Optional[Term] = t  # what head and stk spell, when it exists
    while True:
        while type(t) is App:
            stk.append(t.arg)
            t = t.fn
        tt = type(t)
        if tt is Abst and stk:
            steps.tick()
            t = subst(t.body, {t.var.vid: stk.pop()})
            whole = None if stk else t
            continue
        if tt is Symb and t.name in defined:
            if stuck and whole is not None and id(whole) in stuck:
                return t, stk, whole
            args = stk[::-1]
            reduced = rewrite_head(ctx, t.name, args, steps)
            if reduced is not None:
                steps.tick()
                t = whole = reduced
                stk = []
                continue
            args.reverse()
            if args != stk:  # terms compare by identity
                stk = args
                whole = None
            elif whole is not None:
                stuck[id(whole)] = whole
        return t, stk, whole


def _build_stuck(head: Term, stk: list[Term], stuck: dict[int, Term]) -> Term:
    """The term a head-normal head and its argument stack spell, marked
    stuck: matching it again in this evaluation would fail."""
    t = build_app(head, stk[::-1])
    stuck[id(t)] = t
    return t


def whnf(ctx: EvalContext, t: Term, steps: Optional[Steps] = None) -> Term:
    """Weak-head normal form: beta-reduce and rewrite at the head until
    neither applies.  A term that is already in weak-head normal form is
    returned as it is, unless a failed match head-normalised one of its
    arguments: then the result is rebuilt from those normal forms, and
    marked stuck for the rest of the evaluation that ``steps`` counts.
    Under the tree engine ``+ (+ a 0) a`` with the rules ``+ 0 $p --> $p``
    and ``+ $p 0 --> $p`` gives ``+ a a``; the naive engine keeps
    ``+ (+ a 0) a``.  Both are head-normal and convertible."""
    if steps is None:
        steps = Steps(ctx.max_steps)
    head, stk, whole = whnf_stk(ctx, t, steps)
    if whole is not None:
        return whole
    return _build_stuck(head, stk, steps.stuck)


def snf(ctx: EvalContext, t: Term, steps: Optional[Steps] = None) -> Term:
    """Strong normal form: weak-head normalize, then recurse into the
    arguments left on the stack, abstraction bodies and domains.
    Iterative, so arbitrarily deep results (unary numerals, long lists)
    are fine."""
    if steps is None:
        steps = Steps(ctx.max_steps)
    EXPAND, BUILD_APP, BUILD_ABST, BUILD_PROD = 0, 1, 2, 3
    work: list[tuple[int, object]] = [(EXPAND, t)]
    out: list[Term] = []
    while work:
        tag, x = work.pop()
        if tag == EXPAND:
            x, stk, _ = whnf_stk(ctx, x, steps)
            if stk:
                work.append((BUILD_APP, len(stk) + 1))
                work.extend([(EXPAND, a) for a in stk])
            # the head is normal: the stack held every argument it could
            # have been rewritten with
            tx = type(x)
            if tx is Abst:
                work.append((BUILD_ABST, (x.var, x.domain is not None)))
                work.append((EXPAND, x.body))
                if x.domain is not None:
                    work.append((EXPAND, x.domain))
            elif tx is Prod:
                work.append((BUILD_PROD, x.var))
                work.append((EXPAND, x.codomain))
                work.append((EXPAND, x.domain))
            elif tx is MetaApp:
                raise TermError("rhs-only construct reached the evaluator")
            else:
                out.append(x)
        elif tag == BUILD_APP:
            n = x
            parts = out[-n:]
            del out[-n:]
            out.append(build_app(parts[0], parts[1:]))
        elif tag == BUILD_ABST:
            var, has_domain = x
            body = out.pop()
            domain = out.pop() if has_domain else None
            out.append(Abst(var, domain, body))
        else:  # BUILD_PROD
            codomain = out.pop()
            domain = out.pop()
            out.append(Prod(x, domain, codomain))
    return out[0]


def convertible(
    ctx: EvalContext, t: Term, u: Term, steps: Optional[Steps] = None
) -> bool:
    """Equality modulo beta and the rule set: compare strong normal forms."""
    if steps is None:
        steps = Steps(ctx.max_steps)
    return alpha_eq(snf(ctx, t, steps), snf(ctx, u, steps))


def equal_terms(ctx: EvalContext, t: Term, u: Term, steps: Steps) -> bool:
    if ctx.equality == CONVERTIBLE:
        return convertible(ctx, t, u, steps)
    return alpha_eq(t, u)


# ---------------------------------------------------------------------------
# Tree evaluation


def instantiate(leaf: dt.Leaf, store: dt.StoreEntries) -> Term:
    """Build the right-hand side of a matched rule from the stored subterms
    with the leaf's compiled builder.

    Each pattern variable stands for its stored term, abstracted over the
    selected binders of that entry's snapshot (see ``dtree.rhs_builder``).
    """
    return leaf.build(store)


def _write_back(args: list[Term], forced, stuck: dict[int, Term]) -> None:
    """Replace each entry of ``args`` that a Switch head-normalised, found by
    identity, with its normal form.  ``forced`` chains the records
    ``(term, head, stack, whole, next)``; the normal form is built, and
    marked stuck, here only when the Switch did not build it."""
    while forced is not None:
        x, head, hargs, top, forced = forced
        for i, a in enumerate(args):
            if a is x:
                if top is None:
                    top = _build_stuck(head, hargs, stuck)
                args[i] = top


def eval_tree(
    ctx: EvalContext,
    tree: DTree,
    args: list[Term],
    steps: Steps,
    trace: Optional[list] = None,
) -> Optional[Term]:
    """Run a decision tree on an argument vector.

    Returns the instantiated right-hand side, or None when matching fails.
    A Switch pops the stack top and weak-head normalizes it on an argument
    stack; if its store flag is set it saves that normal form (built, and
    marked stuck, only if it does not exist yet) before dispatching on the
    head, and a symbol case pushes the arguments straight from the
    normalisation stack.  Store saves a stack entry unevaluated without
    popping.  Every saved term comes with the binders opened so far.  When
    matching fails, each entry of ``args`` that a Switch head-normalised is
    replaced by its normal form, so the caller keeps that work.
    """
    stack: list[Term] = list(args)
    stack.reverse()  # stack[-1] is the first column
    store: list[tuple[Term, tuple[Var, ...]]] = []
    binders: tuple[Var, ...] = ()  # opened so far, the snapshot of a save
    forced = None  # records of the Switches whose whnf took steps
    node = tree
    while True:
        tn = type(node)
        if tn is dt.Switch:
            x = stack.pop()
            head, hargs, top = whnf_stk(ctx, x, steps)
            if node.store:
                if trace is not None:
                    trace.append(("store", len(store)))
                if top is None:
                    top = _build_stuck(head, hargs, steps.stuck)
                store.append((top, binders))
            if top is not x:
                forced = (x, head, hargs, top, forced)
            th = type(head)
            if th is Symb:
                child = node.sym_cases.get((head.name, len(hargs)))
                if child is not None:
                    if trace is not None:
                        trace.append(("switch", (head.name, len(hargs))))
                    stack.extend(hargs)
                    node = child
                    continue
            elif th is Abst and node.lam_case is not None:
                v2 = fresh_var(head.var.name)
                body = subst(head.body, {head.var.vid: v2})
                if trace is not None:
                    trace.append(("switch", "lambda"))
                stack.append(body)
                binders += (v2,)
                node = node.lam_case
                continue
            if node.default_case is not None:
                if trace is not None:
                    trace.append(("switch", "*"))
                node = node.default_case
                continue
            if trace is not None:
                trace.append(("no-case",))
            if forced is not None:
                _write_back(args, forced, steps.stuck)
            return None
        if tn is dt.Store:
            if trace is not None:
                trace.append(("store", len(store)))
            store.append((stack[-node.index], binders))
            node = node.child
            continue
        if tn is dt.Swap:
            i = node.index
            stack[-1], stack[-i] = stack[-i], stack[-1]
            if trace is not None:
                trace.append(("swap", i))
            node = node.child
            continue
        if tn is dt.Leaf:
            if trace is not None:
                trace.append(("leaf", len(store)))
            return instantiate(node, store)
        if tn is dt.BinNl:
            i, j = node.slots
            (a, snap_a), (b, snap_b) = store[i], store[j]
            sel_a, sel_b = node.formals
            if sel_a:
                a, b = shared_formals(
                    a, [snap_a[k] for k in sel_a], b, [snap_b[k] for k in sel_b]
                )
            ok = equal_terms(ctx, a, b, steps)
            if trace is not None:
                trace.append(("nl", (i, j), ok))
            node = node.succ if ok else node.fail
            continue
        if tn is dt.BinCl:
            term, snapshot = store[node.slot]
            if ctx.equality == CONVERTIBLE:
                term = snf(ctx, term, steps)
            fv = free_vars(term)
            snap_ids = [v.vid for v in snapshot]
            allowed = {snap_ids[k] for k in node.allowed}
            ok = (fv & set(snap_ids)) <= allowed
            if trace is not None:
                trace.append(("cl", node.slot, ok))
            node = node.succ if ok else node.fail
            continue
        if tn is dt.Fail:
            if trace is not None:
                trace.append(("fail",))
            if forced is not None:
                _write_back(args, forced, steps.stuck)
            return None
        raise TermError(f"malformed tree node {tn!r}")


def rewrite_head(
    ctx: EvalContext, head: str, args: list[Term], steps: Steps
) -> Optional[Term]:
    """One rewrite attempt at a symbol head: largest consumable arity first,
    leftover arguments reattached to the instantiated right-hand side.

    Under the tree engine a failed attempt leaves in ``args`` the head
    normal form of every argument a tree match head-normalised, so the next
    smaller arity and the caller start from it."""
    if ctx.engine == TREE:
        arities = ctx.tree_arities.get(head)
        if arities is None:
            return None
        n = len(args)
        for arity in arities:
            if arity > n:
                continue
            consumed = args if arity == n else args[:arity]
            result = eval_tree(ctx, ctx.trees[(head, arity)], consumed, steps)
            if result is not None:
                if consumed is args:
                    return result
                return build_app(result, args[arity:])
            if consumed is not args:
                args[:arity] = consumed
        return None
    rules = ctx.rules_by_head.get(head)
    if not rules:
        return None
    found = naive_rewrite_head(
        rules,
        head,
        args,
        whnf=lambda u: whnf(ctx, u, steps),
        equal=lambda a, b: equal_terms(ctx, a, b, steps),
        fv_normalize=(
            (lambda u: snf(ctx, u, steps)) if ctx.equality == CONVERTIBLE else None
        ),
    )
    if found is None:
        return None
    return found[1]
