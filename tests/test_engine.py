import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwtree.dtree import Fail, Leaf, Store, Switch, iter_tree
from rwtree.engine import (
    DivergenceError,
    EvalContext,
    Steps,
    convertible,
    eval_tree,
    instantiate,
    normalise,
    rewrite_head,
    snf,
    whnf,
)
from rwtree.patterns import (
    Closure,
    Hooks,
    PatAbst,
    PatSymb,
    PatVar,
    Rule,
    SubstitutionError,
    apply_subst,
    match_patterns,
    rhs_builder,
)
from rwtree.syntax import Compute, parse_file, print_term
from rwtree.terms import (
    KIND,
    TYPE,
    Abst,
    App,
    MetaApp,
    Sort,
    Symb,
    Term,
    Var,
    alpha_eq,
    alpha_walk,
    build_app,
    free_vars,
    fresh_var,
    spine,
    symb,
)

from genlib import (
    FIB_RULES,
    REVNAT_RULES,
    RuleSampler,
    counted_inspections,
    fired_rules,
    loop_rule,
    nat_list,
    numeral,
    preorder,
    recorded_reads,
)


def lam(v, body):
    return Abst(v, None, body)


EXAMPLE1 = """
symbol f; symbol c; symbol a; symbol b; symbol e;
rule f (c (c $x)) a --> $x
with f $x       b --> $x;
"""

ADDITION = """
symbol 0; symbol s; symbol +;
rule + 0 $m --> $m
with + (s $n) $m --> s (+ $n $m);
"""

PARTIAL = """
symbol 0; symbol s; symbol id; symbol plus; symbol map; symbol nil;
rule id $x --> $x;
rule plus 0 --> id
with plus (s $n) $m --> s (plus $n $m);
rule map id $l --> $l;
"""

DIFF = """
symbol sin; symbol cos; symbol *; symbol diff; symbol 0; symbol c;
rule diff (\\x, sin $v[x]) --> * (diff (\\x, $v[x])) cos
with diff (\\x, $v)        --> \\x, 0;
"""

EQ = """
symbol 0; symbol s; symbol +; symbol eq; symbol true;
rule + 0 $m --> $m
with + (s $n) $m --> s (+ $n $m);
rule eq $x $x --> true;
"""


def ctx_for(text, **kw):
    return EvalContext.from_rules(parse_file(text).rules, **kw)


def term(text, ctx_text):
    """``text`` parsed as the term of a ``compute`` line after ``ctx_text``."""
    return parse_file(f"{ctx_text}\ncompute {text};").items[-1].term


# ---------------------------------------------------------------------------
# eval_tree semantics


def test_eval_trace_swap_then_leaf():
    # stack (f a, b): swap, take the b case, reach the leaf; store untouched
    ctx = ctx_for(EXAMPLE1)
    tree = ctx.trees["f"]
    fa = App(symb("f"), symb("a"))
    trace = []
    result = eval_tree(ctx, tree, [fa, symb("b")], Steps(100), trace=trace)
    assert result is not None
    assert alpha_eq(result, fa)
    assert trace[0] == ("swap", 2)
    assert trace[1] == ("switch", ("b", 0))
    store_events = [e for e in trace if e[0] == "store"]
    assert trace[-1] == ("leaf", len(store_events))


def test_eval_tree_rule_one_binds_innermost():
    ctx = ctx_for(EXAMPLE1)
    tree = ctx.trees["f"]
    cce = App(symb("c"), App(symb("c"), symb("e")))
    result = eval_tree(ctx, tree, [cce, symb("a")], Steps(100))
    assert result is not None
    assert alpha_eq(result, symb("e"))


def test_eval_tree_fail_node():
    ctx = ctx_for(EXAMPLE1)
    assert eval_tree(ctx, Fail(), [symb("a")], Steps(10)) is None


def test_eval_tree_no_case_no_default():
    ctx = ctx_for(EXAMPLE1)
    tree = ctx.trees["f"]
    # second argument e matches neither a nor b and there is no default
    out = eval_tree(ctx, tree, [symb("e"), symb("e")], Steps(100))
    assert out is None


def test_store_does_not_pop():
    # a switch below a store still sees the stored term on the stack
    ctx = ctx_for(EXAMPLE1)
    ok = Rule("f", (PatSymb("a"),), symb("ok"))
    tree = Store(Switch({("a", 0): Leaf(ok, {})}))
    out = eval_tree(ctx, tree, [symb("a")], Steps(10))
    assert out is symb("ok")


# ---------------------------------------------------------------------------
# instantiate


def test_instantiate_plain_slot():
    s0 = App(symb("s"), symb("0"))
    leaf = Leaf(Rule("f", (PatVar("m"),), MetaApp("m", ())), {"m": (0, ())})
    assert instantiate(leaf, [s0], ()) is s0


def test_instantiate_closure_with_snapshot():
    # leaf of f (\y, $v[y]) --> * (diff (\x, $v[x])) cos, store holds the
    # body y, and the Leaf's binders y: x stands for the subject's y and is y
    y = fresh_var("y")
    x = fresh_var("x")
    rhs = build_app(
        symb("*"), [App(symb("diff"), lam(x, MetaApp("v", (x,)))), symb("cos")]
    )
    rule = Rule("f", (PatAbst(y, PatVar("v", (y,))),), rhs)
    out = instantiate(Leaf(rule, {"v": (0, (0,))}), [y], (y,))
    want = build_app(symb("*"), [App(symb("diff"), lam(y, y)), symb("cos")])
    assert alpha_eq(out, want)
    assert out.fn.arg.arg.var is y


def test_instantiate_empty_env():
    x = fresh_var("x")
    leaf = Leaf(Rule("f", (), lam(x, symb("0"))), {})
    out = instantiate(leaf, [], ())
    assert alpha_eq(out, lam(fresh_var("y"), symb("0")))


# ---------------------------------------------------------------------------
# rewrite_head


def test_rewrite_head_addition():
    ctx = ctx_for(ADDITION)
    out = rewrite_head(ctx, "+", [symb("0"), numeral(1)], Steps(100))
    assert out is not None
    assert alpha_eq(out, numeral(1))


def test_rewrite_head_partial_application():
    ctx = ctx_for(PARTIAL)
    t = fresh_var("t")
    out = rewrite_head(ctx, "plus", [symb("0"), t], Steps(100))
    assert out is not None
    assert alpha_eq(out, App(symb("id"), t))
    assert alpha_eq(whnf(ctx, out, Steps(100)), t)


def test_rewrite_head_example1():
    ctx = ctx_for(EXAMPLE1)
    ce = App(symb("c"), symb("e"))
    out = rewrite_head(ctx, "f", [ce, symb("b")], Steps(100))
    assert alpha_eq(out, ce)


def test_rewrite_head_takes_rules_in_text_order_across_arities():
    # the first rule that fits fires, whatever its arity, and the arguments
    # past its arity are reattached
    src = """
    symbol g; symbol a; symbol one; symbol two;
    rule g $x --> one;
    rule g $x $y --> two;
    """
    for engine in ("tree", "naive"):
        ctx = ctx_for(src, engine=engine)
        out = rewrite_head(ctx, "g", [symb("a"), symb("a")], Steps(10))
        assert print_term(out) == "one a"
        out = rewrite_head(ctx, "g", [symb("a")], Steps(10))
        assert out is symb("one")


# ---------------------------------------------------------------------------
# whnf / snf


def test_whnf_beta_step():
    ctx = ctx_for(ADDITION)
    x = fresh_var("x")
    t = App(lam(x, x), symb("0"))
    assert whnf(ctx, t, Steps(10)) is symb("0")


def test_whnf_addition():
    ctx = ctx_for(ADDITION)
    t = build_app(symb("+"), [symb("0"), numeral(1)])
    assert alpha_eq(whnf(ctx, t, Steps(100)), numeral(1))


def test_whnf_matches_reduced_argument():
    # map (plus 0) nil: the argument head-normalizes to id during matching
    ctx = ctx_for(PARTIAL)
    t = build_app(symb("map"), [App(symb("plus"), symb("0")), symb("nil")])
    assert whnf(ctx, t, Steps(100)) is symb("nil")
    ctxn = ctx_for(PARTIAL, engine="naive")
    assert whnf(ctxn, t, Steps(100)) is symb("nil")


def test_whnf_stops_at_head_normal():
    ctx = ctx_for(ADDITION)
    t = App(symb("s"), build_app(symb("+"), [symb("0"), symb("0")]))
    out = whnf(ctx, t, Steps(100))
    assert out is t  # already head-normal, argument untouched


def test_snf_normalizes_inside():
    ctx = ctx_for(ADDITION)
    t = App(symb("s"), build_app(symb("+"), [symb("0"), symb("0")]))
    assert alpha_eq(snf(ctx, t, Steps(100)), numeral(1))


def test_snf_under_binder():
    ctx = ctx_for(ADDITION)
    x = fresh_var("x")
    t = lam(x, build_app(symb("+"), [symb("0"), x]))
    out = snf(ctx, t, Steps(100))
    assert isinstance(out, Abst)
    assert out.body is out.var or alpha_eq(out.body, out.var)


def test_snf_fib_10_is_55():
    ctx = ctx_for(FIB_RULES)
    ctxn = ctx_for(FIB_RULES, engine="naive")
    t = App(symb("fib"), numeral(10))
    got_tree = snf(ctx, t, Steps(10**7))
    got_naive = snf(ctxn, t, Steps(10**7))
    assert alpha_eq(got_tree, numeral(55))
    assert alpha_eq(got_naive, numeral(55))


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_rev_reverses_a_list(engine):
    values = [(j % 5) + 1 for j in range(60)]
    ctx = ctx_for(REVNAT_RULES, engine=engine)
    steps = Steps(10**6)
    out = snf(ctx, App(symb("rev"), nat_list(values)), steps)
    assert alpha_eq(out, nat_list(values[::-1]))
    assert steps.used == 61 + 60 * 61 // 2 == 1891


@pytest.mark.xfail(
    strict=True,
    raises=RecursionError,
    reason="tree matching and naive matching both recurse through whnf once "
    "per list cell; see ROADMAP item 4",
)
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_rev_of_a_deep_list_does_not_overflow(engine):
    values = [(j % 5) + 1 for j in range(400)]
    ctx = ctx_for(REVNAT_RULES, engine=engine)
    out = snf(ctx, App(symb("rev"), nat_list(values)))
    assert alpha_eq(out, nat_list(values[::-1]))


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_pattern_3000_deep_compiles_and_matches(engine):
    # f (s (… (s 0))) --> yes with 3,000 successors, built here because the
    # parser would overflow first; neither the compiler nor either matcher
    # recurses on pattern depth
    pattern = PatSymb("0", ())
    for _ in range(3000):
        pattern = PatSymb("s", (pattern,))
    rule = Rule("f", (pattern,), symb("yes"), "deep")
    ctx = EvalContext.from_rules([rule], engine=engine)
    assert snf(ctx, App(symb("f"), numeral(3000)), Steps(10)) is symb("yes")
    stuck = App(symb("f"), numeral(2999))
    assert alpha_eq(snf(ctx, stuck, Steps(10)), stuck)


def test_divergence_budget():
    src = "symbol loop;\nrule loop --> loop;"
    ctx = ctx_for(src, max_steps=500)
    with pytest.raises(DivergenceError):
        whnf(ctx, symb("loop"), Steps(500))


def _identity_tower(n):
    """``(\\x, x) ((\\x, x) (... a))``, n deep: n beta steps and no rule."""
    t = symb("a")
    for _ in range(n):
        x = fresh_var("x")
        t = App(lam(x, x), t)
    return t


HOL = r"""symbol d; symbol sin; symbol cos; symbol +; symbol *; symbol neg;
symbol 0; symbol 1; symbol a; symbol b;
rule d (\x, $c) --> \x, 0
with d (\x, sin $u[x]) --> \x, * (cos $u[x]) (d (\x, $u[x]) x)
with d (\x, cos $u[x]) --> \x, * (neg (sin $u[x])) (d (\x, $u[x]) x)
with d (\x, + $u[x] $v[x]) --> \x, + (d (\x, $u[x]) x) (d (\x, $v[x]) x)
with d (\x, * $u[x] $v[x]) --> \x, + (* (d (\x, $u[x]) x) $v[x]) (* $u[x] (d (\x, $v[x]) x));
rule * $p 0 --> 0 with * 0 $p --> 0 with * 1 $p --> $p with * $p 1 --> $p;
rule + 0 $p --> $p with + $p 0 --> $p;
rule neg 0 --> 0;
"""


BUDGET_CASES = {
    "beta": ("symbol a;", _identity_tower(5), 5),
    # f peels the five s, then f 0 fires: six rule steps and no beta
    "rule": (
        "symbol 0; symbol s; symbol f; symbol done;\n"
        "rule f (s $n) --> f $n with f 0 --> done;",
        App(symb("f"), numeral(5)),
        6,
    ),
    # * 0 $p forces + a 0 to a, and * $p 1 binds that a: two rule steps,
    # where binding the raw + a 0 would reduce it again
    "bound-hnf": (HOL, term("* (+ a 0) 1", HOL), 2),
}


@pytest.mark.parametrize("engine", ["tree", "naive"])
@pytest.mark.parametrize("case", BUDGET_CASES)
def test_the_budget_is_exact(engine, case):
    # semantics (c): a term that needs exactly n steps finishes on a
    # budget of n and exhausts a budget of n - 1
    src, t, n = BUDGET_CASES[case]
    ctx = ctx_for(src, engine=engine)
    steps = Steps(n)
    snf(ctx, t, steps)
    assert steps.used == n
    with pytest.raises(DivergenceError):
        snf(ctx, t, Steps(n - 1))


# ---------------------------------------------------------------------------
# convertibility and equality modes


def test_convertible_examples():
    ctx = ctx_for(ADDITION)
    zero_plus = build_app(symb("+"), [symb("0"), symb("0")])
    assert convertible(ctx, zero_plus, symb("0"), Steps(100))
    x, y = fresh_var("x"), fresh_var("y")
    assert convertible(ctx, lam(x, x), lam(y, y), Steps(100))
    assert not convertible(ctx, numeral(1), symb("0"), Steps(100))


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_two_sorts_are_equal_only_when_they_are_one_sort(engine):
    ctx = ctx_for(ADDITION, engine=engine)
    for a, b in itertools.product((TYPE, KIND), repeat=2):
        same = a == b
        assert convertible(ctx, Sort(a), Sort(b), Steps(100)) is same
        assert alpha_eq(Sort(a), Sort(b)) is same


def test_conversion_reduces_no_argument_both_sides_share():
    # each id pair is equal as it is, so it is never reduced; comparing
    # strong normal forms took 4 steps
    ctx = ctx_for("symbol id; symbol k; symbol a; symbol b;\nrule id $x --> $x;")
    left, right = (
        build_app(symb("k"), [App(symb("id"), symb("a")), App(symb("id"), symb("b"))])
        for _ in range(2)
    )
    steps = Steps(100)
    assert convertible(ctx, left, right, steps)
    assert steps.used == 0


def _converts_as_strong_normal_forms(ctx, pairs, budget=10**4):
    """Check ``convertible`` against comparing strong normal forms on each
    pair whose normal forms are computed within ``budget``; return how many
    of those pairs were unequal and how many equal."""
    counts = [0, 0]
    for t, u in pairs:
        steps = Steps(budget)
        try:
            want = alpha_eq(snf(ctx, t, steps), snf(ctx, u, steps))
        except DivergenceError:
            continue
        assert convertible(ctx, t, u, Steps(budget)) == want, (t, u)
        counts[want] += 1
    return counts


def _genlib_pairs(seed):
    """The same subject twice (with other binders), an unrelated subject,
    and the subject with one argument replaced."""
    sampler = RuleSampler(random.Random(seed))
    rules = sampler.ruleset()
    state = sampler.rng.getstate()
    head, args = sampler.subject_args(rules)
    sampler.rng.setstate(state)
    _, same = sampler.subject_args(rules)
    sampler.rng.setstate(state)
    _, replaced = sampler.subject_args(rules)
    other_head, other = sampler.subject_args(rules)
    if replaced:
        replaced[sampler.rng.randrange(len(replaced))] = sampler.subject_term(2)
    t = build_app(symb(head), args)
    return rules, [
        (t, build_app(symb(head), same)),
        (t, build_app(symb(other_head), other)),
        (t, build_app(symb(head), replaced)),
    ]


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_convertible_agrees_with_comparing_strong_normal_forms(engine):
    equal = unequal = 0
    for seed in range(1000):
        rules, pairs = _genlib_pairs(seed)
        ctx = EvalContext.from_rules(rules, engine=engine)
        no, yes = _converts_as_strong_normal_forms(ctx, pairs)
        equal += yes
        unequal += no
    assert equal >= 1000 and unequal >= 1000


def _hol_function(rng, depth):
    """A random body over x, a and b with the operators of HOL."""
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return rng.choice(["x", "x", "a", "b"])
    if roll < 0.5:
        return (rng.choice(["sin", "cos"]), _hol_function(rng, depth - 1))
    op = rng.choice(["*", "+"])
    return (op, _hol_function(rng, depth - 1), _hol_function(rng, depth - 1))


def _with_unit(rng, e):
    """``e`` with one subterm u replaced by ``* 1 u`` or ``+ u 0``."""
    if isinstance(e, str) or rng.random() < 0.3:
        return ("*", "1", e) if rng.random() < 0.5 else ("+", e, "0")
    i = rng.randrange(1, len(e))
    return e[:i] + (_with_unit(rng, e[i]),) + e[i + 1 :]


def _render(e):
    return e if isinstance(e, str) else "(" + " ".join(map(_render, e)) + ")"


def _hol_functions(seed):
    """60 triples of random HOL bodies: f, f with one inserted unit, and an
    unrelated g."""
    rng = random.Random(seed)
    out = []
    for _ in range(60):
        f, g = _hol_function(rng, 3), _hol_function(rng, 3)
        out.append((f, _with_unit(rng, f), g))
    return out


def _derivative(body):
    return term(rf"d (\x, {_render(body)})", HOL)


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_convertible_agrees_on_derivatives_with_inserted_units(engine):
    # d (\x, f) against d (\x, f') where f' has one inserted * 1 u or + u 0,
    # and against an unrelated function
    ctx = ctx_for(HOL, engine=engine)
    units, unrelated = [], []
    for f, with_unit, g in _hol_functions(23):
        derivative = _derivative(f)
        for pairs, other in ((units, with_unit), (unrelated, g)):
            pairs.append((derivative, _derivative(other)))
    assert _converts_as_strong_normal_forms(ctx, units) == [0, 60]
    assert _converts_as_strong_normal_forms(ctx, unrelated)[0] >= 40


def test_both_engines_take_the_same_steps_on_derivatives():
    # semantics (e): a naive pattern variable binds the head normal form
    # that an earlier rule of its attempt or a failed attempt made, so naive
    # reduces no bound term twice and takes the tree's steps
    tree, naive = ctx_for(HOL, engine="tree"), ctx_for(HOL, engine="naive")
    differ = []
    for f, with_unit, _ in _hol_functions(23):
        for body in (f, with_unit):
            t = _derivative(body)
            used, nfs = [], []
            for ctx in (tree, naive):
                steps = Steps(10**6)
                nfs.append(snf(ctx, t, steps))
                used.append(steps.used)
            if used[0] != used[1] or not alpha_eq(*nfs):
                differ.append((_render(body), used))
    assert differ == []


LINEAR = """symbol s; symbol a; symbol b; symbol f; symbol g; symbol c; symbol d;
rule f $x --> $x;
rule g c $x --> $x;
"""


def _chain(shape, depth, end):
    """A pair side ``depth`` levels deep that ends in ``end``: rigid
    ``s (s …)``, ``f (s (f (s …)))`` with a redex at every level, or the
    stuck ``g d (g d …)``."""
    t = symb(end)
    for _ in range(depth):
        if shape == "rigid":
            t = App(symb("s"), t)
        elif shape == "wrapped":
            t = App(symb("f"), App(symb("s"), t))
        else:
            t = build_app(symb("g"), [symb("d"), t])
    return t


@pytest.mark.parametrize("shape", ["rigid", "wrapped", "stuck"])
def test_the_precheck_visits_grow_linearly_with_depth(shape, monkeypatch):
    # every level's pre-check fails, since the sides differ only at the
    # bottom; an unbounded pre-check walks the rest of the spine each time
    import rwtree.engine as eng

    visits = [0]

    def counted(a, b, envl, envr, limit):
        spent = alpha_walk(a, b, envl, envr, limit)
        visits[0] += len(preorder(a)) if spent is None else spent
        return spent

    monkeypatch.setattr(eng, "alpha_walk", counted)
    ctx = ctx_for(LINEAR)
    seen = {}
    for depth in (1000, 4000):
        visits[0] = 0
        left, right = _chain(shape, depth, "a"), _chain(shape, depth, "b")
        assert not convertible(ctx, left, right, Steps(10**5))
        assert convertible(ctx, left, _chain(shape, depth, "a"), Steps(10**5))
        seen[depth] = visits[0]
    assert seen[4000] <= 4.5 * seen[1000]
    # no pre-check on a rigid head; otherwise a bounded number per level
    assert (seen[1000] == 0) == (shape == "rigid")
    assert seen[4000] <= 4 * eng.PRECHECK_NODES * 4000


def test_nonlinear_convertible_mode():
    ctx = ctx_for(EQ)
    t = build_app(symb("eq"), [build_app(symb("+"), [symb("0"), symb("0")]), symb("0")])
    assert snf(ctx, t, Steps(1000)) is symb("true")
    ctxn = ctx_for(EQ, engine="naive")
    assert snf(ctxn, t, Steps(1000)) is symb("true")


def test_nonlinear_alpha_mode_stays_stuck():
    ctx = ctx_for(EQ, equality="alpha")
    t = build_app(symb("eq"), [build_app(symb("+"), [symb("0"), symb("0")]), symb("0")])
    out = snf(ctx, t, Steps(1000))
    head, args = spine(out)
    assert head is symb("eq")  # rule did not fire; arguments normalized
    assert alpha_eq(args[0], symb("0"))


def test_eq_stuck_on_distinct_values():
    ctx = ctx_for(EQ)
    t = build_app(symb("eq"), [symb("0"), numeral(1)])
    out = snf(ctx, t, Steps(1000))
    head, _ = spine(out)
    assert head is symb("eq")


HO_NONLINEAR = r"""
symbol f; symbol g; symbol c; symbol a; symbol id; symbol yes;
rule id $z --> $z;
rule f (\x, $v[x]) (\y, $v[y]) --> yes;
rule g (\x, \y, $v[x,y]) (\a, \b, $v[b,a]) --> yes;
"""


@pytest.mark.parametrize("equality", ["convertible", "alpha"])
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_nonlinear_variable_with_formals_is_compared_up_to_its_binders(
    engine, equality, monkeypatch
):
    # each occurrence of $v is compared abstracted over its own formals,
    # which binds the k-th formal of each at one level, so no fresh
    # variable is made and no side is walked with subst: in the first case
    # \x, c x against \y, c y; the g rule crosses its formals
    import rwtree.engine as eng
    import rwtree.patterns as pat

    ctx = ctx_for(HO_NONLINEAR, engine=engine, equality=equality)
    checks = counting(monkeypatch, eng, "equal_terms")
    renames = [
        counting(monkeypatch, module, name)
        for module in (pat, eng)
        for name in ("fresh_var", "subst")
    ]

    def run(text):
        return print_term(snf(ctx, term(text, HO_NONLINEAR), Steps(1000)))

    assert run(r"f (\x, c x) (\y, c y)") == "yes"
    assert run(r"f (\x, c a) (\y, c a)") == "yes"
    stuck = [r"f (\x, c x) (\y, c a)", r"g (\x, \y, c x y) (\a, \b, c a b)"]
    assert [run(t) for t in stuck] == stuck
    assert run(r"g (\x, \y, c x y) (\a, \b, c b a)") == "yes"
    # equal only once the body under the binder is reduced
    reduced = "yes" if equality == "convertible" else r"f (\x, c x) (\y, c y)"
    assert run(r"f (\x, c x) (\y, c (id y))") == reduced
    assert len(checks) == 6  # one decided repeated variable per term
    assert renames == [[], [], [], []]


NONLINEAR_3 = r"""
symbol a; symbol b; symbol c; symbol id; symbol f; symbol g; symbol h; symbol yes;
rule id $x --> $x;
rule f $x $x $x --> yes;
rule h $x b $x $x --> yes;
rule g (\x, $v[x]) (\y, $v[y]) (\z, $v[z]) --> yes;
"""


@pytest.mark.parametrize("equality", ["convertible", "alpha"])
def test_a_variable_with_three_occurrences_agrees_across_engines(equality):
    # one rule per head, so both engines must give the same result; every
    # triple of arguments mixes equal, unequal and only convertible ones
    firsts = list(itertools.product(["a", "b", "id a", "id b"], repeat=3))
    lams = [r"\x, c x", r"\y, c y", r"\z, c (id z)", r"\w, c a"]
    texts = [f"f ({p}) ({q}) ({r})" for p, q, r in firsts]
    texts += [f"h ({p}) b ({q}) ({r})" for p, q, r in firsts]
    texts += [f"g ({p}) ({q}) ({r})" for p, q, r in itertools.product(lams, repeat=3)]
    tree = ctx_for(NONLINEAR_3, engine="tree", equality=equality)
    naive = ctx_for(NONLINEAR_3, engine="naive", equality=equality)
    fired = 0
    for text in texts:
        t = term(text, NONLINEAR_3)
        out = snf(tree, t, Steps(1000))
        assert alpha_eq(out, snf(naive, t, Steps(1000))), text
        fired += out is symb("yes")
    # convertible: 16 for f, 16 for h, 27 + 1 for g; alpha: 4, 4 and 8 + 1 + 1
    assert fired == (60 if equality == "convertible" else 18)


SHADOWING = r"""
symbol f; symbol g; symbol h; symbol k; symbol yes;
rule f (\x, \y, $u[x]) --> yes;
rule h (\x, \y, $u[x, y]) --> g (\a, \b, $u[a, b]);
"""


@pytest.mark.parametrize("equality", ["convertible", "alpha"])
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_shadowing_binder_is_opened_under_a_new_name(engine, equality):
    # \x, \x, k x with one shared x: the inner x must not pass the
    # closedness check as the outer formal, and $u[x, y] must see k y; the
    # result's binders are the subject's, the inner one renamed
    ctx = ctx_for(SHADOWING, engine=engine, equality=equality)
    x = fresh_var("x")
    shadowed = lam(x, lam(x, App(symb("k"), x)))

    def run(head):
        return print_term(snf(ctx, App(symb(head), shadowed), Steps(100)))

    assert run("f") == r"f (\x, \x', k x')"
    assert run("h") == r"g (\x, \x', k x')"


SIBLING = r"""
symbol f; symbol g; symbol c; symbol yes;
rule f (\a, $u[a]) (\b, $w) --> yes;
rule g (\x, $u[x]) --> \x, f (\x, $u[x]) (\b, x);
"""


@pytest.mark.parametrize("equality", ["convertible", "alpha"])
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_sibling_binder_may_occur_free_in_a_closed_argument(engine, equality):
    # both binders x of g's result are the subject's z, so snf reaches
    # f (\z, c z) (\b, z) under the outer \z with one shared z: the z free
    # in the second argument is the outer binder, which the closedness
    # check of $w must not reject as the first argument's
    ctx = ctx_for(SIBLING, engine=engine, equality=equality)
    t = term(r"g (\z, c z)", SIBLING)
    assert print_term(snf(ctx, t, Steps(100))) == r"\z, yes"


SHARED_BINDER = r"""
symbol d; symbol sin; symbol cos; symbol *;
rule d (\x, sin $u[x]) --> \x, * (cos $u[x]) (d (\x, $u[x]) x);
"""


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_free_vars_tracks_scope_when_binders_are_shared(engine):
    # both binders of the result are the subject's s, one Var object:
    # \s, * (cos s) (d (\s, s) s); the outer body still has s free, which
    # "variables minus binders" over all its nodes would lose
    ctx = ctx_for(SHARED_BINDER, engine=engine)
    t = snf(ctx, term(r"d (\s, sin s)", SHARED_BINDER), Steps(100))
    assert print_term(t) == r"\s, * (cos s) (d (\s', s') s)"
    inner = spine(spine(t.body)[1][1])[1][0]
    assert inner.var is t.var
    assert free_vars(t.body) == {t.var.vid}
    nodes = preorder(t.body)
    binders = {n.var.vid for n in nodes if type(n) is Abst}
    assert {n.vid for n in nodes if type(n) is Var} - binders == set()


# ---------------------------------------------------------------------------
# higher-order suite


def test_diff_constant_function():
    ctx = ctx_for(DIFF)
    x = fresh_var("x")
    t = App(symb("diff"), lam(x, symb("c")))
    out = snf(ctx, t, Steps(1000))
    assert alpha_eq(out, lam(fresh_var("z"), symb("0")))


def test_diff_sin_chain():
    ctx = ctx_for(DIFF)
    x = fresh_var("x")
    t = App(symb("diff"), lam(x, App(symb("sin"), x)))
    out = snf(ctx, t, Steps(1000))
    z = fresh_var("z")
    want = build_app(
        symb("*"), [App(symb("diff"), lam(z, z)), symb("cos")]
    )
    assert alpha_eq(out, want)


def test_diff_engines_agree():
    for engine in ("tree", "naive"):
        ctx = ctx_for(DIFF, engine=engine)
        x = fresh_var("x")
        dep = App(symb("diff"), lam(x, App(symb("sin"), x)))
        const = App(symb("diff"), lam(x, symb("c")))
        z = fresh_var("z")
        assert alpha_eq(
            snf(ctx, dep, Steps(1000)),
            build_app(symb("*"), [App(symb("diff"), lam(z, z)), symb("cos")]),
        )
        assert alpha_eq(snf(ctx, const, Steps(1000)), lam(z, symb("0")))


def test_closedness_respects_free_variable_heads():
    # matching under a binder: wildcards must accept variable-headed terms
    src = """
    symbol k; symbol f;
    rule k (\\x, $v) --> f;
    """
    ctx = ctx_for(src)
    x = fresh_var("x")
    y = fresh_var("y")
    # body headed by an outer free variable: still closed w.r.t. x
    t = App(symb("k"), lam(x, y))
    assert snf(ctx, t, Steps(100)) is symb("f")
    # body using the bound variable: constraint fails, term is stuck
    t2 = App(symb("k"), lam(x, x))
    out = snf(ctx, t2, Steps(100))
    head, _ = spine(out)
    assert head is symb("k")


# ---------------------------------------------------------------------------
# strategy coherence and oracle agreement


def test_whnf_of_snf_is_stable(rng):
    sampler = RuleSampler(rng)
    for _ in range(120):
        rules = sampler.ruleset()
        ctx = EvalContext.from_rules(rules, max_steps=10**6)
        head, args = sampler.subject_args(rules)
        t = build_app(symb(head), args)
        full = snf(ctx, t, Steps(10**6))
        again = whnf(ctx, full, Steps(10**6))
        assert alpha_eq(full, again)


class _Oracle(Hooks):
    """The oracle's relation: the naive context's ``whnf``, kept nowhere,
    convertibility, and the syntactic closedness check on the strong normal
    form; a variable binds its raw subject."""

    def __init__(self, ctx, steps):
        self.ctx, self.steps = ctx, steps

    def __missing__(self, u):
        return whnf(self.ctx, u, self.steps)

    def equal(self, a, b):
        return convertible(self.ctx, a, b, self.steps)

    def closed(self, u, shut):
        return Hooks.closed(self, snf(self.ctx, u, self.steps), shut)


def oracle_candidates(ctx_naive, rules, head, args, steps):
    out = []
    for rule in rules:
        if rule.head != head or rule.arity > len(args):
            continue
        sub = match_patterns(
            rule.lhs_args, list(args[: rule.arity]), _Oracle(ctx_naive, steps)
        )
        if sub is not None:
            rhs = apply_subst(sub, rule)
            out.append((rule, build_app(rhs, args[rule.arity :])))
    return out


def fired_at_top(ctx, head, args, steps):
    """One rewrite attempt: its result and the label of the rule it fired,
    or None when none applies."""
    with fired_rules() as fired:
        res = rewrite_head(ctx, head, args, steps)
    return res, None if res is None else fired[-1].label


def test_oracle_agreement_sample(rng):
    # the tree fires the first rule in text order that the oracle matches
    sampler = RuleSampler(rng)
    applied = 0
    for _ in range(300):
        rules = sampler.ruleset()
        ctx_t = EvalContext.from_rules(rules, engine="tree", max_steps=10**6)
        ctx_n = EvalContext.from_rules(rules, engine="naive", max_steps=10**6)
        head, args = sampler.subject_args(rules)
        res, label = fired_at_top(ctx_t, head, args, Steps(10**6))
        cands = oracle_candidates(ctx_n, rules, head, args, Steps(10**6))
        if res is None:
            assert not cands, f"tree missed a match: {cands[0][0]}"
        else:
            applied += 1
            assert cands, f"tree fired {label}, which the oracle does not match"
            rule, cand = cands[0]
            assert label == rule.label
            # a storing Switch binds its column's head normal form where the
            # oracle binds the raw argument, so the tree's result may be
            # only convertible to the rule's (see
            # test_a_switch_binds_the_head_normal_form_of_its_column)
            assert alpha_eq(res, cand) or convertible(
                ctx_n, res, cand, Steps(10**6)
            ), "tree result not produced by the first rule that applies"
    assert applied > 60


def test_engines_agree_on_applicability(rng):
    # both engines fire the first rule in text order that applies, also on
    # overlapping rule sets that are not confluent
    sampler = RuleSampler(rng)
    for _ in range(80):
        rules = sampler.ruleset()
        ctx_t = EvalContext.from_rules(rules, engine="tree", max_steps=10**6)
        ctx_n = EvalContext.from_rules(rules, engine="naive", max_steps=10**6)
        head, args = sampler.subject_args(rules)
        _, rt = fired_at_top(ctx_t, head, args, Steps(10**6))
        _, rn = fired_at_top(ctx_n, head, args, Steps(10**6))
        assert rt == rn


def test_both_engines_fire_the_same_rule_at_the_top():
    # semantics (a) and (e): on every genlib rule set, one attempt fires the
    # same rule, or none, under both engines, and so do its nested attempts,
    # in the same order and with the same steps, as a pattern variable binds
    # the head normal form its engine already has
    differ = []
    fired = 0
    for seed in range(2000):
        sampler = RuleSampler(random.Random(seed))
        rules = sampler.ruleset()
        head, args = sampler.subject_args(rules)
        runs = []
        for engine in ("tree", "naive"):
            ctx = EvalContext.from_rules(rules, engine=engine, max_steps=10**6)
            steps = Steps(10**6)
            with fired_rules() as every:
                res = rewrite_head(ctx, head, args, steps)
            runs.append((res is not None, [r.label for r in every], steps.used))
        if runs[0] != runs[1]:
            differ.append(seed)
        fired += runs[1][0]
    assert differ == [] and fired > 1000


def test_a_switch_binds_the_head_normal_form_of_its_column():
    # the Switch on the first column (for f b …) reduces g … to k1 a (k2 a b)
    # and stores it for $x; the oracle binds the raw g …, so the tree's
    # result is convertible to, not alpha-equal to, the rule's
    src = """
    symbol f; symbol g; symbol a; symbol b; symbol k0; symbol k1; symbol k2;
    rule f b $y (k1 b) --> $y;
    rule f $x $y $y --> $x;
    rule g _ $z --> $z;
    """
    rules = parse_file(src).rules
    args = [term("g (k1 k0) (k1 a) (k2 a b)", src), symb("f"), symb("f")]
    ctx_t = ctx_for(src, engine="tree")
    ctx_n = ctx_for(src, engine="naive")
    res = rewrite_head(ctx_t, "f", args, Steps(100))
    assert print_term(res) == "k1 a (k2 a b)"
    ((_, cand),) = oracle_candidates(ctx_n, rules, "f", args, Steps(100))
    assert print_term(cand) == "g (k1 k0) (k1 a) (k2 a b)"
    assert not alpha_eq(res, cand)
    assert convertible(ctx_n, res, cand, Steps(100))


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_rewrite_head_leaves_its_arguments_alone(engine, rng):
    sampler = RuleSampler(rng)
    for _ in range(120):
        rules = sampler.ruleset()
        ctx = EvalContext.from_rules(rules, engine=engine, max_steps=10**6)
        head, args = sampler.subject_args(rules)
        if args:  # an argument that likely is a redex
            inner, inner_args = sampler.subject_args(rules)
            args[rng.randrange(len(args))] = build_app(symb(inner), inner_args)
        before = list(args)
        rewrite_head(ctx, head, args, Steps(10**6))
        assert len(args) == len(before)
        assert all(a is b for a, b in zip(args, before))


# ---------------------------------------------------------------------------
# matching work and laziness of the compiled trees


@pytest.mark.parametrize("n", range(4, 13))
def test_fib_tree_steps_at_most_naive(n):
    t = App(symb("fib"), numeral(n))
    used = {}
    for engine in ("tree", "naive"):
        steps = Steps(10**7)
        snf(ctx_for(FIB_RULES, engine=engine), t, steps)
        used[engine] = steps.used
    assert used["tree"] <= used["naive"]


def test_wildcard_row_does_not_force_other_column():
    # + (s $n) $m fires without inspecting $m, as rule-by-rule matching does
    src = FIB_RULES + "symbol loop;\nrule loop --> loop;\n"
    t = term("+ (s 0) loop", src)
    for engine in ("tree", "naive"):
        ctx = ctx_for(src, engine=engine, max_steps=10_000)
        out = whnf(ctx, t, Steps(10_000))
        assert print_term(out) == "s (+ 0 loop)"


def test_linear_wildcard_rule_never_forces_arguments(rng):
    # rules are tried in text order across arities: when the first rule
    # that n arguments fit has distinct pattern variables as its arguments,
    # it fires without inspecting any of them
    sampler = RuleSampler(rng)
    loop = symb("loop")
    checked = 0
    for _ in range(300):
        rules = sampler.ruleset()
        for n in range(4):
            first = next((r for r in rules if r.head == "f" and r.arity <= n), None)
            if first is None or any(type(p) is not PatVar for p in first.lhs_args):
                continue
            names = [p.name for p in first.lhs_args if p.name is not None]
            if len(names) != len(set(names)):
                continue
            for engine in ("tree", "naive"):
                ctx = EvalContext.from_rules(
                    rules + [loop_rule()], engine=engine, max_steps=1000
                )
                steps = Steps(1000)
                assert rewrite_head(ctx, "f", [loop] * n, steps) is not None
                assert steps.used == 0
            checked += 1
    assert checked > 20


def test_the_tree_forces_no_argument_that_naive_leaves_unread():
    # semantics (b): run one naive attempt, make each argument that it never
    # read diverge, and the tree must still finish on the same budget
    loop = symb("loop")
    poisoned, diverged = 0, []
    for seed in range(2000):
        sampler = RuleSampler(random.Random(seed))
        rules = sampler.ruleset()
        head, args = sampler.subject_args(rules)
        rules.append(loop_rule())
        naive = EvalContext.from_rules(rules, engine="naive", max_steps=1000)
        with recorded_reads(set()) as read:
            found = rewrite_head(naive, head, args, Steps(1000))
        lazy = [a if any(id(x) in read for x in preorder(a)) else loop for a in args]
        if all(a is b for a, b in zip(lazy, args)):
            continue
        poisoned += 1
        # the recorder missed no read: naive decides as before
        again = rewrite_head(naive, head, lazy, Steps(1000))
        assert (again is None) == (found is None), seed
        tree = EvalContext.from_rules(rules, max_steps=1000)
        try:
            rewrite_head(tree, head, lazy, Steps(1000))
        except DivergenceError:
            diverged.append(seed)
    assert diverged == [] and poisoned > 1000


def test_the_tree_inspects_no_more_heads_than_naive():
    # the paper's claim, per attempt: on arguments that need no nested step,
    # so that neither confluence nor budgets can blur it, the tree's Switch
    # visits are at most the heads that naive checks
    attempts, total, worse = 0, {"tree": 0, "naive": 0}, []
    for seed in range(2000):
        sampler = RuleSampler(random.Random(seed))
        rules = sampler.ruleset()
        head, args = sampler.subject_args(rules)
        counts, used = {}, {}
        for engine in ("tree", "naive"):
            ctx = EvalContext.from_rules(rules, engine=engine, max_steps=10**6)
            steps = Steps(10**6)
            with counted_inspections() as counted:
                rewrite_head(ctx, head, args, steps)
            counts[engine], used[engine] = counted[engine], steps.used
        if used["tree"] or used["naive"]:
            continue
        attempts += 1
        for engine in total:
            total[engine] += counts[engine]
        if counts["tree"] > counts["naive"]:
            worse.append(seed)
    assert worse == [] and attempts > 1900
    assert total["tree"] < total["naive"]


def test_every_switch_inspects_a_head(rng):
    sampler = RuleSampler(rng)
    for _ in range(150):
        for tree in EvalContext.from_rules(sampler.ruleset()).trees.values():
            for _, _, node in iter_tree(tree):
                if type(node) is Switch:
                    assert node.sym_cases or node.lam_case is not None


# ---------------------------------------------------------------------------
# right-hand-side builders


def test_builder_rejects_unbound_and_arity_mismatch():
    x = fresh_var("x")
    with pytest.raises(SubstitutionError):
        rhs_builder(Rule("f", (), MetaApp("m", ())), {})
    with pytest.raises(SubstitutionError):
        rhs_builder(Rule("f", (PatVar("m"),), MetaApp("m", (x,))), {"m": (0, ())})


def test_builder_shares_closed_subterms():
    closed = App(symb("k1"), symb("a"))
    rule = Rule("f", (PatVar("m"),), App(MetaApp("m", ()), closed))
    out = instantiate(Leaf(rule, {"m": (0, ())}), [symb("b")], ())
    assert out.arg is closed
    assert instantiate(Leaf(Rule("f", (), closed), {}), [], ()) is closed


_X, _Y, _C = MetaApp("x", ()), MetaApp("y", ()), symb("c")


@pytest.mark.parametrize(
    "fn, arg", [(_X, _C), (_C, _X), (_X, _Y)], ids=["$x c", "c $x", "$x $y"]
)
def test_an_application_holds_the_stored_terms_themselves(fn, arg):
    # a side that is a bare pattern variable is its stored term, under a
    # tree leaf and under the naive builder
    rule = Rule("f", (PatVar("x"), PatVar("y")), App(fn, arg))
    tx, ty = App(symb("g"), symb("a")), App(symb("h"), symb("b"))

    def image(part):
        return {"x": tx, "y": ty}[part.name] if type(part) is MetaApp else part

    leaf = Leaf(rule, {"x": (0, ()), "y": (1, ())})
    for out in (
        instantiate(leaf, [tx, ty], ()),
        apply_subst({"x": Closure(tx, ()), "y": Closure(ty, ())}, rule),
    ):
        assert out.fn is image(fn)
        assert out.arg is image(arg)


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_generated_code_holds_no_user_text(engine):
    # names and symbols reach a generated builder as values, so quotes and
    # braces in them are never code
    src = r"""symbol f; symbol g; symbol a;
    rule f $x"+1 (\y, $u{0}[y]) --> g $x"+1 (\z, $u{0}[z]) $x"+1;"""
    out = snf(ctx_for(src, engine=engine), term(r"f a (\w, w)", src))
    assert print_term(out) == r"g a (\w, w) a"


FRESH = r"""symbol f; symbol s; symbol 0; symbol p; symbol a;
rule f (s $n) $w --> \x, f $n (p x $w) with f 0 $w --> $w;"""


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_fresh_binder_is_built_with_no_subst(engine, monkeypatch):
    # the body is built with the fresh variable itself, not renamed after
    import rwtree.patterns as pat

    calls = counting(monkeypatch, pat, "subst")
    out = snf(ctx_for(FRESH, engine=engine), term("f (s (s 0)) a", FRESH))
    assert print_term(out) == r"\x, \x', p x' (p x a)"
    assert calls == []


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_formal_given_another_argument_costs_one_subst_per_firing(
    engine, monkeypatch
):
    # y is fresh, as $w is not under the abstraction of $u's formal, so
    # $u[y] substitutes it for that formal: once at each of two firings
    import rwtree.patterns as pat

    src = r"""symbol f; symbol g; symbol k; symbol c; symbol a; symbol b;
    rule f $w (\x, $u[x]) --> \y, g $w $u[y];"""
    calls = counting(monkeypatch, pat, "subst")
    t = term(r"k (f a (\x, c x)) (f b (\x, c x))", src)
    out = snf(ctx_for(src, engine=engine), t)
    assert print_term(out) == r"k (\y, g a (c y)) (\y, g b (c y))"
    assert len(calls) == 2


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_right_hand_side_10000_deep_fires(engine):
    # k (\y, $u[y]) $w --> \x, s (s (… $u[g x $w])), 10,000 deep: x is
    # fresh at every firing and $u is applied to a built argument, which
    # the parser cannot write; neither compiling nor running the builder
    # recurses, at the default recursion limit
    y, x, z = fresh_var("y"), fresh_var("x"), fresh_var("z")
    s, g = symb("s"), symb("g")
    rhs = MetaApp("u", (build_app(g, [x, MetaApp("w", ())]),))
    want = App(symb("c"), build_app(g, [x, symb("a")]))
    for _ in range(10_000):
        rhs, want = App(s, rhs), App(s, want)
    rule = Rule("k", (PatAbst(y, PatVar("u", (y,))), PatVar("w")), lam(x, rhs))
    assert rule.binders == {x.vid: None}
    ctx = EvalContext.from_rules([rule], engine=engine)
    subject = build_app(symb("k"), [lam(z, App(symb("c"), z)), symb("a")])
    steps = Steps(10)
    out = snf(ctx, subject, steps)
    assert steps.used == 1
    assert alpha_eq(out, lam(x, want))
    assert out.var is not x


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_constant_rhs_abstraction_is_reused_beside_a_fresh_one(engine):
    # \y, y holds no pattern variable, so every firing returns the rule's
    # own abstraction; \z, $x is built with a fresh z at each firing
    src = "symbol f; symbol g; symbol c;\nrule f $x --> g (\\z, $x) (\\y, y);"
    (rule,) = parse_file(src).rules
    z = rule.rhs.fn.arg.var
    assert rule.binders == {z.vid: None}
    ctx = EvalContext.from_rules([rule], engine=engine)
    firsts = []
    for _ in range(2):
        out = whnf(ctx, term("f c", src))
        assert out.arg is rule.rhs.arg
        firsts.append(out.fn.arg.var)
    assert len({v.vid for v in firsts + [z]}) == 3


# ---------------------------------------------------------------------------
# head normalisation on an argument stack


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_whnf_returns_head_normal_term_itself(engine):
    ctx = ctx_for(ADDITION, engine=engine)
    x = fresh_var("x")
    for t in (
        App(symb("s"), build_app(symb("+"), [symb("0"), symb("0")])),
        build_app(symb("+"), [x, symb("0")]),  # stuck defined head
        App(x, symb("0")),
        lam(x, build_app(symb("+"), [symb("0"), x])),
        symb("0"),
    ):
        assert whnf(ctx, t, Steps(100)) is t


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_failed_attempt_after_a_beta_step_records_the_built_term(engine):
    # the beta step leaves f a with b still on the stack, so no term spells
    # f a b until the failed attempt builds it and records it as stuck
    src = "symbol f; symbol a; symbol b;\nrule f b b --> a;"
    subject = term("(\\x, f x) a b", src)
    steps = Steps(100)
    out = whnf(ctx_for(src, engine=engine), subject, steps)
    assert print_term(out) == "f a b" and steps.used == 1
    assert out is not subject and steps.hnf == {out: out}


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_rewrite_head_sees_only_defined_heads(engine, monkeypatch):
    import rwtree.engine as eng

    ctx = ctx_for(FIB_RULES, engine=engine)
    seen = []
    hits = [0]
    original = eng.rewrite_head

    def spy(ctx_, head, args, steps_):
        seen.append(head)
        out = original(ctx_, head, args, steps_)
        hits[0] += out is not None
        return out

    monkeypatch.setattr(eng, "rewrite_head", spy)
    steps = Steps(10**6)
    out = snf(ctx, App(symb("fib"), numeral(8)), steps)
    assert alpha_eq(out, numeral(21))
    assert seen and set(seen) <= ctx.defined.keys()
    assert hits[0] == steps.used


def test_tree_does_not_force_column_first_row_ignores():
    # the tree switches only on a column the first row inspects, so it never
    # forces loop, which naive does not inspect either
    src = """
    symbol f; symbol a; symbol b; symbol c; symbol r1; symbol r2; symbol r3;
    symbol loop;
    rule loop --> loop;
    rule f b $y --> r1 with f $x a --> r2 with f $x c --> r3;
    """
    t = term("f b loop", src)
    naive = ctx_for(src, engine="naive", max_steps=10_000)
    assert whnf(naive, t, Steps(10_000)) is symb("r1")
    ctx = ctx_for(src, engine="tree", max_steps=10_000)
    assert whnf(ctx, t, Steps(10_000)) is symb("r1")


# ---------------------------------------------------------------------------
# a failed match keeps the head normal forms it computed

UNITS = """
symbol a; symbol 0; symbol +;
rule + 0 $p --> $p with + $p 0 --> $p;
"""


def units_chain(depth):
    """``+ (… (+ (+ a 0) a) …) a`` with ``depth`` stuck ``+`` above the one
    redex ``+ a 0``, and its normal form."""
    t = term("+ a 0", UNITS)
    expected = symb("a")
    for _ in range(depth):
        t = build_app(symb("+"), [t, symb("a")])
        expected = build_app(symb("+"), [expected, symb("a")])
    return t, expected


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that the list returned counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kw):
        calls.append(None)
        return original(*args, **kw)

    monkeypatch.setattr(module, name, wrapper)
    return calls


REPEATED = """
symbol f; symbol a; symbol b; symbol ok;
rule f $x $x $x $x --> ok;
"""


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_each_repeated_occurrence_costs_one_equality_check(engine, monkeypatch):
    # both engines compare each later occurrence of $x with the first, so
    # four occurrences cost three checks whether the match succeeds or not
    import rwtree.engine as eng

    ctx = ctx_for(REPEATED, engine=engine)
    calls = counting(monkeypatch, eng, "equal_terms")
    for text, expected in [("f a a a a", "ok"), ("f a a a b", "f a a a b")]:
        del calls[:]
        out = snf(ctx, term(text, REPEATED), Steps(100))
        assert (print_term(out), len(calls)) == (expected, 3)


DISPATCH = (
    "symbol a; symbol b; symbol tt; symbol ff; symbol g;\n"
    + "".join(f"symbol c{i};\n" for i in range(1, 201))
    + "rule "
    + "\nwith ".join([f"g c{i} a --> tt" for i in range(1, 201)] + ["g $x b --> ff"])
    + ";\n"
)


def test_naive_engine_tries_the_rules_one_by_one(monkeypatch):
    # the per-layer metrics of the naive engine count match_patterns under
    # this name: one call per rule tried, in order, up to the first match
    import rwtree.patterns as pat

    ctx = ctx_for(DISPATCH, engine="naive")
    calls = counting(monkeypatch, pat, "match_patterns")
    for text, expected, tried in [("g c150 a", "tt", 150), ("g c7 b", "ff", 201)]:
        del calls[:]
        out = snf(ctx, term(text, DISPATCH), Steps(100))
        assert (print_term(out), len(calls)) == (expected, tried)


def test_a_naive_attempt_head_normalises_each_argument_once(monkeypatch):
    # g c200 b is tried against all 201 rules; the whnf hook keeps what it
    # normalised for the attempt, so whnf runs once per argument
    import rwtree.engine as eng
    import rwtree.patterns as pat

    ctx = ctx_for(DISPATCH, engine="naive")
    args = [term("c200", DISPATCH), term("b", DISPATCH)]
    calls = counting(monkeypatch, eng, "whnf")
    tried = counting(monkeypatch, pat, "match_patterns")
    out = rewrite_head(ctx, "g", args, Steps(10))
    assert (print_term(out), len(tried), len(calls)) == ("ff", 201, 2)


def test_a_switch_reads_a_head_normal_atom_in_place(monkeypatch):
    # both columns of g c7 a are symbols that head no rule, so neither
    # Switch calls whnf_stk, which would return each at its first test
    import rwtree.engine as eng

    ctx = ctx_for(DISPATCH)
    args = [term("c7", DISPATCH), term("a", DISPATCH)]
    calls = counting(monkeypatch, eng, "whnf_stk")
    out = rewrite_head(ctx, "g", args, Steps(10))
    assert (print_term(out), len(calls)) == ("tt", 0)


def test_one_tree_per_rewrite_attempt(rng, monkeypatch):
    # a head with rules of several arities has one tree, so an attempt runs
    # at most one tree, also when the subject has arguments for more than
    # one of those arities
    import rwtree.engine as eng

    open_attempts = []  # eval_tree calls of each rewrite_head call running
    most = []  # eval_tree calls of each finished attempt of several arities
    rewrite_head_, eval_tree_ = eng.rewrite_head, eng.eval_tree

    def rewrite_head(ctx, head, args, steps):
        open_attempts.append(0)
        out = rewrite_head_(ctx, head, args, steps)
        calls = open_attempts.pop()
        fits = {r.arity for r in ctx.rules_by_head[head] if r.arity <= len(args)}
        if len(fits) > 1:
            most.append(calls)
        return out

    def eval_tree(ctx, tree, args, steps):
        open_attempts[-1] += 1
        return eval_tree_(ctx, tree, args, steps)

    monkeypatch.setattr(eng, "rewrite_head", rewrite_head)
    monkeypatch.setattr(eng, "eval_tree", eval_tree)
    sampler = RuleSampler(rng)
    for _ in range(300):
        rules = sampler.ruleset()
        if len({(r.head, r.arity) for r in rules}) == len({r.head for r in rules}):
            continue  # no head has rules of two arities
        ctx = EvalContext.from_rules(rules, max_steps=10**6)
        head, args = sampler.subject_args(rules)
        snf(ctx, build_app(symb(head), args), Steps(10**6))
    assert len(most) > 20 and set(most) == {1}


@pytest.mark.parametrize("depth", [4, 8, 12, 24])
def test_failed_match_keeps_forced_arguments(depth, monkeypatch):
    # every + of + (… (+ (+ a 0) a) …) a is stuck, but matching it forces its
    # first argument down to the one redex + a 0.  Each failed match records
    # the normal forms it forced, and snf never matches a stuck + again, so
    # both engines reduce the redex once and match each level a bounded
    # number of times
    import rwtree.engine as eng
    import rwtree.patterns as pat

    t, expected = units_chain(depth)
    tree_calls = counting(monkeypatch, eng, "eval_tree")
    naive_calls = counting(monkeypatch, pat, "match_patterns")
    used = {}
    for engine in ("tree", "naive"):
        steps = Steps(1000)
        assert alpha_eq(snf(ctx_for(UNITS, engine=engine), t, steps), expected)
        used[engine] = steps.used
    assert used == {"tree": 1, "naive": 1}
    assert len(tree_calls) <= depth + 1
    assert len(naive_calls) <= 3 * depth


# ---------------------------------------------------------------------------
# the record of head normal forms: sound, and scoped to one evaluation


def test_failed_matches_leave_head_normal_arguments(rng):
    # a failed rewrite_head records, for each argument its matches reduced,
    # a head normal form that whnf returns in the same evaluation without a
    # step and that is its own whnf under a fresh budget
    sampler = RuleSampler(rng)
    changed = 0
    for _ in range(120):
        rules = sampler.ruleset()
        ctxs = [
            EvalContext.from_rules(rules, engine=engine, max_steps=10**6)
            for engine in ("tree", "naive")
        ]
        for _ in range(5):
            head, args = sampler.subject_args(rules)
            if args:  # an argument that likely is a redex
                inner, inner_args = sampler.subject_args(rules)
                args[rng.randrange(len(args))] = build_app(symb(inner), inner_args)
            t = build_app(symb(head), args)
            for ctx in ctxs:
                full = snf(ctx, t, Steps(10**6))
                again = snf(ctx, whnf(ctx, t, Steps(10**6)), Steps(10**6))
                assert alpha_eq(again, full)
                steps = Steps(10**6)
                if rewrite_head(ctx, head, args, steps) is not None:
                    continue
                used = steps.used
                for old in args:
                    if old not in steps.hnf:
                        continue
                    new = steps.hnf[old]
                    if new is not old:
                        changed += 1
                        assert whnf(ctx, old, steps) is new
                        assert steps.used == used
                        assert whnf(ctx, new, Steps(10**6)) is new
    assert changed > 50


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_stuck_marks_are_head_normal(engine, rng):
    # every term the record marks stuck after an snf evaluation (one that
    # maps to itself) is its own whnf under a fresh budget, and whnf sees
    # that in the same evaluation without a step: a mark on a term a rule
    # rewrites, or on one whose forced arguments a match would still
    # reduce, fails here
    sampler = RuleSampler(rng)
    checked = 0
    for _ in range(80):
        rules = sampler.ruleset()
        ctxs = [
            EvalContext.from_rules(
                rules, engine=engine, equality=equality, max_steps=10**6
            )
            for equality in ("convertible", "alpha")
        ]
        for _ in range(5):
            head, args = sampler.subject_args(rules)
            if args:  # an argument that likely is a redex
                inner, inner_args = sampler.subject_args(rules)
                args[rng.randrange(len(args))] = build_app(symb(inner), inner_args)
            t = build_app(symb(head), args)
            for ctx in ctxs:
                steps = Steps(10**6)
                snf(ctx, t, steps)
                used = steps.used
                for x, m in list(steps.hnf.items()):
                    if m is not x:
                        continue
                    assert whnf(ctx, m, Steps(10**6)) is m
                    assert whnf(ctx, m, steps) is m
                    assert steps.used == used
                    checked += 1
    assert checked > 200


def test_recorded_normal_forms_are_head_normal(rng):
    # every (x, nf) an snf evaluation records is what whnf gives for x in
    # that evaluation, without a step, and nf is its own whnf under a fresh
    # budget: a record of a term a rule rewrites, or of one a failed match
    # would still reduce, fails here
    sampler = RuleSampler(rng)
    checked = 0
    for _ in range(120):
        rules = sampler.ruleset()
        ctxs = [
            EvalContext.from_rules(
                rules, engine=engine, equality=equality, max_steps=10**6
            )
            for engine in ("tree", "naive")
            for equality in ("convertible", "alpha")
        ]
        for _ in range(5):
            head, args = sampler.subject_args(rules)
            if args:  # an argument that likely is a redex
                inner, inner_args = sampler.subject_args(rules)
                args[rng.randrange(len(args))] = build_app(symb(inner), inner_args)
            t = build_app(symb(head), args)
            for ctx in ctxs:
                steps = Steps(10**6)
                full = snf(ctx, t, steps)
                again = snf(ctx, whnf(ctx, t, Steps(10**6)), Steps(10**6))
                assert alpha_eq(again, full)
                used = steps.used
                for x, nf in list(steps.hnf.items()):
                    assert whnf(ctx, x, steps) is nf
                    assert steps.used == used
                    assert whnf(ctx, nf, Steps(10**6)) is nf
                    checked += 1
    assert checked >= 200


def test_the_record_keeps_nothing_from_successful_matches():
    # every rewrite attempt of fib 12 succeeds, so nothing is recorded
    t = App(symb("fib"), numeral(12))
    for engine in ("tree", "naive"):
        steps = Steps(10**6)
        assert alpha_eq(snf(ctx_for(FIB_RULES, engine=engine), t, steps), numeral(144))
        assert steps.used == 1441
        assert steps.hnf == {}


def test_the_record_keys_each_term_by_identity():
    # Steps.hnf and a naive attempt's memo map a term object itself to its
    # head normal form: every term class must hash and compare as object
    # does, so that a structurally equal copy is another key
    import rwtree.terms as terms

    classes = [
        c for c in vars(terms).values() if isinstance(c, type) and issubclass(c, Term)
    ]
    assert {Sort, Var, Symb, App, Abst, MetaApp} < set(classes)
    for cls in classes:
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__, cls
    for engine in ("tree", "naive"):
        ctx = ctx_for(UNITS, engine=engine)
        t, copy = term("+ (+ a a) a", UNITS), term("+ (+ a a) a", UNITS)
        steps = Steps(100)
        assert whnf(ctx, t, steps) is t
        assert t in steps.hnf and copy not in steps.hnf
        assert steps.hnf.get(copy) is None


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_stuck_mark_does_not_outlive_the_evaluation(engine, monkeypatch):
    # every + of + (… (+ a a) …) a is stuck and its match changes nothing, so
    # the first evaluation marks the term objects themselves; the second one
    # must match them again
    import rwtree.engine as eng
    import rwtree.patterns as pat

    t = term("+ a a", UNITS)
    for _ in range(8):
        t = build_app(symb("+"), [t, symb("a")])
    ctx = ctx_for(UNITS, engine=engine)
    if engine == "tree":
        calls = counting(monkeypatch, eng, "eval_tree")
    else:
        calls = counting(monkeypatch, pat, "match_patterns")
    counts = []
    for _ in range(2):
        before = len(calls)
        assert alpha_eq(snf(ctx, t, Steps(1000)), t)
        counts.append(len(calls) - before)
    assert counts[0] == counts[1] > 1


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_stuck_mark_belongs_to_one_context(engine):
    # + (+ a a) a is stuck under A and reduces to a under B; its parts are
    # marked while A evaluates it, and B must still rewrite them
    a_rules = "symbol a; symbol 0; symbol +; rule + 0 $p --> $p;"
    b_rules = "symbol a; symbol 0; symbol +; rule + a $p --> $p;"
    t = term("+ (+ a a) a", a_rules)
    ctx_a = ctx_for(a_rules, engine=engine)
    ctx_b = ctx_for(b_rules, engine=engine)
    steps = Steps(100)
    assert alpha_eq(snf(ctx_a, t, steps), t)
    assert t in steps.hnf and t.fn.arg in steps.hnf
    assert whnf(ctx_a, t, Steps(100)) is t
    assert snf(ctx_b, t, Steps(100)) == symb("a")
    assert whnf(ctx_b, t, Steps(100)) == symb("a")


# ---------------------------------------------------------------------------
# opening an abstraction in place


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_opening_a_binder_copies_nothing(engine, monkeypatch):
    # the matched body is the subject's own: no renaming walk, no new name
    import rwtree.dtree as dtm
    import rwtree.engine as eng
    import rwtree.patterns as pat
    import rwtree.terms as terms

    src = r"symbol f; symbol k; symbol yes; rule f (\x, k $u[x]) --> yes;"
    ctx = ctx_for(src, engine=engine)
    subject = term(r"\x, k x", src)
    calls = [
        counting(monkeypatch, module, name)
        for module in (terms, eng, pat, dtm)
        for name in ("subst", "fresh_var")
        if hasattr(module, name)
    ]
    assert rewrite_head(ctx, "f", [subject], Steps(100)) is symb("yes")
    assert [len(c) for c in calls] == [0] * len(calls)


def _bench_workloads():
    import runpy
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    return runpy.run_path(str(path))


def _hol_rules():
    return _bench_workloads()["HOL_RULES"]


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_instantiation_substitutes_only_real_bindings(engine, monkeypatch):
    # in d (\x, sin $u[x]) --> \x, * (cos $u[x]) (d (\x, $u[x]) x) each
    # binder is the subject's own, so every $u[x] passes its formal itself
    # and is the matched term: the rule's builder, which both engines run,
    # makes no subst call for it
    import rwtree.patterns as pat

    rules = _hol_rules()
    t = term(r"d (\x, sin x)", rules)
    calls = counting(monkeypatch, pat, "subst")
    out = snf(ctx_for(rules, engine=engine), t, Steps(1000))
    assert print_term(out) == r"\x, * (cos x) (d (\x', x') x)"
    assert calls == []


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_binder_passed_to_another_variable_replaces_its_formal(engine):
    # y is the subject's a, the first formal of $u; $w[y] must replace $w's
    # own first formal b by it, although the two formals hold the same
    # index in the closures of $u and $w
    src = r"""symbol f; symbol g; symbol h;
    rule f (\a, \b, g $u[a] $w[b]) --> \y, h $u[y] $w[y];"""
    t = term(r"f (\a, \b, g a b)", src)
    out = snf(ctx_for(src, engine=engine), t, Steps(100))
    assert print_term(out) == r"\a, h a a"


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_builder_is_compiled_on_first_firing_and_never_in_set_up(
    engine, monkeypatch
):
    # a Leaf's builder (engine.instantiate) and a rule's naive builder
    # (patterns.apply_subst) are compiled when it first fires, then kept
    import rwtree.engine as eng
    import rwtree.patterns as pat

    sf = parse_file(_bench_workloads()["hol_workload"](1).source)
    compiles = [counting(monkeypatch, m, "rhs_builder") for m in (eng, pat)]
    ctx = EvalContext.from_rules(sf.rules, engine=engine)
    if engine == "tree":
        nodes = [n for tree in ctx.trees.values() for _, _, n in iter_tree(tree)]
        kept = lambda: [n.build for n in nodes if type(n) is Leaf]
    else:
        kept = lambda: [r.naive_build for r in sf.rules]
    assert compiles == [[], []] and set(kept()) == {None}
    terms = [item.term for item in sf.items if isinstance(item, Compute)]
    per_pass = []
    for _ in range(2):
        before = sum(map(len, compiles))
        for t in terms:
            snf(ctx, t)
        per_pass.append(sum(map(len, compiles)) - before)
    # each compile is kept on its Leaf or rule, so none compiles twice
    built = kept()
    assert 0 < per_pass[0] == sum(b is not None for b in built) <= len(built)
    assert per_pass[1] == 0


def test_every_rule_of_d_sees_one_body():
    # each rule of d opens the same abstraction; with the body shared, the
    # record that the failed closedness check of d (\x, $c) writes and the
    # naive engine's whnf memo reduce + x 0 once, not once per rule (11
    # steps when each rule matched its own copy, 6 for naive when a failed
    # check recorded nothing)
    rules = _hol_rules()
    t = term(r"d (\x, * 1 (sin (+ x 0)))", rules)
    used, printed = {}, set()
    for engine in ("tree", "naive"):
        steps = Steps(1000)
        printed.add(print_term(snf(ctx_for(rules, engine=engine), t, steps)))
        used[engine] = steps.used
    assert printed == {r"\x, * (cos x) (d (\x', x') x)"}
    assert used == {"tree": 3, "naive": 3}
    assert used["naive"] < 11


def test_the_tree_takes_no_more_steps_than_naive_on_any_hol_op():
    # the north star's step claim, per op: when the tree skipped the first
    # rule of d, it fired the sin, cos, + or * rule on closed bodies, and
    # 117, 104 and 112 ops took more tree steps than naive steps at seeds
    # 1-3
    hol_workload = _bench_workloads()["hol_workload"]
    worse = []
    for seed in (1, 2, 3):
        sf = parse_file(hol_workload(seed).source)
        ctxs = [EvalContext.from_rules(sf.rules, engine=e) for e in ("tree", "naive")]
        ops = [item.term for item in sf.items if isinstance(item, Compute)]
        assert len(ops) == 360
        for i, t in enumerate(ops):
            used = []
            for ctx in ctxs:
                steps = Steps(10**6)
                snf(ctx, t, steps)
                used.append(steps.used)
            if used[0] > used[1]:
                worse.append((seed, i, *used))
    assert worse == []


@st.composite
def checks(draw):
    """A genlib rule set, a subject over three free variables, in which an
    abstraction may rebind one of them, and a nonempty set of them whose
    identities the check restricts."""
    sampler = RuleSampler(random.Random(draw(st.integers(0, 2**32 - 1))))
    rules = sampler.ruleset()
    free = tuple(fresh_var(n) for n in ("p", "q", "r"))
    t = sampler.subject_term(3, free)
    for v in draw(st.lists(st.sampled_from(free), max_size=2)):
        inner = lam(v, sampler.subject_term(2, free))
        # a sibling that binds v, or a beta redex that binds it
        t = build_app(symb("k2"), [t, inner]) if draw(st.booleans()) else App(inner, t)
    shut = {v.vid for v in draw(st.sets(st.sampled_from(free), min_size=1))}
    return rules, t, shut


@pytest.mark.parametrize("engine", ["tree", "naive"])
@given(checks())
@settings(max_examples=150, deadline=None)
def test_the_closedness_check_is_snf_then_free_vars(engine, check):
    rules, t, shut = check
    ctx = EvalContext.from_rules(rules, engine=engine, max_steps=10**6)
    full_steps, check_steps = Steps(10**6), Steps(10**6)
    full = snf(ctx, t, full_steps)
    nf = normalise(ctx, t, check_steps, shut)
    if free_vars(full) & shut:
        assert nf is None
        assert check_steps.used <= full_steps.used
    else:
        assert nf is not None and alpha_eq(nf, full)
        assert check_steps.used == full_steps.used


def test_a_failed_closedness_check_stops_and_records_what_it_reduced():
    # the check stops at the x that id x reduces to, before id a, and
    # records id x, so the match that goes on does not reduce it again
    ids = "symbol id; symbol c; symbol a;\nrule id $p --> $p;\n"
    ctx = ctx_for(ids, engine="tree")
    x = fresh_var("x")
    id_x = App(symb("id"), x)
    body = build_app(symb("c"), [id_x, App(symb("id"), symb("a"))])
    full = Steps(10)
    assert print_term(snf(ctx, body, full)) == "c x a" and full.used == 2
    steps = Steps(10)
    assert normalise(ctx, body, steps, {x.vid}) is None
    assert steps.used == 1
    assert list(steps.hnf.items()) == [(id_x, x)]


def test_an_inner_binder_of_the_same_identity_hides_a_restricted_variable():
    x = fresh_var("x")
    ctx = ctx_for(FIB_RULES, engine="tree")
    shut = {x.vid}
    inner = lam(x, App(symb("s"), x))
    assert alpha_eq(normalise(ctx, inner, Steps(10), shut), inner)
    assert normalise(ctx, build_app(symb("+"), [inner, x]), Steps(10), shut) is None
    # the beta redex binds x; its argument 0 replaces it
    out = normalise(ctx, App(inner, symb("0")), Steps(10), shut)
    assert print_term(out) == "s 0"


STORE_RENAMES = r"""
symbol f; symbol g; symbol +; symbol *; symbol 0; symbol 1; symbol b;
rule + 0 $p --> $p;
rule * 1 $p --> $p;
rule f (\x, + $u[x] $v[x]) (\y, $w[y]) --> \z, g $u[z] $u[z] $w[z];
"""


def test_a_store_saves_the_recorded_normal_form():
    # the failed match of + (* 1 x) b records its argument * 1 x with the
    # normal form x; the Store for $u[x] saves x, so the two copies $u[z]
    # that the right-hand side renames (z is fresh: it stands for no one
    # subject binder) need no step (4 tree steps when it saves the raw
    # * 1 x)
    t = term(r"f (\x, + (* 1 x) b) (\y, y)", STORE_RENAMES)
    steps = Steps(1000)
    out = snf(ctx_for(STORE_RENAMES, engine="tree"), t, steps)
    assert print_term(out) == r"\z, g z z z"
    assert steps.used == 2
    # on the differentiation rules $u[x] is the stored term itself, which
    # the record holds whether or not the Store read it
    rules = _hol_rules()
    t = term(r"d (\x, * (sin x) (cos (+ (* 1 x) b)))", rules)
    steps = Steps(1000)
    out = snf(ctx_for(rules, engine="tree"), t, steps)
    assert print_term(out) == (
        r"\x, + (* (* (cos x) (d (\x', x') x)) (cos (+ x b)))"
        r" (* (sin x) (* (neg (sin (+ x b))) (d (\x', x') x)))"
    )
    assert steps.used == 11
