import pytest

from rwtree.dtree import Fail, Leaf, Store, Switch, iter_tree, trees_of_ruleset
from rwtree.engine import (
    DivergenceError,
    EvalContext,
    Steps,
    convertible,
    eval_tree,
    instantiate,
    rewrite_head,
    snf,
    whnf,
)
from rwtree.patterns import Closure, match_patterns
from rwtree.syntax import Declaration, parse_file, parse_term, print_term
from rwtree.terms import (
    Abst,
    App,
    MetaApp,
    alpha_eq,
    build_app,
    fresh_var,
    spine,
    symb,
)

from genlib import (
    FIB_RULES,
    REVNAT_RULES,
    RuleSampler,
    linear_wildcard_arities,
    loop_rule,
    nat_list,
    numeral,
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
    src = parse_file(ctx_text)
    scope = {
        item.name: symb(item.name)
        for item in src.items
        if isinstance(item, Declaration)
    }
    return parse_term(text, scope)


# ---------------------------------------------------------------------------
# eval_tree semantics


def test_eval_trace_swap_then_leaf():
    # stack (f a, b): swap, take the b case, reach the leaf; store untouched
    ctx = ctx_for(EXAMPLE1)
    tree = ctx.trees[("f", 2)]
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
    tree = ctx.trees[("f", 2)]
    cce = App(symb("c"), App(symb("c"), symb("e")))
    result = eval_tree(ctx, tree, [cce, symb("a")], Steps(100))
    assert result is not None
    assert alpha_eq(result, symb("e"))


def test_eval_tree_fail_node():
    ctx = ctx_for(EXAMPLE1)
    assert eval_tree(ctx, Fail(), [symb("a")], Steps(10)) is None


def test_eval_tree_no_case_no_default():
    ctx = ctx_for(EXAMPLE1)
    tree = ctx.trees[("f", 2)]
    # second argument e matches neither a nor b and there is no default
    out = eval_tree(ctx, tree, [symb("e"), symb("e")], Steps(100))
    assert out is None


def test_store_does_not_pop():
    # a switch below a store still sees the stored term on the stack
    ctx = ctx_for(EXAMPLE1)
    tree = Store(Switch({("a", 0): Leaf(symb("ok"), {})}))
    out = eval_tree(ctx, tree, [symb("a")], Steps(10))
    assert out is symb("ok")


# ---------------------------------------------------------------------------
# instantiate


def test_instantiate_plain_slot():
    s0 = App(symb("s"), symb("0"))
    leaf = Leaf(MetaApp("m", ()), {"m": (0, ())})
    assert instantiate(leaf, [(s0, ())]) is s0


def test_instantiate_closure_with_snapshot():
    # leaf rhs: * (diff (\x, $v[x])) cos, store holds sin-free body over y
    y = fresh_var("y")
    x = fresh_var("x")
    rhs = build_app(
        symb("*"), [App(symb("diff"), lam(x, MetaApp("v", (x,)))), symb("cos")]
    )
    leaf = Leaf(rhs, {"v": (0, (0,))})
    out = instantiate(leaf, [(y, (y,))])
    x2 = fresh_var("x")
    want = build_app(
        symb("*"), [App(symb("diff"), lam(x2, x2)), symb("cos")]
    )
    assert alpha_eq(out, want)


def test_instantiate_empty_env():
    x = fresh_var("x")
    leaf = Leaf(lam(x, symb("0")), {})
    out = instantiate(leaf, [])
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


def test_rewrite_head_largest_arity_first():
    src = """
    symbol g; symbol a; symbol one; symbol two;
    rule g $x --> one;
    rule g $x $y --> two;
    """
    ctx = ctx_for(src)
    out = rewrite_head(ctx, "g", [symb("a"), symb("a")], Steps(10))
    assert out is symb("two")
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


def test_divergence_budget():
    src = "symbol loop;\nrule loop --> loop;"
    ctx = ctx_for(src, max_steps=500)
    with pytest.raises(DivergenceError):
        whnf(ctx, symb("loop"), Steps(500))


# ---------------------------------------------------------------------------
# convertibility and equality modes


def test_convertible_examples():
    ctx = ctx_for(ADDITION)
    zero_plus = build_app(symb("+"), [symb("0"), symb("0")])
    assert convertible(ctx, zero_plus, symb("0"), Steps(100))
    x, y = fresh_var("x"), fresh_var("y")
    assert convertible(ctx, lam(x, x), lam(y, y), Steps(100))
    assert not convertible(ctx, numeral(1), symb("0"), Steps(100))


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
    engine, equality
):
    # the occurrences of $v are compared with the k-th formal of each
    # renamed to one shared variable: in the first case both are \z, c z
    ctx = ctx_for(HO_NONLINEAR, engine=engine, equality=equality)

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


def oracle_candidates(ctx_naive, rules, head, args, steps):
    out = []
    for rule in rules:
        if rule.head != head or rule.arity > len(args):
            continue
        sub = match_patterns(
            rule.lhs_args,
            list(args[: rule.arity]),
            whnf=lambda u: whnf(ctx_naive, u, steps),
            equal=lambda a, b: convertible(ctx_naive, a, b, steps),
            fv_normalize=lambda u: snf(ctx_naive, u, steps),
        )
        if sub is not None:
            from rwtree.patterns import apply_subst

            out.append(
                (rule, build_app(apply_subst(sub, rule.rhs), args[rule.arity :]))
            )
    return out


def test_oracle_agreement_sample(rng):
    sampler = RuleSampler(rng)
    applied = 0
    for _ in range(300):
        rules = sampler.ruleset()
        ctx_t = EvalContext.from_rules(rules, engine="tree", max_steps=10**6)
        ctx_n = EvalContext.from_rules(rules, engine="naive", max_steps=10**6)
        head, args = sampler.subject_args(rules)
        steps = Steps(10**6)
        res = rewrite_head(ctx_t, head, list(args), steps)
        cands = oracle_candidates(ctx_n, rules, head, args, Steps(10**6))
        if res is None:
            assert not cands, f"tree missed a match: {cands[0][0]}"
        else:
            applied += 1
            assert any(alpha_eq(res, cand) for _, cand in cands), (
                f"tree result not produced by any rule"
            )
    assert applied > 60


def test_engines_agree_on_applicability(rng):
    # overlapping random rule sets are not confluent, so the engines may
    # legitimately pick different rules; what must agree is whether any
    # rule applies at all, at every head position reached
    sampler = RuleSampler(rng)
    for _ in range(80):
        rules = sampler.ruleset()
        ctx_t = EvalContext.from_rules(rules, engine="tree", max_steps=10**6)
        ctx_n = EvalContext.from_rules(rules, engine="naive", max_steps=10**6)
        head, args = sampler.subject_args(rules)
        rt = rewrite_head(ctx_t, head, list(args), Steps(10**6))
        rn = rewrite_head(ctx_n, head, args, Steps(10**6))
        assert (rt is None) == (rn is None)


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
    sampler = RuleSampler(rng)
    loop = symb("loop")
    checked = 0
    for _ in range(300):
        rules = sampler.ruleset()
        for arity in linear_wildcard_arities(rules, "f"):
            ctx = EvalContext.from_rules(rules + [loop_rule()], max_steps=1000)
            steps = Steps(1000)
            assert rewrite_head(ctx, "f", [loop] * arity, steps) is not None
            assert steps.used == 0
            checked += 1
    assert checked > 20


def test_every_switch_inspects_a_head(rng):
    sampler = RuleSampler(rng)
    for _ in range(150):
        for tree in trees_of_ruleset(sampler.ruleset()).values():
            for node in iter_tree(tree):
                if type(node) is Switch:
                    assert node.sym_cases or node.lam_case is not None


# ---------------------------------------------------------------------------
# right-hand-side builders against the reference instantiation


def _hand_rules():
    """Rules whose right-hand sides apply pattern variables to binders and
    to built terms: ``$u[x]`` under a binder, ``$u[$w]``, ``$u[k1 x]``."""
    from rwtree.patterns import PatAbst, PatSymb, PatVar, Rule

    x, y = fresh_var("x"), fresh_var("y")
    lhs = (PatAbst(x, PatVar("u", (x,))), PatVar("w"))
    k1 = symb("k1")
    rhss = [
        lam(y, App(k1, MetaApp("u", (y,)))),
        MetaApp("u", (MetaApp("w", ()),)),
        lam(y, MetaApp("u", (App(k1, y),))),
    ]
    rules = [Rule(f"h{i}", lhs, rhs, f"h{i}") for i, rhs in enumerate(rhss)]
    return rules + [Rule("h0", (PatSymb("a"), PatVar("w")), lam(y, symb("b")), "h3")]


def _leaves(rules):
    for tree in trees_of_ruleset(rules).values():
        for node in iter_tree(tree):
            if type(node) is Leaf:
                yield node


def test_builder_equals_apply_subst(rng):
    from rwtree.patterns import apply_subst

    sampler = RuleSampler(rng)
    rulesets = [_hand_rules()] + [sampler.ruleset() for _ in range(150)]
    checked = 0
    for rules in rulesets:
        for leaf in _leaves(rules):
            for _ in range(3):
                size = 1 + max((slot for slot, _ in leaf.env.values()), default=0)
                store = []
                for _ in range(size):
                    snap = tuple(fresh_var("b") for _ in range(rng.randint(0, 3)))
                    store.append((sampler.subject_term(2, snap), snap))
                sub = {}
                for name, (slot, sel) in leaf.env.items():
                    term, snap = store[slot]
                    if max(sel, default=-1) >= len(snap):
                        break
                    sub[name] = Closure(tuple(snap[k] for k in sel), term)
                else:
                    want = apply_subst(sub, leaf.rhs)
                    assert alpha_eq(instantiate(leaf, store), want)
                    checked += 1
    assert checked > 200


def test_builder_rejects_unbound_and_arity_mismatch():
    from rwtree.patterns import SubstitutionError

    x = fresh_var("x")
    with pytest.raises(SubstitutionError):
        Leaf(MetaApp("m", ()), {})
    with pytest.raises(SubstitutionError):
        Leaf(MetaApp("m", (x,)), {"m": (0, ())})


def test_builder_shares_closed_subterms():
    closed = App(symb("k1"), symb("a"))
    leaf = Leaf(App(MetaApp("m", ()), closed), {"m": (0, ())})
    out = instantiate(leaf, [(symb("b"), ())])
    assert out.arg is closed
    assert instantiate(Leaf(closed, {}), []) is closed


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
    assert seen and set(seen) <= ctx.defined
    assert hits[0] == steps.used


@pytest.mark.xfail(
    strict=True,
    reason="the tree switches on the column with most heads, not on one the "
    "first row needs, so it forces an argument naive never inspects",
)
def test_tree_does_not_force_column_first_row_ignores():
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
# a failed tree match keeps the head normal forms it computed

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


@pytest.mark.parametrize("depth", [4, 8, 12, 24])
def test_failed_match_keeps_forced_arguments(depth, monkeypatch):
    # every + of + (… (+ (+ a 0) a) …) a is stuck, but matching it forces its
    # first argument down to the one redex + a 0.  The tree keeps that normal
    # form, and snf never matches a stuck + again, so both engines reduce the
    # redex a bounded number of times and match each level a bounded number
    # of times
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
    assert used == {"tree": 1, "naive": 2}
    assert len(tree_calls) <= depth + 1
    assert len(naive_calls) <= 3 * depth


def test_failed_matches_leave_head_normal_arguments(rng):
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
                after = list(args)
                if rewrite_head(ctx, head, after, Steps(10**6)) is not None:
                    continue
                for old, new in zip(args, after):
                    if new is not old:
                        changed += 1
                        steps = Steps(10**6)
                        whnf(ctx, new, steps)
                        assert steps.used == 0
    assert changed > 50


# ---------------------------------------------------------------------------
# the stuck mark: sound, and scoped to one evaluation


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_stuck_marks_are_head_normal(engine, rng):
    # every term the mark holds after an snf evaluation is its own whnf under
    # a fresh budget: a mark on a term a rule rewrites, or on one whose
    # forced arguments a tree match would still reduce, fails here.  Without
    # constraint checks the tree also needs no step to see it: its marked
    # terms have head-normal arguments wherever a Switch looks.  The naive
    # engine's matches and the convertibility checks keep none of the steps
    # they take, so there a fresh whnf may take steps to fail again.
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
                for m in steps.stuck.values():
                    again = Steps(10**6)
                    assert whnf(ctx, m, again) is m
                    if engine == "tree" and ctx.equality == "alpha":
                        assert again.used == 0
                    checked += 1
    assert checked > 200


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
    assert id(t) in steps.stuck and id(t.fn.arg) in steps.stuck
    assert whnf(ctx_a, t, Steps(100)) is t
    assert snf(ctx_b, t, Steps(100)) == symb("a")
    assert whnf(ctx_b, t, Steps(100)) == symb("a")
