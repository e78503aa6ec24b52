import random
import sys
from collections.abc import Sequence

import pytest

from rwtree import engine, patterns
from rwtree.engine import EvalContext
from rwtree.patterns import (
    Closure,
    Hooks,
    PatAbst,
    PatSymb,
    PatVar,
    Rule,
    RuleSetError,
    SubstitutionError,
    apply_subst,
    match_patterns,
    naive_rewrite_head,
    rhs_builder,
    validate_rule,
)
from rwtree.terms import (
    Abst,
    App,
    MetaApp,
    alpha_eq,
    build_app,
    free_vars,
    fresh_var,
    symb,
)

from rwtree.syntax import parse_file

from genlib import FIB_RULES, RuleSampler, numeral, preorder


def lam(v, body):
    return Abst(v, None, body)


def pvar(name, *args):
    return PatVar(name, tuple(args))


# ---------------------------------------------------------------------------
# validate_rule


def test_validate_addition_rule():
    # + 0 $m --> $m
    rule = Rule("+", (PatSymb("0"), pvar("m")), MetaApp("m", ()))
    assert validate_rule(rule) == []


def test_validate_unbound_rhs_var():
    rule = Rule("f", (pvar("x"),), MetaApp("y", ()))
    violations = validate_rule(rule)
    assert any("unbound rhs variable $y" in v for v in violations)


def test_validate_non_distinct_args():
    x = fresh_var("x")
    rule = Rule(
        "f",
        (PatAbst(x, pvar("v", x, x)),),
        symb("0"),
    )
    violations = validate_rule(rule)
    assert any("non-distinct" in v for v in violations)


def test_validate_unbound_pattern_argument():
    x = fresh_var("x")
    rule = Rule("f", (pvar("v", x),), symb("0"))
    violations = validate_rule(rule)
    assert any("not bound" in v for v in violations)


def test_validate_arity_mismatch():
    x = fresh_var("x")
    rule = Rule(
        "f",
        (PatAbst(x, pvar("v", x)), pvar("v")),
        symb("0"),
    )
    violations = validate_rule(rule)
    assert any("inconsistent arity" in v for v in violations)


def test_from_rules_keeps_violations_of_rules_sharing_a_label():
    rules = [
        Rule("f", (pvar("x"),), MetaApp("y", ()), "f@1"),
        Rule("f", (PatSymb("k"),), MetaApp("z", ()), "f@1"),
        Rule("f", (pvar("x"),), MetaApp("w", ())),
    ]
    with pytest.raises(RuleSetError) as e:
        EvalContext.from_rules(rules)
    assert e.value.violations == {
        "f@1": ["unbound rhs variable $y", "unbound rhs variable $z"],
        "rule 3": ["unbound rhs variable $w"],
    }


def test_each_rule_is_validated_once(monkeypatch):
    # parse_file only parses; from_rules validates, under either engine
    validated = []
    real = patterns.validate_rule
    monkeypatch.setattr(
        patterns, "validate_rule", lambda r: validated.append(r) or real(r)
    )
    rules = parse_file(FIB_RULES).rules
    EvalContext.from_rules(rules)
    assert validated == rules and len(rules) == 7


def test_each_lhs_is_analysed_once(monkeypatch):
    # the walk made with the rule serves validation, the clause matrix and
    # analyse_rhs; parse_file makes each rule once and from_rules makes none
    analysed = []
    real = patterns.analyse_lhs
    monkeypatch.setattr(
        patterns, "analyse_lhs", lambda pats: analysed.append(pats) or real(pats)
    )
    rules = parse_file(FIB_RULES).rules
    EvalContext.from_rules(rules)
    assert analysed == [r.lhs_args for r in rules] and len(rules) == 7


def test_pattern_vars_come_in_preorder(rng):
    # Rule.env, from which the tree stores a right-hand side's bindings, and
    # the declarative matcher both take a name's first occurrence in
    # preorder; names are keyed in the order they first occur
    sampler = RuleSampler(rng)
    seen = 0
    for _ in range(500):
        for rule in sampler.ruleset():
            firsts = [occs[0][0] for occs in rule.occurrences.values()]
            assert all(a < b for a, b in zip(firsts, firsts[1:]))
            for occs in rule.occurrences.values():
                positions = [pos for pos, _ in occs]
                assert all(a < b for a, b in zip(positions, positions[1:]))
                seen += len(positions)
    assert seen > 1000


# ---------------------------------------------------------------------------
# match_patterns


def test_match_plain_variable():
    s0 = App(symb("s"), symb("0"))
    sub = match_patterns((pvar("x"),), (s0,))
    assert sub is not None
    assert sub["x"].formals == ()
    assert sub["x"].body is s0


def test_match_closedness_rejects_dependent_body():
    # \y, $v  against  \x, sin x : the body may not depend on the binder
    y = fresh_var("y")
    x = fresh_var("x")
    subject = lam(x, App(symb("sin"), x))
    sub = match_patterns((PatAbst(y, pvar("v")),), (subject,))
    assert sub is None


def test_match_closedness_accepts_constant_body():
    y = fresh_var("y")
    x = fresh_var("x")
    subject = lam(x, symb("c"))
    sub = match_patterns((PatAbst(y, pvar("v")),), (subject,))
    assert sub is not None
    assert sub["v"].formals == ()
    assert alpha_eq(sub["v"].body, symb("c"))


def test_match_dependent_body_with_argument():
    y = fresh_var("y")
    x = fresh_var("x")
    subject = lam(x, App(symb("sin"), x))
    sub = match_patterns((PatAbst(y, PatSymb("sin", (pvar("v", y),))),), (subject,))
    assert sub is not None
    (formal,) = sub["v"].formals
    assert free_vars(sub["v"].body) == {formal.vid}


def test_match_nonlinear_failure():
    sub = match_patterns((pvar("x"), pvar("x")), (symb("a"), symb("b")))
    assert sub is None


def test_match_nonlinear_success():
    t = App(symb("c"), symb("a"))
    u = App(symb("c"), symb("a"))
    sub = match_patterns((pvar("x"), pvar("x")), (t, u))
    assert sub is not None


def test_match_wildcards_bind_nothing():
    sub = match_patterns((PatVar(None, ()),), (symb("a"),))
    assert sub == {}


def test_match_symbol_arity_must_agree():
    # pattern c $x against partially applied / overapplied subjects
    sub = match_patterns((PatSymb("c", (pvar("x"),)),), (symb("c"),))
    assert sub is None
    sub = match_patterns(
        (PatSymb("c", (pvar("x"),)),),
        (build_app(symb("c"), [symb("a"), symb("b")]),),
    )
    assert sub is None


def test_match_uses_whnf_hook():
    # pattern (id) matches a subject that reduces to id
    subject = symb("redex")
    hooks = Hooks({subject: symb("id")})
    sub = match_patterns((PatSymb("id", ()),), (subject,), hooks)
    assert sub is not None


class _Recording(Hooks):
    """Hooks that append each call of ``hooks[t]`` ("whnf"), ``equal`` and
    ``closed`` ("fv") to ``calls`` and answer as the syntactic matcher does.
    Given a dict, they also record each call of ``known``, which gives what
    the dict maps its subject to."""

    def __init__(self, calls, given=None):
        self.calls, self.given = calls, given

    def __missing__(self, t):
        self.calls.append(("whnf", t))
        return t

    def equal(self, a, b):
        self.calls.append(("equal", a, b))
        return alpha_eq(a, b)

    def closed(self, t, vids):
        self.calls.append(("fv", t, vids))
        return Hooks.closed(self, t, vids)

    def known(self, t):
        if self.given is None:
            return t
        self.calls.append(("known", t))
        return self.given.get(t, t)


class _Given(Hooks):
    """The syntactic relation, except that a variable binds what the dict
    maps its subject to."""

    def known(self, t):
        return self.get(t, t)


def test_match_calls_its_hooks_in_preorder_and_none_after_a_failure():
    # c (d $x) e, \y, $w, $x: nested symbols, an abstraction whose body may
    # not depend on its binder, and a repeated variable
    y, z = fresh_var("y"), fresh_var("z")
    pats = (
        PatSymb("c", (PatSymb("d", (pvar("x"),)), PatSymb("e"))),
        PatAbst(y, pvar("w")),
        pvar("x"),
    )
    a, e, k = symb("a"), symb("e"), symb("k")
    da = App(symb("d"), a)
    first = build_app(symb("c"), [da, e])
    third = symb("a")

    calls = []
    second = lam(z, k)
    sub = match_patterns(pats, (first, second, third), _Recording(calls))
    assert sub is not None and sub["w"].body is k
    assert calls == [
        ("whnf", first),
        ("whnf", da),
        ("whnf", e),
        ("whnf", second),
        ("fv", k, {z.vid}),
        ("equal", a, third),
    ]

    calls = []
    kz = App(k, z)
    second = lam(z, kz)
    sub = match_patterns(pats, (first, second, third), _Recording(calls))
    assert sub is None
    assert calls == [
        ("whnf", first),
        ("whnf", da),
        ("whnf", e),
        ("whnf", second),
        ("fv", kz, {z.vid}),
    ]


def test_known_is_called_once_per_named_occurrence_in_preorder():
    # c $x _, \y, $w, $x: the known hook sees each named occurrence's
    # subject right after the walk reaches it, before any check on it, and
    # is never called for the wildcard
    y, z = fresh_var("y"), fresh_var("z")
    pats = (
        PatSymb("c", (pvar("x"), PatVar(None, ()))),
        PatAbst(y, pvar("w")),
        pvar("x"),
    )
    a, b, k = symb("a"), symb("b"), symb("k")
    first = build_app(symb("c"), [a, b])
    second = lam(z, k)
    calls = []
    sub = match_patterns(pats, (first, second, a), _Recording(calls, {}))
    assert sub is not None
    assert calls == [
        ("whnf", first),
        ("known", a),
        ("whnf", second),
        ("known", k),
        ("fv", k, {z.vid}),
        ("known", a),
        ("equal", a, a),
    ]


def test_the_closedness_check_sees_what_known_gives():
    # \y, $w against \z, r z: the raw body mentions z, but the known hook
    # gives k for it, which both checks accept and the variable binds
    y, z = fresh_var("y"), fresh_var("z")
    rz, k = App(symb("r"), z), symb("k")
    pats = (PatAbst(y, pvar("w")),)
    subjects = (lam(z, rz),)
    calls = []
    sub = match_patterns(pats, subjects, _Recording(calls))
    assert sub is None and calls[-1] == ("fv", rz, {z.vid})
    sub = match_patterns(pats, subjects, _Recording(calls, {rz: k}))
    assert sub is not None and sub["w"].body is k
    assert calls[-1] == ("fv", k, {z.vid})
    # under the syntactic relation the check is free_vars, on the same term
    assert match_patterns(pats, subjects) is None
    sub = match_patterns(pats, subjects, _Given({rz: k}))
    assert sub is not None and sub["w"].body is k


def test_with_no_known_hook_the_raw_subject_is_bound():
    # whnf reduces the subject only where a structural pattern reads it: a
    # variable binds what it is given, or what known gives for it
    redex, nf = App(symb("id"), symb("a")), symb("a")
    sub = match_patterns((pvar("x"),), (redex,), Hooks({redex: nf}))
    assert sub["x"].body is redex
    sub = match_patterns((pvar("x"),), (redex,), _Given({redex: nf}))
    assert sub["x"].body is nf
    rule = Rule("f", (pvar("x"),), MetaApp("x", ()))
    assert naive_rewrite_head([rule], [redex])[1] is redex
    assert naive_rewrite_head([rule], [redex], _Given({redex: nf}))[1] is nf


class _OnlyFirstReadable(Sequence):
    """Subjects of which only the first may be read."""

    def __init__(self, first, n):
        self.first, self.n = first, n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if i != 0:
            raise AssertionError(f"argument {i} was read")
        return self.first


def test_a_rule_try_reads_an_argument_only_when_it_reaches_it():
    a, b = symb("a"), symb("b")
    calls = []
    subjects = _OnlyFirstReadable(b, 3)
    pats = (PatSymb("a"), pvar("x"), PatSymb("c", (pvar("y"),)))
    assert match_patterns(pats, subjects, _Recording(calls)) is None
    assert calls == [("whnf", b)]
    assert match_patterns(pats, subjects) is None
    # a match that binds no named variable still gives a substitution
    sub = match_patterns((PatSymb("a"), PatVar(None, ())), (a, b))
    assert sub == {} and sub is not match_patterns((PatSymb("a"),), (a,))


@pytest.mark.parametrize(
    "later", ["$x", "c $x"], ids=["variable", "under a symbol"]
)
def test_a_binder_opened_in_one_argument_does_not_restrict_the_next(later):
    # (\y, _) then $x, or c $x, against (\z, k) and c z: z is free in the
    # second argument, but no binder encloses that position, so $x binds
    # it with no closedness check, under the syntactic relation and under
    # hooks that record their calls
    y, z = fresh_var("y"), fresh_var("z")
    k, cz = symb("k"), App(symb("c"), z)
    first = lam(z, k)
    if later == "$x":
        pats, bound = (PatAbst(y, PatVar(None, ())), pvar("x")), cz
    else:
        pats, bound = (PatAbst(y, PatVar(None, ())), PatSymb("c", (pvar("x"),))), z
    sub = match_patterns(pats, (first, cz))
    assert sub is not None and sub["x"] == Closure(bound, ())
    calls = []
    sub = match_patterns(pats, (first, cz), _Recording(calls, {}))
    assert sub is not None and sub["x"] == Closure(bound, ())
    expected = [("whnf", first)]
    if later != "$x":
        expected.append(("whnf", cz))
    assert calls == expected + [("known", bound)]


def test_match_does_not_recurse_on_pattern_depth():
    depth = 10_000
    assert sys.getrecursionlimit() < depth
    pattern = pvar("n")
    for _ in range(depth):
        pattern = PatSymb("s", (pattern,))
    sub = match_patterns((pattern,), (numeral(depth),))
    assert sub is not None and alpha_eq(sub["n"].body, symb("0"))
    # the innermost s of the pattern meets 0
    assert match_patterns((pattern,), (numeral(depth - 1),)) is None


# ---------------------------------------------------------------------------
# analyse_rhs

BINDER_RULES = r"""symbol d; symbol g; symbol +; symbol 0;
rule d (\x, + $u[x] $v[x]) --> \x, + (d (\x, $u[x]) x) (d (\x, $v[x]) x);
rule d (\x, $u[x]) --> \x, \y, g $u[x];
rule d $t --> \x, g $t x;
rule d (\x, $c) --> \x, 0;
rule g (\x, $u[x]) (\y, $w[y]) --> \z, g $u[z] $w[z];
"""


def _binders_in_preorder(rule):
    """The source of each rhs binder, outermost first; "keep" for one
    that keeps the rule's Var."""
    return [
        rule.binders.get(x.var.vid, "keep")
        for x in preorder(rule.rhs)
        if type(x) is Abst
    ]


def test_each_rhs_binder_stands_for_a_subject_binder_when_it_can():
    plus, inner, bare, closed, two = parse_file(BINDER_RULES).rules
    # the outer binder is passed to no formal: any formal whose abstraction
    # encloses $u and $v will do; each inner one is the formal it is passed
    assert _binders_in_preorder(plus) == [("u", 0), ("u", 0), ("v", 0)]
    # \y would capture the \x that is the same subject binder
    assert _binders_in_preorder(inner) == [("u", 0), None]
    # $t has no formal, and a scope without pattern variables is constant
    assert _binders_in_preorder(bare) == [None]
    assert _binders_in_preorder(closed) == ["keep"]
    # $u and $w first occur under different abstractions
    assert _binders_in_preorder(two) == [None]


# ---------------------------------------------------------------------------
# rhs_builder, run by the naive engine as apply_subst


def test_apply_subst_plain():
    s0 = App(symb("s"), symb("0"))
    rule = Rule("f", (pvar("m"),), MetaApp("m", ()))
    assert apply_subst({"m": Closure(s0, ())}, rule) is s0


def test_apply_subst_constant_function_rhs():
    # rhs \x, 0: no pattern variable, so the rule's own term
    x = fresh_var("x")
    rule = Rule("f", (pvar("v"),), lam(x, symb("0")))
    assert apply_subst({"v": Closure(symb("c"), ())}, rule) is rule.rhs


def test_apply_subst_closure_under_binder():
    # f (\y, $v[y]) --> * (diff (\x, $v[x])) cos with v bound to the
    # identity closure: x stands for the subject's y and is y
    y = fresh_var("y")
    x = fresh_var("x")
    rhs = build_app(
        symb("*"),
        [App(symb("diff"), lam(x, MetaApp("v", (x,)))), symb("cos")],
    )
    rule = Rule("f", (PatAbst(y, pvar("v", y)),), rhs)
    out = apply_subst({"v": Closure(y, (y,))}, rule)
    assert alpha_eq(
        out, build_app(symb("*"), [App(symb("diff"), lam(y, y)), symb("cos")])
    )
    assert out.fn.arg.arg.var is y


def test_apply_subst_missing_variable_is_internal_error():
    # raised when the builder is compiled, before any store is read
    rule = Rule("f", (), MetaApp("nope", ()))
    with pytest.raises(SubstitutionError):
        rhs_builder(rule, {})
    with pytest.raises(SubstitutionError):
        apply_subst({}, rule)


# ---------------------------------------------------------------------------
# naive_rewrite_head


def example1_rules():
    c = lambda p: PatSymb("c", (p,))
    r1 = Rule("f", (c(c(pvar("x"))), PatSymb("a")), MetaApp("x", ()), "r1")
    r2 = Rule("f", (pvar("x"), PatSymb("b")), MetaApp("x", ()), "r2")
    return [r1, r2]


def test_naive_first_match_wins():
    rules = example1_rules()
    cce = App(symb("c"), App(symb("c"), symb("e")))
    hit = naive_rewrite_head(rules, [cce, symb("b")])
    assert hit is not None
    rule, result = hit
    assert rule.label == "r2"
    assert alpha_eq(result, cce)


def test_naive_rule_one_binds_inner_subterm():
    rules = example1_rules()
    cce = App(symb("c"), App(symb("c"), symb("e")))
    hit = naive_rewrite_head(rules, [cce, symb("a")])
    assert hit is not None
    rule, result = hit
    assert rule.label == "r1"
    assert alpha_eq(result, symb("e"))


def test_naive_no_rule_applies():
    rules = example1_rules()
    assert naive_rewrite_head(rules, [symb("e"), symb("e")]) is None


def test_naive_prefix_match_reattaches_suffix():
    rules = [Rule("map", (PatSymb("id"), pvar("l")), MetaApp("l", ()), "mapid")]
    hit = naive_rewrite_head(rules, [symb("id"), symb("nil")])
    assert hit is not None
    assert alpha_eq(hit[1], symb("nil"))
    # extra argument is reattached
    hit = naive_rewrite_head(rules, [symb("id"), symb("nil"), symb("k")])
    assert alpha_eq(hit[1], App(symb("nil"), symb("k")))


WIDTH_RULES = """symbol f; symbol a; symbol b; symbol c; symbol e;
symbol r1; symbol r2; symbol r3; symbol r4; symbol r5;
rule f c --> r1
with f a b e --> r2
with f a c --> r3
with f a $x --> r4
with f $x $y --> r5;
"""


def _counted_matcher(monkeypatch):
    """Record each call of ``patterns.match_patterns`` through the module
    global, as its pattern vector and its subjects."""
    calls = []
    match = patterns.match_patterns

    def recording(pats, terms, hooks):
        calls.append((pats, tuple(terms)))
        return match(pats, terms, hooks)

    monkeypatch.setattr(patterns, "match_patterns", recording)
    return calls


def test_naive_tries_each_rule_with_exactly_one_matcher_call(monkeypatch):
    # one call per rule tried, in text order, up to and including the first
    # that applies; the wider r2 costs none, and r5 is never reached
    rules = parse_file(WIDTH_RULES).rules
    r1, r2, r3, r4, r5 = rules
    calls = _counted_matcher(monkeypatch)
    a, b = symb("a"), symb("b")
    hit = naive_rewrite_head(rules, [a, b])
    assert hit is not None and hit[0] is r4
    assert calls == [(r1.lhs_args, (a,)), (r3.lhs_args, (a, b)), (r4.lhs_args, (a, b))]
    calls.clear()
    hit = naive_rewrite_head(rules, [b, b])
    assert hit is not None and hit[0] is r5
    assert [pats for pats, _ in calls] == [r.lhs_args for r in (r1, r3, r4, r5)]
    # with three arguments r2 is tried too, on all of them
    calls.clear()
    e = symb("e")
    assert naive_rewrite_head(rules, [b, b, e])[0] is r5
    assert [pats for pats, _ in calls] == [r.lhs_args for r in rules]
    assert calls[1] == (r2.lhs_args, (b, b, e))


def test_a_naive_attempt_below_the_smallest_arity_makes_nothing(monkeypatch):
    # no matcher call and no WhnfMemo, as the tree engine runs no tree
    source = WIDTH_RULES.replace("rule f c --> r1\nwith", "rule")
    ctx = EvalContext.from_rules(parse_file(source).rules, engine="naive")
    assert ctx.defined["f"] == 2
    calls = _counted_matcher(monkeypatch)
    memos = []

    class CountedMemo(engine.WhnfMemo):
        __slots__ = ()

        def __new__(cls):
            memos.append(None)
            return super().__new__(cls)

    monkeypatch.setattr(engine, "WhnfMemo", CountedMemo)
    a, b = symb("a"), symb("b")
    steps = engine.Steps(10)
    assert engine.rewrite_head(ctx, "f", [a], steps) is None
    assert engine.rewrite_head(ctx, "a", [a, b], steps) is None
    assert calls == [] and memos == [] and steps.hnf == {}
    assert alpha_eq(engine.rewrite_head(ctx, "f", [a, b], steps), symb("r4"))
    assert len(calls) == 2 and len(memos) == 1


# ---------------------------------------------------------------------------
# properties


def test_oracle_soundness_closedness(rng):
    # every closure produced by a match satisfies the occurrence condition:
    # binders traversed during the match may reach the body only through
    # the declared formals
    sampler = RuleSampler(rng)
    checked = 0
    for _ in range(300):
        rules = sampler.ruleset()
        head, args = sampler.subject_args(rules)
        for rule in rules:
            if rule.head != head or rule.arity > len(args):
                continue
            low = fresh_var("mark").vid
            sub = match_patterns(rule.lhs_args, args[: rule.arity])
            high = fresh_var("mark").vid
            if sub is None:
                continue
            checked += 1
            for closure in sub.values():
                formal_ids = {v.vid for v in closure.formals}
                traversed = {
                    v for v in free_vars(closure.body) if low < v < high
                }
                assert traversed <= formal_ids
    assert checked > 50


def test_round_trip_instantiation(rng):
    sampler = RuleSampler(rng)
    hits = 0
    for _ in range(400):
        rules = sampler.ruleset()
        rule = rules[0]
        args = sampler.instance_of(rule)
        sub = match_patterns(rule.lhs_args, args)
        if sub is None:
            continue
        try:
            rhs_views = [_pattern_as_rhs(p, sub) for p in rule.lhs_args]
        except _SkipPattern:
            continue
        hits += 1
        # each view instantiated by its rule's naive builder, with the
        # witness as its store
        for view, want in zip(rhs_views, args):
            got = apply_subst(sub, Rule(rule.head, rule.lhs_args, view))
            assert alpha_eq(got, want)
    assert hits > 100


def _pattern_as_rhs(p, sub):
    """Render a pattern as a rhs term over the matched variable names."""
    if type(p) is PatVar:
        if p.name is None:
            raise _SkipPattern
        return MetaApp(p.name, p.args)
    if type(p) is PatSymb:
        return build_app(symb(p.symbol), [_pattern_as_rhs(a, sub) for a in p.args])
    return Abst(p.var, None, _pattern_as_rhs(p.body, sub))


class _SkipPattern(Exception):
    pass


def test_every_genlib_rule_matches_its_own_instance():
    # instance_of reuses a repeated variable's body with its formals
    # renamed, so every rule matches its instance, the non-linear ones in
    # a variable with formals included (seed 69's f0 is
    # f (\u, k2 $z[u] $z[u]))
    checked = 0
    for seed in range(400):
        sampler = RuleSampler(random.Random(seed))
        for rule in sampler.ruleset():
            args = sampler.instance_of(rule)
            assert match_patterns(rule.lhs_args, args) is not None, (seed, rule)
            checked += 1
    assert checked > 1000


def test_round_trip_skip_wildcards(rng):
    # wildcard-containing patterns cannot be rebuilt; ensure the helper
    # signals them instead of fabricating terms
    with pytest.raises(_SkipPattern):
        _pattern_as_rhs(PatVar(None, ()), {})


# first-order agreement: an independent textbook matcher over symbol trees


def _fo_match(pat, term, binding):
    if type(pat) is PatVar:
        if pat.name is None:
            return True
        if pat.name in binding:
            return alpha_eq(binding[pat.name], term)
        binding[pat.name] = term
        return True
    if type(pat) is PatSymb:
        from rwtree.terms import spine, Symb

        head, args = spine(term)
        if type(head) is not Symb or head.name != pat.symbol:
            return False
        if len(args) != len(pat.args):
            return False
        return all(_fo_match(p, t, binding) for p, t in zip(pat.args, args))
    raise AssertionError("first-order only")


def test_first_order_agreement(rng):
    sampler = RuleSampler(rng)
    compared = 0
    for _ in range(500):
        rules = sampler.ruleset()
        rule = rules[0]
        if _has_binders(rule.lhs_args):
            continue
        args = (
            sampler.instance_of(rule)
            if rng.random() < 0.5
            else [sampler.subject_term(2) for _ in range(rule.arity)]
        )
        if any(_term_has_binders(a) for a in args):
            continue
        binding = {}
        fo = all(_fo_match(p, t, binding) for p, t in zip(rule.lhs_args, args))
        ho = match_patterns(rule.lhs_args, args) is not None
        assert fo == ho
        compared += 1
    assert compared > 50


def _has_binders(pats):
    stack = list(pats)
    while stack:
        p = stack.pop()
        if type(p) is PatAbst:
            return True
        if type(p) is PatSymb:
            stack.extend(p.args)
    return False


def _term_has_binders(t):
    return any(type(n) is Abst for n in preorder(t))
