import random

import pytest

from rwtree import patterns
from rwtree.engine import EvalContext
from rwtree.patterns import (
    Closure,
    PatAbst,
    PatSymb,
    PatVar,
    Rule,
    RuleSetError,
    apply_subst,
    iter_pattern_vars,
    match_patterns,
    naive_rewrite_head,
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

from genlib import FIB_RULES, RuleSampler


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
    # parse_file only parses; trees_of_ruleset, which from_rules reaches,
    # validates
    validated = []
    real = patterns.validate_rule
    monkeypatch.setattr(
        patterns, "validate_rule", lambda r: validated.append(r) or real(r)
    )
    rules = parse_file(FIB_RULES).rules
    EvalContext.from_rules(rules)
    assert validated == rules and len(rules) == 7


def test_pattern_vars_come_in_preorder(rng):
    # validate_rule and matrix.from_rules rely on the first occurrence of
    # a name coming first
    sampler = RuleSampler(rng)
    seen = 0
    for _ in range(300):
        for rule in sampler.ruleset():
            positions = [pos for _, pos, _ in iter_pattern_vars(rule.lhs_args)]
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
    sub = match_patterns(
        (PatSymb("id", ()),),
        (subject,),
        whnf=lambda t: symb("id") if t is subject else t,
    )
    assert sub is not None


# ---------------------------------------------------------------------------
# apply_subst


def test_apply_subst_plain():
    s0 = App(symb("s"), symb("0"))
    out = apply_subst({"m": Closure((), s0)}, MetaApp("m", ()))
    assert out is s0


def test_apply_subst_constant_function_rhs():
    # rhs \x, 0 with empty environment entry for v
    x = fresh_var("x")
    out = apply_subst({"v": Closure((), symb("c"))}, lam(x, symb("0")))
    assert alpha_eq(out, lam(fresh_var("x"), symb("0")))


def test_apply_subst_closure_under_binder():
    # rhs diff (\x, $v[x]) * cos  with v bound to the identity closure
    y = fresh_var("y")
    x = fresh_var("x")
    rhs = build_app(
        symb("*"),
        [App(symb("diff"), lam(x, MetaApp("v", (x,)))), symb("cos")],
    )
    out = apply_subst({"v": Closure((y,), y)}, rhs)
    expected_x = fresh_var("x")
    expected = build_app(
        symb("*"),
        [App(symb("diff"), lam(expected_x, expected_x)), symb("cos")],
    )
    assert alpha_eq(out, expected)


def test_apply_subst_missing_variable_is_internal_error():
    from rwtree.patterns import SubstitutionError

    with pytest.raises(SubstitutionError):
        apply_subst({}, MetaApp("nope", ()))


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
    hit = naive_rewrite_head(rules, "f", [cce, symb("b")])
    assert hit is not None
    rule, result = hit
    assert rule.label == "r2"
    assert alpha_eq(result, cce)


def test_naive_rule_one_binds_inner_subterm():
    rules = example1_rules()
    cce = App(symb("c"), App(symb("c"), symb("e")))
    hit = naive_rewrite_head(rules, "f", [cce, symb("a")])
    assert hit is not None
    rule, result = hit
    assert rule.label == "r1"
    assert alpha_eq(result, symb("e"))


def test_naive_no_rule_applies():
    rules = example1_rules()
    assert naive_rewrite_head(rules, "f", [symb("e"), symb("e")]) is None


def test_naive_prefix_match_reattaches_suffix():
    rules = [Rule("map", (PatSymb("id"), pvar("l")), MetaApp("l", ()), "mapid")]
    hit = naive_rewrite_head(rules, "map", [symb("id"), symb("nil")])
    assert hit is not None
    assert alpha_eq(hit[1], symb("nil"))
    # extra argument is reattached
    hit = naive_rewrite_head(rules, "map", [symb("id"), symb("nil"), symb("k")])
    assert alpha_eq(hit[1], App(symb("nil"), symb("k")))


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
        rebuilt = [apply_subst(sub, view) for view in rhs_views]
        for got, want in zip(rebuilt, args):
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
    from rwtree.terms import iter_nodes, Abst as _A

    return any(type(n) is _A for n in iter_nodes(t))
