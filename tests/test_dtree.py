import pytest

from rwtree.dtree import (
    BinCl,
    BinNl,
    CompileState,
    Fail,
    Leaf,
    Store,
    Swap,
    Switch,
    choose_action,
    compile_matrix,
    iter_tree,
    to_dot,
    tree_stats,
    tree_text,
    trees_of_ruleset,
)
from rwtree.matrix import ClauseMatrix, from_rules
from rwtree.patterns import PatAbst, PatSymb, PatVar, Rule
from rwtree.syntax import parse_file, print_term
from rwtree.terms import MetaApp, fresh_var, symb

from genlib import FIB_RULES, RuleSampler


def pvar(name, *args):
    return PatVar(name, tuple(args))


def psym(name, *args):
    return PatSymb(name, tuple(args))


def example1_rules():
    c = lambda p: psym("c", p)
    r1 = Rule("f", (c(c(pvar("x"))), psym("a")), MetaApp("x", ()), "r1")
    r2 = Rule("f", (pvar("x"), psym("b")), MetaApp("x", ()), "r2")
    return [r1, r2]


def nonlinear_rule():
    return Rule("eq", (pvar("x"), pvar("x")), symb("true"), "eqxx")


# ---------------------------------------------------------------------------
# compile


def test_compile_empty_matrix_fails():
    assert type(compile_matrix(ClauseMatrix((), ()))) is Fail


def test_compile_example1_shape():
    # column two first; each right-hand side's $x is stored just before its
    # leaf (the golden text below, compiled here from hand-built rules)
    tree = compile_matrix(from_rules("f", example1_rules()))
    text, _dot = GOLDEN[("example1", "f", 2)]
    assert tree_text(tree, print_rhs=print_term) == text


def test_compile_example1_stores_for_rhs():
    tree = compile_matrix(from_rules("f", example1_rules()))
    kinds = [type(n).__name__ for n in iter_tree(tree)]
    assert kinds.count("Store") == 2
    for node in iter_tree(tree):
        if type(node) is Leaf:
            assert node.env["x"][0] == 0  # single store on each path


def test_compile_nonlinear_rule():
    tree = compile_matrix(from_rules("eq", [nonlinear_rule()]))
    nodes = list(iter_tree(tree))
    stores = [n for n in nodes if type(n) is Store]
    nls = [n for n in nodes if type(n) is BinNl]
    assert len(stores) == 2
    assert len(nls) == 1
    assert nls[0].slots == (0, 1)
    assert type(nls[0].succ) is Leaf and nls[0].succ.rhs is symb("true")
    assert type(nls[0].fail) is Fail


def test_compile_closedness_rule():
    # diff (\x, $v) --> \x, 0: the body must not use the binder
    x = fresh_var("x")
    rx = fresh_var("x")
    from rwtree.terms import Abst

    rule = Rule("diff", (PatAbst(x, pvar("v")),), Abst(rx, None, symb("0")), "dconst")
    tree = compile_matrix(from_rules("diff", [rule]))
    nodes = list(iter_tree(tree))
    cls = [n for n in nodes if type(n) is BinCl]
    assert len(cls) == 1
    assert cls[0].allowed == ()  # no binder admitted
    assert type(cls[0].succ) is Leaf
    assert type(cls[0].fail) is Fail


def test_compile_determinism():
    rules = example1_rules()
    t1 = compile_matrix(from_rules("f", rules))
    t2 = compile_matrix(from_rules("f", rules))
    assert tree_text(t1) == tree_text(t2)


# ---------------------------------------------------------------------------
# choose_action


def test_choose_action_example1_picks_column_two():
    m = from_rules("f", example1_rules())
    assert m.positions == ((1,), (2,))
    assert choose_action(m, CompileState()) == ("specialize", 2)


def test_choose_action_yields_unconstrained_row():
    rule = Rule("k", (pvar(None), pvar(None)), symb("0"), "k")
    m = from_rules("k", [rule])
    assert choose_action(m, CompileState()) == ("yield", 0)


def test_choose_action_solves_nl_after_stores():
    m = from_rules("eq", [nonlinear_rule()])
    st = CompileState(slot_of={(1,): 0, (2,): 1})
    kind, key = choose_action(m, st)
    assert kind == "solve_nl"
    # one (position, formals) occurrence per side
    assert key == frozenset({((1,), ()), ((2,), ())})


def test_choose_action_forces_store_for_env():
    rule = Rule("id", (pvar("x"),), MetaApp("x", ()), "id")
    m = from_rules("id", [rule])
    assert choose_action(m, CompileState()) == ("store", 1)
    st = CompileState(slot_of={(1,): 0})
    assert choose_action(m, st) == ("yield", 0)
    tree = compile_matrix(m)
    assert type(tree) is Store and type(tree.child) is Leaf


# ---------------------------------------------------------------------------
# trees_of_ruleset


def test_trees_grouped_by_arity():
    r1 = Rule("plus", (psym("0"),), symb("id"), "p0")
    r2 = Rule(
        "plus",
        (psym("s", pvar("n")), pvar("m")),
        MetaApp("m", ()),
        "ps",
    )
    trees = trees_of_ruleset([r1, r2])
    assert set(trees) == {("plus", 1), ("plus", 2)}


def test_trees_empty_ruleset():
    assert trees_of_ruleset([]) == {}


def test_trees_example1_single_group():
    trees = trees_of_ruleset(example1_rules())
    assert set(trees) == {("f", 2)}


# ---------------------------------------------------------------------------
# structural invariants on random rule sets


def test_store_indices_bounded_on_random_rulesets(rng):
    # every store slot is below the number of saves on the path, and every
    # binder index below the number of lambda cases taken on it
    sampler = RuleSampler(rng)
    for _ in range(150):
        rules = sampler.ruleset()
        for tree in trees_of_ruleset(rules).values():
            todo = [(tree, 0, 0)]
            while todo:
                node, stores, lambdas = todo.pop()
                t = type(node)
                if t is Store:
                    todo.append((node.child, stores + 1, lambdas))
                elif t is Swap:
                    todo.append((node.child, stores, lambdas))
                elif t is Switch:
                    below = stores + node.store
                    todo.extend((c, below, lambdas) for c in node.sym_cases.values())
                    if node.lam_case is not None:
                        todo.append((node.lam_case, below, lambdas + 1))
                    if node.default_case is not None:
                        todo.append((node.default_case, below, lambdas))
                elif t is BinNl:
                    assert max(node.slots) < stores
                    assert all(k < lambdas for sel in node.formals for k in sel)
                    todo.append((node.succ, stores, lambdas))
                    todo.append((node.fail, stores, lambdas))
                elif t is BinCl:
                    assert node.slot < stores
                    assert all(k < lambdas for k in node.allowed)
                    todo.append((node.succ, stores, lambdas))
                    todo.append((node.fail, stores, lambdas))
                elif t is Leaf:
                    for slot, sel in node.env.values():
                        assert slot < stores
                        assert all(k < lambdas for k in sel)


def test_compile_deterministic_on_random_rulesets(rng):
    sampler = RuleSampler(rng)
    for _ in range(60):
        rules = sampler.ruleset()
        a = trees_of_ruleset(rules)
        b = trees_of_ruleset(rules)
        assert set(a) == set(b)
        for key in a:
            assert tree_text(a[key]) == tree_text(b[key])


def test_switch_completeness_on_random_rulesets(rng):
    # every switch lists each root symbol of the column it was built from;
    # checked indirectly: case keys are unique and sorted, one lambda case
    # at most, default case only when present
    sampler = RuleSampler(rng)
    for _ in range(100):
        rules = sampler.ruleset()
        for tree in trees_of_ruleset(rules).values():
            for node in iter_tree(tree):
                if type(node) is Switch:
                    keys = list(node.sym_cases)
                    assert keys == sorted(keys)
                    assert len(keys) == len(set(keys))
                    assert keys or node.lam_case or node.default_case


# ---------------------------------------------------------------------------
# rendering


def test_dot_fail_node():
    dot = to_dot(compile_matrix(ClauseMatrix((), ())))
    assert dot.startswith("digraph")
    assert '"x"' in dot


def test_dot_example1_edges():
    tree = compile_matrix(from_rules("f", example1_rules()))
    dot = to_dot(tree)
    assert dot.count('label="c/1"') == 2
    assert 'label="a/0"' in dot and 'label="b/0"' in dot


def test_dot_deterministic():
    tree = compile_matrix(from_rules("f", example1_rules()))
    assert to_dot(tree) == to_dot(tree)


def test_tree_text_mentions_swap_and_cases():
    tree = compile_matrix(from_rules("f", example1_rules()))
    text = tree_text(tree)
    assert text.splitlines()[0] == "swap 2"
    assert "a/0: " in text and "b/0: " in text


def test_tree_stats():
    tree = compile_matrix(from_rules("f", example1_rules()))
    stats = tree_stats(tree)
    assert stats["counts"]["leaf"] == 2
    assert stats["counts"]["store"] == 2
    assert stats["store_size"] == 1
    assert stats["depth"] >= 4


# Golden renderings.  Together these four trees reach every node kind: fib's
# + a storing Switch and a Store of entry 2, hol's d a lambda case, BinCl
# and Fail, hol's sub BinNl, example 1's f a Swap.

HOL_RULES = r"""symbol d; symbol sin; symbol cos; symbol +; symbol *; symbol neg;
symbol sub; symbol 0;
rule d (\x, $c) --> \x, 0
with d (\x, sin $u[x]) --> \x, * (cos $u[x]) (d (\x, $u[x]) x)
with d (\x, cos $u[x]) --> \x, * (neg (sin $u[x])) (d (\x, $u[x]) x)
with d (\x, + $u[x] $v[x]) --> \x, + (d (\x, $u[x]) x) (d (\x, $v[x]) x)
with d (\x, * $u[x] $v[x]) --> \x, + (* (d (\x, $u[x]) x) $v[x]) (* $u[x] (d (\x, $v[x]) x));
rule sub $p $p --> 0;
"""

EXAMPLE1 = "symbol f; symbol c; symbol a; symbol b;\n" + (
    "rule f (c (c $x)) a --> $x with f $x b --> $x;\n"
)

GOLDEN = {
    ("fib", "+", 2): (
        """\
switch store
  0/0: store
    leaf $m {$m<-s1}
  s/1: store
    store 2
      leaf s (+ $n $m) {$m<-s2, $n<-s1}
  *: switch
    0/0: leaf $m {$m<-s0}
    s/1: store
      leaf s (+ $m $n) {$m<-s0, $n<-s1}""",
        """\
digraph dtree {
  node [shape=box, fontname=monospace];
  n0 [label="switch store", shape=circle];
  n1 [label="store"];
  n2 [label="$m", shape=ellipse];
  n1 -> n2;
  n0 -> n1 [label="0/0"];
  n3 [label="store"];
  n4 [label="store 2"];
  n5 [label="s (+ $n $m)", shape=ellipse];
  n4 -> n5;
  n3 -> n4;
  n0 -> n3 [label="s/1"];
  n6 [label="switch", shape=circle];
  n7 [label="$m", shape=ellipse];
  n6 -> n7 [label="0/0"];
  n8 [label="store"];
  n9 [label="s (+ $m $n)", shape=ellipse];
  n8 -> n9;
  n6 -> n8 [label="s/1"];
  n0 -> n6 [label="*"];
}""",
    ),
    ("hol", "d", 1): (
        r"""switch
  lambda: switch store
    */2: store
      store 2
        leaf \x, + (* (d (\x', $u[x']) x) $v[x]) (* $u[x] (d (\x', $v[x']) x)) {$u<-s1[0], $v<-s2[0]}
    +/2: store
      store 2
        leaf \x, + (d (\x', $u[x']) x) (d (\x', $v[x']) x) {$u<-s1[0], $v<-s2[0]}
    cos/1: store
      leaf \x, * (neg (sin $u[x])) (d (\x', $u[x']) x) {$u<-s1[0]}
    sin/1: store
      leaf \x, * (cos $u[x]) (d (\x', $u[x']) x) {$u<-s1[0]}
    *: closed? s0 within []
      yes: leaf \x, 0
      no: fail""",
        r"""digraph dtree {
  node [shape=box, fontname=monospace];
  n0 [label="switch", shape=circle];
  n1 [label="switch store", shape=circle];
  n2 [label="store"];
  n3 [label="store 2"];
  n4 [label="\\x, + (* (d (\\x', $u[x']) x) $v[x]) (* $u[x] (d (\\x', $v[x']) x))", shape=ellipse];
  n3 -> n4;
  n2 -> n3;
  n1 -> n2 [label="*/2"];
  n5 [label="store"];
  n6 [label="store 2"];
  n7 [label="\\x, + (d (\\x', $u[x']) x) (d (\\x', $v[x']) x)", shape=ellipse];
  n6 -> n7;
  n5 -> n6;
  n1 -> n5 [label="+/2"];
  n8 [label="store"];
  n9 [label="\\x, * (neg (sin $u[x])) (d (\\x', $u[x']) x)", shape=ellipse];
  n8 -> n9;
  n1 -> n8 [label="cos/1"];
  n10 [label="store"];
  n11 [label="\\x, * (cos $u[x]) (d (\\x', $u[x']) x)", shape=ellipse];
  n10 -> n11;
  n1 -> n10 [label="sin/1"];
  n12 [label="fv(s0) in [] ?"];
  n13 [label="\\x, 0", shape=ellipse];
  n14 [label="x", shape=ellipse];
  n12 -> n13 [label="yes"];
  n12 -> n14 [label="no"];
  n1 -> n12 [label="*"];
  n0 -> n1 [label="lambda"];
}""",
    ),
    ("hol", "sub", 2): (
        """\
store
  store 2
    eq? s0 s1
      yes: leaf 0
      no: fail""",
        """\
digraph dtree {
  node [shape=box, fontname=monospace];
  n0 [label="store"];
  n1 [label="store 2"];
  n2 [label="s0 = s1 ?"];
  n3 [label="0", shape=ellipse];
  n4 [label="x", shape=ellipse];
  n2 -> n3 [label="yes"];
  n2 -> n4 [label="no"];
  n1 -> n2;
  n0 -> n1;
}""",
    ),
    ("example1", "f", 2): (
        """\
swap 2
  switch
    a/0: switch
      c/1: switch
        c/1: store
          leaf $x {$x<-s0}
    b/0: store
      leaf $x {$x<-s0}""",
        """\
digraph dtree {
  node [shape=box, fontname=monospace];
  n0 [label="swap 2"];
  n1 [label="switch", shape=circle];
  n2 [label="switch", shape=circle];
  n3 [label="switch", shape=circle];
  n4 [label="store"];
  n5 [label="$x", shape=ellipse];
  n4 -> n5;
  n3 -> n4 [label="c/1"];
  n2 -> n3 [label="c/1"];
  n1 -> n2 [label="a/0"];
  n6 [label="store"];
  n7 [label="$x", shape=ellipse];
  n6 -> n7;
  n1 -> n6 [label="b/0"];
  n0 -> n1;
}""",
    ),
}

GOLDEN_SOURCES = {"fib": FIB_RULES, "hol": HOL_RULES, "example1": EXAMPLE1}


def _golden_tree(source, head, arity):
    return trees_of_ruleset(parse_file(GOLDEN_SOURCES[source]).rules)[(head, arity)]


@pytest.mark.parametrize("source,head,arity", sorted(GOLDEN))
def test_rendering_golden(source, head, arity):
    tree = _golden_tree(source, head, arity)
    text, dot = GOLDEN[(source, head, arity)]
    assert tree_text(tree, print_rhs=print_term) == text
    # node ids are preorder; only the order of the edge lines may vary
    assert sorted(to_dot(tree, print_rhs=print_term).splitlines()) == sorted(
        dot.splitlines()
    )


def test_golden_trees_reach_every_node_kind():
    nodes = [n for key in GOLDEN for n in iter_tree(_golden_tree(*key))]
    assert {type(n) for n in nodes} == {Switch, Swap, Store, BinNl, BinCl, Leaf, Fail}
    assert any(type(n) is Switch and n.store for n in nodes)
    assert any(type(n) is Store and n.index > 1 for n in nodes)
