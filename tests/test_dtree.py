import pytest

from rwtree.dtree import (
    BinCl,
    BinNl,
    Eos,
    Fail,
    Leaf,
    Store,
    Swap,
    Switch,
    compile_matrix,
    iter_tree,
    to_dot,
    tree_stats,
    tree_text,
)
from rwtree.engine import EvalContext
from rwtree.matrix import ClauseMatrix, from_rules
from rwtree.patterns import PatAbst, PatSymb, PatVar, Rule
from rwtree.syntax import parse_file
from rwtree.terms import MetaApp, fresh_var, symb

from genlib import FIB_RULES, RuleSampler, mixed_arity_source


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
    tree = compile_matrix(from_rules(example1_rules()))
    text, _dot = GOLDEN[("example1", "f")]
    assert tree_text(tree) == text


def test_compile_example1_stores_for_rhs():
    tree = compile_matrix(from_rules(example1_rules()))
    kinds = [type(n).__name__ for _, _, n in iter_tree(tree)]
    assert kinds.count("Store") == 2
    for _, _, node in iter_tree(tree):
        if type(node) is Leaf:
            assert node.env["x"][0] == 0  # single store on each path


def test_compile_nonlinear_rule():
    tree = compile_matrix(from_rules([nonlinear_rule()]))
    nodes = [n for _, _, n in iter_tree(tree)]
    stores = [n for n in nodes if type(n) is Store]
    nls = [n for n in nodes if type(n) is BinNl]
    assert len(stores) == 2
    assert len(nls) == 1
    assert nls[0].slots == (0, 1)
    assert type(nls[0].succ) is Leaf and nls[0].succ.rule.rhs is symb("true")
    assert type(nls[0].fail) is Fail


def test_compile_closedness_rule():
    # diff (\x, $v) --> \x, 0: the body must not use the binder
    x = fresh_var("x")
    rx = fresh_var("x")
    from rwtree.terms import Abst

    rule = Rule("diff", (PatAbst(x, pvar("v")),), Abst(rx, None, symb("0")), "dconst")
    tree = compile_matrix(from_rules([rule]))
    nodes = [n for _, _, n in iter_tree(tree)]
    cls = [n for n in nodes if type(n) is BinCl]
    assert len(cls) == 1
    assert cls[0].allowed == ()  # no binder admitted
    assert cls[0].restricted == (0,)
    assert type(cls[0].succ) is Leaf
    assert type(cls[0].fail) is Fail


def test_compile_determinism():
    rules = example1_rules()
    t1 = compile_matrix(from_rules(rules))
    t2 = compile_matrix(from_rules(rules))
    assert tree_text(t1) == tree_text(t2)


# ---------------------------------------------------------------------------
# the step rule of compile_matrix


STATE = r"""symbol a; symbol b; symbol k0; symbol f;
rule f a $x (\u, \v, $z[v]) --> $x;
rule f $y k0 b --> b;
"""


def test_compile_switches_on_the_column_with_most_heads_first():
    # column 2 holds two heads and column 1 one, so the root moves column 2
    # to the front and switches on it: naive forces column 2 whenever it
    # finishes, since both rows inspect it and the second starts there
    m = from_rules(example1_rules())
    assert m.positions == ((1,), (2,))
    tree = compile_matrix(m)
    assert type(tree) is Swap and tree.index == 2
    assert type(tree.child) is Switch
    assert list(tree.child.sym_cases) == [("a", 0), ("b", 0)]
    # column 3 holds two heads, but naive never reaches it when the first
    # row fails at column 1, and the second row starts at column 2; so only
    # column 1 qualifies
    tree = EvalContext.from_rules(parse_file(STATE).rules).trees["f"]
    assert type(tree) is Switch
    assert list(tree.sym_cases) == [("a", 0)] and tree.default_case is not None


def test_compile_yields_the_first_unconstrained_wildcard_row():
    # a later row with heads does not make the tree inspect any column
    first = Rule("k", (pvar(None), pvar(None)), symb("0"), "k")
    later = Rule("k", (psym("a"), psym("b")), symb("1"), "kab")
    tree = compile_matrix(from_rules([first, later]))
    assert type(tree) is Leaf and tree.rule is first and tree.env == {}


def test_compile_stores_both_sides_before_the_nl_check():
    tree = compile_matrix(from_rules([nonlinear_rule()]))
    nodes = [n for _, _, n in iter_tree(tree)]
    assert [type(n) for n in nodes] == [Store, Store, BinNl, Leaf, Fail]
    assert [n.index for n in nodes[:2]] == [1, 2]
    assert nodes[2].slots == (0, 1) and nodes[2].formals == ((), ())


def test_compile_stores_a_rhs_variable_before_its_leaf():
    rule = Rule("id", (pvar("x"),), MetaApp("x", ()), "id")
    tree = compile_matrix(from_rules([rule]))
    assert type(tree) is Store and tree.index == 1
    assert type(tree.child) is Leaf and tree.child.env == {"x": (0, ())}


# ---------------------------------------------------------------------------
# one tree per head (EvalContext.from_rules)


def test_trees_grouped_by_head():
    # the rules of both arities share one tree; the subject's second
    # argument is tested for only below s, where the wider rule is next
    r1 = Rule("plus", (psym("0"),), symb("id"), "p0")
    r2 = Rule(
        "plus",
        (psym("s", pvar("n")), pvar("m")),
        MetaApp("m", ()),
        "ps",
    )
    trees = EvalContext.from_rules([r1, r2]).trees
    assert set(trees) == {"plus"}
    root = trees["plus"]
    assert type(root) is Switch and type(root.sym_cases[("0", 0)]) is Leaf
    below_s = root.sym_cases[("s", 1)]
    assert type(below_s) is Eos and below_s.arity == 2
    assert type(below_s.fail) is Fail


def test_trees_empty_ruleset():
    assert EvalContext.from_rules([]).trees == {}


def test_trees_example1_single_group():
    trees = EvalContext.from_rules(example1_rules()).trees
    assert set(trees) == {"f"}


def test_a_head_of_many_arities_compiles_its_rules_once():
    # 200 rules over 20 arities: one tree per arity held 32,911 nodes in
    # all, since each compiled every shorter rule again
    trees = EvalContext.from_rules(parse_file(mixed_arity_source()).rules).trees
    assert list(trees) == ["f"]
    assert sum(1 for _ in iter_tree(trees["f"])) < 16_000


def test_a_single_arity_head_tests_no_argument_count(rng):
    sampler = RuleSampler(rng)
    for _ in range(100):
        rules = sampler.ruleset()
        for head, tree in EvalContext.from_rules(rules).trees.items():
            if len({r.arity for r in rules if r.head == head}) == 1:
                assert all(type(n) is not Eos for _, _, n in iter_tree(tree))


# ---------------------------------------------------------------------------
# structural invariants on random rule sets


def test_store_indices_bounded_on_random_rulesets(rng):
    # every store slot is below the number of saves on the path, and every
    # binder index below the number of lambda cases taken on it
    sampler = RuleSampler(rng)
    for _ in range(150):
        rules = sampler.ruleset()
        for tree in EvalContext.from_rules(rules).trees.values():
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
                elif t is Eos:
                    todo.append((node.succ, stores, lambdas))
                    todo.append((node.fail, stores, lambdas))
                elif t is BinCl:
                    assert node.slot < stores
                    assert all(k < lambdas for k in node.allowed + node.restricted)
                    assert not set(node.allowed) & set(node.restricted)
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
        a = EvalContext.from_rules(rules).trees
        b = EvalContext.from_rules(rules).trees
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
        for tree in EvalContext.from_rules(rules).trees.values():
            for _, _, node in iter_tree(tree):
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
    assert '"fail"' in dot


def test_dot_example1_edges():
    tree = compile_matrix(from_rules(example1_rules()))
    dot = to_dot(tree)
    assert dot.count('label="c/1"') == 2
    assert 'label="a/0"' in dot and 'label="b/0"' in dot


def test_dot_deterministic():
    tree = compile_matrix(from_rules(example1_rules()))
    assert to_dot(tree) == to_dot(tree)


def test_tree_text_mentions_swap_and_cases():
    tree = compile_matrix(from_rules(example1_rules()))
    text = tree_text(tree)
    assert text.splitlines()[0] == "swap 2"
    assert "a/0: " in text and "b/0: " in text


def test_tree_stats():
    tree = compile_matrix(from_rules(example1_rules()))
    stats = tree_stats(tree)
    assert stats["counts"]["leaf"] == 2
    assert stats["counts"]["store"] == 2
    assert stats["store_size"] == 1
    assert stats["depth"] >= 4


def test_a_deep_chain_is_rendered_and_measured_without_recursion():
    # 1,500 Stores over a leaf, deeper than the default recursion limit of
    # 1,000 frames
    tree = Leaf(Rule("f", (), symb("a")), {})
    for _ in range(1500):
        tree = Store(tree)
    stats = tree_stats(tree)
    assert stats == {
        "counts": {"store": 1500, "leaf": 1},
        "depth": 1501,
        "store_size": 1500,
    }
    assert tree_text(tree).splitlines()[-1] == "  " * 1500 + "leaf a"
    dot = to_dot(tree).splitlines()
    assert len(dot) == 2 + 1501 + 1500 + 1
    assert "  n1499 -> n1500;" in dot


def test_dot_escapes_quotes_in_node_and_edge_labels():
    source = 'symbol f; symbol q";\nrule f q" --> q";\n'
    tree = EvalContext.from_rules(parse_file(source).rules).trees["f"]
    dot = to_dot(tree)
    assert '  n0 -> n1 [label="q\\"/0"];' in dot.splitlines()
    assert '  n1 [label="leaf q\\"", shape=ellipse];' in dot.splitlines()


# Golden renderings.  Together these five trees reach every node kind: fib's
# + a storing Switch and a Store of entry 2, hol's d a lambda case, BinCl
# and Fail, hol's sub BinNl, example 1's f a Swap, and mixed's f, whose
# rules have two arities, an Eos.

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

# a wider rule first: naive skips it on one argument without reading any,
# so the tree tests the argument count before it inspects the first
MIXED = "symbol f; symbol a; symbol b; symbol x;\n" + (
    "rule f a b --> x with f $y --> $y;\n"
)

GOLDEN = {
    ("fib", "+"): (
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
  n2 [label="leaf $m {$m<-s1}", shape=ellipse];
  n1 -> n2;
  n0 -> n1 [label="0/0"];
  n3 [label="store"];
  n4 [label="store 2"];
  n5 [label="leaf s (+ $n $m) {$m<-s2, $n<-s1}", shape=ellipse];
  n4 -> n5;
  n3 -> n4;
  n0 -> n3 [label="s/1"];
  n6 [label="switch", shape=circle];
  n7 [label="leaf $m {$m<-s0}", shape=ellipse];
  n6 -> n7 [label="0/0"];
  n8 [label="store"];
  n9 [label="leaf s (+ $m $n) {$m<-s0, $n<-s1}", shape=ellipse];
  n8 -> n9;
  n6 -> n8 [label="s/1"];
  n0 -> n6 [label="*"];
}""",
    ),
    ("hol", "d"): (
        r"""switch
  lambda: store
    closed? s0 within []
      yes: leaf \x, 0
      no: switch
        */2: store
          store 2
            leaf \x, + (* (d (\x', $u[x']) x) $v[x]) (* $u[x] (d (\x', $v[x']) x)) {$u<-s1[0], $v<-s2[0]}
        +/2: store
          store 2
            leaf \x, + (d (\x', $u[x']) x) (d (\x', $v[x']) x) {$u<-s1[0], $v<-s2[0]}
        cos/1: store
          leaf \x, * (neg (sin $u[x])) (d (\x', $u[x']) x) {$u<-s1[0]}
        sin/1: store
          leaf \x, * (cos $u[x]) (d (\x', $u[x']) x) {$u<-s1[0]}""",
        r"""digraph dtree {
  node [shape=box, fontname=monospace];
  n0 [label="switch", shape=circle];
  n1 [label="store"];
  n0 -> n1 [label="lambda"];
  n2 [label="closed? s0 within []"];
  n1 -> n2;
  n3 [label="leaf \\x, 0", shape=ellipse];
  n2 -> n3 [label="yes"];
  n4 [label="switch", shape=circle];
  n2 -> n4 [label="no"];
  n5 [label="store"];
  n4 -> n5 [label="*/2"];
  n6 [label="store 2"];
  n5 -> n6;
  n7 [label="leaf \\x, + (* (d (\\x', $u[x']) x) $v[x]) (* $u[x] (d (\\x', $v[x']) x)) {$u<-s1[0], $v<-s2[0]}", shape=ellipse];
  n6 -> n7;
  n8 [label="store"];
  n4 -> n8 [label="+/2"];
  n9 [label="store 2"];
  n8 -> n9;
  n10 [label="leaf \\x, + (d (\\x', $u[x']) x) (d (\\x', $v[x']) x) {$u<-s1[0], $v<-s2[0]}", shape=ellipse];
  n9 -> n10;
  n11 [label="store"];
  n4 -> n11 [label="cos/1"];
  n12 [label="leaf \\x, * (neg (sin $u[x])) (d (\\x', $u[x']) x) {$u<-s1[0]}", shape=ellipse];
  n11 -> n12;
  n13 [label="store"];
  n4 -> n13 [label="sin/1"];
  n14 [label="leaf \\x, * (cos $u[x]) (d (\\x', $u[x']) x) {$u<-s1[0]}", shape=ellipse];
  n13 -> n14;
}""",
    ),
    ("hol", "sub"): (
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
  n2 [label="eq? s0 s1"];
  n3 [label="leaf 0", shape=ellipse];
  n4 [label="fail", shape=ellipse];
  n2 -> n3 [label="yes"];
  n2 -> n4 [label="no"];
  n1 -> n2;
  n0 -> n1;
}""",
    ),
    ("example1", "f"): (
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
  n5 [label="leaf $x {$x<-s0}", shape=ellipse];
  n4 -> n5;
  n3 -> n4 [label="c/1"];
  n2 -> n3 [label="c/1"];
  n1 -> n2 [label="a/0"];
  n6 [label="store"];
  n7 [label="leaf $x {$x<-s0}", shape=ellipse];
  n6 -> n7;
  n1 -> n6 [label="b/0"];
  n0 -> n1;
}""",
    ),
    ("mixed", "f"): (
        """\
args >= 2?
  yes: switch store
    a/0: switch
      b/0: leaf x
      *: leaf $y {$y<-s0}
    *: leaf $y {$y<-s0}
  no: store
    leaf $y {$y<-s0}""",
        """\
digraph dtree {
  node [shape=box, fontname=monospace];
  n0 [label="args >= 2?"];
  n1 [label="switch store", shape=circle];
  n0 -> n1 [label="yes"];
  n2 [label="switch", shape=circle];
  n1 -> n2 [label="a/0"];
  n3 [label="leaf x", shape=ellipse];
  n2 -> n3 [label="b/0"];
  n4 [label="leaf $y {$y<-s0}", shape=ellipse];
  n2 -> n4 [label="*"];
  n5 [label="leaf $y {$y<-s0}", shape=ellipse];
  n1 -> n5 [label="*"];
  n6 [label="store"];
  n0 -> n6 [label="no"];
  n7 [label="leaf $y {$y<-s0}", shape=ellipse];
  n6 -> n7;
}""",
    ),
}

GOLDEN_SOURCES = {
    "fib": FIB_RULES,
    "hol": HOL_RULES,
    "example1": EXAMPLE1,
    "mixed": MIXED,
}


def _golden_tree(source, head):
    return EvalContext.from_rules(parse_file(GOLDEN_SOURCES[source]).rules).trees[head]


@pytest.mark.parametrize("source,head", sorted(GOLDEN))
def test_rendering_golden(source, head):
    tree = _golden_tree(source, head)
    text, dot = GOLDEN[(source, head)]
    assert tree_text(tree) == text
    # node ids are preorder; only the order of the edge lines may vary
    assert sorted(to_dot(tree).splitlines()) == sorted(dot.splitlines())


def test_golden_trees_reach_every_node_kind():
    nodes = [n for key in GOLDEN for _, _, n in iter_tree(_golden_tree(*key))]
    kinds = {Switch, Swap, Store, BinNl, BinCl, Eos, Leaf, Fail}
    assert {type(n) for n in nodes} == kinds
    assert any(type(n) is Switch and n.store for n in nodes)
    assert any(type(n) is Store and n.index > 1 for n in nodes)
