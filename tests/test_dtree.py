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
    erase_stores,
    iter_tree,
    to_dot,
    tree_equal,
    tree_stats,
    tree_text,
    trees_of_ruleset,
)
from rwtree.matrix import ClauseMatrix, from_rules
from rwtree.patterns import PatAbst, PatSymb, PatVar, Rule
from rwtree.terms import MetaApp, fresh_var, symb

from genlib import RuleSampler


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
    assert type(compile_matrix(ClauseMatrix((), 0))) is Fail


def test_compile_example1_shape():
    tree = compile_matrix(from_rules("f", example1_rules()))
    bare = erase_stores(tree)
    assert type(bare) is Swap and bare.index == 2
    sw = bare.child
    assert type(sw) is Switch
    assert list(sw.sym_cases) == [("a", 0), ("b", 0)]
    assert sw.lam_case is None and sw.default_case is None
    a_branch = sw.sym_cases[("a", 0)]
    assert type(a_branch) is Switch and list(a_branch.sym_cases) == [("c", 1)]
    inner = a_branch.sym_cases[("c", 1)]
    assert type(inner) is Switch and list(inner.sym_cases) == [("c", 1)]
    assert type(inner.sym_cases[("c", 1)]) is Leaf
    assert type(sw.sym_cases[("b", 0)]) is Leaf


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
    assert tree_equal(t1, t2)


def test_left_right_heuristic_differs():
    rules = example1_rules()
    default = compile_matrix(from_rules("f", rules))
    lr = compile_matrix(from_rules("f", rules), heuristic="left-right")
    assert not tree_equal(default, lr)
    assert type(erase_stores(lr)) is Switch  # column one first: no swap


# ---------------------------------------------------------------------------
# choose_action


def test_choose_action_example1_picks_column_two():
    m = from_rules("f", example1_rules())
    st = CompileState(((1,), (2,)))
    assert choose_action(m, st) == ("specialize", 2)


def test_choose_action_yields_unconstrained_row():
    rule = Rule("k", (pvar(None), pvar(None)), symb("0"), "k")
    m = from_rules("k", [rule])
    st = CompileState(((1,), (2,)))
    assert choose_action(m, st) == ("yield", 0)


def test_choose_action_solves_nl_after_stores():
    m = from_rules("eq", [nonlinear_rule()])
    st = CompileState(((1,), (2,)), 2, {(1,): 0, (2,): 1})
    kind, key = choose_action(m, st)
    assert kind == "solve_nl"
    assert key == frozenset({(1,), (2,)})


def test_choose_action_forces_store_for_env():
    rule = Rule("id", (pvar("x"),), MetaApp("x", ()), "id")
    m = from_rules("id", [rule])
    st = CompileState(((1,),))
    assert choose_action(m, st) == ("store", 1)
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


def _switch_children(node):
    out = list(node.sym_cases.values())
    if node.lam_case is not None:
        out.append(node.lam_case)
    if node.default_case is not None:
        out.append(node.default_case)
    return out


def test_store_indices_bounded_on_random_rulesets(rng):
    sampler = RuleSampler(rng)
    for _ in range(150):
        rules = sampler.ruleset()
        for tree in trees_of_ruleset(rules).values():
            todo = [(tree, 0)]
            while todo:
                node, stores = todo.pop()
                t = type(node)
                if t is Store:
                    todo.append((node.child, stores + 1))
                elif t is Swap:
                    todo.append((node.child, stores))
                elif t is Switch:
                    below = stores + node.store
                    todo.extend((c, below) for c in _switch_children(node))
                elif t is BinNl:
                    assert max(node.slots) < stores
                    todo.append((node.succ, stores))
                    todo.append((node.fail, stores))
                elif t is BinCl:
                    assert node.slot < stores
                    todo.append((node.succ, stores))
                    todo.append((node.fail, stores))
                elif t is Leaf:
                    for slot, _sel in node.env.values():
                        assert slot < stores


def test_compile_deterministic_on_random_rulesets(rng):
    sampler = RuleSampler(rng)
    for _ in range(60):
        rules = sampler.ruleset()
        a = trees_of_ruleset(rules)
        b = trees_of_ruleset(rules)
        assert set(a) == set(b)
        for key in a:
            assert tree_equal(a[key], b[key])


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
    dot = to_dot(compile_matrix(ClauseMatrix((), 0)))
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
