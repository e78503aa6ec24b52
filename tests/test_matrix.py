import pytest

from rwtree.matrix import (
    ClauseMatrix,
    ClauseRow,
    cond_fail,
    cond_succ,
    from_rules,
    spec_default,
    spec_lambda,
    spec_symbols,
    swap_columns,
)
from rwtree.patterns import PatAbst, PatSymb, PatVar, Rule, WILDCARD
from rwtree.terms import MetaApp, fresh_var, symb


def pvar(name, *args):
    return PatVar(name, tuple(args))


def psym(name, *args):
    return PatSymb(name, tuple(args))


# ---------------------------------------------------------------------------
# from_rules encodings


def constraint_example_rules():
    # f a (\x, \y, $g[x]) --> 0 ; f $x $x --> 1 ; f a b --> 2
    x, y = fresh_var("x"), fresh_var("y")
    r1 = Rule("f", (psym("a"), PatAbst(x, PatAbst(y, pvar("g", x)))), symb("0"), "r1")
    r2 = Rule("f", (pvar("x"), pvar("x")), symb("1"), "r2")
    r3 = Rule("f", (psym("a"), psym("b")), symb("2"), "r3")
    return [r1, r2, r3], x


# the repeated-variable key of $x at 1 and at 2, neither under a binder
NL_12 = frozenset({((1,), ()), ((2,), ())})


def test_from_rules_constraint_encoding():
    rules, x = constraint_example_rules()
    m = from_rules("f", rules)
    row1, row2, row3 = m.rows
    # $g[x] at 2.1.1 may use only the binder of the abstraction at 2
    assert row1.cl == frozenset({((2, 1, 1), frozenset({(2,)}))})
    assert row1.nl == frozenset()
    assert row2.nl == frozenset({NL_12})
    assert row2.cl == frozenset()
    assert row3.nl == frozenset() and row3.cl == frozenset()
    # rows keep the rule patterns; the compiler reads only their shape
    assert [row.patterns for row in m.rows] == [r.lhs_args for r in rules]
    assert m.positions == ((1,), (2,))


def test_from_rules_names_formals_by_abstraction_position():
    # f (\x, \y, $v[y,x]) $w --> $v[a,b]: the formals of $v are the
    # binders of the abstractions at 1.1 and 1, in argument order
    x, y = fresh_var("x"), fresh_var("y")
    lhs = (PatAbst(x, PatAbst(y, pvar("v", y, x))), pvar("w"))
    rule = Rule("f", lhs, MetaApp("v", (symb("a"), symb("b"))), "r")
    (row,) = from_rules("f", [rule]).rows
    assert row.env == {"v": ((1, 1, 1), ((1, 1), (1,)))}
    assert row.cl == frozenset()


def test_from_rules_example1_env():
    c = lambda p: psym("c", p)
    r1 = Rule("f", (c(c(pvar("x"))), psym("a")), MetaApp("x", ()), "r1")
    r2 = Rule("f", (pvar("x"), psym("b")), MetaApp("x", ()), "r2")
    m = from_rules("f", [r1, r2])
    row1, row2 = m.rows
    assert row1.nl == row2.nl == frozenset()
    assert row1.cl == row2.cl == frozenset()
    assert row1.env == {"x": ((1, 1, 1), ())}
    assert row2.env == {"x": ((1,), ())}


def test_from_rules_single_addition_rule():
    rule = Rule("+", (psym("0"), pvar("m")), MetaApp("m", ()), "add0")
    m = from_rules("+", [rule])
    (row,) = m.rows
    assert row.patterns == (psym("0"), pvar("m"))
    assert row.nl == frozenset() and row.cl == frozenset()
    assert row.env == {"m": ((2,), ())}


def test_from_rules_arity_mismatch():
    r1 = Rule("f", (pvar("x"),), symb("0"))
    r2 = Rule("f", (pvar("x"), pvar("y")), symb("0"))
    with pytest.raises(ValueError):
        from_rules("f", [r1, r2])


def test_from_rules_nonrestrictive_occurrence_has_no_constraint():
    # $v applied to every binder in scope imposes nothing
    x = fresh_var("x")
    rule = Rule("f", (PatAbst(x, pvar("v", x)),), symb("0"))
    m = from_rules("f", [rule])
    assert m.rows[0].cl == frozenset()


def test_from_rules_wildcard_under_binder_unconstrained():
    x = fresh_var("x")
    rule = Rule("f", (PatAbst(x, PatVar(None, ())),), symb("0"))
    m = from_rules("f", [rule])
    assert m.rows[0].cl == frozenset()


# ---------------------------------------------------------------------------
# decomposition operators on the worked four-row matrix


def decomposition_matrix():
    # rows: (r $x, q) ; (r, f $x) ; ($x, r) ; (\x, $x[x], \x, r)
    x4 = fresh_var("x")
    rows = (
        ClauseRow((psym("r", pvar("x")), psym("q")), rhs=symb("r1"), source="1"),
        ClauseRow((psym("r"), psym("f", pvar("x"))), rhs=symb("r2"), source="2"),
        ClauseRow((pvar("x"), psym("r")), rhs=symb("r3"), source="3"),
        ClauseRow(
            (PatAbst(x4, pvar("x", x4)), PatAbst(fresh_var("x"), psym("r"))),
            rhs=symb("r4"),
            source="4",
        ),
    )
    return ClauseMatrix(rows, ((1,), (2,))), x4


def test_specialise_golden():
    m, _ = decomposition_matrix()
    cases = spec_symbols(m)
    assert list(cases) == [("r", 0), ("r", 1)]
    out = cases["r", 1]
    assert [row.source for row in out.rows] == ["1", "3"]
    assert out.rows[0].patterns == (pvar("x"), psym("q"))
    assert out.rows[1].patterns == (WILDCARD, psym("r"))
    assert out.positions == ((1, 1), (2,))
    out = cases["r", 0]
    assert [row.source for row in out.rows] == ["2", "3"]
    assert out.rows[0].patterns == (psym("f", pvar("x")),)
    assert out.rows[1].patterns == (psym("r"),)
    assert out.positions == ((2,),)
    # a variable row keeps its place among the symbol rows
    out = spec_symbols(ClauseMatrix(m.rows[::-1], m.positions))["r", 1]
    assert [row.source for row in out.rows] == ["3", "1"]


def test_spec_lambda_golden():
    m, x4 = decomposition_matrix()
    out = spec_lambda(m)
    assert [row.source for row in out.rows] == ["3", "4"]
    assert out.rows[0].patterns == (WILDCARD, psym("r"))
    assert out.rows[1].patterns[0] == pvar("x", x4)
    assert type(out.rows[1].patterns[1]) is PatAbst
    # the body takes the abstraction's place, one level down
    assert out.positions == ((1, 1), (2,))


def test_spec_default_golden():
    m, _ = decomposition_matrix()
    out = spec_default(m)
    assert [row.source for row in out.rows] == ["3"]
    assert out.rows[0].patterns == (psym("r"),)
    assert out.positions == ((2,),)


def test_specialise_no_matching_symbol():
    m, _ = decomposition_matrix()
    assert ("zzz", 0) not in spec_symbols(m)
    # only the wildcard and abstraction rows: no symbol case at all
    assert spec_symbols(ClauseMatrix((m.rows[2], m.rows[3]), m.positions)) == {}
    out2 = spec_default(ClauseMatrix((m.rows[0], m.rows[1]), m.positions))
    assert out2.rows == ()
    assert out2.positions == ((2,),)


def test_specialise_unrolls_nested_application():
    row = ClauseRow((psym("c", psym("c", WILDCARD)),), rhs=symb("r"))
    (out,) = spec_symbols(ClauseMatrix((row,), ((3, 2),))).values()
    assert out.rows[0].patterns == (psym("c", WILDCARD),)
    assert out.positions == ((3, 2, 1),)


# ---------------------------------------------------------------------------
# constraint operators


def test_cond_succ_removes_pair():
    rules, _ = constraint_example_rules()
    m = from_rules("f", rules)
    out = cond_succ(NL_12, m)
    assert out.rows[1].nl == frozenset()
    assert [row.source for row in out.rows] == ["r1", "r2", "r3"]


def test_cond_fail_drops_constrained_row():
    rules, _ = constraint_example_rules()
    m = from_rules("f", rules)
    out = cond_fail(NL_12, m)
    assert [row.source for row in out.rows] == ["r1", "r3"]


def test_cond_succ_and_fail_take_a_cl_key_the_same_way():
    rules, _ = constraint_example_rules()
    m = from_rules("f", rules)
    key = ((2, 1, 1), frozenset({(2,)}))
    assert [row.cl for row in cond_succ(key, m).rows] == [frozenset()] * 3
    assert [row.source for row in cond_fail(key, m).rows] == ["r2", "r3"]


def test_cond_succ_no_constraints_is_identity():
    rule = Rule("+", (psym("0"), pvar("m")), MetaApp("m", ()), "add0")
    m = from_rules("+", [rule])
    out = cond_succ(NL_12, m)
    assert [r.patterns for r in out.rows] == [r.patterns for r in m.rows]
    assert [r.nl for r in out.rows] == [r.nl for r in m.rows]


def test_cond_succ_idempotent():
    rules, _ = constraint_example_rules()
    m = from_rules("f", rules)
    once = cond_succ(NL_12, m)
    assert once.rows[1].nl == frozenset()
    twice = cond_succ(NL_12, once)
    assert [r.nl for r in once.rows] == [r.nl for r in twice.rows]
    assert [r.cl for r in once.rows] == [r.cl for r in twice.rows]


# ---------------------------------------------------------------------------
# structural properties


def test_row_partition():
    m, _ = decomposition_matrix()
    cases = spec_symbols(m)
    landed = {src: 0 for src in "1234"}
    for case in cases.values():
        for row in case.rows:
            landed[row.source] += 1
    for row in spec_lambda(m).rows:
        landed[row.source] += 1
    for row in spec_default(m).rows:
        landed[row.source] += 1
    # wildcard rows land everywhere: every symbol case, the lambda case and
    # the default; symbol and abstraction rows land exactly once
    assert landed["1"] == 1 and landed["2"] == 1 and landed["4"] == 1
    assert landed["3"] == len(cases) + 2


def test_width_arithmetic():
    # one position per column after every operator; swap moves the
    # position with its column
    m, _ = decomposition_matrix()
    outs = [
        *spec_symbols(m).values(),
        spec_lambda(m),
        spec_default(m),
        swap_columns(m, 2),
    ]
    for out in outs:
        assert all(len(row.patterns) == len(out.positions) for row in out.rows)
    wide = ClauseRow((psym("r", pvar("x"), pvar("y")), psym("q")), rhs=symb("r5"))
    cases = spec_symbols(ClauseMatrix(m.rows + (wide,), m.positions))
    assert cases["r", 2].positions == ((1, 1), (1, 2), (2,))
    assert cases["r", 0].positions == ((2,),)
    swapped = swap_columns(m, 2)
    assert swapped.positions == ((2,), (1,))
    assert [row.patterns[0] for row in swapped.rows] == [
        row.patterns[1] for row in m.rows
    ]
