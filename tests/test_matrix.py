from rwtree.matrix import (
    ClauseMatrix,
    ClauseRow,
    cond_fail,
    cond_succ,
    from_rules,
    specialize,
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
    m = from_rules(rules)
    row1, row2, row3 = m.rows
    # $g[x] at 2.1.1 may use only the binder of the abstraction at 2
    assert row1.constraints == frozenset({((2, 1, 1), frozenset({(2,)}))})
    assert row2.constraints == frozenset({NL_12})
    assert row3.constraints == frozenset()
    # rows keep the rule patterns; the compiler reads only their shape
    assert [row.patterns for row in m.rows] == [r.lhs_args for r in rules]
    assert m.positions == ((1,), (2,))


def test_from_rules_pairs_each_later_occurrence_with_the_first():
    # f $x $x $x $x --> ok: three constraints, as the naive matcher compares
    # each later occurrence with the first binding, not six
    rule = Rule("f", (pvar("x"),) * 4, symb("ok"), "r")
    (row,) = from_rules([rule]).rows
    first = ((1,), ())
    assert row.constraints == {frozenset({first, ((i,), ())}) for i in (2, 3, 4)}


def test_from_rules_names_formals_by_abstraction_position():
    # f (\x, \y, $v[y,x]) $w --> $v[a,b]: the formals of $v are the
    # binders of the abstractions at 1.1 and 1, in argument order
    x, y = fresh_var("x"), fresh_var("y")
    lhs = (PatAbst(x, PatAbst(y, pvar("v", y, x))), pvar("w"))
    rule = Rule("f", lhs, MetaApp("v", (symb("a"), symb("b"))), "r")
    (row,) = from_rules([rule]).rows
    assert row.rule.env == {"v": ((1, 1, 1), ((1, 1), (1,)))}
    assert row.constraints == frozenset()


def test_from_rules_example1_env():
    c = lambda p: psym("c", p)
    r1 = Rule("f", (c(c(pvar("x"))), psym("a")), MetaApp("x", ()), "r1")
    r2 = Rule("f", (pvar("x"), psym("b")), MetaApp("x", ()), "r2")
    m = from_rules([r1, r2])
    row1, row2 = m.rows
    assert row1.constraints == row2.constraints == frozenset()
    assert row1.rule.env == {"x": ((1, 1, 1), ())}
    assert row2.rule.env == {"x": ((1,), ())}


def test_from_rules_single_addition_rule():
    rule = Rule("+", (psym("0"), pvar("m")), MetaApp("m", ()), "add0")
    m = from_rules([rule])
    (row,) = m.rows
    assert row.patterns == (psym("0"), pvar("m"))
    assert row.constraints == frozenset()
    assert row.rule.env == {"m": ((2,), ())}


def test_from_rules_pads_shorter_rows_with_wildcards():
    r1 = Rule("f", (psym("a"),), symb("0"))
    r2 = Rule("f", (pvar("x"), psym("b"), pvar("y")), symb("0"))
    r3 = Rule("f", (pvar("x"), pvar("x")), symb("0"))
    m = from_rules([r1, r2, r3])
    assert m.positions == ((1,), (2,), (3,))
    assert [row.patterns for row in m.rows] == [
        (psym("a"), WILDCARD, WILDCARD),
        r2.lhs_args,
        (pvar("x"), pvar("x"), WILDCARD),
    ]
    assert [row.rule for row in m.rows] == [r1, r2, r3]
    assert m.rows[2].constraints == frozenset({NL_12})


def test_from_rules_nonrestrictive_occurrence_has_no_constraint():
    # $v applied to every binder in scope imposes nothing
    x = fresh_var("x")
    rule = Rule("f", (PatAbst(x, pvar("v", x)),), symb("0"))
    m = from_rules([rule])
    assert m.rows[0].constraints == frozenset()


def test_from_rules_wildcard_under_binder_unconstrained():
    x = fresh_var("x")
    rule = Rule("f", (PatAbst(x, PatVar(None, ())),), symb("0"))
    m = from_rules([rule])
    assert m.rows[0].constraints == frozenset()


# ---------------------------------------------------------------------------
# decomposition operators on the worked four-row matrix


def clause_row(label, *patterns):
    """An unconstrained row for the rule ``f patterns --> r<label>``."""
    rule = Rule("f", patterns, symb("r" + label), label)
    return ClauseRow(patterns, frozenset(), rule)


def decomposition_matrix():
    # rows: (r $x, q) ; (r, f $x) ; ($x, r) ; (\x, $x[x], \x, r)
    x4 = fresh_var("x")
    rows = (
        clause_row("1", psym("r", pvar("x")), psym("q")),
        clause_row("2", psym("r"), psym("f", pvar("x"))),
        clause_row("3", pvar("x"), psym("r")),
        clause_row("4", PatAbst(x4, pvar("x", x4)), PatAbst(fresh_var("x"), psym("r"))),
    )
    return ClauseMatrix(rows, ((1,), (2,))), x4


def test_specialise_golden():
    m, _ = decomposition_matrix()
    cases, _, _ = specialize(m)
    assert list(cases) == [("r", 0), ("r", 1)]
    out = cases["r", 1]
    assert [row.rule.label for row in out.rows] == ["1", "3"]
    assert out.rows[0].patterns == (pvar("x"), psym("q"))
    assert out.rows[1].patterns == (WILDCARD, psym("r"))
    assert out.positions == ((1, 1), (2,))
    out = cases["r", 0]
    assert [row.rule.label for row in out.rows] == ["2", "3"]
    assert out.rows[0].patterns == (psym("f", pvar("x")),)
    assert out.rows[1].patterns == (psym("r"),)
    assert out.positions == ((2,),)
    # a variable row keeps its place among the symbol rows
    out = specialize(ClauseMatrix(m.rows[::-1], m.positions))[0]["r", 1]
    assert [row.rule.label for row in out.rows] == ["3", "1"]


def test_spec_lambda_golden():
    m, x4 = decomposition_matrix()
    _, out, _ = specialize(m)
    assert [row.rule.label for row in out.rows] == ["3", "4"]
    assert out.rows[0].patterns == (WILDCARD, psym("r"))
    assert out.rows[1].patterns[0] == pvar("x", x4)
    assert type(out.rows[1].patterns[1]) is PatAbst
    # the body takes the abstraction's place, one level down
    assert out.positions == ((1, 1), (2,))


def test_spec_default_golden():
    m, _ = decomposition_matrix()
    _, _, out = specialize(m)
    assert [row.rule.label for row in out.rows] == ["3"]
    assert out.rows[0].patterns == (psym("r"),)
    assert out.positions == ((2,),)


def test_specialise_no_matching_symbol():
    m, _ = decomposition_matrix()
    assert ("zzz", 0) not in specialize(m)[0]
    # only the wildcard and abstraction rows: no symbol case at all
    assert specialize(ClauseMatrix((m.rows[2], m.rows[3]), m.positions))[0] == {}
    # only symbol rows: neither an abstraction case nor a default case
    _, lam, default = specialize(ClauseMatrix((m.rows[0], m.rows[1]), m.positions))
    assert lam is None and default is None


def test_specialise_unrolls_nested_application():
    row = clause_row("", psym("c", psym("c", WILDCARD)))
    (out,) = specialize(ClauseMatrix((row,), ((3, 2),)))[0].values()
    assert out.rows[0].patterns == (psym("c", WILDCARD),)
    assert out.positions == ((3, 2, 1),)


# ---------------------------------------------------------------------------
# constraint operators


def test_cond_succ_removes_pair():
    rules, _ = constraint_example_rules()
    m = from_rules(rules)
    out = cond_succ(NL_12, m)
    assert out.rows[1].constraints == frozenset()
    assert [row.rule.label for row in out.rows] == ["r1", "r2", "r3"]


def test_cond_fail_drops_constrained_row():
    rules, _ = constraint_example_rules()
    m = from_rules(rules)
    out = cond_fail(NL_12, m)
    assert [row.rule.label for row in out.rows] == ["r1", "r3"]


def test_cond_succ_and_fail_take_a_cl_key_the_same_way():
    rules, _ = constraint_example_rules()
    m = from_rules(rules)
    key = ((2, 1, 1), frozenset({(2,)}))
    assert [row.constraints for row in cond_succ(key, m).rows] == [
        frozenset(),
        frozenset({NL_12}),
        frozenset(),
    ]
    assert [row.rule.label for row in cond_fail(key, m).rows] == ["r2", "r3"]


def test_cond_succ_no_constraints_is_identity():
    rule = Rule("+", (psym("0"), pvar("m")), MetaApp("m", ()), "add0")
    m = from_rules([rule])
    out = cond_succ(NL_12, m)
    assert [r.patterns for r in out.rows] == [r.patterns for r in m.rows]
    assert [r.constraints for r in out.rows] == [r.constraints for r in m.rows]


def test_cond_succ_idempotent():
    rules, _ = constraint_example_rules()
    m = from_rules(rules)
    once = cond_succ(NL_12, m)
    assert once.rows[1].constraints == frozenset()
    twice = cond_succ(NL_12, once)
    assert [r.constraints for r in once.rows] == [r.constraints for r in twice.rows]


# ---------------------------------------------------------------------------
# structural properties


def test_row_partition():
    m, _ = decomposition_matrix()
    cases, lam, default = specialize(m)
    landed = {src: 0 for src in "1234"}
    for case in [*cases.values(), lam, default]:
        for row in case.rows:
            landed[row.rule.label] += 1
    # wildcard rows land everywhere: every symbol case, the lambda case and
    # the default; symbol and abstraction rows land exactly once
    assert landed["1"] == 1 and landed["2"] == 1 and landed["4"] == 1
    assert landed["3"] == len(cases) + 2


def test_width_arithmetic():
    # one position per column after every operator; swap moves the
    # position with its column
    m, _ = decomposition_matrix()
    cases, lam, default = specialize(m)
    outs = [*cases.values(), lam, default, swap_columns(m, 2)]
    for out in outs:
        assert all(len(row.patterns) == len(out.positions) for row in out.rows)
    wide = clause_row("5", psym("r", pvar("x"), pvar("y")), psym("q"))
    cases, _, _ = specialize(ClauseMatrix(m.rows + (wide,), m.positions))
    assert cases["r", 2].positions == ((1, 1), (1, 2), (2,))
    assert cases["r", 0].positions == ((2,),)
    swapped = swap_columns(m, 2)
    assert swapped.positions == ((2,), (1,))
    assert [row.patterns[0] for row in swapped.rows] == [
        row.patterns[1] for row in m.rows
    ]
