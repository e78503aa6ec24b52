import ast
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwtree import syntax
from rwtree.engine import EvalContext
from rwtree.patterns import PatAbst, PatSymb, PatVar, RuleSetError
from rwtree.syntax import (
    Assert,
    Compute,
    ParseError,
    ScopeError,
    parse_file,
    print_term,
    tokenize,
)
from rwtree.terms import (
    PI,
    Abst,
    App,
    MetaApp,
    Prod,
    Sort,
    alpha_eq,
    fresh_var,
    symb,
)

from genlib import parse_term

SCOPE = {name: symb(name) for name in ["f", "g", "c", "a", "b", "e", "+", "0", "s"]}


# ---------------------------------------------------------------------------
# terms


def test_parse_application_left_nested():
    t = parse_term("f a b", SCOPE)
    assert isinstance(t, App)
    assert isinstance(t.fn, App)
    assert t.fn.fn is symb("f")


def test_parse_lambda_body_extends_right():
    t = parse_term("\\x, f x x", SCOPE)
    assert isinstance(t, Abst)
    body = t.body
    assert isinstance(body, App)
    assert body.arg is t.var


def test_parse_unicode_lambda_and_dot():
    t1 = parse_term("λx, x", SCOPE)
    t2 = parse_term("\\x. x", SCOPE)
    assert alpha_eq(t1, t2)


def test_parse_sorts_and_products():
    t = parse_term("Πx : f, g", SCOPE)
    # the symbol Π applied to the domain and an abstraction over the codomain
    assert alpha_eq(t, App(App(PI, symb("f")), Abst(fresh_var("x"), None, symb("g"))))
    assert isinstance(parse_term("TYPE", SCOPE), Sort)
    assert isinstance(parse_term("KIND", SCOPE), Sort)


def test_parse_undeclared_identifier():
    with pytest.raises(ScopeError):
        parse_term("nope", SCOPE)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_term("f (a", SCOPE)
    assert "expected" in str(exc.value)


def test_parse_pattern_vars_only_in_rules():
    with pytest.raises(ParseError):
        parse_term("$x", SCOPE)


def test_parse_unicode_identifiers():
    scope = {"ℕ": symb("ℕ"), "+": symb("+")}
    t = parse_term("+ ℕ ℕ", scope)
    assert isinstance(t, App)


def _calls(path: Path) -> dict[str, set[str]]:
    """For each function and method defined in the module at ``path``, the
    names of the module's own functions and methods that it calls (by name,
    so a method counts as called wherever an attribute of its name is)."""
    defs = [
        node
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name != "__init__"
    ]
    names = {d.name for d in defs}
    calls: dict[str, set[str]] = {name: set() for name in names}
    for d in defs:
        for node in ast.walk(d):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if callee in names:
                    calls[d.name].add(callee)
    return calls


def test_nothing_in_the_syntax_module_recurses():
    # so no input depth reaches the Python recursion limit in the parser or
    # the printer: no function is on a cycle of calls
    calls = _calls(Path(syntax.__file__))
    assert {"parse_file", "term", "patterns", "file", "print_term"} <= set(calls)
    for start in calls:
        seen, todo = set(), list(calls[start])
        while todo:
            name = todo.pop()
            assert name != start, f"{start} can call itself"
            if name not in seen:
                seen.add(name)
                todo.extend(calls[name])


# ---------------------------------------------------------------------------
# tokens and error positions


def test_tokenize_golden():
    # every token kind: a comment cut inside a word, a lone and an inner
    # slash, both arrows, ==, the three binder signs, every one-character
    # delimiter, a tab, a CRLF line end and a non-breaking space
    src = (
        "symbol f// c\n/ a/b --> ↪ == \\ λ Π x(y)[z],;:.$\tw\r\n"
        "k\xa0m-->n a↪b"
    )
    assert tokenize(src) == [
        "symbol", "f", "/", "a/b", "-->", "↪", "==", "\\", "λ", "Π",
        "x", "(", "y", ")", "[", "z", "]", ",", ";", ":", ".", "$", "w",
        "k", "m-->n", "a", "↪", "b", "",
    ]  # fmt: skip


# the regex tokenizer that the str.split scanner replaced, kept as the
# reference: a token is a delimiter or a run of other non-whitespace
# characters, ``//`` starts a comment, and lines end at "\n" only
_REF_DELIMITERS = re.escape("()[],;:.$\\λΠ↪")
_REF_TOKEN = re.compile(f"[{_REF_DELIMITERS}]|[^\\s{_REF_DELIMITERS}]+")


def reference_scan(text):
    """Tokens, each line's first token index, and each token's line and
    column, the end-of-file sentinel last."""
    toks, line_starts, places = [], [], []
    for n, line in enumerate(text.split("\n"), start=1):
        code = re.sub("//.*", "", line)
        line_starts.append(len(toks))
        for m in _REF_TOKEN.finditer(code):
            toks.append(m.group())
            places.append((n, m.start() + 1))
    return toks + [""], line_starts, places + [(n, len(code) + 1)]


# every delimiter, names, both multi-character words, comments, and line
# ends and whitespace that a space-only split or a "\r"-aware line split
# would get wrong
TOKEN_PIECES = [
    *"()[],;:.$\\λΠ↪", "f", "ab", "+", "/", "-", "=", "-->", "==", "//", "// x",
    " ", "\n", "\r\n", "\t", "\xa0", "\x0c", "\x1c", "\u2028",
]  # fmt: skip


@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=40).map("".join))
@settings(max_examples=400)
def test_scan_agrees_with_the_regex_tokenizer(text):
    toks, line_starts, places = reference_scan(text)
    assert tokenize(text) == toks
    assert syntax._scan(text)[1] == line_starts
    parser = syntax._Parser(text)
    assert [parser.where(i) for i in range(len(toks))] == places


@pytest.mark.parametrize(
    "src, lines, labels",
    [
        (
            "symbol f; symbol a;\r\nrule f a --> a;\r\ncompute f a;\r\n"
            "assert f a == a;\r\n",
            ["compute", 4],
            ["f@2"],
        ),
        (
            "// header\n\nsymbol f; symbol a;\n  \t\n// rule f a --> a;\n"
            "compute\n  f a;\n\n//\nassert a\n== a;\n",
            ["compute", 10],
            [],
        ),
        (
            "symbol f; symbol a;\nrule f\n  a\n  --> a\nwith\n  f (f a)\n"
            "  --> a;\ncompute f a;",
            ["compute"],
            ["f@2", "f@6"],
        ),
        (
            "symbol f; symbol a; symbol b;\nrule f(a)b↪a;compute f(a)b;\n"
            "assert(f a)== a;rule f(b)a --> b;",
            ["compute", 3],
            ["f@2", "f@3"],
        ),
        ("symbol f; symbol a;\ncompute f a;\nrule f a --> a;", ["compute"], ["f@3"]),
    ],
    ids=["crlf", "blank-and-comment-lines", "block-over-lines", "glued", "no-final-newline"],
)
def test_item_lines_and_rule_labels(src, lines, labels):
    # the directives in text order, a compute as such and an assert as its
    # line, and the rule labels, which carry the line of each rule
    source = parse_file(src)
    items = [i.line if type(i) is Assert else "compute" for i in source.items]
    assert items == lines
    assert [r.label for r in source.rules] == labels


@pytest.mark.parametrize(
    "src, error, message",
    [
        (
            "symbol f; symbol a;\ncompute f (a;",
            ParseError,
            "2:13: expected ')', found ';'",
        ),
        ("symbol a;\ncompute ((a;", ParseError, "2:12: expected ')', found ';'"),
        (
            "// header\nsymbol f;\ncompute f zz;",
            ScopeError,
            "3:11: undeclared identifier 'zz'",
        ),
        (
            "symbol f;\n\t\tcompute f zz;",
            ScopeError,
            "2:13: undeclared identifier 'zz'",
        ),
        (
            "symbol f;\r\ncompute\xa0f zz;",
            ScopeError,
            "2:11: undeclared identifier 'zz'",
        ),
        (
            "symbol f;\nrule f (\\x, $u[y]) --> f (\\x, $u[x]);",
            ScopeError,
            "2:16: undeclared identifier 'y'",
        ),
        ("symbol a;\n  symbol a;", ParseError, "2:3: symbol 'a' redeclared"),
        (
            "symbol f; symbol a;\nrule f a --> a\n  with f (\\x, x) --> a;",
            ParseError,
            "3:8: bare bound variable 'x' in a pattern; "
            "apply a pattern variable to it instead",
        ),
        # the column of the end of file is where the trailing comment starts
        (
            "symbol f;\ncompute f // done",
            ParseError,
            "2:11: expected ';', found ''",
        ),
        (
            "symbol f;\ncompute \\x f;",
            ParseError,
            "2:12: expected ',' or '.' after binder",
        ),
        ("symbol f;\ncompute _;", ParseError, "2:9: wildcard outside a rule"),
        ("symbol f;\ncompute ;", ParseError, "2:9: expected a term"),
        (
            "symbol f;\n(f);",
            ParseError,
            "2:1: expected a declaration, rule or directive",
        ),
        ("symbol f;\nfoo f;", ParseError, "2:1: unknown item 'foo'"),
        (
            "symbol a;\nrule $x --> a;",
            ParseError,
            "2:6: rule left-hand side must apply a symbol",
        ),
        (
            "symbol f; symbol a;\nrule f ($x a) --> a;",
            ParseError,
            "2:6: unsupported pattern shape",
        ),
        # a product is the symbol Π applied, which no rule may match or define
        (
            "symbol f; symbol a;\nrule f (Πx : a, a) --> a;",
            ParseError,
            "2:6: unsupported pattern shape",
        ),
        (
            "symbol a;\nrule Πx : a, a --> a;",
            ParseError,
            "2:6: rule left-hand side must apply a symbol",
        ),
        ("symbol a", ParseError, "1:9: expected ';', found ''"),
        (
            "symbol f; symbol a;\nrule f a a;",
            ParseError,
            "2:11: expected rule arrow, found ';'",
        ),
        (
            "symbol f; symbol a;\nassert f a f;",
            ParseError,
            "2:13: expected '==', found ';'",
        ),
    ],
    ids=[
        "missing-paren",
        "missing-parens",
        "after-comment-line",
        "after-tabs",
        "after-crlf-and-nbsp",
        "unbound-formal",
        "redeclared",
        "second-rule-of-block",
        "eof-after-comment",
        "binder-without-dot",
        "wildcard-outside-rule",
        "missing-term",
        "unknown-start",
        "unknown-item",
        "lhs-not-applied",
        "applied-pattern-variable",
        "product-pattern",
        "product-lhs",
        "eof-after-declaration",
        "missing-rule-arrow",
        "missing-assert-equals",
    ],
)
def test_error_positions(src, error, message):
    with pytest.raises(error) as exc:
        parse_file(src)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "src, message",
    [
        # each was read as a declared symbol, an unused binder or a sort
        ("symbol TYPE; compute TYPE;", "1:8: expected symbol name"),
        ("symbol f; compute \\TYPE, f TYPE;", "1:20: expected binder name"),
        (
            "symbol KIND; symbol f; rule f KIND --> KIND;",
            "1:8: expected symbol name",
        ),
    ],
    ids=["declared", "binder", "pattern"],
)
def test_sort_names_are_reserved(src, message):
    with pytest.raises(ParseError) as exc:
        parse_file(src)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# files


EXAMPLE1 = """
// the two-rule dispatch example
symbol f; symbol c; symbol a; symbol b; symbol e;
rule f (c (c $x)) a --> $x
with f $x       b --> $x;
compute f (c (c e)) b; // a comment in mid-line: rule f --> ; compute
rule f e e --> e;
assert f e e == e;//
"""


def test_parse_file_example1():
    source = parse_file(EXAMPLE1)
    compute, check = source.items
    assert type(compute) is Compute and type(check) is Assert
    assert print_term(compute.term) == "f (c (c e)) b"
    assert check.line == 8
    rules = source.rules
    assert [r.label for r in rules] == ["f@4", "f@5", "f@7"]
    assert rules[0].head == "f"
    assert rules[0].arity == 2
    assert isinstance(rules[0].lhs_args[0], PatSymb)
    assert isinstance(rules[1].lhs_args[0], PatVar)


def test_parse_rule_prefix_addition():
    src = parse_file("symbol + ; symbol 0; symbol s;\nrule + 0 $m --> $m;")
    (rule,) = src.rules
    assert rule.head == "+"
    assert rule.lhs_args[0] == PatSymb("0", ())
    assert rule.lhs_args[1] == PatVar("m", ())
    assert rule.rhs == MetaApp("m", ()) or isinstance(rule.rhs, MetaApp)


def test_parse_rule_unicode_arrow():
    src = parse_file("symbol f; symbol a;\nrule f $x ↪ a;")
    assert src.rules[0].head == "f"


def test_parse_lambda_pattern():
    src = parse_file("symbol diff; symbol 0;\nrule diff (\\x, $v) --> \\x, 0;")
    (rule,) = src.rules
    pat = rule.lhs_args[0]
    assert isinstance(pat, PatAbst)
    assert isinstance(pat.body, PatVar)
    assert isinstance(rule.rhs, Abst)


def test_parse_pattern_variable_arguments():
    src = parse_file(
        "symbol diff; symbol sin;\n"
        "rule diff (\\x, sin $v[x]) --> diff (\\x, $v[x]);"
    )
    (rule,) = src.rules
    inner = rule.lhs_args[0].body
    assert isinstance(inner, PatSymb)
    (pv,) = inner.args
    assert pv.name == "v"
    assert len(pv.args) == 1


def test_parse_rejects_unbound_rhs_variable():
    # parse_file only parses; the rules are validated where a context is set up
    src = parse_file("symbol f;\nrule f $x --> $y;")
    with pytest.raises(RuleSetError):
        EvalContext.from_rules(src.rules)


def test_parse_rejects_bare_binder_in_pattern():
    with pytest.raises(ParseError):
        parse_file("symbol f;\nrule f (\\x, x) --> f (\\x, $v[x]);")


def test_parse_rejects_undeclared_symbol_in_rule():
    with pytest.raises(ScopeError):
        parse_file("symbol f;\nrule f zz --> zz;")


def test_parse_symbol_with_type_annotation():
    # a declaration leaves no item, only its name in scope
    src = parse_file("symbol N : TYPE; symbol s : N;\ncompute s N;")
    (item,) = src.items
    assert alpha_eq(item.term, App(symb("s"), symb("N")))
    # the annotation is dropped, but still scope-checked
    with pytest.raises(ScopeError):
        parse_file("symbol s : N;")


def test_parse_assert_directive():
    src = parse_file("symbol a;\nassert a == a;")
    item = src.items[-1]
    assert isinstance(item, Assert)


def test_parse_redeclaration_rejected():
    with pytest.raises(ParseError):
        parse_file("symbol a; symbol a;")


def test_wildcard_in_lhs_ok_rhs_rejected():
    src = parse_file("symbol f; symbol k;\nrule f _ --> k;")
    assert isinstance(src.rules[0].lhs_args[0], PatVar)
    assert src.rules[0].lhs_args[0].name is None
    src = parse_file("symbol f; symbol k;\nrule f $x --> _;")
    with pytest.raises(RuleSetError):
        EvalContext.from_rules(src.rules)


def test_rules_sharing_a_label_keep_every_violation():
    # both rules of the block are labelled f@2
    src = parse_file("symbol f; symbol k;\nrule f $x --> $y with f k --> $z;")
    with pytest.raises(RuleSetError) as e:
        EvalContext.from_rules(src.rules)
    assert e.value.violations == {
        "f@2": ["unbound rhs variable $y", "unbound rhs variable $z"]
    }


# ---------------------------------------------------------------------------
# printing


def test_print_round_trip_simple():
    t = parse_term("f (c (c e)) b", SCOPE)
    assert alpha_eq(parse_term(print_term(t), SCOPE), t)


def test_print_parenthesizes_arguments():
    t = parse_term("f (g a) (\\x, x)", SCOPE)
    s = print_term(t)
    assert s == "f (g a) (\\x, x)"


def test_print_parenthesizes_products():
    s = "f (Πx : g a, x) (Πy : (Πz : a, z), y) (\\x, Πy : x, y)"
    assert print_term(parse_term(s, SCOPE)) == s


def test_print_a_metavariable_applied_to_two_binders():
    # a right-hand side is printed in a tree's leaf text
    src = "symbol f;\nrule f (\\x, \\y, $u[x, y]) --> f (\\y, \\x, $u[x, y]);"
    (rule,) = parse_file(src).rules
    assert print_term(rule.rhs) == "f (\\y, \\x, $u[x,y])"


def test_print_binder_collision_primed():
    # two distinct binders sharing a display name must not capture
    x1, x2 = fresh_var("x"), fresh_var("x")
    t = Abst(x1, None, Abst(x2, None, x1))
    s = print_term(t)
    assert alpha_eq(parse_term(s, {}), t)


def test_print_binder_avoids_symbol_capture():
    v = fresh_var("f")
    t = Abst(v, None, App(symb("f"), v))
    s = print_term(t)
    assert alpha_eq(parse_term(s, SCOPE), t)


def test_print_primes_a_binder_named_like_a_sort():
    # TYPE is reserved, so an unprimed binder would reparse as the sort
    v = fresh_var("TYPE")
    t = Abst(v, None, App(symb("f"), v))
    s = print_term(t)
    assert s == "\\TYPE', f TYPE'"
    assert alpha_eq(parse_term(s, SCOPE), t)


def test_print_deep_term_iteratively():
    t = symb("0")
    for _ in range(30_000):
        t = App(symb("s"), t)
    s = print_term(t)
    assert s.startswith("s (s (s")
    assert s.endswith("0" + ")" * 29_999)


def test_print_a_var_that_binds_two_nested_binders():
    # the inner binder of x hides the outer name until it ends, so a binder
    # inside it may take that name, and x prints by its outer name after
    x, y, f = fresh_var("x"), fresh_var("x"), symb("f")
    t = Abst(x, None, App(Abst(x, None, Abst(y, None, App(App(f, x), y))), x))
    assert print_term(t) == "\\x, (\\x', \\x, f x' x) x"


def test_print_a_var_bound_in_one_place_and_free_in_another():
    # v occurs free somewhere, so no binder may print as its name there
    v, w = fresh_var("s"), fresh_var("s")
    assert print_term(App(Abst(v, None, v), Abst(w, None, v))) == "(\\s', s') (\\s', s)"
    t = Abst(w, None, App(v, Abst(v, None, v)))
    assert print_term(t) == "\\s', s (\\s'', s'')"


def test_print_many_nested_binders_in_linear_time():
    # ten times the binders take about ten times as long (13 times here);
    # a printer that copied the whole scope at each binder took 180 times
    # as long.  The bound is a ratio of best-of-3 times, so neither the
    # host's speed nor one slow stretch of it decides the outcome
    def nested(n):
        t = symb("a")
        for i in range(n):
            v = fresh_var(f"v{i}")
            t = Abst(v, None, App(t, v))
        return t

    def timed(t):
        start = time.perf_counter()
        print_term(t)
        return time.perf_counter() - start

    small, large = nested(2_000), nested(20_000)
    bound = 50 * min(timed(small) for _ in range(3))
    assert any(timed(large) < bound for _ in range(3))
    s = print_term(large)
    assert s.startswith("\\v19999, (\\v19998, ") and s.endswith(") v19999")


@st.composite
def printable_terms(draw, depth=3, scope=()):
    options = ["symb"]
    if depth > 0:
        options += ["app", "abst", "prod", "meta_free"]
    if scope:
        options += ["var", "var"]
    kind = draw(st.sampled_from(options))
    if kind == "var":
        return draw(st.sampled_from(list(scope)))
    if kind == "symb":
        return symb(draw(st.sampled_from(["f", "g", "c", "a", "+", "ℕ"])))
    if kind == "app":
        return App(
            draw(printable_terms(depth=depth - 1, scope=scope)),
            draw(printable_terms(depth=depth - 1, scope=scope)),
        )
    if kind == "prod":
        v = fresh_var(draw(st.sampled_from(["x", "y"])))
        domain = draw(printable_terms(depth=depth - 1, scope=scope))
        body = draw(printable_terms(depth=depth - 1, scope=scope + (v,)))
        return Prod(v, domain, body)
    if kind == "meta_free":
        v = fresh_var(draw(st.sampled_from(["u", "v"])))
        return Abst(v, None, draw(printable_terms(depth=depth - 1, scope=scope + (v,))))
    v = fresh_var(draw(st.sampled_from(["x", "y", "f"])))
    return Abst(v, None, draw(printable_terms(depth=depth - 1, scope=scope + (v,))))


@given(printable_terms())
@settings(max_examples=120)
def test_print_parse_round_trip(t):
    scope = {name: symb(name) for name in ["f", "g", "c", "a", "+", "ℕ"]}
    printed = print_term(t)
    assert alpha_eq(parse_term(printed, scope), t)
