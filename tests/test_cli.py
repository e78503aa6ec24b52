import os
import subprocess
import sys
from pathlib import Path

import pytest

from rwtree.cli import (
    ASSERTION,
    DIVERGENCE,
    OK,
    PARSE,
    TOO_DEEP,
    USAGE,
    VALIDATION,
    main,
)

from genlib import FIB_RULES, REVNAT_RULES
from test_dtree import GOLDEN


def _deep_rhs(lhs: str, leaf: str, directive: str) -> str:
    """The rule ``lhs --> s (s … leaf)``, 3,000 deep, then ``directive``."""
    return (
        "symbol s; symbol 0; symbol k;\n"
        f"rule {lhs} --> " + "(s " * 3000 + leaf + ")" * 3000 + ";\n" + directive
    )


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_too_deep_input_exits_6_without_traceback(engine, tmp_path, capsys):
    # the parser, set-up and the builders read any depth; evaluation still
    # recurses once per list cell (ROADMAP item 4(b))
    cells = "(cons (s 0) " * 3000 + "nil" + ")" * 3000
    src = tmp_path / "deep.rw"
    src.write_text(REVNAT_RULES + f"compute rev {cells};\n")
    assert main(["run", str(src), "--engine", engine]) == TOO_DEEP
    err = capsys.readouterr().err
    assert err.startswith("input too deep")
    assert "Traceback" not in err and len(err.splitlines()) == 1


# set-up compiles no right-hand side, one with no pattern variable is built
# as itself, and the builder of k $x is compiled and run with no recursion
DEEP_RHS = {
    "closed": ("k", "0", ""),
    "closed-fired": ("k", "0", "compute k;\n"),
    "open": ("k $x", "$x", ""),
    "open-fired": ("k $x", "$x", "compute k 0;\n"),
}
DEEP_RHS_COMMANDS = {
    "run-tree": ("run", "--engine", "tree"),
    "run-naive": ("run", "--engine", "naive"),
    "check": ("check",),
    "tree": ("tree", "k"),
}


@pytest.mark.parametrize("command", DEEP_RHS_COMMANDS)
@pytest.mark.parametrize("case", DEEP_RHS)
def test_only_firing_a_deep_right_hand_side_exits_6(case, command, tmp_path, capsys):
    # named when firing k $x exited 6; every row now exits 0
    src = tmp_path / "deep.rw"
    src.write_text(_deep_rhs(*DEEP_RHS[case]))
    name, *extra = DEEP_RHS_COMMANDS[command]
    assert main([name, str(src), *extra]) == OK
    out, err = capsys.readouterr()
    assert err == ""
    if case.endswith("-fired") and name == "run":
        assert out == "s (" * 2999 + "s 0" + ")" * 2999 + "\n"


DEPTH = 10_000
BINDER_CHAIN = "".join(f"\\x{i}, " for i in range(DEPTH)) + "x0"
NUMERAL = "s (" * (DEPTH - 1) + "s 0" + ")" * (DEPTH - 1)
# the parser is one loop, so none of these costs Python stack
DEEP_INPUTS = {
    "parentheses": ("symbol a;\ncompute " + "(" * DEPTH + "a" + ")" * DEPTH + ";\n", "a"),
    "beta-body": (
        "symbol s; symbol 0;\ncompute (\\x, " + NUMERAL.replace("s 0", "s x") + ") 0;\n",
        NUMERAL,
    ),
    "binder-chain": ("symbol a;\ncompute " + BINDER_CHAIN + ";\n", BINDER_CHAIN),
}


@pytest.mark.parametrize("case", DEEP_INPUTS)
def test_deep_input_runs_at_the_default_recursion_limit(case, tmp_path, capsys):
    source, printed = DEEP_INPUTS[case]
    src = tmp_path / "deep.rw"
    src.write_text(source)
    assert main(["run", str(src)]) == OK
    assert capsys.readouterr().out == printed + "\n"


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_deep_pattern_matches(engine, tmp_path, capsys):
    numeral = "(" + "s (" * 2999 + "s 0" + ")" * 2999 + ")"
    src = tmp_path / "deep_pattern.rw"
    src.write_text(
        "symbol s; symbol 0; symbol f; symbol yes;\n"
        f"rule f {numeral} --> yes;\ncompute f {numeral};\n"
    )
    assert main(["run", str(src), "--engine", engine]) == OK
    assert capsys.readouterr().out == "yes\n"


# the parser keeps one map of the names in scope, and a binder puts back the
# entry it shadowed when it closes
BINDER_SCOPES = {
    "inner-binder-closes": ("compute (\\x, (\\x, x) b x) a;\n", OK, "b a\n", ""),
    "closed-by-parenthesis": (
        "compute (\\x, a) x;\n",
        VALIDATION,
        "",
        "scope error: 2:17: undeclared identifier 'x'\n",
    ),
    "product-in-body": ("compute (\\y, Πx : y, x) T;\n", OK, "Πx : T, x\n", ""),
    "shadowed-symbol-comes-back": ("symbol x;\ncompute (\\x, a) x;\n", OK, "a\n", ""),
    "formal-out-of-scope": (
        "rule f (\\x, a) $u[x] --> a;\n",
        VALIDATION,
        "",
        "scope error: 2:19: undeclared identifier 'x'\n",
    ),
}


@pytest.mark.parametrize("case", BINDER_SCOPES)
def test_a_binder_is_in_scope_only_in_its_body(case, tmp_path, capsys):
    line, code, out, err = BINDER_SCOPES[case]
    src = tmp_path / "scopes.rw"
    src.write_text("symbol a; symbol b; symbol f; symbol T;\n" + line)
    assert main(["run", str(src)]) == code
    assert capsys.readouterr() == (out, err)


def test_unbalanced_deep_nesting_is_a_parse_error(tmp_path, capsys):
    src = tmp_path / "unbalanced.rw"
    src.write_text("symbol a;\ncompute " + "(" * 5000 + "a;\n")
    assert main(["run", str(src)]) == PARSE
    assert capsys.readouterr().err == "parse error: 2:5010: expected ')', found ';'\n"


def test_python_dash_m_runs_the_cli_from_a_checkout(tmp_path):
    src = tmp_path / "fib.rw"
    src.write_text(FIB_RULES)
    checkout_src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "rwtree", "check", str(src)],
        env={**os.environ, "PYTHONPATH": str(checkout_src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(f"{src}: ok, 7 rules, 2 trees")


def test_bench_is_no_longer_a_command(capsys):
    assert main(["bench", "fib(3)"]) == USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and len(err.splitlines()) == 1


def _missing(tmp_path):
    return tmp_path / "missing.rw"


def _directory(tmp_path):
    return tmp_path


def _not_utf8(tmp_path):
    path = tmp_path / "utf16.rw"
    path.write_bytes(b"\xff\xfesymbol a;\n")
    return path


@pytest.mark.parametrize("make", [_missing, _directory, _not_utf8])
@pytest.mark.parametrize(
    "command", [["run"], ["check"], ["tree", "+"]], ids=["run", "check", "tree"]
)
def test_unreadable_input_is_usage_error(command, make, tmp_path, capsys):
    path = str(make(tmp_path))
    assert main([command[0], path, *command[1:]]) == USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot read {path}: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_tree_dot_prints_the_golden_graph(tmp_path, capsys):
    src = tmp_path / "fib.rw"
    src.write_text(FIB_RULES)
    assert main(["tree", str(src), "+", "--dot"]) == 0
    out = capsys.readouterr().out.splitlines()
    _, dot = GOLDEN[("fib", "+")]
    assert out[0] == "digraph dtree {" and out[-1] == "}"
    # node lines in id order; edge lines may come in any order
    nodes = [line for line in dot.splitlines() if "->" not in line]
    assert [line for line in out if "->" not in line] == nodes
    assert sorted(out) == sorted(dot.splitlines())


UNITS = "symbol a; symbol 0; symbol +;\nrule + 0 $p --> $p with + $p 0 --> $p;\n"


def test_whnf_output_is_the_same_under_both_engines(tmp_path, capsys):
    # a failed match records the normal form a of the argument + a 0 that it
    # forced, but whnf returns the head-normal term itself under either
    # engine
    src = tmp_path / "units.rw"
    src.write_text(UNITS + "compute + (+ a 0) a;\n")
    printed = {}
    for engine in ("tree", "naive"):
        assert main(["run", str(src), "--strategy", "whnf", "--engine", engine]) == 0
        printed[engine] = capsys.readouterr().out.strip()
    assert printed == {"tree": "+ (+ a 0) a", "naive": "+ (+ a 0) a"}


@pytest.mark.parametrize("strategy", ["whnf", "snf"])
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_closed_after_reduction_builds_from_the_normal_form(
    engine, strategy, tmp_path, capsys
):
    # (\y, k) x is closed only once reduced; the raw term would leave x
    # unbound in the result
    src = tmp_path / "leak.rw"
    src.write_text(
        "symbol f; symbol g; symbol k;\nrule f (\\x, $c) --> g $c;\n"
        "compute f (\\x, (\\y, k) x);\n"
    )
    assert main(["run", str(src), "--engine", engine, "--strategy", strategy]) == 0
    assert capsys.readouterr().out.strip() == "g k"


# Instantiation never captures: a result binder that stands for a subject
# binder is that binder, with its name, and one that stands for none is a
# fresh variable at every firing
CAPTURE = {
    # each firing's \x is a new binder; reusing the rule's Var made the
    # second firing capture the first one's x
    "repeated firing": (
        "symbol f; symbol s; symbol 0; symbol p; symbol a;\n"
        "rule f (s $n) $w --> \\x, f $n (p x $w) with f 0 $w --> $w;\n"
        "compute f (s (s 0)) a;\n",
        r"\x, \x', p x' (p x a)",
    ),
    # \y may not be the subject's z too: it would capture the z of k z
    "inner binder": (
        "symbol f; symbol g; symbol k;\n"
        "rule f (\\x, $u[x]) --> \\x, \\y, g $u[x];\n"
        "compute f (\\z, k z);\n",
        r"\z, \y, g (k z)",
    ),
    # the SIBLING rules of test_engine with f returning its sibling
    # argument: g's \z is fresh at each firing, so the z that f hands to
    # the outer g is not captured by that g's own \z
    "sibling binder": (
        "symbol f; symbol g; symbol c;\n"
        "rule f (\\a, $u[a]) (\\b, $w) --> g $w;\n"
        "rule g $t --> \\z, f $t (\\b, z);\n"
        "compute g (g c);\n",
        r"\z, \z', f z (\b, z')",
    ),
    # dup makes two sibling abstractions with one binder, which the naive
    # matcher opens under that one Var; \x and \y may not both be it, as
    # c x would then be captured by \y
    "shared sibling binders": (
        "symbol dup; symbol p; symbol g; symbol c;\n"
        "rule dup (\\x, $u[x]) --> p (\\x, $u[x]) (\\y, $u[y]);\n"
        "rule p (\\a, $u[a]) (\\b, $w[b]) --> \\x, \\y, g $u[x] $w[y];\n"
        "compute dup (\\z, c z);\n",
        r"\x, \y, g (c x) (c y)",
    ),
    # \y holds no pattern variable but refers to \x, which is the subject
    # binder; that binder is the rule's own y here, so \y must be fresh
    "binder of a constant": (
        "symbol f; symbol g; symbol h; symbol k; symbol q; symbol m;\n"
        "rule f (\\x, $u[x]) --> \\x, g $u[x] (\\y, h x y);\n"
        "rule k (\\v, g $a[v] $b[v]) --> q (\\v, $b[v]);\n"
        "rule q (\\v, \\w, h $x[v] $e[w]) --> f (\\w, $e[w]);\n"
        "compute k (f (\\z, m z));\n",
        r"\y, g y (\y', h y y')",
    ),
}


@pytest.mark.parametrize("case", CAPTURE)
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_instantiation_never_captures(engine, case, tmp_path, capsys):
    source, printed = CAPTURE[case]
    src = tmp_path / "capture.rw"
    src.write_text(source)
    assert main(["run", str(src), "--engine", engine, "--strategy", "snf"]) == 0
    assert capsys.readouterr().out.strip() == printed


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_stored_head_is_applied_to_a_built_argument(engine, tmp_path, capsys):
    src = tmp_path / "ap.rw"
    src.write_text(
        "symbol ap; symbol f; symbol s; symbol 0;\n"
        "rule ap $g $x --> $g (s $x);\ncompute ap f 0;\n"
    )
    assert main(["run", str(src), "--engine", engine]) == OK
    assert capsys.readouterr().out == "f (s 0)\n"


# Π is inert: no rule matches it and no step reduces it, but every walk that
# goes under a binder must carry both its domain and its codomain
PI = r"""symbol a; symbol b; symbol 0; symbol +; symbol f; symbol g; symbol h; symbol N : TYPE; symbol k : Π n : N, N;
rule + 0 $p --> $p with + $p 0 --> $p;
rule f $t --> Πx : $t, + x 0;
rule g (\y, $u[y]) --> Πz : N, $u[z];
rule h (\y, $u[y]) --> \w, Πy : $u[w], $u[y];
compute Πx : + 0 a, + x 0;
compute f (+ 0 b);
compute g (\y, + y 0);
compute (\y, Πx : y, x y) (+ 0 a);
compute \x, (\y, Πx : N, y) x;
compute h (\y, + y 0);
compute (\y, \x, y) (Πx : N, x);
assert Πx : a, x == Πy : a, y;
assert (Πx : a, x) == Πx : + 0 a, + x 0;
"""

PI_PRINTED = {
    "snf": [
        "Πx : a, x",
        "Πx : b, x",
        "Πy : N, y",
        "Πx : a, x a",
        r"\x, Πx' : N, x",
        r"\y, Πy' : y, y'",
        r"\x, Πx' : N, x'",
    ],
    "whnf": [
        "Πx : + 0 a, + x 0",
        "Πx : + 0 b, + x 0",
        "Πy : N, + y 0",
        "Πx : + 0 a, x (+ 0 a)",
        r"\x, (\y, Πx' : N, y) x",
        r"\y, Πy' : + y 0, + y' 0",
        r"\x, Πx' : N, x'",
    ],
}


@pytest.mark.parametrize("strategy", ["whnf", "snf"])
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_products_are_normalised_substituted_and_printed(
    engine, strategy, tmp_path, capsys
):
    src = tmp_path / "pi.rw"
    src.write_text(PI, encoding="utf-8")
    assert main(["run", str(src), "--engine", engine, "--strategy", strategy]) == 0
    assert capsys.readouterr().out.splitlines() == PI_PRINTED[strategy]


# Semantics (a): a first row of wildcards is decided before any other row
# fires, so a rule whose constraints hold wins over the rules below it
FIRST_ROW = {
    # switching on a first would fire the second rule
    "non-linear": (
        "symbol f; symbol a; symbol b;\n"
        "rule f $x $x --> a with f a $y --> b;\n"
        "compute f a a;\n",
        ["a"],
    ),
    # switching on s first would fire the s rule on closed bodies too
    "closed body": (
        "symbol g; symbol k; symbol m; symbol s; symbol a;\n"
        "rule g (\\x, $c) --> k with g (\\x, s $u[x]) --> m;\n"
        "compute g (\\x, s a);\ncompute g (\\x, s x);\n",
        ["k", "m"],
    ),
    # laziness: only the first row is decided first; the eq? check of the
    # second row would force loop, which the first row never inspects
    "later rows wait": (
        "symbol loop; symbol f; symbol a; symbol b; symbol r1; symbol r2;\n"
        "symbol r3;\nrule loop --> loop;\n"
        "rule f a $y --> r1 with f $x $x --> r2 with f $x b --> r3;\n"
        "compute f a loop;\n",
        ["r1"],
    ),
    # rules of every arity are tried in text order: the arity-1 rule comes
    # first, so the arity-2 rule never forces loop
    "shorter rule first": (
        "symbol loop; symbol f; symbol k; symbol a; symbol b; symbol c;\n"
        "symbol d;\nrule loop --> loop;\nrule k $y --> d;\n"
        "rule f $x --> k with f $x b --> c;\n"
        "compute f a loop;\n",
        ["d"],
    ),
}


@pytest.mark.parametrize("case", FIRST_ROW)
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_first_row_of_wildcards_is_decided_first(engine, case, tmp_path, capsys):
    source, printed = FIRST_ROW[case]
    src = tmp_path / "first.rw"
    src.write_text(source)
    assert main(["run", str(src), "--engine", engine, "--max-steps", "10000"]) == 0
    assert capsys.readouterr().out.splitlines() == printed


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_shorter_rule_first_in_text_leaves_later_arguments_alone(
    engine, tmp_path, capsys
):
    src = tmp_path / "lazy.rw"
    src.write_text(
        "symbol loop; symbol f; symbol a; symbol b; symbol c;\n"
        "rule loop --> loop;\nrule f $x --> a with f $x b --> c;\n"
        "compute f a loop;\n"
    )
    argv = ["run", str(src), "--engine", engine, "--strategy", "whnf"]
    assert main([*argv, "--max-steps", "10000"]) == 0
    assert capsys.readouterr().out.splitlines() == ["a loop"]


ACROSS_ARITIES = {
    # the arity-1 rule's head must not make the tree switch on loop first
    "column": (
        "symbol loop; symbol f; symbol a; symbol b; symbol c; symbol k0;\n"
        "rule loop --> loop;\nrule f $x k0 --> b;\nrule f a --> c;\n"
        "compute f loop k0;\n",
        ["b"],
    ),
    # a later row of wildcards may not fire before a wider rule above it
    "order": (
        "symbol f; symbol a; symbol b; symbol x; symbol y;\n"
        "rule f a b --> x;\nrule f $y --> y;\ncompute f a b;\n",
        ["x"],
    ),
    # with one argument naive skips the wider rule without reading loop, so
    # the tree tests the argument count before it switches on column 1
    "too few arguments": (
        "symbol f; symbol a; symbol b; symbol x; symbol y; symbol loop;\n"
        "rule loop --> loop;\nrule f a b --> x;\nrule f $y --> y;\n"
        "compute f loop;\n",
        ["y"],
    ),
}


@pytest.mark.parametrize("case", ACROSS_ARITIES)
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_shorter_rule_after_a_wider_one_changes_no_choice(
    engine, case, tmp_path, capsys
):
    source, printed = ACROSS_ARITIES[case]
    src = tmp_path / "wider.rw"
    src.write_text(source)
    assert main(["run", str(src), "--engine", engine, "--max-steps", "10000"]) == 0
    assert capsys.readouterr().out.splitlines() == printed


# both engines fire the first rule in text order that applies, so a specific
# case written before a catch-all is decided before the catch-all fires
FIRST_MATCH = {
    "catch-all after a constant": (
        "symbol f; symbol k0; symbol a; symbol b;\n"
        "rule f k0 --> a;\nrule f $x --> b;\ncompute f k0;\n",
        ["a"],
    ),
    "leq": (
        "symbol leq; symbol 0; symbol s; symbol tt; symbol ff;\n"
        "rule leq 0 $n --> tt;\nrule leq (s $m) (s $n) --> leq $m $n;\n"
        "rule leq $m $n --> ff;\ncompute leq (s 0) (s (s 0));\n",
        ["tt"],
    ),
}


@pytest.mark.parametrize("case", FIRST_MATCH)
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_catch_all_fires_only_after_the_rules_above_it(
    engine, case, tmp_path, capsys
):
    source, printed = FIRST_MATCH[case]
    src = tmp_path / "first_match.rw"
    src.write_text(source)
    assert main(["run", str(src), "--engine", engine]) == 0
    assert capsys.readouterr().out.splitlines() == printed


NAIVE_ORDER = {
    # naive fails the first rule at column 1 and the second at column 2, so
    # it never forces loop, although column 3 holds the most heads
    "most heads": (
        "symbol a; symbol b; symbol k0; symbol k1; symbol k2; symbol f;\n"
        "symbol loop;\nrule loop --> loop;\n"
        "rule f a $x (\\u, \\v, $z[v]) --> $x;\nrule f $y k0 b --> b;\n"
        "compute f k0 a loop;\n",
        "f k0 a loop",
    ),
    # naive compares the two $x before it reaches the head k1
    "check before head": (
        "symbol a; symbol b; symbol k1; symbol r; symbol f; symbol loop;\n"
        "rule loop --> loop;\nrule f $x $x (k1 $z) --> r;\n"
        "compute f a b loop;\n",
        "f a b loop",
    ),
    # naive skips the wider second rule on two arguments, so its head in
    # column 2 may not make the tree switch there and force loop
    "wider rule skipped": (
        "symbol a; symbol b; symbol c; symbol e; symbol r1; symbol r2;\n"
        "symbol f; symbol loop;\nrule loop --> loop;\n"
        "rule f a b --> r1;\nrule f $x b e --> r2;\n"
        "compute f c loop;\n",
        "f c loop",
    ),
}


@pytest.mark.parametrize("case", NAIVE_ORDER)
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_the_tree_forces_no_argument_before_naive_does(
    engine, case, tmp_path, capsys
):
    source, printed = NAIVE_ORDER[case]
    src = tmp_path / "order.rw"
    src.write_text(source)
    argv = ["run", str(src), "--engine", engine, "--strategy", "whnf"]
    assert main([*argv, "--max-steps", "1000"]) == 0
    assert capsys.readouterr().out == printed + "\n"


# a Switch column that is a symbol heading a rule is head-normalised, also
# when the symbol takes no argument; one whose rules need arguments is stuck
DEFINED_COLUMNS = {
    "nullary rule": ("compute f k;\n", "yes"),
    "rules need arguments": ("compute f g;\n", "f g"),
}


@pytest.mark.parametrize("case", DEFINED_COLUMNS)
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_a_switch_reduces_a_symbol_that_heads_a_rule(engine, case, tmp_path, capsys):
    directive, printed = DEFINED_COLUMNS[case]
    src = tmp_path / "defined.rw"
    src.write_text(
        "symbol a; symbol k; symbol f; symbol g; symbol yes;\n"
        "rule k --> a;\nrule f a --> yes;\nrule g $x --> a;\n" + directive
    )
    assert main(["run", str(src), "--engine", engine]) == 0
    assert capsys.readouterr().out == printed + "\n"


@pytest.mark.parametrize(
    "source, extra, code, prefix",
    [
        (
            "symbol a;\ncompute a;\n",
            ["--max-steps", "0"],
            USAGE,
            "usage error: --max-steps must be positive\n",
        ),
        ("symbol a;\ncompute (a;\n", [], PARSE, "parse error: "),
        ("symbol a;\ncompute b;\n", [], VALIDATION, "scope error: "),
        ("symbol f;\nrule f $x --> $y;\n", [], VALIDATION, "validation error: "),
        (
            "symbol f;\nrule f $x --> $y;\n",
            ["--engine", "naive"],
            VALIDATION,
            "validation error: ",
        ),
        ("symbol a; symbol b;\nassert a == b;\n", [], ASSERTION, "assertion failed"),
        (
            "symbol loop;\nrule loop --> loop;\ncompute loop;\n",
            ["--max-steps", "1000"],
            DIVERGENCE,
            "divergence: ",
        ),
    ],
    ids=[
        "usage",
        "parse",
        "scope",
        "validation",
        "validation-naive",
        "assertion",
        "divergence",
    ],
)
def test_each_failure_exits_with_its_documented_code(
    source, extra, code, prefix, tmp_path, capsys
):
    src = tmp_path / "fails.rw"
    src.write_text(source)
    assert main(["run", str(src), *extra]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "Traceback" not in err


@pytest.mark.parametrize("argv", [["run"], ["run", "--engine", "naive"], ["check"]])
def test_a_right_hand_side_must_apply_a_variable_to_its_arity(argv, tmp_path, capsys):
    src = tmp_path / "arity.rw"
    src.write_text("symbol f;\nrule f (\\x, $u[x]) --> $u;\n")
    assert main([argv[0], str(src), *argv[1:]]) == VALIDATION
    assert capsys.readouterr().err == (
        "validation error: invalid rules:\nf@2: rhs arity mismatch for $u: 1 vs 0\n"
    )


@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_two_different_sorts_are_not_convertible(engine, tmp_path, capsys):
    src = tmp_path / "sorts.rw"
    src.write_text("symbol a;\nassert TYPE == KIND;\n")
    assert main(["run", str(src), "--engine", engine]) == ASSERTION
    assert capsys.readouterr().err == "assertion failed at line 2: TYPE != KIND\n"


# conversion compares before it reduces, so neither assert reduces loop
LAZY_ASSERTS = {
    # the two copies of loop are equal as they are
    "equal": ("assert c loop == c loop;\n", OK, ""),
    # the heads differ, so the arguments are never compared
    "unequal": (
        "assert c loop == d loop;\n",
        ASSERTION,
        "assertion failed at line 3: c loop != d loop\n",
    ),
}


@pytest.mark.parametrize("case", LAZY_ASSERTS)
@pytest.mark.parametrize("engine", ["tree", "naive"])
def test_an_assert_compares_before_it_reduces(engine, case, tmp_path, capsys):
    directive, code, err = LAZY_ASSERTS[case]
    src = tmp_path / "lazy_assert.rw"
    src.write_text("symbol loop; symbol c; symbol d;\nrule loop --> loop;\n" + directive)
    argv = ["run", str(src), "--engine", engine, "--max-steps", "1000"]
    assert main(argv) == code
    assert capsys.readouterr().err == err


def test_a_rule_with_600_arguments_compiles(tmp_path, capsys):
    # the compiler is one work-list loop, so no column costs Python stack
    args = " ".join(["a"] * 600)
    src = tmp_path / "wide.rw"
    src.write_text(
        f"symbol f; symbol a; symbol b;\nrule f {args} --> b;\ncompute f {args};\n"
    )
    assert main(["check", str(src)]) == 0
    assert "f: depth=601 slots=0 leaf=1 switch=600" in capsys.readouterr().out
    assert main(["tree", str(src), "f"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "switch" and len(lines) == 601
    assert lines[-1] == "  " * 600 + "a/0: leaf b"
    for engine in ("tree", "naive"):
        assert main(["run", str(src), "--engine", engine]) == 0
        assert capsys.readouterr().out == "b\n"


def test_check_names_each_field_once(tmp_path, capsys):
    # the store size and the count of Store nodes are different fields
    src = tmp_path / "store.rw"
    src.write_text("symbol f; symbol a;\nrule f $x a --> $x;\n")
    assert main(["check", str(src)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "  f: depth=4 slots=1 leaf=1 store=1 swap=1 switch=1"


def test_tree_of_a_symbol_with_no_rules_exits_3(tmp_path, capsys):
    src = tmp_path / "fib.rw"
    src.write_text(FIB_RULES)
    assert main(["tree", str(src), "nosuch"]) == VALIDATION
    assert capsys.readouterr().err == "no rules for nosuch\n"
