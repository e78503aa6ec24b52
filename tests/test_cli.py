import os
import subprocess
import sys
from pathlib import Path

import pytest

from rwtree.cli import (
    ASSERTION,
    DIVERGENCE,
    PARSE,
    TOO_DEEP,
    USAGE,
    VALIDATION,
    main,
)

from genlib import FIB_RULES
from test_dtree import GOLDEN


def test_too_deep_input_exits_6_without_traceback(tmp_path, capsys):
    depth = 3000
    src = tmp_path / "deep.rw"
    src.write_text("symbol a;\ncompute " + "(" * depth + "a" + ")" * depth + ";\n")
    assert main(["run", str(src)]) == TOO_DEEP
    err = capsys.readouterr().err
    assert err.startswith("input too deep")
    assert "Traceback" not in err and len(err.splitlines()) == 1


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
    _, dot = GOLDEN[("fib", "+", 2)]
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
        "Πz : N, z",
        "Πx : a, x a",
        r"\x, Πx' : N, x",
        r"\w, Πy : w, y",
        r"\x, Πx' : N, x'",
    ],
    "whnf": [
        "Πx : + 0 a, + x 0",
        "Πx : + 0 b, + x 0",
        "Πz : N, + z 0",
        "Πx : + 0 a, x (+ 0 a)",
        r"\x, (\y, Πx' : N, y) x",
        r"\w, Πy : + w 0, + y 0",
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


@pytest.mark.parametrize(
    "source, extra, code, prefix",
    [
        ("symbol a;\ncompute (a;\n", [], PARSE, "parse error: "),
        ("symbol a;\ncompute b;\n", [], VALIDATION, "scope error: "),
        ("symbol f;\nrule f $x --> $y;\n", [], VALIDATION, "validation error: "),
        ("symbol a; symbol b;\nassert a == b;\n", [], ASSERTION, "assertion failed"),
        (
            "symbol loop;\nrule loop --> loop;\ncompute loop;\n",
            ["--max-steps", "1000"],
            DIVERGENCE,
            "divergence: ",
        ),
    ],
    ids=["parse", "scope", "validation", "assertion", "divergence"],
)
def test_each_failure_exits_with_its_documented_code(
    source, extra, code, prefix, tmp_path, capsys
):
    src = tmp_path / "fails.rw"
    src.write_text(source)
    assert main(["run", str(src), *extra]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "Traceback" not in err


@pytest.mark.xfail(
    strict=True,
    reason="dtree._compile and _compile_front recurse once per column, so a "
    "rule with some 330 or more arguments overflows the stack (ROADMAP item 4)",
)
def test_a_rule_with_600_arguments_compiles(tmp_path, capsys):
    src = tmp_path / "wide.rw"
    src.write_text(
        "symbol f; symbol a; symbol b;\nrule f " + " ".join(["a"] * 600) + " --> b;\n"
    )
    assert main(["check", str(src)]) == 0
