from rwtree.cli import TOO_DEEP, USAGE, main


def test_too_deep_input_exits_6_without_traceback(tmp_path, capsys):
    depth = 3000
    src = tmp_path / "deep.rw"
    src.write_text("symbol a;\ncompute " + "(" * depth + "a" + ")" * depth + ";\n")
    assert main(["run", str(src)]) == TOO_DEEP
    err = capsys.readouterr().err
    assert err.startswith("input too deep")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_bench_bad_builtin_spec_is_usage_error(capsys):
    assert main(["bench", "dispatch(5)"]) == USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "dispatch(K,M)" in err


def test_bench_dispatch_without_rules_is_usage_error(capsys):
    assert main(["bench", "dispatch(0,5)"]) == USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "K >= 1" in err
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_bench_rejects_nonpositive_max_steps(capsys):
    assert main(["bench", "fib(3)", "--max-steps", "0"]) == USAGE
    err = capsys.readouterr().err
    assert err == "usage error: --max-steps must be positive\n"


UNITS = "symbol a; symbol 0; symbol +;\nrule + 0 $p --> $p with + $p 0 --> $p;\n"


def test_whnf_output_keeps_what_a_failed_match_reduced(tmp_path, capsys):
    # the tree keeps the normal form a of the argument + a 0 that its failed
    # match forced; naive matching drops it; both outputs are head-normal
    src = tmp_path / "units.rw"
    src.write_text(UNITS + "compute + (+ a 0) a;\n")
    printed = {}
    for engine in ("tree", "naive"):
        assert main(["run", str(src), "--strategy", "whnf", "--engine", engine]) == 0
        printed[engine] = capsys.readouterr().out.strip()
    assert printed == {"tree": "+ a a", "naive": "+ (+ a 0) a"}
    same = tmp_path / "same.rw"
    same.write_text(UNITS + f"assert {printed['tree']} == {printed['naive']};\n")
    for engine in ("tree", "naive"):
        assert main(["run", str(same), "--engine", engine]) == 0
