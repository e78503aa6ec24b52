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
