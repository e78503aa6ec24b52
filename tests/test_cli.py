import pytest

from rwtree.cli import TOO_DEEP, USAGE, main


def test_too_deep_input_exits_6_without_traceback(tmp_path, capsys):
    depth = 3000
    src = tmp_path / "deep.rw"
    src.write_text("symbol a;\ncompute " + "(" * depth + "a" + ")" * depth + ";\n")
    assert main(["run", str(src)]) == TOO_DEEP
    err = capsys.readouterr().err
    assert err.startswith("input too deep")
    assert "Traceback" not in err and len(err.splitlines()) == 1


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
