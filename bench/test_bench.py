"""Tests of the benchmark itself, at tiny sizes."""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rwtree import dtree, engine, terms  # noqa: E402

SECONDS = 0.05

TINY = {
    "fib": lambda seed: workloads.fib_workload(seed, counts={3: 4, 5: 4, 6: 2}),
    "dispatch": lambda seed: workloads.dispatch_workload(seed, k=6, ops=15),
    "hol": lambda seed: workloads.hol_workload(seed, n_shapes=4),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_under_both_engines(name):
    assert TINY[name](3) == TINY[name](3)
    result = harness.end_to_end_run(TINY[name](3), SECONDS)
    assert result.failed == 0, result.errors
    assert result.attempted >= 2 * harness.MIN_PASSES * len(TINY[name](3).expected)
    assert [m for m, _ in harness.END_TO_END] == list(result.metrics)
    assert all(m["value"] > 0 for m in result.metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_steps_repeat_exactly(name):
    first = harness.end_to_end_run(TINY[name](5), SECONDS).metrics
    second = harness.end_to_end_run(TINY[name](5), SECONDS).metrics
    for metric in ("tree_steps", "naive_steps"):
        assert first[metric]["value"] == second[metric]["value"]


def test_wrong_expected_result_fails_the_run(monkeypatch, capsys):
    good = TINY["fib"](1)
    bad = dataclasses.replace(good, expected=(("numeral", 999),) + good.expected[1:])
    monkeypatch.setitem(harness.WORKLOADS, "fib", lambda seed: bad)
    code = harness.main(["--workload", "fib", "--seed", "1", "--seconds", str(SECONDS)])
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert out["correct"] is False
    assert out["failed"] >= 2 * harness.MIN_PASSES  # op 0, every pass, both engines


def test_engine_disagreement_is_caught(monkeypatch):
    # d ops have no reference result; only the cross-engine check sees this
    original = engine.snf

    def wrong_naive(ctx, t, steps=None):
        if ctx.engine == "naive":
            return terms.symb("1")
        return original(ctx, t, steps)

    monkeypatch.setattr(engine, "snf", wrong_naive)
    result = harness.end_to_end_run(TINY["hol"](2), SECONDS)
    assert result.failed > 0
    assert any("engines disagree" in e for e in result.errors)


def test_traced_self_times_within_traced_wall_time():
    wl = TINY["hol"](4)
    sf, _ = harness.setup(wl.source)
    ops = harness.compute_terms(sf, wl)
    with spans.Tracer() as tr:
        for eng, ctx in harness.make_contexts(sf).items():
            tr.reset()
            p = harness.run_pass(ctx, ops)
            self_total = sum(rec[1] for rec in tr.stats.values())
            assert 0 < self_total <= p.wall_s
            assert tr.stats["terms.subst"][0] > 0
    assert engine.subst is terms.subst  # every binding restored


def test_traced_run_reports_every_per_layer_metric():
    result = harness.traced_run(TINY["hol"](6), SECONDS)
    assert result.failed == 0, result.errors
    assert list(result.metrics) == [n for n, _ in harness.per_layer_names()]
    values = {k: m["value"] for k, m in result.metrics.items()}
    assert None not in values.values()
    assert values["tree.engine.eval_tree.visits.nl"] > 0
    assert values["tree.engine.eval_tree.visits.cl"] > 0
    assert values["tree.engine.steps.beta"] > 0
    assert values["fail_ratio"] == 0


def test_traced_run_survives_api_drift(monkeypatch):
    original = engine.eval_tree

    def eval_tree(ctx, tree, args, steps):
        return original(ctx, tree, args, steps)

    monkeypatch.setattr(engine, "eval_tree", eval_tree)
    monkeypatch.delattr(engine, "equal_terms")  # fib never checks equality
    monkeypatch.delattr(dtree, "tree_stats")
    result = harness.traced_run(TINY["fib"](1), SECONDS)
    assert result.failed == 0, result.errors
    m = result.metrics
    assert m["tree.engine.equal_terms.calls"]["value"] is None
    assert "no longer exists" in m["tree.engine.equal_terms.calls"]["note"]
    assert m["dtree.nodes"]["value"] is None
    assert m["tree.engine.eval_tree.visits.switch"]["note"] == (
        "eval_tree has no trace= parameter"
    )
    assert m["tree.engine.eval_tree.calls"]["value"] > 0


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        harness.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        harness.per_layer_names()
    )


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fib", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
