"""Measurement loop, reference checks and metrics of the rwtree benchmark.

One op is normalising one ``compute`` term of the workload's source under
``snf``.  Ops run back to back in a closed loop (one process, one thread,
one op at a time), in passes over the whole op list.  Passes alternate
between the ``tree`` and ``naive`` engines, always running the engine that
has been busy for less time, until both have been busy for ``--seconds`` in
total and each has run at least ``MIN_PASSES`` passes.  Result checking
happens between passes, outside the timed region.

Every op is timed on its own.  The benchmark is tuned on a shared 2-core
host whose single-thread speed swings by up to 1.7x within seconds and can
stay 40% slow for a whole run, so raw wall times of the same code moved by
20-50% between runs.  Times are therefore speed-normalised: after every
``CHUNK_S`` of op time the loop runs a fixed pure-Python calibration
routine, and each op's wall time is scaled by ``CALIBRATION_S`` over the
calibration time measured around it.  A figure thus reads as the wall time
on a machine where the calibration takes ``CALIBRATION_S``; the calibration
does not touch rwtree, so a change to the package moves the figures as it
moves wall time.  Pass totals and per-pass percentiles are reported as the
median over passes; ``setup_s`` is the median over set-up repetitions,
each normalised by calibrations run just before and after it.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it measures untraced passes first, then installs the span
wrappers of ``spans.py`` and repeats set-up and one pass per engine traced.
The wrappers are never installed in a ``--trace 0`` process.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

from rwtree import dtree, engine, syntax
from rwtree.terms import Abst, App, Prod, Sort, Symb, Var

import spans
from workloads import WORKLOADS, Expected, Workload

ENGINES = ("tree", "naive")
MAX_STEPS = 10**7
MIN_PASSES = 3
SETUP_MIN_REPS = 5
CHUNK_S = 0.004  # op time between two calibrations
# Median time of calibrate() on the 2-core host the bounds were tuned on,
# in a quiet stretch; normalised times read as wall time at that speed.
CALIBRATION_S = 240e-6
SETUP_SHARE = 0.05  # of the time in passes spent repeating set-up
# Stop adding passes after this long, once every engine has one, so that a
# run stays well inside its time limit even when a pass becomes very slow.
HARD_LIMIT_SECONDS = 100.0
MAX_ERRORS = 20  # failure messages kept per engine and printed to stderr

END_TO_END = (
    ("setup_s", "s"),
    ("tree_s", "s"),
    ("naive_s", "s"),
    ("tree_op_p50_ms", "ms"),
    ("tree_op_p90_ms", "ms"),
    ("naive_op_p50_ms", "ms"),
    ("naive_op_p90_ms", "ms"),
    ("tree_steps", "count"),
    ("naive_steps", "count"),
    ("peak_rss_mb", "MB"),
)

SETUP_SPANS = (
    "syntax.parse_file",
    "patterns.validate_rule",
    "matrix.from_rules",
    "dtree.compile_matrix",
)
# tree_stats key -> node class in dtree
NODE_KINDS = {
    "switch": "Switch",
    "swap": "Swap",
    "store": "Store",
    "leaf": "Leaf",
    "fail": "Fail",
    "binnl": "BinNl",
    "bincl": "BinCl",
}
# eval_tree visit kind -> node class in dtree
VISITED = {
    "switch": "Switch",
    "swap": "Swap",
    "store": "Store",
    "leaf": "Leaf",
    "nl": "BinNl",
    "cl": "BinCl",
    "fail": "Fail",
}
# (engines, span key, fields) reported for the traced passes
ENGINE_SPANS = (
    (("tree",), "engine.eval_tree", ("calls", "self_s", "hit_ratio")),
    (("tree",), "engine.instantiate", ("calls", "self_s")),
    (ENGINES, "engine.whnf", ("calls", "self_s")),
    (ENGINES, "engine.rewrite_head", ("calls", "hit_ratio")),
    (("naive",), "patterns.naive_rewrite_head", ("calls", "self_s", "hit_ratio")),
    (("naive",), "patterns.match_patterns", ("calls", "self_s", "hit_ratio")),
    (ENGINES, "terms.subst", ("calls", "self_s")),
    (ENGINES, "terms.free_vars", ("calls",)),
    (ENGINES, "engine.equal_terms", ("calls", "self_s")),
    (ENGINES, "engine.snf", ("self_s",)),
    (ENGINES, "patterns.apply_subst", ("calls", "self_s")),
)
FIELD_UNITS = {"calls": "count", "self_s": "s", "hit_ratio": "ratio"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    out = [(f"{key}.s", "s") for key in SETUP_SPANS]
    out.append(("syntax.tokens", "count"))
    out.append(("dtree.nodes", "count"))
    out += [(f"dtree.nodes.{kind}", "count") for kind in NODE_KINDS]
    out += [("dtree.depth", "count"), ("dtree.store_size", "count")]
    for eng in ENGINES:
        for engines, key, fields in ENGINE_SPANS:
            if eng in engines:
                out += [(f"{eng}.{key}.{f}", FIELD_UNITS[f]) for f in fields]
        if eng == "tree":
            out += [(f"tree.engine.eval_tree.visits.{k}", "count") for k in VISITED]
        out.append((f"{eng}.engine.steps.rule", "count"))
        out.append((f"{eng}.engine.steps.beta", "count"))
        out.append((f"{eng}.trace_overhead", "ratio"))
    out.append(("fail_ratio", "ratio"))
    return out


# ---------------------------------------------------------------------------
# Reference checks, independent of the evaluator


def canonical(t) -> str:
    """Text of a term with bound variables as de Bruijn indices, so two
    terms are alpha-equal exactly when their texts are equal."""
    parts: list[str] = []
    todo: list = [(t, ())]
    while todo:
        x, env = todo.pop()
        if env is None:
            parts.append(x)
            continue
        tx = type(x)
        if tx is App:
            parts.append("(")
            todo += [(")", None), (x.arg, env), (x.fn, env)]
        elif tx is Abst or tx is Prod:
            parts.append("\\" if tx is Abst else "P")
            inner = env + (x.var.vid,)
            body = x.body if tx is Abst else x.codomain
            todo += [(".", None), (body, inner), (":", None)]
            if x.domain is not None:
                todo.append((x.domain, env))
        elif tx is Var:
            if x.vid in env:
                parts.append(f"#{len(env) - 1 - env[::-1].index(x.vid)} ")
            else:
                parts.append(f"?{x.vid} ")
        elif tx is Symb:
            parts.append(x.name + " ")
        elif tx is Sort:
            parts.append(x.kind + " ")
        else:
            raise TypeError(f"unexpected term node {tx.__name__}")
    return "".join(parts)


def numeral_value(t) -> Optional[int]:
    n = 0
    while type(t) is App and type(t.fn) is Symb and t.fn.name == "s":
        n += 1
        t = t.arg
    if type(t) is Symb and t.name == "0":
        return n
    return None


def check(result, expected: Expected) -> Optional[str]:
    """None when ``result`` is what the generator predicted, else why not."""
    if isinstance(result, BaseException):
        return f"raised {type(result).__name__}: {result}"
    if expected is None:
        return None
    kind, value = expected
    if kind == "numeral":
        got = numeral_value(result)
        return None if got == value else f"expected numeral {value}, got {got}"
    if type(result) is Symb and result.name == value:
        return None
    return f"expected symbol {value}, got {canonical(result)}"


# ---------------------------------------------------------------------------
# Set-up and passes


def setup(source: str):
    """Parse, validate and compile: what a user pays before the first op."""
    sf = syntax.parse_file(source)
    ctx = engine.EvalContext.from_rules(sf.rules, engine="tree", max_steps=MAX_STEPS)
    return sf, ctx


def compute_terms(sf, workload: Workload) -> list:
    terms = [item.term for item in sf.items if isinstance(item, syntax.Compute)]
    if len(terms) != len(workload.expected):
        raise ValueError(
            f"{workload.name}: {len(terms)} compute lines, "
            f"{len(workload.expected)} expected results"
        )
    return terms


class _Cell:
    __slots__ = ("head", "tail")

    def __init__(self, head, tail):
        self.head = head
        self.tail = tail


def _numeral(n: int):
    t = "0"
    for _ in range(n):
        t = _Cell("s", t)
    return t


def _add(a, b, env: dict):
    """Unary addition by the rules ``add (s n) m --> s (add n m)`` and
    ``add 0 m --> m``, with a dict as the match environment."""
    if type(a) is _Cell and a.head == "s":
        env = dict(env)
        env["n"] = a.tail
        return _Cell("s", _add(env["n"], b, env))
    if a == "0":
        return b
    raise ValueError(a)


def calibrate() -> float:
    """Time a fixed piece of pure-Python work of the kind an evaluator does
    (recursion, small objects, attribute reads, dict copies and lookups).
    It uses nothing of rwtree, and the cyclic GC is off while it runs, so
    its time depends on the machine's speed and not on the package's heap."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for _ in range(20):
        t = _add(_numeral(20), _numeral(5), {})
        while isinstance(t, _Cell):
            t = t.tail
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def time_setup(source: str) -> float:
    """Speed-normalised time of one set-up."""
    gc.collect()
    before = calibrate()
    t0 = time.perf_counter()
    setup(source)
    elapsed = time.perf_counter() - t0
    return elapsed * 2 * CALIBRATION_S / (before + calibrate())


@dataclass
class Pass:
    wall_s: float  # raw wall time of the ops, calibrations left out
    latencies: list[float]  # speed-normalised time of each op
    results: list
    steps: int

    @property
    def norm_s(self) -> float:
        return sum(self.latencies)


def run_pass(ctx, terms: list) -> Pass:
    """Run every op once.  A calibration runs before the first op, after
    every ``CHUNK_S`` of op time and after the last op; each op's time is
    scaled by the mean of the two calibrations around its chunk."""
    snf, Steps = engine.snf, engine.Steps
    clock = time.perf_counter
    raw: list[float] = []
    results: list = []
    used = 0
    cuts, cals = [0], [calibrate()]
    since = 0.0
    for term in terms:
        steps = Steps(MAX_STEPS)
        t0 = clock()
        try:
            result = snf(ctx, term, steps)
        except Exception as exc:  # DivergenceError, RecursionError, ...: a failed op
            result = exc
        dt = clock() - t0
        raw.append(dt)
        results.append(result)
        used += steps.used
        since += dt
        if since >= CHUNK_S:
            cuts.append(len(raw))
            cals.append(calibrate())
            since = 0.0
    if cuts[-1] != len(raw):
        cuts.append(len(raw))
        cals.append(calibrate())
    latencies: list[float] = []
    for k in range(len(cuts) - 1):
        scale = 2 * CALIBRATION_S / (cals[k] + cals[k + 1])
        latencies += [dt * scale for dt in raw[cuts[k] : cuts[k + 1]]]
    return Pass(sum(raw), latencies, results, used)


@dataclass
class EngineRecord:
    norm_s: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    p50_ms: list[float] = field(default_factory=list)
    p90_ms: list[float] = field(default_factory=list)
    steps: Optional[int] = None
    first: Optional[list[str]] = None  # canonical results of the first pass
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, p: Pass, expected: tuple[Expected, ...]) -> None:
        """Record a pass and check its results.

        Every result is checked against its reference.  The first pass's
        results are also kept as de Bruijn text for the cross-engine check;
        later passes must reproduce that text for ops without a reference.
        """
        self.norm_s.append(p.norm_s)
        self.wall_s.append(p.wall_s)
        deciles = statistics.quantiles(p.latencies, n=10)
        self.p50_ms.append(deciles[4] * 1e3)
        self.p90_ms.append(deciles[8] * 1e3)
        if self.steps is None:
            self.steps = p.steps
        is_first = self.first is None
        if is_first:
            self.first = [
                None if isinstance(r, BaseException) else canonical(r)
                for r in p.results
            ]
        for i, (result, exp) in enumerate(zip(p.results, expected)):
            self.attempted += 1
            why = check(result, exp)
            if (
                why is None
                and exp is None
                and not is_first
                and canonical(result) != self.first[i]
            ):
                why = "result differs from the first pass"
            if why is not None:
                self.failed += 1
                if len(self.errors) < MAX_ERRORS:
                    self.errors.append(f"op {i}: {why}")


def _next_engine(records, busy, seconds: float, started: float) -> Optional[str]:
    """The engine that has been busy for less, or None when the run is over."""
    if sum(busy.values()) < seconds:
        eligible = list(records)
    else:
        eligible = [e for e in records if len(records[e].norm_s) < MIN_PASSES]
    overdue = time.perf_counter() - started > HARD_LIMIT_SECONDS
    if not eligible or (overdue and all(r.norm_s for r in records.values())):
        return None
    return min(eligible, key=busy.get)


def measure(
    ctxs: dict, terms: list, expected, seconds: float, source: Optional[str] = None
) -> tuple[dict[str, EngineRecord], list[float]]:
    """Closed loop of passes, balancing busy (raw wall) time between the
    engines.  With ``source``, set-up is also timed between passes, kept
    at ``SETUP_SHARE`` of the time spent in passes and repeated at least
    ``SETUP_MIN_REPS`` times; the set-up times are returned."""
    records = {e: EngineRecord() for e in ctxs}
    busy = dict.fromkeys(ctxs, 0.0)
    setup_times: list[float] = []
    setup_busy = 0.0
    started = time.perf_counter()
    while (eng := _next_engine(records, busy, seconds, started)) is not None:
        p = run_pass(ctxs[eng], terms)
        busy[eng] += p.wall_s
        records[eng].add(p, expected)
        while source is not None and setup_busy < SETUP_SHARE * sum(busy.values()):
            t = time_setup(source)
            setup_busy += t
            setup_times.append(t)
    while source is not None and len(setup_times) < SETUP_MIN_REPS:
        setup_times.append(time_setup(source))
    return records, setup_times


def cross_check(records: dict[str, EngineRecord]) -> tuple[int, list[str]]:
    """Ops whose first-pass results are not alpha-equal across engines."""
    tree, naive = records["tree"].first, records["naive"].first
    bad = [
        f"op {i}: engines disagree"
        for i, (a, b) in enumerate(zip(tree, naive))
        if a is not None and b is not None and a != b
    ]
    return len(bad), bad


def make_contexts(sf) -> dict:
    return {
        e: engine.EvalContext.from_rules(sf.rules, engine=e, max_steps=MAX_STEPS)
        for e in ENGINES
    }


# ---------------------------------------------------------------------------
# Runs


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict  # name -> {"value": ..., "unit": ...[, "note": ...]}
    errors: list[str]

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


def _totals(records: dict[str, EngineRecord]) -> tuple[int, int, list[str]]:
    disagree, disagreements = cross_check(records)
    attempted = sum(r.attempted for r in records.values())
    failed = sum(r.failed for r in records.values()) + disagree
    errors = [f"{eng} {e}" for eng, r in records.items() for e in r.errors]
    return attempted, failed, errors + disagreements


def end_to_end_run(workload: Workload, seconds: float) -> RunResult:
    sf, _ = setup(workload.source)
    terms = compute_terms(sf, workload)
    records, setup_times = measure(
        make_contexts(sf), terms, workload.expected, seconds, workload.source
    )
    attempted, failed, errors = _totals(records)
    values = {"setup_s": statistics.median(setup_times)}
    for eng, r in records.items():
        values[f"{eng}_s"] = statistics.median(r.norm_s)
        values[f"{eng}_op_p50_ms"] = statistics.median(r.p50_ms)
        values[f"{eng}_op_p90_ms"] = statistics.median(r.p90_ms)
        values[f"{eng}_steps"] = r.steps
        print(
            f"{eng}: {len(r.wall_s)} passes, raw wall time per pass: median "
            f"{statistics.median(r.wall_s):.6f} s, min {min(r.wall_s):.6f} s",
            file=sys.stderr,
        )
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return RunResult(attempted, failed, metrics, errors)


def _tree_shape(trees: dict) -> tuple[dict, dict]:
    """Node counts by kind, depth and store size, summed over all trees."""
    names = ["dtree.nodes", "dtree.depth", "dtree.store_size"]
    names += [f"dtree.nodes.{kind}" for kind in NODE_KINDS]
    stats = getattr(dtree, "tree_stats", None)
    if stats is None:
        return {}, dict.fromkeys(names, "dtree.tree_stats no longer exists")
    values = {"dtree.nodes": 0, "dtree.depth": 0, "dtree.store_size": 0}
    notes = {}
    counts: dict[str, int] = {}
    for tree in trees.values():
        s = stats(tree)
        for kind, n in s["counts"].items():
            counts[kind] = counts.get(kind, 0) + n
        values["dtree.nodes"] += sum(s["counts"].values())
        values["dtree.depth"] = max(values["dtree.depth"], s["depth"])
        values["dtree.store_size"] = max(values["dtree.store_size"], s["store_size"])
    for kind, cls in NODE_KINDS.items():
        if hasattr(dtree, cls):
            values[f"dtree.nodes.{kind}"] = counts.get(kind, 0)
        else:
            notes[f"dtree.nodes.{kind}"] = f"dtree.{cls} no longer exists"
    return values, notes


def _span_values(tr: spans.Tracer, prefix: str, key: str, fields) -> tuple[dict, dict]:
    values, notes = {}, {}
    for f in fields:
        name = f"{prefix}{key}.{f}"
        if key in tr.missing:
            notes[name] = tr.missing[key]
            continue
        calls, self_s, hits = tr.stats[key]
        if f == "calls":
            values[name] = calls
        elif f in ("self_s", "s"):
            values[name] = self_s
        elif calls:
            values[name] = hits / calls
        else:
            notes[name] = "no calls"
    return values, notes


def _visit_values(tr: spans.Tracer) -> tuple[dict, dict]:
    values, notes = {}, {}
    for kind, cls in VISITED.items():
        name = f"tree.engine.eval_tree.visits.{kind}"
        if "engine.eval_tree" in tr.missing:
            notes[name] = tr.missing["engine.eval_tree"]
        elif not tr.visits:
            notes[name] = tr.visits_note
        elif not hasattr(dtree, cls):
            notes[name] = f"dtree.{cls} no longer exists"
        else:
            values[name] = tr.visits[kind]
    return values, notes


def traced_run(workload: Workload, seconds: float) -> RunResult:
    sf, _ = setup(workload.source)
    terms = compute_terms(sf, workload)
    untraced, _ = measure(make_contexts(sf), terms, workload.expected, seconds / 2)
    values: dict = {}
    notes: dict = {}
    traced: dict[str, EngineRecord] = {}

    def collect(pair):
        values.update(pair[0])
        notes.update(pair[1])

    with spans.Tracer() as tr:
        sf, ctx = setup(workload.source)
        for key in SETUP_SPANS:
            collect(_span_values(tr, "", key, ("s",)))
        tokenize = getattr(syntax, "tokenize", None)
        if tokenize is None:
            notes["syntax.tokens"] = "syntax.tokenize no longer exists"
        else:
            values["syntax.tokens"] = len(tokenize(workload.source))
        collect(_tree_shape(ctx.trees))
        for eng in ENGINES:
            ctx = engine.EvalContext.from_rules(sf.rules, engine=eng, max_steps=MAX_STEPS)
            tr.reset()
            p = run_pass(ctx, terms)
            traced[eng] = EngineRecord()
            traced[eng].add(p, workload.expected)
            for engines, key, fields in ENGINE_SPANS:
                if eng in engines:
                    collect(_span_values(tr, f"{eng}.", key, fields))
            if eng == "tree":
                collect(_visit_values(tr))
            if "engine.rewrite_head" in tr.missing:
                for kind in ("rule", "beta"):
                    notes[f"{eng}.engine.steps.{kind}"] = tr.missing["engine.rewrite_head"]
            else:
                rule_steps = tr.stats["engine.rewrite_head"][2]
                values[f"{eng}.engine.steps.rule"] = rule_steps
                values[f"{eng}.engine.steps.beta"] = p.steps - rule_steps
            values[f"{eng}.trace_overhead"] = p.norm_s / statistics.median(
                untraced[eng].norm_s
            )
    attempted, failed, errors = _totals(untraced)
    t_attempted, t_failed, t_errors = _totals(traced)
    attempted += t_attempted
    failed += t_failed
    values["fail_ratio"] = failed / attempted
    metrics = {}
    for name, unit in per_layer_names():
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
        else:
            metrics[name] = {"value": None, "unit": unit, "note": notes[name]}
    return RunResult(attempted, failed, metrics, errors + t_errors)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    workload = WORKLOADS[args.workload](args.seed)
    run = traced_run if args.trace else end_to_end_run
    result = run(workload, args.seconds)
    for line in result.errors:
        print(line, file=sys.stderr)
    print(result.to_json())
    return 0 if result.failed == 0 else 1
