"""Built-in benchmark corpora and the benchmark runner.

Three generated families exercise the engine paths that dominate real
workloads: ``fib(k)`` (unary arithmetic, heavy recursion), ``dispatch(K,M)``
(wide rule sets where matching order matters) and ``revnat(k)`` (quadratic
list traversal).  Scrutinee terms are built programmatically so corpus size
is not limited by parser nesting depth.
"""
from __future__ import annotations

import hashlib
import json
import re
import statistics
import time
from dataclasses import dataclass
from typing import Optional

from .engine import EvalContext, Steps, normalize
from .patterns import Rule
from .syntax import Compute, parse_file, print_term
from .terms import App, Term, symb

_BUILTIN_RE = re.compile(r"^(fib|dispatch|revnat)\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)$")


@dataclass(slots=True)
class Benchmark:
    name: str
    rules: list[Rule]
    scrutinees: list[Term]


def numeral(k: int) -> Term:
    t: Term = symb("0")
    s = symb("s")
    for _ in range(k):
        t = App(s, t)
    return t


def nat_list(values: list[int]) -> Term:
    t: Term = symb("nil")
    cons = symb("cons")
    for v in reversed(values):
        t = App(App(cons, numeral(v)), t)
    return t


FIB_RULES = """
symbol 0; symbol s; symbol +; symbol fib;
rule + 0 $m --> $m
with + (s $n) $m --> s (+ $n $m)
with + $m 0 --> $m
with + $m (s $n) --> s (+ $m $n);
rule fib 0 --> 0
with fib (s 0) --> s 0
with fib (s (s $n)) --> + (fib (s $n)) (fib $n);
"""

REVNAT_RULES = """
symbol 0; symbol s; symbol nil; symbol cons; symbol append; symbol rev;
rule append nil $l --> $l
with append (cons $x $k) $l --> cons $x (append $k $l);
rule rev nil --> nil
with rev (cons $x $k) --> append (rev $k) (cons $x nil);
"""


def _dispatch_source(k: int) -> str:
    decls = ["symbol a;", "symbol b;", "symbol tt;", "symbol ff;", "symbol g;"]
    decls += [f"symbol c{i};" for i in range(1, k + 1)]
    rules = [f"g c{i} a --> tt" for i in range(1, k + 1)]
    rules.append("g $x $y --> ff")
    return "\n".join(decls) + "\nrule " + "\nwith ".join(rules) + ";\n"


def fib_benchmark(k: int) -> Benchmark:
    source = parse_file(FIB_RULES)
    return Benchmark(f"fib({k})", source.rules, [App(symb("fib"), numeral(k))])


def dispatch_benchmark(k: int, m: int) -> Benchmark:
    source = parse_file(_dispatch_source(k))
    g = symb("g")
    a = symb("a")
    b = symb("b")
    cs = [symb(f"c{i}") for i in range(1, k + 1)]
    scrutinees = [
        App(App(g, cs[j % k]), a if j % 3 else b) for j in range(m)
    ]
    return Benchmark(f"dispatch({k},{m})", source.rules, scrutinees)


def revnat_benchmark(k: int) -> Benchmark:
    source = parse_file(REVNAT_RULES)
    values = [(j % 5) + 1 for j in range(k)]
    return Benchmark(
        f"revnat({k})", source.rules, [App(symb("rev"), nat_list(values))]
    )


def builtin_benchmark(spec: str) -> Optional[Benchmark]:
    m = _BUILTIN_RE.match(spec.strip())
    if m is None:
        return None
    kind, first, second = m.group(1), int(m.group(2)), m.group(3)
    if kind == "fib":
        return fib_benchmark(first)
    if kind == "revnat":
        return revnat_benchmark(first)
    if second is None:
        raise ValueError("dispatch needs two arguments: dispatch(K,M)")
    if first < 1:
        raise ValueError("dispatch needs at least one rule: K >= 1")
    return dispatch_benchmark(first, int(second))


def file_benchmark(name: str, text: str) -> Benchmark:
    source = parse_file(text)
    scrutinees = [item.term for item in source.items if isinstance(item, Compute)]
    return Benchmark(name, source.rules, scrutinees)


@dataclass(slots=True)
class BenchReport:
    name: str
    engine: str
    seconds: float
    steps: int
    result_hash: str
    repeats: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "engine": self.engine,
                "seconds": round(self.seconds, 6),
                "steps": self.steps,
                "result_hash": self.result_hash,
                "repeats": self.repeats,
            }
        )


def run_benchmark(
    bench: Benchmark,
    engine: str,
    repeat: int,
    max_steps: int = 10**8,
    strategy: str = "snf",
) -> BenchReport:
    """Median wall time over ``repeat`` runs of normalizing every scrutinee.

    Only normalization is timed; the results of the last run are printed
    and hashed after the clock stops.
    """
    ctx = EvalContext.from_rules(
        bench.rules, engine=engine, strategy=strategy, max_steps=max_steps
    )
    times = []
    for _ in range(repeat):
        results = []
        steps_used = 0
        t0 = time.perf_counter()
        for term in bench.scrutinees:
            steps = Steps(max_steps)
            results.append(normalize(ctx, term, steps))
            steps_used += steps.used
        times.append(time.perf_counter() - t0)
    h = hashlib.sha256()
    for result in results:
        h.update(print_term(result).encode())
        h.update(b";")
    digest = h.hexdigest()[:16]
    return BenchReport(
        name=bench.name,
        engine=engine,
        seconds=statistics.median(times),
        steps=steps_used,
        result_hash=digest,
        repeats=repeat,
    )
