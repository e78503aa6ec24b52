"""Seeded generators for the benchmark workloads.

Each generator turns a seed into one ``.rw`` source text (rules plus one
``compute`` line per op) and, for every op in source order, the result the
harness checks it against.  The generators know nothing of rwtree: the
program only ever sees the text.

Run-to-run stability comes first, because the totals are compared across
seeds.  Where the cost of an op depends steeply on a seeded choice, the
generator fixes how often each cost class occurs and lets the seed choose
the rest: ``fib`` fixes how often each N occurs and seeds the order,
``dispatch`` fixes the share of ``a`` and ``b`` ops and seeds which rule each
op targets, and ``hol`` fixes how often each function shape occurs and
seeds its leaves.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional, Union

# An expected result: ("numeral", n) is the unary numeral s^n 0,
# ("symbol", name) is that bare symbol, None means only the two engines'
# results are compared.
Expected = Optional[tuple[str, Union[int, str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    source: str
    expected: tuple[Expected, ...]


FIB_RULES = """\
symbol 0; symbol s; symbol +; symbol fib;
rule + 0 $m --> $m
with + (s $n) $m --> s (+ $n $m)
with + $m 0 --> $m
with + $m (s $n) --> s (+ $m $n);
rule fib 0 --> 0
with fib (s 0) --> s 0
with fib (s (s $n)) --> + (fib (s $n)) (fib $n);
"""

# How many ``fib N`` ops a run holds for each N.  Tree cost grows about 2.5x
# per step of N, so drawing N at random would make a run's total depend on
# how many large N the seed happened to pick.  The counts fall with N and are
# chosen so that the 50th and 90th latency percentiles land inside a group
# of equal N, not on the edge between two groups.
FIB_COUNTS = {4: 30, 5: 25, 6: 20, 7: 20, 8: 15, 9: 10, 10: 5}


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def unary(n: int) -> str:
    return "(s " * n + "0" + ")" * n


def fib_workload(seed: int, counts: dict[int, int] = FIB_COUNTS) -> Workload:
    ns = [n for n, c in counts.items() for _ in range(c)]
    random.Random(seed).shuffle(ns)
    lines = [f"compute fib {unary(n)};" for n in ns]
    return Workload(
        "fib",
        FIB_RULES + "\n".join(lines) + "\n",
        tuple(("numeral", fibonacci(n)) for n in ns),
    )


def dispatch_workload(seed: int, k: int = 200, ops: int = 2000) -> Workload:
    """One head ``g`` with ``g cI a --> tt`` for I in 1..k and the fallback
    ``g $x b --> ff``.  The rules do not overlap, so the rule set is
    confluent and every op has exactly one answer.  Two thirds of the ops
    end in ``a``; I is drawn uniformly."""
    rng = random.Random(seed)
    decls = ["symbol a;", "symbol b;", "symbol tt;", "symbol ff;", "symbol g;"]
    decls += [f"symbol c{i};" for i in range(1, k + 1)]
    rules = [f"g c{i} a --> tt" for i in range(1, k + 1)]
    rules.append("g $x b --> ff")
    tails = ["a" if j % 3 else "b" for j in range(ops)]
    rng.shuffle(tails)
    lines = [f"compute g c{rng.randint(1, k)} {t};" for t in tails]
    source = (
        "\n".join(decls)
        + "\nrule "
        + "\nwith ".join(rules)
        + ";\n"
        + "\n".join(lines)
        + "\n"
    )
    return Workload(
        "dispatch",
        source,
        tuple(("symbol", "tt" if t == "a" else "ff") for t in tails),
    )


HOL_RULES = r"""symbol d; symbol sin; symbol cos; symbol +; symbol *; symbol neg;
symbol sub; symbol 0; symbol 1; symbol a; symbol b;
rule d (\x, $c) --> \x, 0
with d (\x, sin $u[x]) --> \x, * (cos $u[x]) (d (\x, $u[x]) x)
with d (\x, cos $u[x]) --> \x, * (neg (sin $u[x])) (d (\x, $u[x]) x)
with d (\x, + $u[x] $v[x]) --> \x, + (d (\x, $u[x]) x) (d (\x, $v[x]) x)
with d (\x, * $u[x] $v[x]) --> \x, + (* (d (\x, $u[x]) x) $v[x]) (* $u[x] (d (\x, $v[x]) x));
rule * $p 0 --> 0 with * 0 $p --> 0 with * 1 $p --> $p with * $p 1 --> $p;
rule + 0 $p --> $p with + $p 0 --> $p;
rule neg 0 --> 0;
rule sub $p $p --> 0;
"""

# Every generated function body has exactly these operators and these
# leaves (the constant is ``a`` or ``b``).  The operators can nest in 120
# shapes; every pass holds each shape a fixed number of times, and the seed
# picks which leaf goes where, the constant, the redex of each ``sub`` op
# and the order of the ops.  Drawing shapes at random instead moved the
# 90th latency percentile by 7-9% from seed to seed.
HOL_OPERATORS = ("*", "+", "sin", "cos")
HOL_LEAVES = ("x", "x", "const")

Expr = Union[str, tuple]


def _shapes(ops: tuple) -> list[Expr]:
    """Every tree that applies ``ops`` in this order, outermost first, with
    "L" for a leaf; a binary operator splits the operators after it."""
    if not ops:
        return ["L"]
    op, rest = ops[0], ops[1:]
    if op in ("sin", "cos"):
        return [(op, s) for s in _shapes(rest)]
    return [
        (op, left, right)
        for split in range(len(rest) + 1)
        for left in _shapes(rest[:split])
        for right in _shapes(rest[split:])
    ]


FUNCTION_SHAPES = sorted(
    {s for ops in itertools.permutations(HOL_OPERATORS) for s in _shapes(ops)},
    key=repr,
)


def random_function(rng: random.Random, shape: Expr) -> Expr:
    """``shape`` with its leaves filled in a seeded order."""
    leaves = [rng.choice("ab") if v == "const" else v for v in HOL_LEAVES]
    rng.shuffle(leaves)
    todo = iter(leaves)

    def fill(x: Expr) -> Expr:
        if x == "L":
            return next(todo)
        return (x[0],) + tuple(fill(child) for child in x[1:])

    return fill(shape)


def subterm_paths(e: Expr, path: tuple = ()) -> list[tuple]:
    out = [path]
    if isinstance(e, tuple):
        for i, child in enumerate(e[1:], start=1):
            out += subterm_paths(child, path + (i,))
    return out


def insert_redex(rng: random.Random, e: Expr) -> Expr:
    """``e`` with one subterm u replaced by ``* 1 u`` or ``+ u 0``, so the
    result is convertible to ``e`` but not syntactically equal to it."""
    path = rng.choice(subterm_paths(e))

    def go(x: Expr, path: tuple) -> Expr:
        if not path:
            return ("*", "1", x) if rng.random() < 0.5 else ("+", x, "0")
        i = path[0]
        return x[:i] + (go(x[i], path[1:]),) + x[i + 1:]

    return go(e, path)


def render(e: Expr) -> str:
    if isinstance(e, str):
        return e
    return "(" + " ".join(render(x) for x in e) + ")"


def hol_workload(seed: int, n_shapes: int = len(FUNCTION_SHAPES)) -> Workload:
    """Two ``d (\\x, f)`` ops and one ``sub (d (\\x, f)) (d (\\x, f'))`` op
    for each of the first ``n_shapes`` function shapes.  ``d`` differentiates
    f; ``sub`` normalises to ``0`` only if the non-linear check on
    ``sub $p $p`` finds the two derivatives convertible."""
    rng = random.Random(seed)
    shapes = FUNCTION_SHAPES[:n_shapes]
    lines = [
        f"compute d (\\x, {render(random_function(rng, shape))});"
        for shape in shapes * 2
    ]
    expected: list[Expected] = [None] * len(lines)
    for shape in shapes:
        f = random_function(rng, shape)
        g = insert_redex(rng, f)
        lines.append(f"compute sub (d (\\x, {render(f)})) (d (\\x, {render(g)}));")
        expected.append(("symbol", "0"))
    order = list(range(len(lines)))
    rng.shuffle(order)
    return Workload(
        "hol",
        HOL_RULES + "\n".join(lines[i] for i in order) + "\n",
        tuple(expected[i] for i in order),
    )


WORKLOADS = {
    "fib": fib_workload,
    "dispatch": dispatch_workload,
    "hol": hol_workload,
}
