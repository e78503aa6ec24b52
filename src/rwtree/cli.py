"""Command-line front end.

Exit codes: 0 ok, 1 usage (bad arguments, or a missing or unreadable input
file), 2 parse error, 3 validation or unknown symbol, 4 assertion failure,
5 rewrite budget exhausted, 6 input too deep for the Python recursion limit.
The parser reads any depth; what still reaches exit 6 is a rule right-hand
side nested thousands deep, which the right-hand-side builders walk
recursively, and evaluation that recurses once per level, such as
normalising a long list.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dtree import to_dot, tree_stats, tree_text, trees_of_ruleset
from .engine import DivergenceError, EvalContext, Steps, convertible, snf, whnf
from .patterns import RuleSetError
from .syntax import (
    Assert,
    Compute,
    ParseError,
    ScopeError,
    parse_file,
    print_term,
)

OK, USAGE, PARSE, VALIDATION, ASSERTION, DIVERGENCE, TOO_DEEP = 0, 1, 2, 3, 4, 5, 6


class UsageError(Exception):
    pass


# what main reports for each failure: the stderr prefix the message follows,
# and the exit code; a RecursionError's own message names no input
_FAILURES = (
    (UsageError, "usage error", USAGE),
    (ParseError, "parse error", PARSE),
    (ScopeError, "scope error", VALIDATION),
    (RuleSetError, "validation error", VALIDATION),
    (DivergenceError, "divergence", DIVERGENCE),
    (RecursionError, "input too deep", TOO_DEEP),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="rwtree", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="parse, validate and compile a file")
    c.add_argument("file")

    r = sub.add_parser("run", help="execute compute/assert directives")
    r.add_argument("file")
    r.add_argument("--strategy", choices=["whnf", "snf"], default="snf")
    r.add_argument("--engine", choices=["tree", "naive"], default="tree")
    r.add_argument("--max-steps", type=int, default=10**8)

    t = sub.add_parser("tree", help="print the decision tree for a symbol")
    t.add_argument("file")
    t.add_argument("symbol")
    t.add_argument("--arity", type=int, default=None)
    t.add_argument("--dot", action="store_true")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "check":
            return cmd_check(args.file)
        if args.command == "run":
            return cmd_run(args.file, args.strategy, args.engine, args.max_steps)
        if args.command == "tree":
            return cmd_tree(args.file, args.symbol, args.arity, args.dot)
    except tuple(cls for cls, _, _ in _FAILURES) as e:
        prefix, code = next((p, c) for cls, p, c in _FAILURES if isinstance(e, cls))
        detail = e
        if isinstance(e, RecursionError):
            detail = "nesting exceeds the recursion limit"
        print(f"{prefix}: {detail}", file=sys.stderr)
        return code
    raise AssertionError("unreachable")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise UsageError(f"cannot read {path}: not UTF-8 ({e.reason})") from None


def cmd_check(path: str) -> int:
    source = parse_file(_read(path))
    trees = trees_of_ruleset(source.rules)
    print(f"{path}: ok, {len(source.rules)} rules, {len(trees)} trees")
    for (head, arity), tree in sorted(trees.items()):
        stats = tree_stats(tree)
        counts = " ".join(f"{k}={v}" for k, v in sorted(stats["counts"].items()))
        print(
            f"  {head}/{arity}: depth={stats['depth']} "
            f"slots={stats['store_size']} {counts}"
        )
    return OK


def cmd_run(path: str, strategy: str, engine: str, max_steps: int) -> int:
    if max_steps < 1:
        raise UsageError("--max-steps must be positive")
    source = parse_file(_read(path))
    ctx = EvalContext.from_rules(source.rules, engine=engine, max_steps=max_steps)
    normalize = snf if strategy == "snf" else whnf
    for item in source.items:
        if isinstance(item, Compute):
            result = normalize(ctx, item.term, Steps(max_steps))
            print(print_term(result))
        elif isinstance(item, Assert):
            if not convertible(ctx, item.lhs, item.rhs, Steps(max_steps)):
                print(
                    f"assertion failed at line {item.line}: "
                    f"{print_term(item.lhs)} != {print_term(item.rhs)}",
                    file=sys.stderr,
                )
                return ASSERTION
    return OK


def cmd_tree(path: str, symbol: str, arity, dot: bool) -> int:
    source = parse_file(_read(path))
    trees = trees_of_ruleset(source.rules)
    keys = [
        key
        for key in sorted(trees)
        if key[0] == symbol and (arity is None or key[1] == arity)
    ]
    if not keys:
        wanted = symbol if arity is None else f"{symbol}/{arity}"
        print(f"no rules for {wanted}", file=sys.stderr)
        return VALIDATION
    for key in keys:
        if dot:
            print(to_dot(trees[key], print_rhs=print_term))
        else:
            print(f"{key[0]}/{key[1]}:")
            print(tree_text(trees[key], print_rhs=print_term))
    return OK
