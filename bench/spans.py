"""Span tracing by rebinding rwtree's public functions.

A traced function is replaced by a wrapper at every module binding that
holds it, so calls through ``from .terms import subst`` in ``engine`` and
``patterns`` are seen as well as calls inside ``terms``.  Each wrapper keeps
three running totals: calls, self time (span duration minus the time of
nested spans, tracked with a span stack) and calls that returned a value
other than None.  A call made directly from inside a span of the same
function (the recursion in ``apply_subst``) is not a new span: its time
stays with the outer call.

Functions that no longer exist are recorded in ``missing`` with a note
instead of failing, so the traced run keeps working while the package's
API changes.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable

PACKAGE = "rwtree"
# (module, function) pairs of PACKAGE traced under the key "module.function"
TARGETS = (
    ("syntax", "parse_file"),
    ("patterns", "validate_rule"),
    ("matrix", "from_rules"),
    ("dtree", "compile_matrix"),
    ("engine", "snf"),
    ("engine", "whnf"),
    ("engine", "rewrite_head"),
    ("engine", "eval_tree"),
    ("engine", "instantiate"),
    ("engine", "equal_terms"),
    ("patterns", "naive_rewrite_head"),
    ("patterns", "match_patterns"),
    ("patterns", "apply_subst"),
    ("terms", "subst"),
    ("terms", "free_vars"),
)

# eval_tree's trace entries start with one of these tags; "no-case" is a
# Switch visit that found no matching case
VISIT_KINDS = {
    "switch": "switch",
    "no-case": "switch",
    "swap": "swap",
    "store": "store",
    "leaf": "leaf",
    "nl": "nl",
    "cl": "cl",
    "fail": "fail",
}


class Tracer:
    """Installs span wrappers into the package and aggregates them on the fly.

    Use as a context manager; leaving it restores every original binding.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self_s, non-None]
        self.visits: dict[str, int] = {}  # eval_tree node visits by kind
        self.missing: dict[str, str] = {}  # key -> why it is not traced
        self.visits_note = ""  # set when eval_tree visits cannot be counted
        self._stack: list[list] = []  # open spans: [key, time of children]
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for mod, name in TARGETS:
            key = f"{mod}.{name}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{mod}")
            except ImportError:
                self.missing[key] = f"module {PACKAGE}.{mod} no longer exists"
                continue
            fn = getattr(home, name, None)
            if not callable(fn):
                self.missing[key] = f"{PACKAGE}.{mod}.{name} no longer exists"
                continue
            self._install(fn, self._wrap(key, fn))
        if "engine.eval_tree" not in self.missing and not self.visits:
            self.visits_note = "eval_tree has no trace= parameter"
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def reset(self) -> None:
        for rec in self.stats.values():
            rec[:] = [0, 0.0, 0]
        for kind in self.visits:
            self.visits[kind] = 0

    def _install(self, fn: Callable, wrapper: Callable) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname == PACKAGE or modname.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))

    def _wrap(self, key: str, fn: Callable) -> Callable:
        rec = self.stats[key] = [0, 0.0, 0]
        stack = self._stack
        clock = time.perf_counter
        visits = None
        if key == "engine.eval_tree" and _takes_trace(fn):
            visits = self.visits
            for kind in set(VISIT_KINDS.values()):
                visits[kind] = 0

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is key:
                return fn(*args, **kwargs)
            trace = None
            if visits is not None and "trace" not in kwargs:
                trace = kwargs["trace"] = []
            frame = [key, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if result is not None:
                rec[2] += 1
            if trace:
                for entry in trace:
                    kind = VISIT_KINDS.get(entry[0])
                    if kind is not None:
                        visits[kind] += 1
            return result

        return wrapper


def _takes_trace(fn: Callable) -> bool:
    try:
        return "trace" in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
