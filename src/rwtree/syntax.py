"""Surface language: declarations, rule blocks and directives.

Grammar (whitespace-insensitive, ``//`` line comments)::

    file  := item*
    item  := "symbol" IDENT (":" term)? ";"
           | "rule" rule ("with" rule)* ";"
           | "compute" term ";"
           | "assert" term "==" term ";"
    rule  := term ARROW term          ARROW is "-->" or the hook arrow
    term  := lam | prod | app
    lam   := ("\\" | lambda) IDENT ("," | ".") term
    prod  := PI IDENT ":" app "," term
    app   := atom+                    left-nested
    atom  := IDENT | "$" IDENT ("[" IDENT ("," IDENT)* "]")?
           | "_" | "TYPE" | "KIND" | "(" term ")"

A token is a one-character delimiter (``( ) [ ] , ; : . $``, a binder sign
or the hook arrow) or a run of other non-whitespace characters, so names
like ``+`` or unicode letters work; ``//`` starts a comment that runs to the
end of the line.  Application binds tighter than binders; a binder body
extends maximally to the right.  ``TYPE``, ``KIND``, ``_`` and the keywords
are never names.

The tokenizer keeps token texts only.  The parser records where each line's
tokens start, so a token's line is one bisection; its column is found only
when an error is raised, by scanning that one line again.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import NoReturn, Optional, Union

from .patterns import PatAbst, PatSymb, PatVar, Pattern, Rule
from .terms import (
    KIND,
    TYPE,
    Abst,
    App,
    MetaApp,
    Prod,
    Sort,
    Symb,
    Term,
    Var,
    fresh_var,
    iter_nodes,
    spine,
    symb,
)

# the kind of every token that is not a word: first the one-character
# delimiters, which a token is made of or stops at; "" ends the token list
_KIND = {c: c for c in "()[],;:.$"} | {"\\": "lam", "λ": "lam", "Π": "pi", "↪": "arrow"}
_DELIMITERS = re.escape("".join(_KIND))
_TOKEN = re.compile(f"[{_DELIMITERS}]|[^\\s{_DELIMITERS}]+")
_KIND |= {"-->": "arrow", "==": "eqeq", "": "eof"}
_KEYWORDS = {"symbol", "rule", "with", "compute", "assert"}
_RESERVED = _KEYWORDS | {"_", TYPE, KIND}


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


class ScopeError(Exception):
    def __init__(self, line: int, col: int, name: str):
        self.line = line
        self.col = col
        self.name = name
        super().__init__(f"{line}:{col}: undeclared identifier {name!r}")


def _code(line: str) -> str:
    """The part of a source line before its comment."""
    return line.partition("//")[0]


def _scan(text: str) -> tuple[list[str], list[int]]:
    """Token texts, ending with ``""``, and the index of each line's first
    token.  ``//`` never occurs inside a token, so cutting there is exact."""
    toks: list[str] = []
    line_starts = []
    for line in text.split("\n"):
        line_starts.append(len(toks))
        toks += _TOKEN.findall(_code(line))
    toks.append("")
    return toks, line_starts


def tokenize(text: str) -> list[str]:
    """Token texts of ``text``, ending with the end-of-file sentinel ``""``."""
    return _scan(text)[0]


@dataclass(slots=True)
class Declaration:
    """``symbol name;``.  A ``: T`` annotation is parsed and scope-checked,
    then dropped: the engine is untyped."""

    name: str


@dataclass(slots=True)
class RuleBlock:
    rules: list[Rule]


@dataclass(slots=True)
class Compute:
    term: Term
    line: int = 0


@dataclass(slots=True)
class Assert:
    lhs: Term
    rhs: Term
    line: int = 0


Item = Union[Declaration, RuleBlock, Compute, Assert]


@dataclass(slots=True)
class SourceFile:
    items: list[Item]

    @property
    def rules(self) -> list[Rule]:
        out = []
        for item in self.items:
            if isinstance(item, RuleBlock):
                out.extend(item.rules)
        return out


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks, self.line_starts = _scan(text)
        self.pos = 0
        self.scope: dict[str, Term] = {}  # declared symbols by name

    def peek(self) -> str:
        return self.toks[self.pos]

    def kind(self) -> str:
        return _KIND.get(self.toks[self.pos], "word")

    def line(self, i: int) -> int:
        """Line of token ``i``: the last line starting at or before it (a
        line without tokens starts where the next line does)."""
        return bisect_right(self.line_starts, i)

    def where(self, i: int) -> tuple[int, int]:
        """Line and column of token ``i``, found by scanning its line again."""
        line = self.line(i)
        code = _code(self.text.split("\n")[line - 1])
        # the end of file is one column past the code, where a comment starts
        cols = [m.start() + 1 for m in _TOKEN.finditer(code)] + [len(code) + 1]
        return line, cols[i - self.line_starts[line - 1]]

    def expect(self, kind: str, what: str) -> None:
        if self.kind() != kind:
            self.fail(f"expected {what}, found {self.peek()!r}")
        self.pos += 1

    def fail(self, msg: str, at: Optional[int] = None) -> NoReturn:
        raise ParseError(*self.where(self.pos if at is None else at), msg)

    # -- terms -------------------------------------------------------------

    def term(self, binders: dict[str, Var], meta: bool) -> Term:
        kind = self.kind()
        if kind == "lam":
            self.pos += 1
            name = self.ident("binder name")
            if self.kind() not in (",", "."):
                self.fail("expected ',' or '.' after binder")
            self.pos += 1
            v = fresh_var(name)
            body = self.term({**binders, name: v}, meta)
            return Abst(v, None, body)
        if kind == "pi":
            self.pos += 1
            name = self.ident("binder name")
            self.expect(":", "':' after product binder")
            domain = self.app({**binders}, meta)
            self.expect(",", "',' after product domain")
            v = fresh_var(name)
            codomain = self.term({**binders, name: v}, meta)
            return Prod(v, domain, codomain)
        return self.app(binders, meta)

    def app(self, binders: dict[str, Var], meta: bool) -> Term:
        t = self.atom(binders, meta)
        if t is None:
            self.fail("expected a term")
        while True:
            a = self.atom(binders, meta)
            if a is None:
                return t
            t = App(t, a)

    def atom(self, binders: dict[str, Var], meta: bool) -> Optional[Term]:
        text = self.peek()
        kind = _KIND.get(text, "word")
        if kind == "word":
            # reserved names are never bound or declared
            found = binders.get(text)
            if found is None:
                found = self.scope.get(text)
            if found is None:
                if text in _KEYWORDS:
                    return None
                if text == "_":
                    if not meta:
                        self.fail("wildcard outside a rule")
                    found = MetaApp(None, ())
                elif text == TYPE or text == KIND:
                    found = Sort(text)
                else:
                    raise ScopeError(*self.where(self.pos), text)
            self.pos += 1
            return found
        if kind == "(":
            self.pos += 1
            inner = self.term(binders, meta)
            self.expect(")", "')'")
            return inner
        if kind == "$":
            if not meta:
                self.fail("pattern variables are only allowed in rules")
            self.pos += 1
            name = self.ident("pattern-variable name")
            args: list[Term] = []
            if self.kind() == "[":
                self.pos += 1
                args.append(self.bound_ref(binders))
                while self.kind() == ",":
                    self.pos += 1
                    args.append(self.bound_ref(binders))
                self.expect("]", "']'")
            return MetaApp(name, tuple(args))
        # a binder starts a term, not an atom: as the whole remaining
        # argument chain it would be ambiguous
        return None

    def bound_ref(self, binders: dict[str, Var]) -> Var:
        name = self.ident("bound variable name")
        v = binders.get(name)
        if v is None:
            raise ScopeError(*self.where(self.pos - 1), name)
        return v

    def ident(self, what: str) -> str:
        text = self.peek()
        if self.kind() != "word" or text in _RESERVED:
            self.fail(f"expected {what}")
        self.pos += 1
        return text

    # -- items -------------------------------------------------------------

    def file(self) -> SourceFile:
        items: list[Item] = []
        while self.kind() != "eof":
            items.append(self.item())
        return SourceFile(items)

    def item(self) -> Item:
        start = self.pos
        text = self.peek()
        if text == "symbol":
            self.pos += 1
            name = self.ident("symbol name")
            if self.kind() == ":":
                self.pos += 1
                self.term({}, meta=False)
            self.expect(";", "';'")
            if name in self.scope:
                self.fail(f"symbol {name!r} redeclared", start)
            self.scope[name] = symb(name)
            return Declaration(name)
        if text == "rule":
            self.pos += 1
            rules = [self.rule()]
            while self.peek() == "with":
                self.pos += 1
                rules.append(self.rule())
            self.expect(";", "';'")
            return RuleBlock(rules)
        if text == "compute":
            self.pos += 1
            term = self.term({}, meta=False)
            self.expect(";", "';'")
            return Compute(term, self.line(start))
        if text == "assert":
            self.pos += 1
            lhs = self.term({}, meta=False)
            self.expect("eqeq", "'=='")
            rhs = self.term({}, meta=False)
            self.expect(";", "';'")
            return Assert(lhs, rhs, self.line(start))
        if self.kind() != "word":
            self.fail("expected a declaration, rule or directive")
        self.fail(f"unknown item {text!r}")

    def rule(self) -> Rule:
        start = self.pos
        lhs = self.term({}, meta=True)
        self.expect("arrow", "rule arrow")
        rhs = self.term({}, meta=True)
        head, args = spine(lhs)
        if type(head) is not Symb:
            self.fail("rule left-hand side must apply a symbol", start)
        pats = tuple(self.pattern(a, start) for a in args)
        return Rule(head.name, pats, rhs, label=f"{head.name}@{self.line(start)}")

    def pattern(self, t: Term, start: int) -> Pattern:
        """The pattern that the term ``t`` spells; errors point at ``start``,
        the first token of its rule."""
        tt = type(t)
        if tt is MetaApp:
            if any(type(a) is not Var for a in t.args):
                self.fail("pattern-variable arguments must be bound variables", start)
            return PatVar(t.name, t.args)
        if tt is Abst:
            return PatAbst(t.var, self.pattern(t.body, start))
        if tt is Var:
            self.fail(
                f"bare bound variable {t.name!r} in a pattern; "
                "apply a pattern variable to it instead",
                start,
            )
        head, args = spine(t)
        if type(head) is not Symb:
            self.fail("unsupported pattern shape", start)
        return PatSymb(head.name, tuple(self.pattern(a, start) for a in args))


def parse_file(text: str) -> SourceFile:
    """Parse a source file.

    Raises ParseError for syntax and ScopeError for undeclared identifiers.
    The rules are validated where they are compiled
    (``dtree.trees_of_ruleset``).
    """
    return _Parser(text).file()


# ---------------------------------------------------------------------------
# Printing


_TOP, _HEAD, _ARG, _DOMAIN = 0, 1, 2, 3


def print_term(t: Term) -> str:
    """Render a term.  With its symbols declared, the output parses as the
    term of a ``compute`` line to a term alpha-equivalent to ``t``.

    Binder display names are primed when they would capture a symbol, a free
    variable or an enclosing binder.  Iterative, safe for very deep terms.
    """
    reserved = _reserved_names(t)
    out: list[str] = []
    # work items: literal strings, or (term, context, names: vid -> printed)
    work: list = [(t, _TOP, {})]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        x, ctx, names = item
        tx = type(x)
        if tx is Var:
            out.append(names.get(x.vid, x.name))
        elif tx is Symb:
            out.append(x.name)
        elif tx is Sort:
            out.append(x.kind)
        elif tx is App:
            if ctx == _ARG:
                work.append(")")
            work.append((x.arg, _ARG, names))
            work.append(" ")
            work.append((x.fn, _HEAD, names))
            if ctx == _ARG:
                work.append("(")
        elif tx is Abst or tx is Prod:
            name = _pick_name(x.var, names, reserved)
            body = x.body if tx is Abst else x.codomain
            close = ctx != _TOP
            if close:
                work.append(")")
            work.append((body, _TOP, {**names, x.var.vid: name}))
            work.append(", ")
            if x.domain is not None:
                work.append((x.domain, _DOMAIN, names))
                work.append(" : ")
            work.append(("\\" if tx is Abst else "Π") + name)
            if close:
                work.append("(")
        elif tx is MetaApp:
            base = "_" if x.name is None else f"${x.name}"
            if not x.args:
                out.append(base)
            else:
                work.append("]")
                for i, a in enumerate(reversed(x.args)):
                    work.append((a, _TOP, names))
                    if i != len(x.args) - 1:
                        work.append(",")
                work.append(base + "[")
        else:
            raise TypeError(f"cannot print {tx!r}")
    return "".join(out)


def _reserved_names(t: Term) -> set[str]:
    names: set[str] = set()
    bound: set[int] = set()
    for node in iter_nodes(t):
        tn = type(node)
        if tn is Symb:
            names.add(node.name)
        elif tn in (Abst, Prod):
            bound.add(node.var.vid)
    for node in iter_nodes(t):
        if type(node) is Var and node.vid not in bound:
            names.add(node.name)
    return names


def _pick_name(v: Var, names: dict[int, str], reserved: set[str]) -> str:
    taken = reserved | set(names.values())
    name = v.name
    while name in taken or name in _RESERVED:
        name += "'"
    return name
