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

Identifiers are any run of non-delimiter, non-whitespace characters, so
names like ``+`` or unicode letters work.  Application binds tighter than
binders; a binder body extends maximally to the right.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

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

# the kind of each one-character token, and of the words that are not names
_SINGLE = {c: c for c in "()[],;:.$"}
_SINGLE |= {"\\": "lam", "λ": "lam", "Π": "pi", "↪": "arrow"}
_WORDS = {"-->": "arrow", "==": "eqeq"}
_KEYWORDS = {"symbol", "rule", "with", "compute", "assert"}


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


@dataclass(slots=True)
class Token:
    kind: str  # one of ( ) [ ] , ; : . $ lam pi arrow eqeq word eof
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "/" and text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        kind = _SINGLE.get(c)
        if kind is not None:
            toks.append(Token(kind, c, line, col))
            i += 1
            col += 1
            continue
        j = i + 1
        while j < n:
            d = text[j]
            if d.isspace() or d in _SINGLE or (d == "/" and text.startswith("//", j)):
                break
            j += 1
        word = text[i:j]
        toks.append(Token(_WORDS.get(word, "word"), word, line, col))
        col += j - i
        i = j
    toks.append(Token("eof", "", line, col))
    return toks


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
    def __init__(self, toks: list[Token], scope: dict[str, Term]):
        self.toks = toks
        self.pos = 0
        self.scope = dict(scope)

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str, what: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(t.line, t.col, f"expected {what}, found {t.text!r}")
        return self.next()

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(t.line, t.col, msg)

    # -- terms -------------------------------------------------------------

    def term(self, binders: dict[str, Var], meta: bool) -> Term:
        t = self.peek()
        if t.kind == "lam":
            self.next()
            name = self.ident("binder name")
            sep = self.peek()
            if sep.kind not in (",", "."):
                self.fail("expected ',' or '.' after binder")
            self.next()
            v = fresh_var(name)
            body = self.term({**binders, name: v}, meta)
            return Abst(v, None, body)
        if t.kind == "pi":
            self.next()
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
        t = self.peek()
        if t.kind == "(":
            self.next()
            inner = self.term(binders, meta)
            self.expect(")", "')'")
            return inner
        if t.kind == "lam" or t.kind == "pi":
            # binder as the whole remaining app argument chain would be
            # ambiguous; binders start a term, not an atom
            return None
        if t.kind == "$":
            if not meta:
                raise ParseError(
                    t.line, t.col, "pattern variables are only allowed in rules"
                )
            self.next()
            name = self.ident("pattern-variable name")
            args: list[Term] = []
            if self.peek().kind == "[":
                self.next()
                while True:
                    args.append(self.bound_ref(binders))
                    if self.peek().kind == ",":
                        self.next()
                        continue
                    break
                self.expect("]", "']'")
            return MetaApp(name, tuple(args))
        if t.kind == "word":
            if t.text in _KEYWORDS:
                return None
            self.next()
            if t.text == "_":
                if not meta:
                    raise ParseError(t.line, t.col, "wildcard outside a rule")
                return MetaApp(None, ())
            if t.text == TYPE:
                return Sort(TYPE)
            if t.text == KIND:
                return Sort(KIND)
            if t.text in binders:
                return binders[t.text]
            if t.text in self.scope:
                return self.scope[t.text]
            raise ScopeError(t.line, t.col, t.text)
        return None

    def bound_ref(self, binders: dict[str, Var]) -> Var:
        t = self.peek()
        name = self.ident("bound variable name")
        v = binders.get(name)
        if v is None:
            raise ScopeError(t.line, t.col, name)
        return v

    def ident(self, what: str) -> str:
        t = self.peek()
        if t.kind != "word" or t.text in _KEYWORDS or t.text == "_":
            self.fail(f"expected {what}")
        self.next()
        return t.text

    # -- items -------------------------------------------------------------

    def file(self) -> SourceFile:
        items: list[Item] = []
        while self.peek().kind != "eof":
            items.append(self.item())
        return SourceFile(items)

    def item(self) -> Item:
        t = self.peek()
        if t.kind != "word":
            self.fail("expected a declaration, rule or directive")
        if t.text == "symbol":
            self.next()
            name = self.ident("symbol name")
            if self.peek().kind == ":":
                self.next()
                self.term({}, meta=False)
            self.expect(";", "';'")
            if name in self.scope:
                raise ParseError(t.line, t.col, f"symbol {name!r} redeclared")
            self.scope[name] = symb(name)
            return Declaration(name)
        if t.text == "rule":
            self.next()
            rules = [self.rule()]
            while self.peek().kind == "word" and self.peek().text == "with":
                self.next()
                rules.append(self.rule())
            self.expect(";", "';'")
            return RuleBlock(rules)
        if t.text == "compute":
            self.next()
            term = self.term({}, meta=False)
            self.expect(";", "';'")
            return Compute(term, t.line)
        if t.text == "assert":
            self.next()
            lhs = self.term({}, meta=False)
            self.expect("eqeq", "'=='")
            rhs = self.term({}, meta=False)
            self.expect(";", "';'")
            return Assert(lhs, rhs, t.line)
        self.fail(f"unknown item {t.text!r}")

    def rule(self) -> Rule:
        t = self.peek()
        lhs = self.term({}, meta=True)
        self.expect("arrow", "rule arrow")
        rhs = self.term({}, meta=True)
        head, pats = lhs_to_patterns(lhs, t.line, t.col)
        return Rule(head, pats, rhs, label=f"{head}@{t.line}")


def lhs_to_patterns(lhs: Term, line: int, col: int) -> tuple[str, tuple[Pattern, ...]]:
    head, args = spine(lhs)
    if type(head) is not Symb:
        raise ParseError(line, col, "rule left-hand side must apply a symbol")
    return head.name, tuple(term_to_pattern(a, line, col) for a in args)


def term_to_pattern(t: Term, line: int, col: int) -> Pattern:
    tt = type(t)
    if tt is MetaApp:
        for a in t.args:
            if type(a) is not Var:
                raise ParseError(
                    line, col, "pattern-variable arguments must be bound variables"
                )
        return PatVar(t.name, t.args)
    if tt is Abst:
        return PatAbst(t.var, term_to_pattern(t.body, line, col))
    if tt is Var:
        raise ParseError(
            line,
            col,
            f"bare bound variable {t.name!r} in a pattern; "
            "apply a pattern variable to it instead",
        )
    head, args = spine(t)
    if type(head) is not Symb:
        raise ParseError(line, col, "unsupported pattern shape")
    return PatSymb(head.name, tuple(term_to_pattern(a, line, col) for a in args))


def parse_file(text: str) -> SourceFile:
    """Parse a source file.

    Raises ParseError for syntax and ScopeError for undeclared identifiers.
    The rules are validated where they are compiled
    (``dtree.trees_of_ruleset``).
    """
    return _Parser(tokenize(text), {}).file()


def parse_term(text: str, scope: dict[str, Term], meta: bool = False) -> Term:
    """Parse one term; ``scope`` maps names to symbols or free variables."""
    parser = _Parser(tokenize(text), scope)
    term = parser.term({}, meta=meta)
    parser.expect("eof", "end of input")
    return term


# ---------------------------------------------------------------------------
# Printing


_TOP, _HEAD, _ARG, _DOMAIN = 0, 1, 2, 3


def print_term(t: Term) -> str:
    """Render a term; ``parse_term`` maps the output back to an
    alpha-equivalent term given a scope with the symbols and free variables.

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
        elif tx is Abst:
            name = _pick_name(x.var, names, reserved)
            names2 = {**names, x.var.vid: name}
            close = ctx != _TOP
            if close:
                work.append(")")
            work.append((x.body, _TOP, names2))
            work.append(f"\\{name}, ")
            if close:
                work.append("(")
        elif tx is Prod:
            name = _pick_name(x.var, names, reserved)
            names2 = {**names, x.var.vid: name}
            close = ctx != _TOP
            if close:
                work.append(")")
            work.append((x.codomain, _TOP, names2))
            work.append(", ")
            work.append((x.domain, _DOMAIN, names))
            work.append(f"Π{name} : ")
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
    while name in taken or name in _KEYWORDS or name == "_":
        name += "'"
    return name
