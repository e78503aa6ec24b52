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

A product ``Πx : A, B`` is read as ``terms.Prod`` builds it, ``Π A (\\x, B)``;
no source text can name the symbol ``Π``, so no rule may define or match it.

The tokenizer keeps token texts only.  It cuts the comments out in one regex
pass, pads each delimiter with spaces and splits each line at whitespace with
``str.split()``.  A token's line is one bisection of where each line's tokens
start; its column is found only for an error, in that line's text.

The parser is one loop per term, with its own stack of open binders,
product domains and parentheses, and one loop per rule's patterns; nothing
in it recurses, so no nesting depth costs Python stack.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import NoReturn, Optional, Union

from .patterns import PatAbst, PatSymb, PatVar, Pattern, Rule
from .terms import (
    KIND,
    PI,
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
    spine,
    symb,
)

# the kind of every token that is not a word: first the one-character
# delimiters, which a token is made of or stops at; "" ends the token list
_KIND = {c: c for c in "()[],;:.$"} | {"\\": "lam", "λ": "lam", "Π": "pi", "↪": "arrow"}
# each delimiter padded with spaces, so that str.split cuts the text there
_PADDED = [(c, f" {c} ") for c in _KIND]
_KIND |= {"-->": "arrow", "==": "eqeq", "": "eof"}
_COMMENT = re.compile("//.*")
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


def _scan(text: str) -> tuple[list[str], list[int]]:
    """Token texts, ending with ``""``, and the index of each line's first
    token, or of the next line's if it has none: token ``i`` is on line
    ``bisect_right(line_starts, i)``.  Comments go first: no token has ``//``."""
    text = _COMMENT.sub("", text)
    for c, padded in _PADDED:
        if c in text:  # far cheaper than a replace that finds nothing
            text = text.replace(c, padded)
    toks: list[str] = []
    line_starts = []
    for line in text.split("\n"):
        line_starts.append(len(toks))
        toks += line.split()
    toks.append("")
    return toks, line_starts


def tokenize(text: str) -> list[str]:
    """Token texts of ``text``, ending with the end-of-file sentinel ``""``."""
    return _scan(text)[0]


@dataclass(slots=True)
class Compute:
    term: Term


@dataclass(slots=True)
class Assert:
    lhs: Term
    rhs: Term
    line: int = 0


@dataclass(slots=True)
class SourceFile:
    """The directives (``compute`` and ``assert``) in text order, and the
    rules of all rule blocks in text order.  A ``symbol`` declaration only
    brings its name into scope: its ``: T`` annotation is parsed and
    scope-checked, then dropped, as the engine is untyped."""

    items: list[Union[Compute, Assert]]
    rules: list[Rule]


# frames of the term loop (see ``_Parser.term``): a binder whose body is being
# read, a product whose domain is being read, and an open parenthesis
_BODY, _DOMAIN_OF, _PARENS = range(3)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks, self.line_starts = _scan(text)
        self.pos = 0
        # the names in scope: the declared symbols, shadowed by the binders
        # open in the term being read (each binder restores its name's entry
        # when it closes)
        self.names: dict[str, Term] = {}

    def where(self, i: int) -> tuple[int, int]:
        """Line and column of token ``i``.  The line's tokens are found in
        turn in its text, as only whitespace lies between them."""
        line = bisect_right(self.line_starts, i)
        code = _COMMENT.sub("", self.text.split("\n")[line - 1])
        end = 0
        for tok in self.toks[self.line_starts[line - 1] : i + 1]:
            # the end of file is at the end of the code, where a comment starts
            end = code.find(tok, end) + len(tok) if tok else len(code)
        return line, end - len(tok) + 1

    def expect(self, i: int, kind: str, what: str) -> int:
        """The index after token ``i``, which must be of ``kind``."""
        text = self.toks[i]
        if _KIND.get(text, "word") != kind:
            self.fail(f"expected {what}, found {text!r}", i)
        return i + 1

    def fail(self, msg: str, at: int) -> NoReturn:
        raise ParseError(*self.where(at), msg)

    def ident(self, i: int, what: str) -> str:
        """The name that token ``i`` must be."""
        text = self.toks[i]
        if text in _KIND or text in _RESERVED:
            self.fail(f"expected {what}", i)
        return text

    # -- terms -------------------------------------------------------------

    def term(self, meta: bool) -> Term:
        """The term that starts at ``self.pos``, read by one loop.

        Nesting costs no Python stack: ``stack`` holds a frame for each open
        binder, product domain and parenthesis, and ``t`` is the application
        read so far inside the innermost one.  A frame closes when its
        application ends, at the first token that cannot start an atom.
        """
        toks = self.toks
        names = self.names
        pos = self.pos
        stack: list[tuple] = []
        t: Optional[Term] = None  # None where a term starts at pos
        opening = True  # binders, not only an application, may start at pos
        while True:
            while opening:
                kind = _KIND.get(toks[pos])
                if kind == "lam":
                    name = self.ident(pos + 1, "binder name")
                    if toks[pos + 2] not in (",", "."):
                        self.fail("expected ',' or '.' after binder", pos + 2)
                    pos += 3
                    v = fresh_var(name)
                    stack.append((_BODY, Abst, v, None, name, names.get(name)))
                    names[name] = v
                    continue
                opening = False
                if kind == "pi":
                    name = self.ident(pos + 1, "binder name")
                    pos = self.expect(pos + 2, ":", "':' after product binder")
                    stack.append((_DOMAIN_OF, name))
            # the atoms of an application, up to an open parenthesis or the
            # first token that cannot start an atom
            while True:
                text = toks[pos]
                a = names.get(text)
                if a is None:
                    kind = _KIND.get(text, "word")
                    if kind == "word":
                        # reserved names are never bound or declared
                        if text == "_":
                            if not meta:
                                self.fail("wildcard outside a rule", pos)
                            a = MetaApp(None, ())
                        elif text == TYPE or text == KIND:
                            a = Sort(text)
                        elif text in _KEYWORDS:
                            break
                        else:
                            raise ScopeError(*self.where(pos), text)
                    elif kind == "$":
                        if not meta:
                            self.fail("pattern variables are only allowed in rules", pos)
                        a, pos = self.pattern_var(pos + 1)
                        t = a if t is None else App(t, a)
                        continue
                    else:
                        # a binder starts a term, not an atom: as the whole
                        # remaining argument chain it would be ambiguous
                        break
                pos += 1
                t = a if t is None else App(t, a)
            if text == "(":
                stack.append((_PARENS, t))
                t = None
                opening = True
                pos += 1
                continue
            # the application ends: close frames up to the next open one
            if t is None:
                self.fail("expected a term", pos)
            while stack:
                frame = stack.pop()
                kind = frame[0]
                if kind == _BODY:
                    _, cls, v, domain, name, shadowed = frame
                    t = cls(v, domain, t)
                    if shadowed is None:
                        del names[name]
                    else:
                        names[name] = shadowed
                    continue
                if kind == _PARENS:
                    # text is still the token that ended the application;
                    # checked in place, as parentheses close often
                    if text != ")":
                        self.fail(f"expected ')', found {text!r}", pos)
                    pos += 1
                    if frame[1] is not None:
                        t = App(frame[1], t)
                else:
                    pos = self.expect(pos, ",", "',' after product domain")
                    name = frame[1]
                    v = fresh_var(name)
                    stack.append((_BODY, Prod, v, t, name, names.get(name)))
                    names[name] = v
                    t = None
                    opening = True
                break
            else:
                self.pos = pos
                return t

    def pattern_var(self, i: int) -> tuple[MetaApp, int]:
        """The pattern-variable application whose name is token ``i``, and
        the index of the token after it."""
        toks = self.toks
        name = self.ident(i, "pattern-variable name")
        args: list[Var] = []
        i += 1
        if toks[i] == "[":
            args.append(self.bound_ref(i + 1))
            i += 2
            while toks[i] == ",":
                args.append(self.bound_ref(i + 1))
                i += 2
            i = self.expect(i, "]", "']'")
        return MetaApp(name, tuple(args)), i

    def bound_ref(self, i: int) -> Var:
        name = self.ident(i, "bound variable name")
        v = self.names.get(name)
        if type(v) is not Var:
            raise ScopeError(*self.where(i), name)
        return v

    # -- items -------------------------------------------------------------

    def file(self) -> SourceFile:
        toks = self.toks
        items: list[Union[Compute, Assert]] = []
        rules: list[Rule] = []
        append, term = items.append, self.term
        while True:
            start = self.pos
            text = toks[start]
            self.pos += 1
            # the commonest item first
            if text == "compute":
                t = term(False)
                if toks[self.pos] != ";":
                    self.fail(f"expected ';', found {toks[self.pos]!r}", self.pos)
                self.pos += 1
                append(Compute(t))
            elif text == "symbol":
                name = self.ident(self.pos, "symbol name")
                self.pos += 1
                if toks[self.pos] == ":":
                    self.pos += 1
                    term(False)
                self.pos = self.expect(self.pos, ";", "';'")
                if name in self.names:
                    self.fail(f"symbol {name!r} redeclared", start)
                self.names[name] = symb(name)
            elif text == "rule":
                rules.append(self.rule())
                while toks[self.pos] == "with":
                    self.pos += 1
                    rules.append(self.rule())
                self.pos = self.expect(self.pos, ";", "';'")
            elif text == "assert":
                lhs = term(False)
                self.pos = self.expect(self.pos, "eqeq", "'=='")
                rhs = term(False)
                self.pos = self.expect(self.pos, ";", "';'")
                append(Assert(lhs, rhs, bisect_right(self.line_starts, start)))
            elif not text:
                return SourceFile(items, rules)
            elif text in _KIND:
                self.fail("expected a declaration, rule or directive", start)
            else:
                self.fail(f"unknown item {text!r}", start)

    def rule(self) -> Rule:
        start = self.pos
        lhs = self.term(True)
        self.pos = self.expect(self.pos, "arrow", "rule arrow")
        rhs = self.term(True)
        head, args = spine(lhs)
        if type(head) is not Symb or head is PI:
            self.fail("rule left-hand side must apply a symbol", start)
        pats = self.patterns(args, start)
        line = bisect_right(self.line_starts, start)
        return Rule(head.name, pats, rhs, label=f"{head.name}@{line}")

    def patterns(self, args: list[Term], start: int) -> tuple[Pattern, ...]:
        """The patterns that the terms ``args`` spell; errors point at
        ``start``, the first token of their rule.

        One loop checks the subterms in preorder, so the error raised is the
        leftmost; a second builds the patterns bottom-up from that order.
        """
        # per subterm in preorder: a leaf's pattern, an abstraction's binder,
        # or an applied symbol's name and argument count
        order: list = []
        todo = args[::-1]
        while todo:
            x = todo.pop()
            tx = type(x)
            if tx is Symb:
                order.append(PatSymb(x.name))
            elif tx is MetaApp:
                # bound_ref made every argument a binder's Var
                order.append(PatVar(x.name, x.args))
            elif tx is Abst:
                order.append(x.var)
                todo.append(x.body)
            elif tx is Var:
                self.fail(
                    f"bare bound variable {x.name!r} in a pattern; "
                    "apply a pattern variable to it instead",
                    start,
                )
            else:
                head, xargs = spine(x)
                if type(head) is not Symb or head is PI:
                    self.fail("unsupported pattern shape", start)
                order.append((head.name, len(xargs)))
                todo.extend(reversed(xargs))
        # the patterns built so far, the leftmost on top
        built: list[Pattern] = []
        for x in reversed(order):
            tx = type(x)
            if tx is tuple:
                name, n = x
                sub = tuple(built[: -n - 1 : -1])
                del built[-n:]
                built.append(PatSymb(name, sub))
            elif tx is Var:
                built.append(PatAbst(x, built.pop()))
            else:
                built.append(x)
        return tuple(reversed(built))


def parse_file(text: str) -> SourceFile:
    """Parse a source file.

    Raises ParseError for syntax and ScopeError for undeclared identifiers.
    The rules are validated where a context is set up, by
    ``engine.EvalContext.from_rules``, under either engine.
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
    # the printed name of each binder in scope, by vid, and the set of those
    # names; a binder's scope item sets its entry, and the item popped after
    # its body puts back the entry it replaced
    names: dict[int, str] = {}
    taken: set[str] = set()
    # work items: literal strings, (term, context), or (None, vid, name):
    # bind vid to name in ``names`` (name None: unbind it)
    work: list = [(t, _TOP)]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        x = item[0]
        if x is None:
            _, vid, name = item
            old = names.pop(vid, None)
            if old is not None:
                taken.discard(old)
            if name is not None:
                names[vid] = name
                taken.add(name)
            continue
        ctx = item[1]
        tx = type(x)
        if tx is Var:
            out.append(names.get(x.vid, x.name))
        elif tx is Symb:
            out.append(x.name)
        elif tx is Sort:
            out.append(x.kind)
        elif tx is App and (
            type(x.arg) is not Abst or type(x.fn) is not App or x.fn.fn is not PI
        ):
            if ctx == _ARG:
                work.append(")")
            work.append((x.arg, _ARG))
            work.append(" ")
            work.append((x.fn, _HEAD))
            if ctx == _ARG:
                work.append("(")
        elif tx is Abst or tx is App:  # an abstraction, or Π A (\x, B)
            b = x if tx is Abst else x.arg
            vid = b.var.vid
            name = _pick_name(b.var, taken, reserved)
            close = ctx != _TOP
            if close:
                work.append(")")
            work.append((None, vid, names.get(vid)))
            work.append((b.body, _TOP))
            work.append((None, vid, name))
            work.append(", ")
            if tx is App:
                work.append((x.fn.arg, _DOMAIN))
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
                    work.append((a, _TOP))
                    if i != len(x.args) - 1:
                        work.append(",")
                work.append(base + "[")
        else:
            raise TypeError(f"cannot print {tx!r}")
    return "".join(out)


def _reserved_names(t: Term) -> set[str]:
    """Names no binder may print as: every symbol, and every variable
    where it occurs free, even if it is bound at another place."""
    names: set[str] = set()
    # how many enclosing binders bind each vid; work items are terms, or
    # (vid, 1) and (vid, -1) that enter and leave a binder's scope
    bound: dict[int, int] = {}
    work: list = [t]
    while work:
        x = work.pop()
        tx = type(x)
        if tx is tuple:
            vid, step = x
            bound[vid] = bound.get(vid, 0) + step
        elif tx is Var:
            if not bound.get(x.vid):
                names.add(x.name)
        elif tx is Symb:
            names.add(x.name)
        elif tx is App:
            work.append(x.arg)
            work.append(x.fn)
        elif tx is Abst:
            work.append((x.var.vid, -1))
            work.append(x.body)
            work.append((x.var.vid, 1))
        elif tx is MetaApp:
            work.extend(x.args)
    return names


def _pick_name(v: Var, taken: set[str], reserved: set[str]) -> str:
    name = v.name
    while name in taken or name in reserved or name in _RESERVED:
        name += "'"
    return name
