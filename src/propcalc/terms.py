"""Parser for the shared term language.

Grammar (whitespace insignificant)::

    term     := par (";" par)*          vertical composition, top to bottom
    par      := atom ("|" atom)*        horizontal composition, left to right
    atom     := "id" | "eps" | "delta" | "mu(" rational ")" | "h(" rational ")"
              | "swap" | "sigma[" int-list "]" | "tau[" int-list "]"
              | "(" term ")"
    rational := int ["/" int]

"|" binds tighter than ";".  "sigma" and "tau" both denote the vertex-free
permutation graph routing input j to output l[j]; they differ only in how
one reads them (pre- versus post-composition).  "h" is the counit homotopy.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError
from .generators import corolla
from .graphs import GraphTerm, horizontal_compose, permutation_graph, unit, vertical_compose

_TOKEN = re.compile(r"\s*(mu|h|id|eps|delta|swap|sigma|tau|\d+|[();|\[\],/])")


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self, expected=None):
        if self.i >= len(self.tokens):
            raise ParseError(f"unexpected end of term {self.text!r}")
        tok, pos = self.tokens[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} at position {pos}, got {tok!r}")
        self.i += 1
        return tok

    def integer(self, what="an integer"):
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected {what}, got {tok!r}")
        try:
            return int(tok)
        except ValueError:  # longer than the interpreter converts
            raise ParseError(f"integer of {len(tok)} digits is too long") from None

    def rational(self):
        num = self.integer("a rational")
        if self.peek() == "/":
            self.take("/")
            den = self.integer("a denominator")
            if den == 0:
                raise ParseError("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def int_list(self):
        self.take("[")
        items = [self.integer()]
        while self.peek() == ",":
            self.take(",")
            items.append(self.integer())
        self.take("]")
        return items

    def atom(self):
        tok = self.take()
        if tok == "id":
            return unit(1)
        if tok == "eps":
            return corolla("eps")
        if tok == "delta":
            return corolla("delta")
        if tok == "mu":
            self.take("(")
            s = self.rational()
            self.take(")")
            return corolla("mu", (s,))
        if tok == "h":
            self.take("(")
            s = self.rational()
            self.take(")")
            return corolla("phi", (s,))
        if tok == "swap":
            return permutation_graph((2, 1))
        if tok in ("sigma", "tau"):
            return permutation_graph(tuple(self.int_list()))
        if tok == "(":
            t = self.term()
            self.take(")")
            return t
        raise ParseError(f"unexpected token {tok!r}")

    def par(self):
        parts = [self.atom()]
        while self.peek() == "|":
            self.take("|")
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else horizontal_compose(parts)

    def term(self):
        t = self.par()
        while self.peek() == ";":
            self.take(";")
            t = vertical_compose(t, self.par())
        return t


def parse(text: str) -> GraphTerm:
    """Parse a term of the shared term language into a graph term."""
    p = _Parser(text)
    try:
        t = p.term()
    except RecursionError:
        raise ParseError("term nested too deeply") from None
    if p.i != len(p.tokens):
        tok, pos = p.tokens[p.i]
        raise ParseError(f"trailing input {tok!r} at position {pos}")
    return t
