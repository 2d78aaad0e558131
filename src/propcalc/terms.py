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

Each layer is built as one graph term in one left-to-right loop over its
tokens, which dispatches on each atom's first token once and appends that
atom's edges and vertex straight away; only a parameter, an int list and
a parenthesized term are read by a method of their own.  A through-strand
edge (("in", i), ("out", j)) is built once per parse, in a table the
parser owns, and shared by every layer that wires input i to output j.
The layers of a term are checked for arity as they are read and then
joined pairwise by `vertical_compose`, which is associative on this
representation: the vertex order and the edge set are those of the
left-to-right fold.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice

from .errors import CompositionError, ParseError
from .graphs import GraphTerm, Permutation, Vertex, _shift_endpoint, vertical_compose

# group 1 is a token; a character that starts none matches with group 1 empty
_TOKEN = re.compile(r"\s*(?:(mu|h|id|eps|delta|swap|sigma|tau|\d+|[();|\[\],/])|\S)")

# the vertices of "eps" and "delta", shared by every parse
_EPS, _DELTA = Vertex("eps"), Vertex("delta")
_PARAM_KINDS = {"mu": "mu", "h": "phi"}


class _Strands(dict):
    """The through-strand edges (("in", i), ("out", j)) of one parse, keyed
    by (i, j); each is built the first time a layer asks for it and then
    shared by every layer that wires i to j."""

    def __missing__(self, key):
        edge = self[key] = (("in", key[0]), ("out", key[1]))
        return edge


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        if "" in self.tokens:
            pos = self.position(self.tokens.index(""))
            raise ParseError(f"unexpected character {text[pos]!r} at position {pos}")
        self.tokens.append(None)  # end of input
        self.i = 0
        self.strands = _Strands()

    def position(self, k):
        """Where the k-th token starts in the text."""
        m = next(islice(_TOKEN.finditer(self.text), k, None))
        tok = m.group(1)
        return m.end() - (len(tok) if tok else 1)

    def peek(self):
        return self.tokens[self.i]

    def take(self, expected=None):
        tok = self.tokens[self.i]
        if tok is None:
            raise ParseError(f"unexpected end of term {self.text!r}")
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r} at position {self.position(self.i)}, "
                             f"got {tok!r}")
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
        while self.tokens[self.i] == ",":
            self.i += 1
            items.append(self.integer())
        self.take("]")
        return items

    def par(self):
        """One layer, built left to right as a single graph term in one
        loop over its atoms' tokens; a lone "( term )" is that term."""
        tokens = self.tokens
        strands = self.strands
        i = self.i
        vertices = []
        edges = []
        n = m = 0
        while True:
            tok = tokens[i]
            i += 1
            if tok == "id":
                edges.append(strands[n, m])
                n += 1
                m += 1
            elif tok == "sigma" or tok == "tau":
                self.i = i
                image = Permutation(tuple(self.int_list())).image
                i = self.i
                edges += [strands[n + k, m + j - 1] for k, j in enumerate(image)]
                n += len(image)
                m += len(image)
            elif tok == "mu" or tok == "h":
                self.i = i
                self.take("(")
                s = self.rational()
                self.take(")")
                i = self.i
                dv = len(vertices)
                vertices.append(Vertex(_PARAM_KINDS[tok], (s,)))
                edges.append((("in", n), ("vi", dv, 0)))
                if tok == "mu":
                    n += 1
                    edges.append((("in", n), ("vi", dv, 1)))
                edges.append((("vo", dv, 0), ("out", m)))
                n += 1
                m += 1
            elif tok == "delta":
                dv = len(vertices)
                vertices.append(_DELTA)
                edges += ((("in", n), ("vi", dv, 0)), (("vo", dv, 0), ("out", m)),
                          (("vo", dv, 1), ("out", m + 1)))
                n += 1
                m += 2
            elif tok == "eps":
                edges.append((("in", n), ("vi", len(vertices), 0)))
                vertices.append(_EPS)
                n += 1
            elif tok == "swap":
                edges += (strands[n, m + 1], strands[n + 1, m])
                n += 2
                m += 2
            elif tok == "(":
                self.i = i
                t = self.term()
                self.take(")")
                i = self.i
                # alone in its layer: n is 0 only before the first atom,
                # since every atom has an input
                if n == 0 and tokens[i] != "|":
                    return t
                dv = len(vertices)
                edges += [(_shift_endpoint(src, dv, n, m), _shift_endpoint(dst, dv, n, m))
                          for src, dst in t.edges]
                vertices += t.vertices
                n += t.n
                m += t.m
            elif tok is None:
                raise ParseError(f"unexpected end of term {self.text!r}")
            else:
                raise ParseError(f"unexpected token {tok!r}")
            if tokens[i] != "|":
                break
            i += 1
        self.i = i
        return GraphTerm(n, m, tuple(vertices), frozenset(edges))

    def term(self):
        """Layers checked for arity as they are read, then joined pairwise."""
        layers = [self.par()]
        while self.tokens[self.i] == ";":
            self.i += 1
            below = self.par()
            if layers[-1].m != below.n:
                raise CompositionError(f"cannot compose ({layers[0].n},{layers[-1].m}) "
                                       f"above ({below.n},{below.m})")
            layers.append(below)
        while len(layers) > 1:
            joined = [vertical_compose(layers[k], layers[k + 1])
                      for k in range(0, len(layers) - 1, 2)]
            if len(layers) % 2:
                joined.append(layers[-1])
            layers = joined
        return layers[0]


def parse(text: str) -> GraphTerm:
    """Parse a term of the shared term language into a graph term."""
    p = _Parser(text)
    try:
        t = p.term()
    except RecursionError:
        raise ParseError("term nested too deeply") from None
    tok = p.tokens[p.i]
    if tok is not None:
        raise ParseError(f"trailing input {tok!r} at position {p.position(p.i)}")
    return t
