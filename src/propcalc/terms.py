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

Atoms parse to light descriptors (a permutation image, a `Vertex`, or the
graph term of a parenthesized term), and each layer is built as one graph
term in one left-to-right pass.  A through-strand edge (("in", i),
("out", j)) is built once per parse, in a table the parser owns, and
shared by every layer that wires input i to output j.  The layers of a
term are checked for arity as they are read and then joined pairwise by
`vertical_compose`, which is associative on this representation: the
vertex order and the edge set are those of the left-to-right fold.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice

from .errors import CompositionError, ParseError
from .graphs import GraphTerm, Permutation, Vertex, _shift_endpoint, vertical_compose

# group 1 is a token; a character that starts none matches with group 1 empty
_TOKEN = re.compile(r"\s*(?:(mu|h|id|eps|delta|swap|sigma|tau|\d+|[();|\[\],/])|\S)")

# atoms without arguments; a tuple is a permutation image, read as the
# vertex-free layer wiring input j to output image[j-1]
_FIXED_ATOMS = {"id": (1,), "swap": (2, 1), "eps": Vertex("eps"), "delta": Vertex("delta")}
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

    def atom(self):
        """A permutation image, a Vertex, or the GraphTerm of "( term )"."""
        tok = self.take()
        fixed = _FIXED_ATOMS.get(tok)
        if fixed is not None:
            return fixed
        if tok in _PARAM_KINDS:
            self.take("(")
            s = self.rational()
            self.take(")")
            return Vertex(_PARAM_KINDS[tok], (s,))
        if tok in ("sigma", "tau"):
            return Permutation(tuple(self.int_list())).image
        if tok == "(":
            t = self.term()
            self.take(")")
            return t
        raise ParseError(f"unexpected token {tok!r}")

    def par(self):
        """One layer, built left to right as a single graph term."""
        atoms = [self.atom()]
        while self.tokens[self.i] == "|":
            self.i += 1
            atoms.append(self.atom())
        if len(atoms) == 1 and isinstance(atoms[0], GraphTerm):
            return atoms[0]
        vertices = []
        edges = []
        n = m = 0
        strands = self.strands
        for a in atoms:
            if isinstance(a, tuple):
                if len(a) == 1:
                    edges.append(strands[n, m])
                else:
                    edges += [strands[n + i, m + j - 1] for i, j in enumerate(a)]
                n += len(a)
                m += len(a)
            elif isinstance(a, Vertex):
                dv = len(vertices)
                k_in, k_out = a.arity
                edges += [(("in", n + k), ("vi", dv, k)) for k in range(k_in)]
                edges += [(("vo", dv, k), ("out", m + k)) for k in range(k_out)]
                vertices.append(a)
                n += k_in
                m += k_out
            else:
                dv = len(vertices)
                edges += [(_shift_endpoint(src, dv, n, m), _shift_endpoint(dst, dv, n, m))
                          for src, dst in a.edges]
                vertices += a.vertices
                n += a.n
                m += a.m
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
