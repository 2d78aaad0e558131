"""Labeled open directed acyclic graphs and their prop composition algebra.

A graph term has `n` external input ports and `m` external output ports,
ordered left to right, and vertices decorated by a generator kind with an
ordered list of input and output slots.  Direction runs top to bottom:
edges go from an input port or a vertex output slot down to an output port
or a vertex input slot.  Every port and every slot is the endpoint of
exactly one edge; a through-strand wires an input port straight to an
output port, so identity elements need no vertices.

Terms are immutable values; every operation returns a fresh term.  Every
graph rewrite (the attaching maps, the relations, the normalizer's passes
and `absorb_equivalences`) edits a `Wiring`, the one mutable form of a
term, and exports it back with `Wiring.to_term`.  Every traversal in
dependency order walks `topological_order`.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import CompositionError, GraphError

# biarity (inputs, outputs) and parameter count of each vertex decoration;
# "id" only occurs as a unit decoration that absorb_equivalences removes
ARITY = {
    "eps": (1, 0),
    "delta": (1, 2),
    "mu": (2, 1),
    "phi": (1, 1),
    "id": (1, 1),
}
NPARAMS = {"eps": 0, "delta": 0, "mu": 1, "phi": 1, "id": 0}


@dataclass(frozen=True)
class Vertex:
    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in ARITY:
            raise GraphError(f"unknown vertex kind {self.kind!r}")
        if len(self.params) != NPARAMS[self.kind]:
            raise GraphError(
                f"{self.kind} takes {NPARAMS[self.kind]} parameter(s), got {len(self.params)}")
        for p in self.params:
            if not isinstance(p, Fraction):
                raise GraphError("parameters must be exact Fractions")
            if p < 0 or p > 1:
                raise GraphError(f"parameter {p} outside [0,1]")

    @property
    def arity(self):
        return ARITY[self.kind]


@dataclass(frozen=True)
class GraphTerm:
    n: int
    m: int
    vertices: tuple
    edges: frozenset

    @property
    def biarity(self):
        return (self.n, self.m)

    def __repr__(self):
        return f"GraphTerm(n={self.n}, m={self.m}, |V|={len(self.vertices)}, |E|={len(self.edges)})"


@dataclass(frozen=True)
class Permutation:
    """A permutation of 1..k given by its image list: image[i-1] = sigma(i)."""

    image: tuple

    def __post_init__(self):
        k = len(self.image)
        if sorted(self.image) != list(range(1, k + 1)):
            raise GraphError(f"not a permutation of 1..{k}: {self.image}")

    @classmethod
    def identity(cls, k):
        return cls(tuple(range(1, k + 1)))

    @property
    def degree(self):
        return len(self.image)

    def __call__(self, i):
        return self.image[i - 1]

    def inverse(self):
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image, start=1):
            inv[v - 1] = i
        return Permutation(tuple(inv))

    def compose(self, other):
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(tuple(self(other(i)) for i in range(1, other.degree + 1)))

    def is_identity(self):
        return all(v == i for i, v in enumerate(self.image, start=1))


# ---------------------------------------------------------------------------
# incidence helpers

def sources_by_target(g: GraphTerm) -> dict:
    """Map each edge target endpoint to its unique source."""
    out = {}
    for src, dst in g.edges:
        if dst in out:
            raise GraphError(f"target endpoint {dst} wired twice")
        out[dst] = src
    return out


def targets_by_source(g: GraphTerm) -> dict:
    out = {}
    for src, dst in g.edges:
        if src in out:
            raise GraphError(f"source endpoint {src} wired twice")
        out[src] = dst
    return out


def _vertex_sources(g, by_target):
    """For each vertex, the list of source endpoints feeding its input slots."""
    srcs = []
    for v, vert in enumerate(g.vertices):
        a, _ = vert.arity
        row = []
        for k in range(a):
            ep = ("vi", v, k)
            if ep not in by_target:
                raise GraphError(f"dangling input slot {k} of vertex {v} ({vert.kind})")
            row.append(by_target[ep])
        srcs.append(row)
    return srcs


def topological_order(g: GraphTerm, key=None):
    """Yield the vertex indices of g in dependency order (Kahn over in-degrees).

    Of the ready vertices, the one with the smallest key(v) comes next; the
    default key is the index.  A vertex's key is computed once, when its
    last predecessor has been yielded, so it may depend on the vertices
    yielded before it.  Raises GraphError when a directed cycle leaves
    vertices unplaced.
    """
    indegree = [0] * len(g.vertices)
    successors = [[] for _ in g.vertices]
    for src, dst in g.edges:
        if src[0] == "vo" and dst[0] == "vi":
            indegree[dst[1]] += 1
            successors[src[1]].append(dst[1])
    if key is None:
        key = int
    ready = [(key(v), v) for v, d in enumerate(indegree) if d == 0]
    heapq.heapify(ready)
    placed = 0
    while ready:
        _, v = heapq.heappop(ready)
        yield v
        placed += 1
        for u in successors[v]:
            indegree[u] -= 1
            if indegree[u] == 0:
                heapq.heappush(ready, (key(u), u))
    if placed < len(indegree):
        raise GraphError("directed cycle through vertices "
                         + str([v for v, d in enumerate(indegree) if d]))


def validate(g: GraphTerm) -> list:
    """Return a list of violation strings; empty means the term is valid."""
    problems = []
    try:
        by_target = sources_by_target(g)
        by_source = targets_by_source(g)
    except GraphError as exc:
        return [str(exc)]

    expected_targets = set()
    expected_sources = set()
    for j in range(g.m):
        expected_targets.add(("out", j))
    for i in range(g.n):
        expected_sources.add(("in", i))
    for v, vert in enumerate(g.vertices):
        a, b = vert.arity
        for k in range(a):
            expected_targets.add(("vi", v, k))
        for k in range(b):
            expected_sources.add(("vo", v, k))

    if set(by_target) != expected_targets:
        missing = expected_targets - set(by_target)
        extra = set(by_target) - expected_targets
        if missing:
            problems.append(f"unwired targets: {sorted(missing)}")
        if extra:
            problems.append(f"bad slot arity, unexpected targets: {sorted(extra)}")
    if set(by_source) != expected_sources:
        missing = expected_sources - set(by_source)
        extra = set(by_source) - expected_sources
        if missing:
            problems.append(f"unwired sources: {sorted(missing)}")
        if extra:
            problems.append(f"bad slot arity, unexpected sources: {sorted(extra)}")
    if problems:
        return problems

    # acyclicity by Kahn's algorithm over vertices
    try:
        for _ in topological_order(g):
            pass
    except GraphError as exc:
        problems.append(str(exc))
    return problems


def require_valid(g: GraphTerm):
    problems = validate(g)
    if problems:
        raise GraphError("; ".join(problems))
    return g


# ---------------------------------------------------------------------------
# constructors and compositions

def unit(n: int) -> GraphTerm:
    """n parallel through-strands, the identity of vertical composition."""
    if n < 0:
        raise GraphError("unit arity must be nonnegative")
    edges = frozenset((("in", i), ("out", i)) for i in range(n))
    return GraphTerm(n, n, (), edges)


def _shift_endpoint(ep, dv, din, dout):
    tag = ep[0]
    if tag == "in":
        return ("in", ep[1] + din)
    if tag == "out":
        return ("out", ep[1] + dout)
    return (tag, ep[1] + dv, ep[2])


def horizontal_compose(gs: Iterable[GraphTerm]) -> GraphTerm:
    """Disjoint union with input/output labelings concatenated left to right."""
    gs = list(gs)
    vertices = []
    edges = []
    n = m = 0
    for g in gs:
        dv = len(vertices)
        for src, dst in g.edges:
            edges.append((_shift_endpoint(src, dv, n, m), _shift_endpoint(dst, dv, n, m)))
        vertices.extend(g.vertices)
        n += g.n
        m += g.m
    return GraphTerm(n, m, tuple(vertices), frozenset(edges))


def vertical_compose(top: GraphTerm, bottom: GraphTerm) -> GraphTerm:
    """Feed the i-th output of `top` into the i-th input of `bottom`."""
    if top.m != bottom.n:
        raise CompositionError(
            f"cannot compose ({top.n},{top.m}) above ({bottom.n},{bottom.m})")
    dv = len(top.vertices)
    top_src = {}   # intermediate wire j -> source endpoint in the composite
    edges = []
    for src, dst in top.edges:
        if dst[0] == "out":
            top_src[dst[1]] = src
        else:
            edges.append((src, dst))
    for src, dst in bottom.edges:
        new_dst = _shift_endpoint(dst, dv, 0, 0) if dst[0] != "out" else dst
        if src[0] == "in":
            edges.append((top_src[src[1]], new_dst))
        else:
            edges.append((_shift_endpoint(src, dv, 0, 0), new_dst))
    return GraphTerm(top.n, bottom.m, top.vertices + bottom.vertices, frozenset(edges))


def permute_inputs(g: GraphTerm, sigma: Permutation) -> GraphTerm:
    """Relabel inputs: the new input j is wired where old input sigma(j) was."""
    if sigma.degree != g.n:
        raise GraphError(f"permutation degree {sigma.degree} != {g.n} inputs")
    inv = sigma.inverse()
    edges = frozenset(
        ((("in", inv(src[1] + 1) - 1), dst) if src[0] == "in" else (src, dst))
        for src, dst in g.edges)
    return GraphTerm(g.n, g.m, g.vertices, edges)


def permute_outputs(g: GraphTerm, tau: Permutation) -> GraphTerm:
    """Relabel outputs: the old output j becomes the new output tau(j)."""
    if tau.degree != g.m:
        raise GraphError(f"permutation degree {tau.degree} != {g.m} outputs")
    edges = frozenset(
        ((src, ("out", tau(dst[1] + 1) - 1)) if dst[0] == "out" else (src, dst))
        for src, dst in g.edges)
    return GraphTerm(g.n, g.m, g.vertices, edges)


def permutation_graph(image) -> GraphTerm:
    """The vertex-free graph wiring input j to output image[j-1]."""
    perm = image if isinstance(image, Permutation) else Permutation(tuple(image))
    edges = frozenset((("in", i), ("out", perm(i + 1) - 1)) for i in range(perm.degree))
    return GraphTerm(perm.degree, perm.degree, (), edges)


# ---------------------------------------------------------------------------
# canonical form / isomorphism

def canonical_form(g: GraphTerm):
    """A serialization deciding labeled decorated graph isomorphism.

    Vertices are numbered by a Kahn traversal that always picks the ready
    vertex with the smallest signature (input sources in canonical ids,
    then kind and parameters).  Distinct ready vertices always differ in
    their source sets, so the numbering is unique and iso-invariant.
    """
    srcs = _vertex_sources(g, sources_by_target(g))
    order = {}

    def endpoint_id(ep):
        if ep[0] == "in":
            return (0, ep[1], 0)
        return (1, order[ep[1]], ep[2])

    def signature(v):
        vert = g.vertices[v]
        return (tuple(endpoint_id(s) for s in srcs[v]), vert.kind, vert.params)

    for v in topological_order(g, key=signature):
        order[v] = len(order)

    verts = [None] * len(g.vertices)
    for v, idx in order.items():
        verts[idx] = (g.vertices[v].kind, g.vertices[v].params)

    def canon_ep(ep):
        if ep[0] in ("in", "out"):
            return ep
        return (ep[0], order[ep[1]], ep[2])

    edges = sorted((canon_ep(s), canon_ep(d)) for s, d in g.edges)
    return (g.n, g.m, tuple(verts), tuple(edges))


def iso_equal(g1: GraphTerm, g2: GraphTerm) -> bool:
    """Decide label- and decoration-preserving graph isomorphism."""
    if g1.biarity != g2.biarity or len(g1.vertices) != len(g2.vertices):
        return False
    return canonical_form(g1) == canonical_form(g2)


# ---------------------------------------------------------------------------
# mutable wiring

class Wiring:
    """A graph term opened up for rewriting.

    Vertex ids stay stable while vertices come and go; new vertices get
    fresh ids above every old one.  `src` maps each edge's target endpoint
    to its source and `tgt` the other way; `w` holds an optional label per
    edge, keyed by the target endpoint.
    """

    def __init__(self, n, m):
        self.n = n
        self.m = m
        self.kind = {}
        self.params = {}
        self.src = {}
        self.tgt = {}
        self.w = {}
        self.fresh = 0

    @classmethod
    def from_term(cls, g: GraphTerm, weights=None):
        """Open g; `weights` maps each edge (src, dst) to its label."""
        work = cls(g.n, g.m)
        for vert in g.vertices:
            work.new_vertex(vert.kind, vert.params)
        for src, dst in g.edges:
            work.add_edge(src, dst, None if weights is None else weights[(src, dst)])
        return work

    def add_edge(self, s, d, w=None):
        self.tgt[s] = d
        self.src[d] = s
        self.w[d] = w

    def del_edge(self, d):
        """Remove the edge into d; return its source and label."""
        s = self.src.pop(d)
        del self.tgt[s]
        return s, self.w.pop(d)

    def new_vertex(self, kind, params=()):
        v = self.fresh
        self.fresh += 1
        self.kind[v] = kind
        self.params[v] = params
        return v

    def del_vertex(self, v):
        del self.kind[v], self.params[v]

    def to_term(self) -> GraphTerm:
        """Close the wiring: surviving vertices renumbered in id order."""
        order = sorted(self.kind)
        index = {v: i for i, v in enumerate(order)}

        def ren(ep):
            if ep[0] in ("vi", "vo"):
                return (ep[0], index[ep[1]], ep[2])
            return ep

        vertices = tuple(Vertex(self.kind[v], self.params[v]) for v in order)
        edges = frozenset((ren(s), ren(d)) for d, s in self.src.items())
        return require_valid(GraphTerm(self.n, self.m, vertices, edges))


def absorb_equivalences(g: GraphTerm) -> GraphTerm:
    """Delete unit-decorated ("id") vertices, bridging their strands.

    Permutation decorations need no work here: the wiring representation
    absorbs pre/post permutations into the edge set already.
    """
    if all(vert.kind != "id" for vert in g.vertices):
        return g
    work = Wiring.from_term(g)
    for v, vert in enumerate(g.vertices):
        if vert.kind == "id":
            src, _ = work.del_edge(("vi", v, 0))
            dst = work.tgt[("vo", v, 0)]
            work.del_edge(dst)
            work.del_vertex(v)
            work.add_edge(src, dst)
    return work.to_term()


# ---------------------------------------------------------------------------
# serialization

def _endpoint_to_json(ep):
    if ep[0] == "in":
        return ["in", ep[1] + 1]
    if ep[0] == "out":
        return ["out", ep[1] + 1]
    return ["v", ep[1], "in" if ep[0] == "vi" else "out", ep[2] + 1]


def _endpoint_from_json(obj):
    if obj[0] == "in":
        return ("in", obj[1] - 1)
    if obj[0] == "out":
        return ("out", obj[1] - 1)
    return ("vi" if obj[2] == "in" else "vo", obj[1], obj[3] - 1)


def to_json(g: GraphTerm) -> str:
    cf = canonical_form(g)
    doc = {
        "inputs": g.n,
        "outputs": g.m,
        "vertices": [{"kind": kind, "params": [str(p) for p in params]}
                     for kind, params in cf[2]],
        "edges": [[_endpoint_to_json(s), _endpoint_to_json(d)] for s, d in cf[3]],
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> GraphTerm:
    doc = json.loads(text)
    vertices = tuple(Vertex(v["kind"], tuple(Fraction(p) for p in v["params"]))
                     for v in doc["vertices"])
    edges = frozenset((_endpoint_from_json(s), _endpoint_from_json(d))
                      for s, d in doc["edges"])
    return require_valid(GraphTerm(doc["inputs"], doc["outputs"], vertices, edges))


_DOT_SHAPE = {"eps": "point", "delta": "triangle", "mu": "invtriangle",
              "phi": "circle", "id": "plaintext"}


def to_dot(g: GraphTerm, name: str = "term") -> str:
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for i in range(g.n):
        lines.append(f'  in{i + 1} [shape=none, label="{i + 1}"];')
    for j in range(g.m):
        lines.append(f'  out{j + 1} [shape=none, label="{j + 1}"];')
    for v, vert in enumerate(g.vertices):
        label = vert.kind + ("" if not vert.params else " " + ",".join(map(str, vert.params)))
        lines.append(f'  v{v} [shape={_DOT_SHAPE[vert.kind]}, label="{label}"];')

    def node(ep):
        if ep[0] == "in":
            return f"in{ep[1] + 1}"
        if ep[0] == "out":
            return f"out{ep[1] + 1}"
        return f"v{ep[1]}"

    for src, dst in sorted(g.edges):
        lines.append(f"  {node(src)} -> {node(dst)};")
    lines.append("}")
    return "\n".join(lines)
