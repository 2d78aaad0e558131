"""Labeled open directed acyclic graphs and their prop composition algebra.

A graph term has `n` external input ports and `m` external output ports,
ordered left to right, and vertices decorated by a generator kind with an
ordered list of input and output slots.  Direction runs top to bottom:
edges go from an input port or a vertex output slot down to an output port
or a vertex input slot.  Every port and every slot is the endpoint of
exactly one edge; a through-strand wires an input port straight to an
output port, so identity elements need no vertices.

Terms are immutable values; every operation returns a fresh term.  The
first `validate` that finds a term valid stores the term's `Plan` on it,
written once and read-only: the source feeding each target endpoint, the
target fed by each source, and the default topological order.  Every
traversal reads the plan instead of the edge set, and a later `validate`
of the term returns at once.  A valid term likewise gains its compiled
program of interval maps, written once, on its first `simplex.eval_term`.
Every graph rewrite (the attaching maps, the relations, the normalizer's
passes and `absorb_equivalences`) edits a `Wiring`, the one mutable form
of a term, and exports it back with `Wiring.to_term`.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import CompositionError, GraphError, InternalError, ParseError

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
class Plan:
    """The incidence of a valid term: read-only maps from each edge's target
    endpoint to its source (`src`) and back (`tgt`), and the default `order`."""

    src: Mapping
    tgt: Mapping
    order: tuple


@dataclass(frozen=True)
class GraphTerm:
    n: int
    m: int
    vertices: tuple
    edges: frozenset
    # set once, by the first `validate` that finds the term valid
    _plan: Plan = field(default=None, init=False, repr=False, compare=False)
    # set once, by the first `simplex.eval_term` of a valid term: its
    # compiled `simplex.Program` of interval maps
    _maps: tuple = field(default=None, init=False, repr=False, compare=False)

    @property
    def biarity(self):
        return (self.n, self.m)

    def __repr__(self):
        return f"GraphTerm(n={self.n}, m={self.m}, |V|={len(self.vertices)}, |E|={len(self.edges)})"

    def __reduce__(self):
        # a copy is a fresh value; it rebuilds its plan when validated and
        # its maps when evaluated
        return (GraphTerm, (self.n, self.m, self.vertices, self.edges))


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


# ---------------------------------------------------------------------------
# incidence plan and validation

def _kahn(nverts, src, key):
    """Yield 0..nverts-1 in dependency order under the target -> source map
    `src`, the ready vertex with the smallest key(v) first."""
    indegree = [0] * nverts
    successors = [[] for _ in range(nverts)]
    for dst, s in src.items():
        if s[0] == "vo" and dst[0] == "vi":
            indegree[dst[1]] += 1
            successors[s[1]].append(dst[1])
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
    if placed < nverts:
        raise GraphError("directed cycle through vertices "
                         + str([v for v, d in enumerate(indegree) if d]))


def _forward_slots(g, src, arities):
    """None unless every target and source in `src` is a slot of g: a known
    tag, plain `int` indices, and a slot in range.  Otherwise whether every
    edge between vertices runs to a higher vertex index."""
    nv = len(arities)
    forward = True
    try:
        for dst, s in src.items():
            if dst[0] == "vi":
                _, v, k = dst
                if not (type(v) is int and type(k) is int and 0 <= v < nv
                        and 0 <= k < arities[v][0]):
                    return None
            else:
                tag, j = dst
                if tag != "out" or type(j) is not int or not 0 <= j < g.m:
                    return None
            if s[0] == "vo":
                _, u, k = s
                if not (type(u) is int and type(k) is int and 0 <= u < nv
                        and 0 <= k < arities[u][1]):
                    return None
                if dst[0] == "vi" and u >= v:
                    forward = False
            else:
                tag, i = s
                if tag != "in" or type(i) is not int or not 0 <= i < g.n:
                    return None
    except (TypeError, ValueError):  # an endpoint that is not a tuple of a slot's length
        return None
    return forward


def validate(g: GraphTerm) -> list:
    """Return a list of violation strings; empty means the term is valid.

    A valid term gets its plan here, once; a term that has one is valid.
    After the "wired twice" checks, one pass over the edges accepts the
    term when every target and every source is one of its slots (a known
    tag, plain `int` indices in range, a slot below its vertex's arity)
    and the counts equal m plus the in-arities and n plus the out-arities.
    Only a term that fails that pass has its expected slots built, to name
    what is wrong.  When every edge between vertices runs to a higher
    index, as in every parsed term, the default order is the index order
    and is stored without running the heap.  A negative n or m is refused
    first: it has no slots to name, and it can balance the counts.
    """
    if g._plan is not None:
        return []
    if g.n < 0 or g.m < 0:
        return [f"term arity ({g.n}, {g.m}) must be nonnegative"]
    src = {}
    for s, dst in g.edges:
        if dst in src:
            return [f"target endpoint {dst} wired twice"]
        src[dst] = s
    tgt = {}
    for dst, s in src.items():
        if s in tgt:
            return [f"source endpoint {s} wired twice"]
        tgt[s] = dst

    arities = [vert.arity for vert in g.vertices]
    forward = None
    if (len(src) == g.m + sum(a for a, _ in arities)
            and len(tgt) == g.n + sum(b for _, b in arities)):
        forward = _forward_slots(g, src, arities)
    if forward is None:
        expected_targets = {("out", j) for j in range(g.m)}
        expected_sources = {("in", i) for i in range(g.n)}
        for v, (a, b) in enumerate(arities):
            expected_targets.update(("vi", v, k) for k in range(a))
            expected_sources.update(("vo", v, k) for k in range(b))
        problems = []
        for found, expected, what in ((src, expected_targets, "targets"),
                                      (tgt, expected_sources, "sources")):
            missing = expected - found.keys()
            extra = found.keys() - expected
            # equal to a slot, so the sets take it, but indexed by 0.0 or False
            not_int = [ep for ep in found if ep in expected
                       and any(type(x) is not int for x in ep[1:])]
            if missing:
                problems.append(f"unwired {what}: {sorted(missing)}")
            if extra:  # of any types: `sorted` must not compare an int with a str
                problems.append(f"bad slot arity, unexpected {what}: "
                                f"{sorted(extra, key=_endpoint_order)}")
            if not_int:
                problems.append(f"non-int index in {what}: {sorted(not_int)}")
        return problems
    if forward:
        order = tuple(range(len(arities)))
    else:
        try:
            order = tuple(_kahn(len(arities), src, int))
        except GraphError as exc:
            return [str(exc)]
    object.__setattr__(g, "_plan", Plan(MappingProxyType(src), MappingProxyType(tgt), order))
    return []


def _endpoint_order(ep):
    """Sort key of an endpoint: the tuple order among int-indexed endpoints,
    and indices of different types ordered by type name, never compared."""
    return [(type(x).__name__, x) for x in ep]


def require_valid(g: GraphTerm):
    problems = validate(g)
    if problems:
        raise GraphError("; ".join(problems))
    return g


def plan_of(g: GraphTerm) -> Plan:
    """The plan of g, which `require_valid` checks (and builds on first use)."""
    return require_valid(g)._plan


def sources_by_target(g: GraphTerm) -> Mapping:
    """Map each edge target endpoint to its unique source."""
    return plan_of(g).src


def targets_by_source(g: GraphTerm) -> Mapping:
    """Map each edge source endpoint to its unique target."""
    return plan_of(g).tgt


def topological_order(g: GraphTerm, key=None):
    """Iterate over the vertex indices of the valid term g in dependency order.

    Of the ready vertices, the one with the smallest key(v) comes next; the
    default key is the index, whose order the plan holds.  A vertex's key
    is computed once, when its last predecessor has been yielded, so it may
    depend on the vertices yielded before it.
    """
    plan = plan_of(g)
    if key is None:
        return iter(plan.order)
    return _kahn(len(g.vertices), plan.src, key)


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
    return vertical_compose(permutation_graph(sigma), g)


def permute_outputs(g: GraphTerm, tau: Permutation) -> GraphTerm:
    """Relabel outputs: the old output j becomes the new output tau(j)."""
    if tau.degree != g.m:
        raise GraphError(f"permutation degree {tau.degree} != {g.m} outputs")
    return vertical_compose(g, permutation_graph(tau))


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
    src = plan_of(g).src
    order = {}

    def endpoint_id(ep):
        if ep[0] == "in":
            return (0, ep[1], 0)
        return (1, order[ep[1]], ep[2])

    def signature(v):
        vert = g.vertices[v]
        return (tuple(endpoint_id(src[("vi", v, k)]) for k in range(vert.arity[0])),
                vert.kind, vert.params)

    for v in topological_order(g, key=signature):
        order[v] = len(order)

    verts = [None] * len(g.vertices)
    for v, idx in order.items():
        verts[idx] = (g.vertices[v].kind, g.vertices[v].params)

    def canon_ep(ep):
        if ep[0] in ("in", "out"):
            return ep
        return (ep[0], order[ep[1]], ep[2])

    edges = sorted((canon_ep(s), canon_ep(d)) for d, s in src.items())
    return (g.n, g.m, tuple(verts), tuple(edges))


def iso_equal(g1: GraphTerm, g2: GraphTerm) -> bool:
    """Decide label- and decoration-preserving graph isomorphism."""
    if g1.biarity != g2.biarity or len(g1.vertices) != len(g2.vertices):
        return False
    return canonical_form(g1) == canonical_form(g2)


# ---------------------------------------------------------------------------
# mutable wiring

# steps one rewrite pass may take before it counts as non-terminating
REWRITE_BUDGET = 100000


class Wiring:
    """A graph term opened up for rewriting.

    Vertex ids stay stable while vertices come and go; new vertices get
    fresh ids above every old one, so `kind` lists the vertices in id
    order.  `src` maps each edge's target endpoint to its source and `tgt`
    the other way; `w` holds an optional label per edge, keyed by the
    target endpoint.  A label may be a weight, or, in the normalizer's
    wirings, an integer that stands for itself over the wiring's scale.
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
        """Open a copy of the valid term g; `weights` maps each edge's
        target endpoint to its label."""
        plan = plan_of(g)
        work = cls(g.n, g.m)
        for vert in g.vertices:
            work.new_vertex(vert.kind, vert.params)
        work.src, work.tgt = dict(plan.src), dict(plan.tgt)
        work.w = dict.fromkeys(plan.src) if weights is None else dict(weights)
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

    def exhaust(self, redexes, rewrite, rng=None, what="rewrite pass"):
        """Rewrite until `redexes(self)` yields no redex; return the number
        of rewrites made.

        Each step calls `rewrite(self, r)` on the first redex r that
        `redexes` yields, which is all of it that is read, or, when an rng
        is given, on one drawn by `rng.choice` from the whole list.
        """
        for steps in range(REWRITE_BUDGET):
            if rng is None:
                found = next(iter(redexes(self)), None)
                if found is None:
                    return steps
            else:
                candidates = list(redexes(self))
                if not candidates:
                    return steps
                found = rng.choice(candidates)
            rewrite(self, found)
        raise InternalError(f"{what} did not terminate")

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
    """The endpoint that ["in" or "out", port] or ["v", vertex, "in" or
    "out", slot] names, ports and slots counted from 1.  Any number passes
    as a port or slot and any scalar as a vertex, so that `validate` names
    a well-formed endpoint that is not a slot of the term."""
    if (isinstance(obj, list) and len(obj) == 2 and obj[0] in ("in", "out")
            and type(obj[1]) in (int, float)):
        return (obj[0], obj[1] - 1)
    if (isinstance(obj, list) and len(obj) == 4 and obj[0] == "v"
            and not isinstance(obj[1], (list, dict)) and obj[2] in ("in", "out")
            and type(obj[3]) in (int, float)):
        return ("vi" if obj[2] == "in" else "vo", obj[1], obj[3] - 1)
    raise ParseError(f"graph term: endpoint {json.dumps(obj)} is not "
                     '["in" or "out", port] or ["v", vertex, "in" or "out", slot]')


def _vertex_from_json(obj):
    """The vertex that {"kind": kind, "params": [fraction string, ...]} names."""
    if not (isinstance(obj, dict) and isinstance(obj.get("kind"), str)
            and isinstance(obj.get("params"), list)
            and all(isinstance(p, str) for p in obj["params"])):
        raise ParseError(f"graph term: vertex {json.dumps(obj)} is not "
                         "a kind with a list of parameter strings")
    try:
        params = tuple(Fraction(p) for p in obj["params"])
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"graph term: a parameter of vertex {json.dumps(obj)} "
                         "is not a fraction") from None
    return Vertex(obj["kind"], params)


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


def _read_json(text, what):
    """The JSON document `text` for the reader of a `what`: text that is not
    JSON, or an object that gives a key twice, raises ParseError."""

    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ParseError(f"{what}: key {key!r} given twice")
            doc[key] = value
        return doc

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:  # also a number past the int digit limit
        raise ParseError(f"{what}: not JSON ({exc})") from None


def from_json(text: str) -> GraphTerm:
    """Read a term in the format `to_json` writes.

    The document is checked here, where it enters: text that is not JSON,
    a key given twice in one object, a missing or mistyped key, or a
    vertex, edge or endpoint not in that format raises ParseError, and a
    well-formed document whose term is not valid raises GraphError.
    """
    doc = _read_json(text, "graph term")
    if not (isinstance(doc, dict)
            and all(type(doc.get(key)) is int and doc[key] >= 0 for key in ("inputs", "outputs"))
            and all(isinstance(doc.get(key), list) for key in ("vertices", "edges"))):
        raise ParseError('graph term: expected an object with nonnegative int "inputs" and '
                         '"outputs" and "vertices" and "edges" lists')
    vertices = tuple(map(_vertex_from_json, doc["vertices"]))
    edges = set()
    for edge in doc["edges"]:
        if not (isinstance(edge, list) and len(edge) == 2):
            raise ParseError(f"graph term: edge {json.dumps(edge)} is not a [source, target] pair")
        edges.add(tuple(map(_endpoint_from_json, edge)))
    return require_valid(GraphTerm(doc["inputs"], doc["outputs"], vertices, frozenset(edges)))


_DOT_SHAPE = {"eps": "point", "delta": "triangle", "mu": "invtriangle",
              "phi": "circle", "id": "plaintext"}


def to_dot(g: GraphTerm) -> str:
    lines = ["digraph term {", "  rankdir=TB;"]
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
