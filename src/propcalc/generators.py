"""The finite presentations: generator corollas, attaching maps, relations,
and the edge-weight coordinate system.

Two presentations share the generators ``eps`` (1,0), ``delta`` (1,2) and
``mu`` (2,1); the larger one also has the counit homotopy ``phi`` (1,1).
``mu`` and ``phi`` carry one parameter s in [0,1]; at s = 0 or 1 a vertex
is identified with a boundary graph by the attaching maps.

Conventions (fixed once, used consistently everywhere):

* evaluation of mu_s is psi_s(x, y) = s*x + (1-s)*y, so at s = 0 the first
  input is killed and at s = 1 the second one is;
* edge weights of a mu_s vertex with output weight a are (1-s)*a on the
  first input and s*a on the second (s is the second-input share);
* phi at 0 is the plain strand, phi at 1 is delta with the counit grafted
  on its first output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import GraphError, WeightingError
from .graphs import (GraphTerm, Vertex, Wiring, horizontal_compose, require_valid,
                     sources_by_target, targets_by_source, topological_order, unit,
                     vertical_compose)

# prop tags selecting which relation set applies
S_TILDE = "stilde"
S = "s"
MS = "ms"

GENERATOR_KINDS = ("eps", "delta", "mu", "phi")


def corolla(kind: str, params=()) -> GraphTerm:
    """Single-vertex graph of the generator's biarity."""
    if kind not in GENERATOR_KINDS:
        raise GraphError(f"unknown generator {kind!r}")
    params = tuple(Fraction(p) for p in params)
    vert = Vertex(kind, params)
    a, b = vert.arity
    edges = set()
    for k in range(a):
        edges.add((("in", k), ("vi", 0, k)))
    for k in range(b):
        edges.add((("vo", 0, k), ("out", k)))
    return GraphTerm(a, b, (vert,), frozenset(edges))


def check_tag(g: GraphTerm, tag: str):
    """phi is admitted only under the S-tilde tag."""
    if tag not in (S_TILDE, S, MS):
        raise GraphError(f"unknown prop tag {tag!r}")
    if tag != S_TILDE and any(v.kind == "phi" for v in g.vertices):
        raise GraphError("phi generator is not part of this presentation")


def term_degree(g: GraphTerm) -> int:
    """Number of interior cell parameters carried by the term."""
    return sum(1 for v in g.vertices for p in v.params if 0 < p < 1)


# ---------------------------------------------------------------------------
# attaching maps

def apply_attaching(g: GraphTerm, tag: str = S_TILDE) -> GraphTerm:
    """Replace every vertex sitting at a boundary parameter by its boundary graph.

    mu at 0 -> counit on input 1, strand from input 2; mu at 1 the mirror.
    phi at 0 -> plain strand; phi at 1 -> delta with counit on output 1.
    Boundary graphs contain no parametrized vertex, so one pass in vertex
    order replaces them all.
    """
    check_tag(g, tag)
    require_valid(g)
    work = Wiring.from_term(g)
    for v, vert in enumerate(g.vertices):
        if vert.kind not in ("mu", "phi") or vert.params[0] not in (0, 1):
            continue
        s = vert.params[0]
        srcs = [work.del_edge(("vi", v, k))[0] for k in range(vert.arity[0])]
        dst = work.tgt[("vo", v, 0)]
        work.del_edge(dst)
        work.del_vertex(v)
        if vert.kind == "mu":
            killed, kept = srcs if s == 0 else reversed(srcs)
            work.add_edge(killed, ("vi", work.new_vertex("eps"), 0))
            work.add_edge(kept, dst)
        elif s == 0:
            work.add_edge(srcs[0], dst)
        else:
            d = work.new_vertex("delta")
            e = work.new_vertex("eps")
            work.add_edge(srcs[0], ("vi", d, 0))
            work.add_edge(("vo", d, 0), ("vi", e, 0))
            work.add_edge(("vo", d, 1), dst)
    return work.to_term()


# ---------------------------------------------------------------------------
# relations

def apply_relations_S(g: GraphTerm, tag: str = S) -> GraphTerm:
    """Rewrite with the presentation's relations until no redex remains.

    Under the strictly counital tags (S, MS): delta with one output capped
    by a counit collapses to a strand, and a counit below mu splits into
    two counits.  Under the S-tilde tag: delta with both outputs capped
    becomes a counit, a counit below mu splits, and a counit below phi
    deletes the phi.  Redexes are taken in vertex-index order, which makes
    the rewrite deterministic; confluence is checked separately by tests.
    """
    check_tag(g, tag)
    require_valid(g)
    work = Wiring.from_term(g)
    kind = work.kind

    def cap(v, k):
        """The counit on output slot k of v, or None."""
        d = work.tgt[("vo", v, k)]
        return d[1] if d[0] == "vi" and kind[d[1]] == "eps" else None

    def redex(v):
        if kind[v] == "mu" or (kind[v] == "phi" and tag == S_TILDE):
            w = cap(v, 0)
            return None if w is None else (kind[v] + "-eps", v, w)
        if kind[v] == "delta":
            w0, w1 = cap(v, 0), cap(v, 1)
            if tag != S_TILDE:
                if w0 is not None:
                    return ("delta-eps", v, w0, 1)
                if w1 is not None:
                    return ("delta-eps", v, w1, 0)
            elif w0 is not None and w1 is not None:
                return ("delta-eps-eps", v, w0, w1)
        return None

    while True:
        found = next(filter(None, map(redex, sorted(kind))), None)
        if found is None:
            return work.to_term()
        rule, v, *caps = found
        src, _ = work.del_edge(("vi", v, 0))
        if rule == "mu-eps":
            src2, _ = work.del_edge(("vi", v, 1))
            work.del_edge(("vi", caps[0], 0))
            work.del_vertex(v)
            work.del_vertex(caps[0])
            for s in (src, src2):
                work.add_edge(s, ("vi", work.new_vertex("eps"), 0))
        elif rule == "delta-eps":
            w, keep = caps
            dst = work.tgt[("vo", v, keep)]
            work.del_edge(dst)
            work.del_edge(("vi", w, 0))
            work.del_vertex(v)
            work.del_vertex(w)
            work.add_edge(src, dst)
        elif rule == "delta-eps-eps":
            for w in caps:
                work.del_edge(("vi", w, 0))
                work.del_vertex(w)
            work.del_vertex(v)
            work.add_edge(src, ("vi", work.new_vertex("eps"), 0))
        else:  # phi-eps
            work.del_edge(("vi", caps[0], 0))
            work.del_vertex(v)
            work.add_edge(src, ("vi", caps[0], 0))


# ---------------------------------------------------------------------------
# edge-weight coordinates

@dataclass(frozen=True)
class EdgeWeighting:
    """Nonnegative exact weights on the edges of a graph term.

    Conditions: edges into a counit weigh 0, edges into external outputs
    weigh 1, and at every vertex total inflow equals total outflow.  The
    output condition can be relaxed when weighting a subgraph in context.
    """

    graph: GraphTerm
    weights: dict = field(compare=False)

    def check(self, strict_outputs: bool = True):
        g = self.graph
        problems = []
        for src, dst in g.edges:
            w = self.weights.get((src, dst))
            if w is None:
                problems.append(f"edge {src}->{dst} has no weight")
                continue
            if w < 0:
                problems.append(f"edge {src}->{dst} has negative weight {w}")
            if dst[0] == "vi" and g.vertices[dst[1]].kind == "eps" and w != 0:
                problems.append(f"counit edge {src}->{dst} has weight {w} != 0")
            if strict_outputs and dst[0] == "out" and w != 1:
                problems.append(f"output edge {src}->{dst} has weight {w} != 1")
        if problems:
            return problems
        for v, vert in enumerate(g.vertices):
            a, b = vert.arity
            inflow = sum(self.weights[e] for e in g.edges if e[1][:2] == ("vi", v))
            outflow = sum(self.weights[e] for e in g.edges if e[0][:2] == ("vo", v))
            if vert.kind != "eps" and inflow != outflow:
                problems.append(f"vertex {v} ({vert.kind}): inflow {inflow} != outflow {outflow}")
        return problems

    def require(self, strict_outputs: bool = True):
        problems = self.check(strict_outputs)
        if problems:
            raise WeightingError("; ".join(problems))
        return self


def to_edge_weights(g: GraphTerm) -> EdgeWeighting:
    """Propagate weight 1 up from each external output.

    A delta input weighs the sum of its outputs; a mu_s vertex with output
    weight a puts (1-s)a on its first input and s*a on the second; counit
    edges weigh 0.  Total on acyclic graphs.
    """
    require_valid(g)
    if any(v.kind == "phi" for v in g.vertices):
        raise GraphError("edge weights are defined on the counital presentation only")
    by_source = targets_by_source(g)
    by_target = sources_by_target(g)
    order = list(topological_order(g))

    weights = {}
    for src, dst in g.edges:
        if dst[0] == "out":
            weights[(src, dst)] = Fraction(1)
        elif g.vertices[dst[1]].kind == "eps":
            weights[(src, dst)] = Fraction(0)

    for v in reversed(order):
        vert = g.vertices[v]
        if vert.kind == "eps":
            continue
        outs = [(("vo", v, k), by_source[("vo", v, k)]) for k in range(vert.arity[1])]
        out_w = [weights[e] for e in outs]
        ins = [(by_target[("vi", v, k)], ("vi", v, k)) for k in range(vert.arity[0])]
        if vert.kind == "delta":
            weights[ins[0]] = out_w[0] + out_w[1]
        elif vert.kind == "mu":
            s = vert.params[0]
            a = out_w[0]
            weights[ins[0]] = (1 - s) * a
            weights[ins[1]] = s * a
        else:  # id
            weights[ins[0]] = out_w[0]
    return EdgeWeighting(g, weights)


def from_edge_weights(g: GraphTerm, weighting: EdgeWeighting):
    """Recover mu parameters from a weighting; inverse of to_edge_weights.

    Returns (graph with parameters replaced, frozenset of flagged vertex
    indices).  A mu vertex whose output weighs 0 has an unrecoverable
    parameter; it gets s = 0 and a flag, which is harmless because the
    relations identify all such parameters anyway.
    """
    weighting.require(strict_outputs=True)
    by_source = targets_by_source(g)
    by_target = sources_by_target(g)
    new_vertices = []
    flagged = set()
    for v, vert in enumerate(g.vertices):
        if vert.kind != "mu":
            new_vertices.append(vert)
            continue
        a = weighting.weights[(("vo", v, 0), by_source[("vo", v, 0)])]
        w2 = weighting.weights[(by_target[("vi", v, 1)], ("vi", v, 1))]
        if a == 0:
            flagged.add(v)
            s = Fraction(0)
        else:
            s = w2 / a
        new_vertices.append(Vertex("mu", (s,)))
    return GraphTerm(g.n, g.m, tuple(new_vertices), g.edges), frozenset(flagged)


# ---------------------------------------------------------------------------
# stabilization maps of the homotopy-equivalence argument

def stabilize_add(g: GraphTerm) -> GraphTerm:
    """Pull a new first output off input 1 with a coproduct: (n,m) -> (n,m+1)."""
    if g.n < 1:
        raise GraphError("stabilize_add needs at least one input")
    top = horizontal_compose([corolla("delta"), unit(g.n - 1)])
    bottom = horizontal_compose([unit(1), g])
    return vertical_compose(top, bottom)


def stabilize_remove(g: GraphTerm) -> GraphTerm:
    """Cap output 1 with the counit: (n,m+1) -> (n,m)."""
    if g.m < 1:
        raise GraphError("stabilize_remove needs at least one output")
    return vertical_compose(g, horizontal_compose([corolla("eps"), unit(g.m - 1)]))
