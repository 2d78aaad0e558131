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

A weighting maps each edge's target endpoint, its name in the term's plan,
to its weight; `check_edge_weights` checks one.  `edge_labels` is the one
weight propagation: it gives integer labels over one scale, and
`to_edge_weights` is their `Fraction` view.  `recover_mu_params` is the one
place that reads mu parameters back off labelled edges.

The counit relations live here once, as a redex rule (`counit_redexes`)
and a rewrite (`rewrite_counit`) on a `graphs.Wiring`.  `apply_relations_S`
and the normalizer's counit pass both drive them with `Wiring.exhaust`,
which takes redexes in counit-id order unless an rng picks them.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import GraphError, InternalError, WeightingError
from .graphs import (ARITY, GraphTerm, Vertex, Wiring, absorb_equivalences,
                     horizontal_compose, plan_of, unit, vertical_compose)

# prop tags selecting which relation set applies
S_TILDE = "stilde"
S = "s"

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
    if tag not in (S_TILDE, S):
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
    order replaces them all.  A valid term with no such vertex is returned
    as it is.
    """
    check_tag(g, tag)
    plan_of(g)  # raises GraphError on an invalid term
    boundary = [v for v, vert in enumerate(g.vertices)
                if vert.kind in ("mu", "phi") and vert.params[0] in (0, 1)]
    if not boundary:
        return g
    work = Wiring.from_term(g)
    for v in boundary:
        vert = g.vertices[v]
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

def counit_redexes(work: Wiring, tag: str = S) -> list:
    """The counits of `work` that a relation of the presentation rewrites.

    Under S every counit fed by a delta or a mu is a redex.  Under S-tilde
    a counit below mu or phi is one, and a delta is one only when both its
    outputs are capped; it is listed once, by its slot-0 cap.  A counit fed
    by an input or an id vertex is never a redex.  Redexes are listed in
    counit-id order.
    """
    kind, src, tgt = work.kind, work.src, work.tgt
    out = []
    for v, k in kind.items():
        if k != "eps":
            continue
        s = src[("vi", v, 0)]
        if s[0] == "in":
            continue
        feeder = kind[s[1]]
        if feeder in ("mu", "phi"):
            out.append(v)
        elif feeder == "delta":
            other = tgt[("vo", s[1], 1)]
            if tag != S_TILDE or (s[2] == 0 and other[0] == "vi"
                                  and kind[other[1]] == "eps"):
                out.append(v)
    return out


def rewrite_counit(work: Wiring, v):
    """Apply the relation at the counit v, a redex of `counit_redexes`.

    A counit below mu or phi caps each of that vertex's inputs instead,
    v the first one, and each new counit edge takes the label of v's edge.
    A coproduct with a capped output collapses to a strand that passes on
    the label of its other output; when that output is capped too, this
    is the S-tilde rule that two caps on a coproduct make one.
    """
    _, u, k = work.src[("vi", v, 0)]
    if work.kind[u] == "delta":
        other = work.tgt[("vo", u, 1 - k)]
        p, _ = work.del_edge(("vi", u, 0))
        _, w_other = work.del_edge(other)
        work.del_edge(("vi", v, 0))
        work.del_vertex(u)
        work.del_vertex(v)
        work.add_edge(p, other, w_other)
        return
    ins = [work.del_edge(("vi", u, j))[0] for j in range(ARITY[work.kind[u]][0])]
    _, w = work.del_edge(("vi", v, 0))
    work.del_vertex(u)
    work.add_edge(ins[0], ("vi", v, 0), w)
    for p in ins[1:]:
        work.add_edge(p, ("vi", work.new_vertex("eps"), 0), w)


def apply_relations_S(g: GraphTerm, tag: str = S) -> GraphTerm:
    """Rewrite with the presentation's counit relations until no redex remains.

    Under S: delta with one output capped by a counit collapses to a
    strand, and a counit below mu splits into two counits.  Under S-tilde:
    delta with both outputs capped becomes a counit, a counit below mu
    splits, and a counit below phi deletes the phi.  Redexes are taken in
    counit-id order (`counit_redexes`), which makes the rewrite
    deterministic; confluence is checked separately by tests.  `id`
    vertices are absorbed first, as the normalizer does, so that no counit
    is hidden behind one.
    """
    check_tag(g, tag)
    work = Wiring.from_term(absorb_equivalences(g))
    work.exhaust(lambda w: counit_redexes(w, tag), rewrite_counit,
                 what="counit relations")
    return work.to_term()


# ---------------------------------------------------------------------------
# edge-weight coordinates

def check_edge_weights(g: GraphTerm, weights) -> list:
    """The problems of `weights` as a weighting of g, which must be valid.

    A weighting maps each edge's target endpoint to a nonnegative exact
    weight.  Conditions: edges into a counit weigh 0, edges into external
    outputs weigh 1, and at every vertex total inflow equals total outflow.
    """
    plan = plan_of(g)
    problems = []
    for dst, src in plan.src.items():
        w = weights.get(dst)
        if w is None:
            problems.append(f"edge {src}->{dst} has no weight")
            continue
        if w < 0:
            problems.append(f"edge {src}->{dst} has negative weight {w}")
        if dst[0] == "vi" and g.vertices[dst[1]].kind == "eps" and w != 0:
            problems.append(f"counit edge {src}->{dst} has weight {w} != 0")
        if dst[0] == "out" and w != 1:
            problems.append(f"output edge {src}->{dst} has weight {w} != 1")
    if problems:
        return problems
    for v, vert in enumerate(g.vertices):
        a, b = vert.arity
        inflow = sum(weights[("vi", v, k)] for k in range(a))
        outflow = sum(weights[plan.tgt[("vo", v, k)]] for k in range(b))
        if vert.kind != "eps" and inflow != outflow:
            problems.append(f"vertex {v} ({vert.kind}): inflow {inflow} != outflow {outflow}")
    return problems


def edge_labels(g: GraphTerm):
    """The weighting of g as integer labels over one scale: (labels, scale).

    Weight 1 is propagated up from each external output as the label
    `scale`, the product of the mu denominators.  A delta input carries the
    sum of its outputs; a mu_s vertex with output label a, s = p/q, puts
    a - pa/q on its first input and pa/q on its second; counit edges carry
    0.  Every mu's output label is a multiple of its own q, since the
    denominators below it divide scale/q, so each split is exact.  Edges
    are named by their target endpoints, as in the term's plan.
    """
    plan = plan_of(g)
    if any(v.kind == "phi" for v in g.vertices):
        raise GraphError("edge weights are defined on the counital presentation only")

    scale = 1
    for vert in g.vertices:
        if vert.kind == "mu":
            scale *= vert.params[0].denominator
    labels = dict.fromkeys((("out", j) for j in range(g.m)), scale)
    tgt = plan.tgt
    for v in reversed(plan.order):
        vert = g.vertices[v]
        kind = vert.kind
        if kind == "eps":
            labels[("vi", v, 0)] = 0
        elif kind == "delta":
            labels[("vi", v, 0)] = labels[tgt[("vo", v, 0)]] + labels[tgt[("vo", v, 1)]]
        elif kind == "mu":
            s = vert.params[0]
            a = labels[tgt[("vo", v, 0)]]
            second, rest = divmod(a * s.numerator, s.denominator)
            if rest:
                raise InternalError("a mu label is not a multiple of its denominator")
            labels[("vi", v, 0)] = a - second
            labels[("vi", v, 1)] = second
        else:  # id
            labels[("vi", v, 0)] = labels[tgt[("vo", v, 0)]]
    return labels, scale


def to_edge_weights(g: GraphTerm) -> dict:
    """The weighting of g, keyed by target endpoint: `edge_labels` over its
    scale, as Fractions."""
    labels, scale = edge_labels(g)
    return {d: Fraction(label, scale) for d, label in labels.items()}


def recover_mu_params(work: Wiring) -> frozenset:
    """Set each mu's parameter to its second input's share of its output
    weight, read off the edge labels of `work`.

    The labels may be weights or integer labels over a common scale; a
    share does not depend on the scale.  Returns the mu vertices whose
    output weighs 0: their parameter is unrecoverable, so they get s = 0,
    which is harmless because the relations identify all such parameters
    anyway.
    """
    flagged = set()
    for v, kind in work.kind.items():
        if kind == "mu":
            a = work.w[work.tgt[("vo", v, 0)]]
            if not a:
                flagged.add(v)
            work.params[v] = (Fraction(work.w[("vi", v, 1)], a) if a else Fraction(0),)
    return frozenset(flagged)


def from_edge_weights(g: GraphTerm, weights: dict):
    """Recover mu parameters from a weighting of g; inverse of to_edge_weights.

    Returns (graph with parameters replaced, frozenset of the vertex
    indices flagged by `recover_mu_params`).  Raises WeightingError when
    `weights` is not a weighting of g.
    """
    problems = check_edge_weights(g, weights)
    if problems:
        raise WeightingError("; ".join(problems))
    work = Wiring.from_term(g, weights)
    flagged = recover_mu_params(work)
    return work.to_term(), flagged


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
