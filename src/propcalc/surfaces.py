"""Ribbon graphs and oriented arc surfaces of canonical forms.

Compactifying the open legs of a canonical graph adds one vertex per
external port; gluing an interval to each of those makes the boundary
circles.  Cyclic orders: internal vertices extend their slot order
(coproduct: in, out1, out2; product: in1, in2, out), boundary vertices
put the two interval endpoints first.  Attaching a disk to every ribbon
loop gives a closed oriented surface; removing the disks glued to the
boundary circles leaves the arc surface, whose directed weighted 1-cells
recover the element.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphError, InternalError
from .graphs import ARITY
from .surjections import WeightedSurjection, _canonical_parts, _expand_work


class RibbonGraph:
    """Half-edge fatgraph with directed weighted edges and boundary tags.

    Edge e owns the halves 2e (its tail) and 2e + 1 (its head), so the
    edge of half h is h >> 1 and its opposite half is h ^ 1.
    """

    def __init__(self):
        self.rotation = {}   # vertex -> list of half ids, cyclic
        self.at = {}         # half of a present edge -> vertex
        self.edges = {}      # edge id -> dict(weight, kind)
        self.tags = {}       # vertex -> ("in", i) | ("out", j) | None
        self._next_edge = 0

    def add_vertex(self, name, tag=None):
        self.rotation[name] = []
        self.tags[name] = tag
        return name

    def add_edge(self, u, v, weight=Fraction(0), kind="arc"):
        """Directed edge u -> v; halves are appended to the rotations."""
        e = self._next_edge
        self._next_edge += 1
        h1, h2 = 2 * e, 2 * e + 1
        self.at[h1] = u
        self.at[h2] = v
        self.rotation[u].append(h1)
        self.rotation[v].append(h2)
        self.edges[e] = {"weight": weight, "kind": kind}
        return e

    def remove_edge(self, e):
        """Drop edge e and its halves from the edge maps.  The halves stay
        in the rotations."""
        del self.edges[e], self.at[2 * e], self.at[2 * e + 1]

    def edge_of_half(self, h):
        if h not in self.at:
            raise InternalError(f"orphan half {h}")
        return h >> 1

    def sigma(self, h):
        rot = self.rotation[self.at[h]]
        return rot[(rot.index(h) + 1) % len(rot)]

    def copy(self):
        out = RibbonGraph()
        out.rotation = {v: list(r) for v, r in self.rotation.items()}
        out.at = dict(self.at)
        out.edges = {e: dict(d) for e, d in self.edges.items()}
        out.tags = dict(self.tags)
        out._next_edge = self._next_edge
        return out

    def check(self):
        for v, rot in self.rotation.items():
            for h in rot:
                if self.at[h] != v:
                    raise InternalError("rotation and at disagree")


def ribbon_loops(rg: RibbonGraph):
    """Orbits of h -> sigma(h ^ 1); each directed edge side lies in one.

    This is the footnote's traversal: arriving at a vertex, leave along
    the edge that follows the arrival in its cyclic order.
    """
    seen = set()
    loops = []
    for h0 in sorted(rg.at):
        if h0 in seen:
            continue
        loop = []
        h = h0
        while True:
            loop.append(h)
            seen.add(h)
            h = rg.sigma(h ^ 1)
            if h == h0:
                break
        loops.append(loop)
    return loops


def connected_components(rg: RibbonGraph):
    """Each vertex's component, named by one of its vertices."""
    parent = {v: v for v in rg.rotation}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in rg.edges:
        a, b = find(rg.at[2 * e]), find(rg.at[2 * e + 1])
        if a != b:
            parent[a] = b
    return {v: find(v) for v in rg.rotation}


# ---------------------------------------------------------------------------
# construction

def to_ribbon(x: WeightedSurjection) -> RibbonGraph:
    """Ribbon graph of the canonical graph, before collapsing.

    Boundary circles are loops at the n+m new vertices, placed first in
    each rotation; all other rotations extend the slot order.  The graph
    is read off the wiring that `expand_graph` exports, whose edge weights
    are the ones `to_edge_weights` gives the exported term.
    """
    if x.m < 1:
        raise GraphError("the surface realization needs at least one output")
    work = _expand_work(x)
    rg = RibbonGraph()
    for i in range(x.n):
        rg.add_vertex(("in", i), tag=("in", i))
    for j in range(x.m):
        rg.add_vertex(("out", j), tag=("out", j))
    for v in range(work.fresh):
        rg.add_vertex(("v", v))
    # boundary circles first in the rotations
    for i in range(x.n):
        rg.add_edge(("in", i), ("in", i), kind="circle")
    for j in range(x.m):
        rg.add_edge(("out", j), ("out", j), kind="circle")

    def node(ep):
        if ep[0] == "in":
            return ("in", ep[1])
        if ep[0] == "out":
            return ("out", ep[1])
        return ("v", ep[1])

    # graph vertices list their halves in slot order: inputs then outputs,
    # which matches (in, out1, out2) for the coproduct and (in1, in2, out)
    # for the product; edges are inserted in a traversal that realizes it
    slot_half = {}
    for src, dst in sorted((s, d) for d, s in work.src.items()):
        e = rg.add_edge(node(src), node(dst), weight=work.weight(dst), kind="strand")
        slot_half[src] = 2 * e
        slot_half[dst] = 2 * e + 1
    # rebuild internal rotations in slot order
    for v in range(work.fresh):
        a, b = ARITY[work.kind[v]]
        rg.rotation[("v", v)] = ([slot_half[("vi", v, k)] for k in range(a)]
                                 + [slot_half[("vo", v, k)] for k in range(b)])
    rg.check()
    return rg


def _degrees(rg: RibbonGraph):
    """In- and out-degree of every vertex."""
    indeg = dict.fromkeys(rg.rotation, 0)
    outdeg = dict.fromkeys(rg.rotation, 0)
    for e in rg.edges:
        outdeg[rg.at[2 * e]] += 1
        indeg[rg.at[2 * e + 1]] += 1
    return indeg, outdeg


def _collapsible(rg: RibbonGraph, e, indeg, outdeg) -> bool:
    """Whether edge e has exactly one endpoint on a boundary circle and no
    sibling of the same direction at the interior endpoint."""
    if rg.edges[e]["kind"] == "circle":
        return False
    u, w = rg.at[2 * e], rg.at[2 * e + 1]
    boundary_u = rg.tags[u] is not None
    if boundary_u == (rg.tags[w] is not None):
        return False
    # the edge is the only one of its direction at its interior endpoint
    return indeg[w] == 1 if boundary_u else outdeg[u] == 1


def _contract(rg: RibbonGraph, e):
    """Contract edge e of rg in place; return the halves moved onto the
    boundary vertex."""
    h_tail, h_head = 2 * e, 2 * e + 1
    u, w = rg.at[h_tail], rg.at[h_head]
    if rg.tags[u] is not None:
        keep, gone, h_keep, h_gone = u, w, h_tail, h_head
    else:
        keep, gone, h_keep, h_gone = w, u, h_head, h_tail
    rg.remove_edge(e)
    rot_gone = rg.rotation.pop(gone)
    del rg.tags[gone]
    i = rot_gone.index(h_gone)
    spliced = rot_gone[i + 1:] + rot_gone[:i]
    rot_keep = rg.rotation[keep]
    j = rot_keep.index(h_keep)
    rot_keep[j:j + 1] = spliced
    for h in spliced:
        rg.at[h] = keep
    return spliced


def collapse_edges(rg: RibbonGraph) -> RibbonGraph:
    """Contract collapsible edges, smallest id first, until none remain;
    idempotent.

    Works in place on one copy.  A contraction merges an interior vertex
    into a boundary vertex, so interior degrees never change and an edge
    can only turn collapsible when one of its ends is merged; the heap
    holds every collapsible edge, and entries that stopped being
    collapsible are dropped when they come up.
    """
    rg = rg.copy()
    indeg, outdeg = _degrees(rg)
    heap = [e for e in rg.edges if _collapsible(rg, e, indeg, outdeg)]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)
        if not _collapsible(rg, e, indeg, outdeg):
            continue
        for h in _contract(rg, e):
            e2 = h >> 1
            if _collapsible(rg, e2, indeg, outdeg):
                heapq.heappush(heap, e2)
    return rg


# ---------------------------------------------------------------------------
# invariants

@dataclass(frozen=True)
class SurfaceSummary:
    vertices: int
    edges: int
    faces: int
    components: int
    euler: int           # V - E + F of the closed surface
    genus: int           # summed over components
    boundary: int        # one circle per external port
    chi_surface: int     # euler - boundary
    arcs: tuple          # (input, output, weight) per strand, position order

    def check(self):
        if self.chi_surface != 2 * self.components - 2 * self.genus - self.boundary:
            raise InternalError("Euler characteristic inconsistency")

    def to_json(self):
        doc = {
            "vertices": self.vertices, "edges": self.edges, "faces": self.faces,
            "components": self.components, "euler": self.euler,
            "genus": self.genus, "boundary": self.boundary,
            "chi_surface": self.chi_surface,
            "arcs": [[i, j, str(w)] for i, j, w in self.arcs],
        }
        return json.dumps(doc, indent=2)


def arc_edges_in_position_order(rg: RibbonGraph):
    """Arc edge ids of a collapsed graph, by canonical strand position
    (incoming circles in order, their rotations after the interval ends)."""
    in_vertices = sorted(((t[1], v) for v, t in rg.tags.items()
                          if t is not None and t[0] == "in"))
    out = []
    for _, v in in_vertices:
        for h in rg.rotation[v][2:]:
            out.append(rg.edge_of_half(h))
    return out


def _arcs(rg: RibbonGraph):
    """(input, output, weight) of each arc of a collapsed graph, ports
    counted from 1, in canonical strand position order."""
    for e in arc_edges_in_position_order(rg):
        tin = rg.tags[rg.at[2 * e]]
        tout = rg.tags[rg.at[2 * e + 1]]
        if tin is None or tout is None or tin[0] != "in" or tout[0] != "out":
            raise InternalError("strand not between boundary circles")
        yield tin[1] + 1, tout[1] + 1, rg.edges[e]["weight"]


def summarize_ribbon(rg: RibbonGraph, boundary: int) -> SurfaceSummary:
    loops = ribbon_loops(rg)
    component = connected_components(rg)
    # V - E + F of each component: edges go by their tail, loops by their first half
    chi = Counter(component.values())
    for e in rg.edges:
        chi[component[rg.at[2 * e]]] -= 1
    for loop in loops:
        chi[component[rg.at[loop[0]]]] += 1
    genus = 0
    for chi_c in chi.values():
        if chi_c % 2 or chi_c > 2:
            raise InternalError(f"closed component with chi = {chi_c}")
        genus += (2 - chi_c) // 2
    V, E, F = len(rg.rotation), len(rg.edges), len(loops)
    summary = SurfaceSummary(
        vertices=V, edges=E, faces=F, components=len(chi),
        euler=V - E + F, genus=genus, boundary=boundary,
        chi_surface=V - E + F - boundary, arcs=tuple(_arcs(rg)))
    summary.check()
    return summary


def surface_summary(x: WeightedSurjection) -> SurfaceSummary:
    """Invariants of the arc surface of a canonical form."""
    rg = collapse_edges(to_ribbon(x))
    # each boundary circle must bound its own disk face
    for v, tag in rg.tags.items():
        if tag is None:
            raise InternalError("uncollapsed interior vertex survived")
        h_b = rg.rotation[v][1]
        if rg.sigma(h_b ^ 1) != h_b:
            raise InternalError("boundary circle does not bound a disk")
    return summarize_ribbon(rg, x.n + x.m)


def recover_surjection(rg: RibbonGraph, n, m) -> WeightedSurjection:
    """Read the element back off a collapsed ribbon graph's arcs.

    Zero-weight arcs and involutions exposed by removed arcs are folded
    away, so the result is always a canonical form.
    """
    blocks = [[] for _ in range(n)]
    weights = [[] for _ in range(n)]
    for i, j, w in _arcs(rg):
        blocks[i - 1].append(j)
        weights[i - 1].append(w)
    blocks, weights = _canonical_parts(blocks, weights)
    return WeightedSurjection(n, m, blocks, weights)


def remove_arc(rg: RibbonGraph, e) -> RibbonGraph:
    """Delete one edge, keeping the rotation order of the rest."""
    rg = rg.copy()
    for h in (2 * e, 2 * e + 1):
        rg.rotation[rg.at[h]].remove(h)
    rg.remove_edge(e)
    return rg


# ---------------------------------------------------------------------------
# exports

def ribbon_to_dot(rg: RibbonGraph) -> str:
    lines = ["graph ribbon {"]
    names = {v: f"v{idx}" for idx, v in enumerate(sorted(rg.rotation, key=str))}
    for v, ident in names.items():
        tag = rg.tags[v]
        label = f"{tag[0]}{tag[1] + 1}" if tag else "."
        rot = ",".join(str(h) for h in rg.rotation[v])
        lines.append(f'  {ident} [label="{label} ({rot})"];')
    for e, data in sorted(rg.edges.items()):
        u = names[rg.at[2 * e]]
        w = names[rg.at[2 * e + 1]]
        style = "dashed" if data["kind"] == "circle" else "solid"
        lines.append(f'  {u} -- {w} [style={style}, label="{data["weight"]}"];')
    lines.append("}")
    return "\n".join(lines)


def svg_sketch(x: WeightedSurjection) -> str:
    """A rough drawing: input circles on top, outputs below, weighted arcs."""
    summary = surface_summary(x)
    width = 120 * max(x.n, x.m) + 60
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="300">']
    pos = {}
    for i in range(x.n):
        cx = 90 + 120 * i
        pos[("in", i)] = (cx, 60)
        parts.append(f'<circle cx="{cx}" cy="60" r="25" fill="none" stroke="black"/>')
        parts.append(f'<text x="{cx - 5}" y="25">{i + 1}</text>')
    for j in range(x.m):
        cx = 90 + 120 * j
        pos[("out", j)] = (cx, 240)
        parts.append(f'<circle cx="{cx}" cy="240" r="25" fill="none" stroke="black"/>')
        parts.append(f'<text x="{cx - 5}" y="285">{j + 1}</text>')
    seen = {}
    for i, j, w in summary.arcs:
        x1, y1 = pos[("in", i - 1)]
        x2, y2 = pos[("out", j - 1)]
        k = seen.get((i, j), 0)
        seen[(i, j)] = k + 1
        bend = 20 * k - 10
        parts.append(f'<path d="M {x1} {y1 + 25} Q {(x1 + x2) / 2 + bend} 150 '
                     f'{x2} {y2 - 25}" fill="none" stroke="blue"/>')
        parts.append(f'<text x="{(x1 + x2) / 2 + bend}" y="150" font-size="10">{w}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
