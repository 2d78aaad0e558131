"""Sized, seeded input generators for the benchmark.

Every generator takes a `random.Random` and explicit size knobs and
reaches those sizes exactly; the program's own random generators
(`random_sterm`, `random_stype`) cannot, and `enumerate_basis` is far
too large to sample from at benchmark sizes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from propcalc.complexes import SimplicialComplex
from propcalc.generators import corolla
from propcalc.graphs import (horizontal_compose, permutation_graph,
                             sources_by_target, targets_by_source, unit,
                             vertical_compose)
from propcalc.surjections import SurjType, WeightedSurjection


# ---------------------------------------------------------------------------
# weighted surjections

def sample_type(rng, n, m, r, attempts=10000) -> SurjType:
    """A uniform-ish (n,m) basis type with exactly r strands.

    Block sizes are a random composition of r into n positive parts;
    assignments avoid adjacent repeats inside a block and are rejected
    until every output is hit.
    """
    if not (1 <= n <= r and 1 <= m <= r) or (m == 1 and r > n):
        raise ValueError(f"no (n,m)=({n},{m}) type with {r} strands")
    for _ in range(attempts):
        cuts = sorted(rng.sample(range(1, r), n - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [r])]
        blocks = []
        for size in sizes:
            blk = []
            for _ in range(size):
                choices = [f for f in range(1, m + 1) if not blk or f != blk[-1]]
                blk.append(rng.choice(choices))
            blocks.append(tuple(blk))
        if len({f for blk in blocks for f in blk}) == m:
            return SurjType(n, m, tuple(blocks))
    raise ValueError(f"could not sample an ({n},{m}) type with {r} strands")


def sample_weights(rng, t: SurjType, denom=16) -> WeightedSurjection:
    """Positive random strand weights, normalized to sum 1 per output."""
    raw = [[rng.randint(1, denom) for _ in blk] for blk in t.blocks]
    totals = [0] * t.m
    for blk, ws in zip(t.blocks, raw):
        for f, w in zip(blk, ws):
            totals[f - 1] += w
    weights = tuple(tuple(Fraction(w, totals[f - 1]) for f, w in zip(blk, ws))
                    for blk, ws in zip(t.blocks, raw))
    return WeightedSurjection(t.n, t.m, t.blocks, weights)


# ---------------------------------------------------------------------------
# graph terms of an exact size

def _interior(rng, denom=16):
    return Fraction(rng.randint(1, denom - 1), denom)


def build_term(rng, n, vertices, max_width=6):
    """A valid term with exactly `vertices` generator vertices.

    Returns (graph, layers).  `layers` is the construction as a list of
    ("gen", kind, param, position) and ("perm", image) steps, which gives
    an evaluation route that never looks at the graph's wiring.  Widths
    stay between 1 and `max_width`, so the term never runs out of strands.
    """
    g = unit(n)
    layers = []
    width = n
    for _ in range(vertices):
        if width == 1:
            kind = rng.choice(("delta", "phi"))
        else:
            if rng.random() < 0.25:
                image = list(range(1, width + 1))
                rng.shuffle(image)
                g = vertical_compose(g, permutation_graph(tuple(image)))
                layers.append(("perm", tuple(image)))
            if width >= max_width:
                kind = rng.choice(("eps", "mu"))
            else:
                kind = rng.choice(("delta", "phi", "eps", "mu"))
        param = (_interior(rng),) if kind in ("mu", "phi") else ()
        a, b = {"eps": (1, 0), "delta": (1, 2), "mu": (2, 1), "phi": (1, 1)}[kind]
        pos = rng.randint(0, width - a)
        layer = horizontal_compose([unit(pos), corolla(kind, param),
                                    unit(width - pos - a)])
        g = vertical_compose(g, layer)
        layers.append(("gen", kind, param[0] if param else None, pos))
        width += b - a
    return g, layers


# ---------------------------------------------------------------------------
# graph -> term-language text

def _atom(vert):
    if vert.kind == "phi":
        return f"h({vert.params[0]})"
    if vert.kind == "mu":
        return f"mu({vert.params[0]})"
    return vert.kind


def _perm_text(image):
    return "sigma[" + ",".join(map(str, image)) + "]"


def render(g) -> str:
    """Term-language text whose parse is isomorphic to `g`.

    Vertices are emitted in a Kahn order, one layer each, with a
    permutation layer in front whenever the vertex's input strands are
    not adjacent and in slot order.
    """
    by_target = sources_by_target(g)
    by_source = targets_by_source(g)
    feeds = [[by_target[("vi", v, k)] for k in range(vert.arity[0])]
             for v, vert in enumerate(g.vertices)]
    waiting = [sum(1 for s in srcs if s[0] == "vo") for srcs in feeds]
    ready = sorted(v for v, c in enumerate(waiting) if c == 0)
    wires = [("in", i) for i in range(g.n)]
    parts = []
    while ready:
        v = ready.pop(0)
        vert = g.vertices[v]
        ins = feeds[v]
        first = min(wires.index(s) for s in ins)
        others = [w for w in wires if w not in ins]
        cut = sum(1 for w in wires[:first] if w not in ins)
        arranged = others[:cut] + ins + others[cut:]
        image = tuple(arranged.index(w) + 1 for w in wires)
        if image != tuple(range(1, len(wires) + 1)):
            parts.append(_perm_text(image))
        rest = len(arranged) - cut - len(ins)
        parts.append(" | ".join(["id"] * cut + [_atom(vert)] + ["id"] * rest))
        outs = [("vo", v, k) for k in range(vert.arity[1])]
        wires = arranged[:cut] + outs + arranged[cut + len(ins):]
        for ep in outs:
            dst = by_source[ep]
            if dst[0] == "vi":
                waiting[dst[1]] -= 1
                if waiting[dst[1]] == 0:
                    ready.append(dst[1])
        ready.sort()
    if len(parts) < len(g.vertices):
        raise ValueError("graph has a directed cycle")
    image = tuple(by_source[w][1] + 1 for w in wires)
    if image != tuple(range(1, len(wires) + 1)) or not parts:
        parts.append(_perm_text(image) if image else "id")
    return " ; ".join(parts)


# ---------------------------------------------------------------------------
# iterated barycentric subdivision

def subdivide(K: SimplicialComplex) -> SimplicialComplex:
    """Barycentric subdivision of a pure complex.

    New vertices are the old simplices, numbered by (dimension, vertices),
    so every flag lists its vertices in increasing order.
    """
    top = K.simplices(K.dim)
    simplices = sorted((s for k in range(K.dim + 1) for s in K.simplices(k)),
                       key=lambda s: (len(s), s))
    label = {s: i for i, s in enumerate(simplices)}
    flags = set()
    for face in top:
        for order in permutations(face):
            flags.add(tuple(label[tuple(sorted(order[:j]))]
                            for j in range(1, len(order) + 1)))
    return SimplicialComplex(sorted(flags))


def subdivided(K: SimplicialComplex, k: int) -> SimplicialComplex:
    for _ in range(k):
        K = subdivide(K)
    return K


def complex_to_text(K: SimplicialComplex) -> str:
    return "\n".join(" ".join(map(str, f)) for f in K.simplices(K.dim)) + "\n"


def cochain_text(cochain) -> str:
    return "\n".join(" ".join(map(str, f)) for f in sorted(cochain)) + "\n"
