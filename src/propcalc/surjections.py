"""Normalization to weighted-surjection canonical forms.

An element of the quotient prop with m > 0 outputs has a unique canonical
representative: every input i splits into a block of r_i strands, every
strand is assigned an output, strands of one output are joined in the
order induced by the total strand order (blocks concatenated left to
right), consecutive strands of a block never share an output, and the
strand weights of each output sum to 1.

The data here extends the canonical graphs in one direction: a block may
be empty, meaning the input is capped by a counit.  That covers the m = 0
class (all blocks empty) and the boundary cells reached when a block's
last strand weight degenerates to zero; the cellular differential needs
those cells.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm

from .errors import CompositionError, GraphError, InternalError, WeightingError
# to_edge_weights, the Fraction view of edge_labels, stays readable here as
# the normalizer's weighting: perfbench's tracer rebinds it in this module
from .generators import (S, apply_attaching, corolla, counit_redexes, edge_labels,
                         recover_mu_params, rewrite_counit, to_edge_weights)
from .graphs import (GraphTerm, Permutation, Wiring, absorb_equivalences,
                     horizontal_compose, permutation_graph, require_valid,
                     unit, vertical_compose)


@dataclass(frozen=True)
class SurjType:
    """Combinatorial type of a canonical form: blocks of output assignments."""

    n: int
    m: int
    blocks: tuple

    def __post_init__(self):
        if len(self.blocks) != self.n:
            raise GraphError(f"{self.n} inputs but {len(self.blocks)} blocks")
        counts = [0] * self.m
        for blk in self.blocks:
            prev = None
            for f in blk:
                if not 1 <= f <= self.m:
                    raise GraphError(f"assignment value {f} outside 1..{self.m}")
                if f == prev:
                    raise GraphError(f"degenerate block {blk}: adjacent repeat")
                counts[f - 1] += 1
                prev = f
        if self.m and 0 in counts:
            raise GraphError(f"assignment misses output {counts.index(0) + 1}")

    @property
    def r(self):
        return sum(len(b) for b in self.blocks)

    @property
    def degree(self):
        return self.r - self.m

    def output_counts(self):
        counts = [0] * self.m
        for blk in self.blocks:
            for f in blk:
                counts[f - 1] += 1
        return counts


def identity_type(k: int) -> SurjType:
    return SurjType(k, k, tuple((j,) for j in range(1, k + 1)))


def horizontal_type(*ts) -> SurjType:
    """The types side by side, each one's outputs numbered after the ones before."""
    blocks = []
    n = m = 0
    for t in ts:
        blocks.extend(tuple(f + m for f in blk) for blk in t.blocks)
        n += t.n
        m += t.m
    return SurjType(n, m, tuple(blocks))


def permute_inputs_type(t: SurjType, sigma: Permutation) -> SurjType:
    """New input j carries what old input sigma(j) carried."""
    if sigma.degree != t.n:
        raise GraphError("permutation degree mismatch")
    return SurjType(t.n, t.m, tuple(t.blocks[sigma(j) - 1] for j in range(1, t.n + 1)))


def permute_outputs_type(t: SurjType, tau: Permutation) -> SurjType:
    """Old output f becomes output tau(f); a weighted surjection keeps its
    weights, since each strand keeps its place."""
    if tau.degree != t.m:
        raise GraphError("permutation degree mismatch")
    return replace(t, blocks=tuple(tuple(tau(f) for f in blk) for blk in t.blocks))


@dataclass(frozen=True)
class WeightedSurjection(SurjType):
    """A point of its cell: the type plus strand weights, sums 1 per output."""

    weights: tuple

    def __post_init__(self):
        super().__post_init__()
        if len(self.weights) != len(self.blocks):
            raise GraphError("weights do not match blocks")
        sums = [Fraction(0)] * self.m
        for blk, ws in zip(self.blocks, self.weights):
            if len(blk) != len(ws):
                raise GraphError("weights do not match blocks")
            for f, w in zip(blk, ws):
                if not isinstance(w, Fraction) or w < 0:
                    raise WeightingError(f"bad strand weight {w!r}")
                sums[f - 1] += w
        for j, total in enumerate(sums, start=1):
            if total != 1:
                raise WeightingError(f"output {j} weights sum to {total}, not 1")

    @property
    def stype(self):
        return SurjType(self.n, self.m, self.blocks)

    @property
    def is_interior(self):
        return (not any(not b for b in self.blocks)
                and all(w > 0 for ws in self.weights for w in ws))

    def text(self):
        if self.m == 0:
            return f"counit-class n={self.n}"
        parts = []
        for blk, ws in zip(self.blocks, self.weights):
            if not blk:
                parts.append("eps")
            else:
                parts.append(" ".join(f"{f}/{w}" for f, w in zip(blk, ws)))
        return f"surj n={self.n} m={self.m} : " + " ; ".join(parts)

    def to_json(self):
        return json.dumps({
            "n": self.n, "m": self.m,
            "blocks": [list(b) for b in self.blocks],
            "weights": [[str(w) for w in ws] for ws in self.weights],
        })

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls(doc["n"], doc["m"],
                   tuple(tuple(b) for b in doc["blocks"]),
                   tuple(tuple(Fraction(w) for w in ws) for ws in doc["weights"]))


def counit_class(n: int) -> WeightedSurjection:
    return WeightedSurjection(n, 0, ((),) * n, ((),) * n)


def uniform_weights(t: SurjType) -> WeightedSurjection:
    """The barycenter of the cell: each output's weight split evenly."""
    counts = t.output_counts()
    weights = tuple(tuple(Fraction(1, counts[f - 1]) for f in blk) for blk in t.blocks)
    return WeightedSurjection(t.n, t.m, t.blocks, weights)


def _canonical_parts(blocks, weights):
    """Drop zero-weight strands, merge adjacent equal assignments (weights add)."""
    out_blocks, out_weights = [], []
    for blk, ws in zip(blocks, weights):
        nb, nw = [], []
        for f, w in zip(blk, ws):
            if not w:
                continue
            if nb and nb[-1] == f:
                nw[-1] += w
            else:
                nb.append(f)
                nw.append(w)
        out_blocks.append(tuple(nb))
        out_weights.append(tuple(nw))
    return tuple(out_blocks), tuple(out_weights)


def canonicalize_ws(x: WeightedSurjection) -> WeightedSurjection:
    """Drop zero-weight strands and merge the involutions that exposes."""
    blocks, weights = _canonical_parts(x.blocks, x.weights)
    return WeightedSurjection(x.n, x.m, blocks, weights)


# ---------------------------------------------------------------------------
# prop structure on canonical forms

def identity_ws(k: int) -> WeightedSurjection:
    return uniform_weights(identity_type(k))


def horizontal_ws(xs) -> WeightedSurjection:
    xs = tuple(xs)
    t = horizontal_type(*xs)
    return WeightedSurjection(t.n, t.m, t.blocks, sum((x.weights for x in xs), ()))


def permute_inputs_ws(x: WeightedSurjection, sigma: Permutation) -> WeightedSurjection:
    t = permute_inputs_type(x, sigma)
    return WeightedSurjection(t.n, t.m, t.blocks,
                              tuple(x.weights[sigma(j) - 1] for j in range(1, x.n + 1)))


permute_outputs_ws = permute_outputs_type


def _strands_by_wire(blocks, m):
    """Positions (block, index) of the strands into each of the m outputs,
    in strand order."""
    wires = [[] for _ in range(m)]
    for i, blk in enumerate(blocks):
        for t, f in enumerate(blk):
            wires[f - 1].append((i, t))
    return wires


def compose_weighted(top: WeightedSurjection, bottom: WeightedSurjection) -> WeightedSurjection:
    """Vertical composition by overlaying scaled strand partitions.

    Each intermediate wire is a rectangle whose top partition (the weights
    of the top element's strands into that output, scaled by the wire's
    total weight below) is overlaid with the bottom partition (the weights
    of the bottom block); the common refinement gives the composite's
    strands, routed to the bottom's outputs.  A wire capped by a counit
    below has total 0, so its strands leave no pieces.
    """
    if top.m != bottom.n:
        raise CompositionError(
            f"cannot compose ({top.n},{top.m}) above ({bottom.n},{bottom.m})")
    pieces = [[[] for _ in blk] for blk in top.blocks]  # per top strand: [(f2, width)]
    for strands, outs, ws_b in zip(_strands_by_wire(top.blocks, top.m),
                                   bottom.blocks, bottom.weights):
        total = sum(ws_b, Fraction(0))
        b, room = -1, 0
        for i, t in strands:
            width = top.weights[i][t] * total
            while width:
                while not room:
                    b += 1
                    if b == len(ws_b):
                        raise InternalError("partition totals differ")
                    room = ws_b[b]
                piece = min(width, room)
                pieces[i][t].append((outs[b], piece))
                width -= piece
                room -= piece
    blocks, weights = _canonical_parts(
        [[f for strand in blk for f, _ in strand] for blk in pieces],
        [[w for strand in blk for _, w in strand] for blk in pieces])
    return WeightedSurjection(top.n, bottom.m, blocks, weights)


def enumerate_basis(n: int, m: int, degree: int):
    """All nondegenerate assignment types of the given biarity and degree.

    Blocks are nonempty here (the interior cells); counit-capped cells
    only arise as boundaries.  The r = m + degree strands are split into
    n blocks at every choice of cut points, each block is filled by a word
    with no adjacent repeat, and a choice is kept when it hits every output.
    """
    r = m + degree
    if m < 1 or degree < 0 or n < 1 or r < n:
        return []
    words = [[()]]  # words[k]: the words of length k with no adjacent repeat
    for _ in range(r - n + 1):
        words.append([w + (f,) for w in words[-1] for f in range(1, m + 1)
                      if not w or w[-1] != f])
    found = []
    for cuts in combinations(range(1, r), n - 1):
        bounds = (0,) + cuts + (r,)
        for blocks in product(*(words[b - a] for a, b in zip(bounds, bounds[1:]))):
            if len(set(chain.from_iterable(blocks))) == m:
                found.append(blocks)
    found.sort()
    return [_built_type(n, m, blocks) for blocks in found]


def _built_type(n, m, blocks):
    """The SurjType of blocks that are already a valid assignment (n blocks
    on 1..m, no adjacent repeat, every output hit), without the checks of
    `SurjType.__post_init__`; only `enumerate_basis` builds cells this way."""
    t = object.__new__(SurjType)
    t.__dict__.update(n=n, m=m, blocks=blocks)
    return t


# ---------------------------------------------------------------------------
# the rewriting engine

class _Work(Wiring):
    """The normalizer's rewrite passes over a weighted eps/delta/mu wiring.

    Every edge label is an int, and the edge's weight is that label over
    the wiring's one `scale`.  The passes add, split and compare labels
    only; a `Fraction` is built where a weight leaves the wiring.
    """

    def __init__(self, n, m, scale=1):
        super().__init__(n, m)
        self.scale = scale

    @classmethod
    def from_graph(cls, g: GraphTerm):
        """Open g with its `edge_labels`: every edge labelled by an int,
        over the product of the mu denominators as the scale."""
        labels, scale = edge_labels(g)
        for vert in g.vertices:
            if vert.kind not in ("eps", "delta", "mu"):
                raise GraphError(f"normalizer does not accept {vert.kind} vertices")
        work = cls.from_term(g, labels)
        work.scale = scale
        return work

    def weight(self, d):
        """The weight of the edge into d."""
        return Fraction(self.w[d], self.scale)

    def rescale(self, k):
        """Multiply the scale and every label by the positive int k."""
        self.scale *= k
        self.w = {d: label * k for d, label in self.w.items()}

    def position_key(self, src_ep):
        """Canonical strand position of an edge source: (input index, branch word).

        Walks up through coproducts only; returns None when a product sits
        on the way (the strand's position is not settled yet).
        """
        word = []
        while src_ep[0] != "in":
            v = src_ep[1]
            if self.kind[v] != "delta":
                return None
            word.append(src_ep[2])
            src_ep = self.src[("vi", v, 0)]
        return (src_ep[1], tuple(reversed(word)))

    def _mu_tree(self, root):
        """Maximal product tree above `root`; leaves are non-product strands."""
        tree = {root}
        leaves = []
        stack = [root]
        while stack:
            u = stack.pop()
            for k in (0, 1):
                s = self.src[("vi", u, k)]
                if s[0] == "vo" and self.kind[s[1]] == "mu":
                    tree.add(s[1])
                    stack.append(s[1])
                else:
                    leaves.append((s, ("vi", u, k)))
        return tree, leaves

    def leibniz_redexes(self):
        """Yield the product-above-coproduct redexes whose strand positions
        are settled, in product-id order.

        A redex is (u, v, tree, leaves): the product u, the coproduct v
        below it, u's `_mu_tree` and its leaves as (position key, source,
        target) triples, read while the wiring is as the scan found it.
        Lazy: a caller that takes the first redex scans no further.
        """
        kind, tgt = self.kind, self.tgt
        for u, k in kind.items():
            if k != "mu":
                continue
            d = tgt[("vo", u, 0)]
            if d[0] != "vi" or kind[d[1]] != "delta":
                continue
            tree, leaves = self._mu_tree(u)
            keyed = []
            for s, dst in leaves:
                key = self.position_key(s)
                if key is None:
                    break
                keyed.append((key, s, dst))
            else:
                yield (u, d[1], tree, keyed)

    def _build_comb(self, side, target, total):
        """Left comb of products joining `side` strands into `target`.

        The weights of `side` must sum to `total`; the running sum the comb
        puts on its edges is checked against it once the comb is built.
        """
        running = side[0][1]
        if len(side) == 1:
            self.add_edge(side[0][0], target, total)
        else:
            mus = [self.new_vertex("mu") for _ in range(len(side) - 1)]
            self.add_edge(side[0][0], ("vi", mus[0], 0), running)
            for t, (s, w) in enumerate(side[1:]):
                self.add_edge(s, ("vi", mus[t], 1), w)
                running += w
                if t + 1 < len(mus):
                    self.add_edge(("vo", mus[t], 0), ("vi", mus[t + 1], 0), running)
                else:
                    self.add_edge(("vo", mus[t], 0), target, running)
        if running != total:
            raise InternalError("comb weights do not match the split")

    def rewrite_leibniz(self, redex):
        """Exchange the product tree rooted at u with the coproduct v below it.

        `redex` is one that `leibniz_redexes` yielded on the wiring as it
        is.  The tree's strands, taken in canonical position order,
        partition an interval of width b1 + b2; cutting it at b1 (the
        coproduct's split) refines the strands into the two output combs,
        with the straddling strand split by a fresh coproduct.  This is the
        relation's three weight cases at once, generalized to whole trees
        so that crossings absorbed by commutativity cannot change the
        result.
        """
        u, v, tree, leaves = redex
        # distinct strands have distinct position keys
        entries = [(s, self.w[d]) for _, s, d in sorted(leaves)]
        t1 = self.tgt[("vo", v, 0)]
        t2 = self.tgt[("vo", v, 1)]
        b1 = self.w[t1]
        b2 = self.w[t2]

        for node in tree:
            for k in (0, 1):
                self.del_edge(("vi", node, k))
        self.del_edge(("vi", v, 0))
        self.del_edge(t1)
        self.del_edge(t2)
        for node in tree:
            self.del_vertex(node)
        self.del_vertex(v)

        side1 = []
        side2 = []
        cum = 0
        for s, w in entries:
            if cum < b1 < cum + w:
                d = self.new_vertex("delta")
                self.add_edge(s, ("vi", d, 0), w)
                side1.append((("vo", d, 0), b1 - cum))
                side2.append((("vo", d, 1), cum + w - b1))
            elif cum + w <= b1 and (w > 0 or cum < b1):
                side1.append((s, w))
            else:
                side2.append((s, w))
            cum += w
        # a zero-width side still needs a strand to feed its output edge
        if not side1:
            s, w = side2[0]
            d = self.new_vertex("delta")
            self.add_edge(s, ("vi", d, 0), w)
            side1 = [(("vo", d, 0), 0)]
            side2[0] = (("vo", d, 1), w)
        if not side2:
            s, w = side1[-1]
            d = self.new_vertex("delta")
            self.add_edge(s, ("vi", d, 0), w)
            side2 = [(("vo", d, 1), 0)]
            side1[-1] = (("vo", d, 0), w)
        self._build_comb(side1, t1, b1)
        self._build_comb(side2, t2, b2)

    def pass_counits(self, rng=None):
        """Eliminate internal counits; return the number of rewrites."""
        return self.exhaust(counit_redexes, rewrite_counit, rng, "counit elimination")

    def pass_leibniz(self, rng=None):
        """Push products below coproducts; return the number of rewrites."""
        return self.exhaust(_Work.leibniz_redexes, _Work.rewrite_leibniz, rng,
                            "Leibniz push")

    def to_graph(self) -> GraphTerm:
        """Export with mu parameters recovered from the local weights."""
        recover_mu_params(self)
        return self.to_term()

    def extract(self) -> WeightedSurjection:
        """Read the canonical data off a fully rewritten graph."""

        def delta_leaves(src_ep):
            """The targets below the coproduct tree under src_ep, left to
            right; a loop, since a recursive closure would keep the wiring
            alive in a reference cycle after the call."""
            leaves = []
            stack = [src_ep]
            while stack:
                d = self.tgt[stack.pop()]
                if d[0] == "vi" and self.kind[d[1]] == "delta":
                    stack += [("vo", d[1], 1), ("vo", d[1], 0)]
                else:
                    leaves.append(d)
            return leaves

        def output_of(dst_ep):
            while dst_ep[0] != "out":
                u = dst_ep[1]
                if self.kind[u] != "mu":
                    raise InternalError(f"strand ends in {self.kind[u]}")
                dst_ep = self.tgt[("vo", u, 0)]
            return dst_ep[1] + 1

        blocks = []
        labels = []
        for i in range(self.n):
            first = self.tgt[("in", i)]
            if first[0] == "vi" and self.kind[first[1]] == "eps":
                blocks.append(())
                labels.append(())
                continue
            leaves = delta_leaves(("in", i))
            blocks.append(tuple(output_of(d) for d in leaves))
            labels.append(tuple(self.w[d] for d in leaves))
        blocks, labels = _canonical_parts(blocks, labels)
        scale = self.scale
        return WeightedSurjection(
            self.n, self.m, blocks,
            tuple(tuple(Fraction(label, scale) for label in ls) for ls in labels))


def _prepare(g: GraphTerm) -> _Work:
    return _Work.from_graph(apply_attaching(absorb_equivalences(g), S))


def normalize(g: GraphTerm, rng=None) -> WeightedSurjection:
    """Unique canonical form of a term over the counital generators.

    The term may hold `id` vertices and mu vertices at the boundary
    parameters 0 and 1; a phi vertex is refused, since phi is not part of
    the counital presentation.  The passes run in the proof's order:
    counit elimination, Leibniz push, then extraction (which forgets tree
    shapes, reorders each output's strands by position, and removes
    involutions).  `rng` shuffles the redex choices; the result must not
    depend on it.
    """
    require_valid(g)
    work = _prepare(g)
    work.pass_counits(rng)
    work.pass_leibniz(rng)
    return work.extract()


def eliminate_counits(g: GraphTerm):
    """Remove internal counits; ones capping an external input remain.

    Returns the rewritten graph term, or the counit class when m = 0.
    """
    require_valid(g)
    work = _prepare(g)
    work.pass_counits()
    if g.m == 0:
        return counit_class(g.n)
    return work.to_graph()


def leibniz_push(g: GraphTerm) -> GraphTerm:
    """Push every product below every coproduct along any directed path,
    under the weighting propagated from the outputs."""
    require_valid(g)
    work = _Work.from_graph(g)
    if counit_redexes(work):
        raise GraphError("leibniz_push expects internal counits eliminated first")
    work.pass_leibniz()
    return work.to_graph()


def equal_ms(g1: GraphTerm, g2: GraphTerm) -> bool:
    """Equality in the quotient prop: identical canonical forms."""
    if (g1.n, g1.m) != (g2.n, g2.m):
        raise GraphError(f"biarity mismatch: ({g1.n},{g1.m}) vs ({g2.n},{g2.m})")
    return normalize(g1) == normalize(g2)


# ---------------------------------------------------------------------------
# expansion back to a canonical graph term

def expand_graph(x: WeightedSurjection) -> GraphTerm:
    """The canonical graph supporting x: coproduct combs above product combs.

    Left-comb convention on both sides; mu parameters are the second-input
    shares determined by the strand weights.
    """
    return _expand_work(x).to_graph()


def _expand_work(x: WeightedSurjection) -> _Work:
    """The wiring of `expand_graph(x)`, every edge labelled by its weight
    over the common denominator of x's weights as the scale.

    Vertices are only added, so their ids are already 0..k-1, the numbering
    of the exported term.
    """
    scale = lcm(*(w.denominator for ws in x.weights for w in ws))
    work = _Work(x.n, x.m, scale)
    # coproduct combs produce the strand source endpoints per block
    strand_src = {}  # global position -> source endpoint
    strand_w = {}
    pos = 0
    for i, (blk, ws) in enumerate(zip(x.blocks, x.weights)):
        if not blk:
            e = work.new_vertex("eps")
            work.add_edge(("in", i), ("vi", e, 0), 0)
            continue
        ws = [w.numerator * (scale // w.denominator) for w in ws]
        r = len(blk)
        if r == 1:
            strand_src[pos] = ("in", i)
            strand_w[pos] = ws[0]
            pos += 1
            continue
        # chain of r-1 deltas; deepest delta splits strands 1 and 2
        deltas = [work.new_vertex("delta") for _ in range(r - 1)]
        prefix = sum(ws)
        work.add_edge(("in", i), ("vi", deltas[-1], 0), prefix)
        for t in range(r - 1, 0, -1):
            d = deltas[t - 1]
            prefix -= ws[t]  # now the weight of strands 0..t-1
            if t > 1:
                work.add_edge(("vo", d, 0), ("vi", deltas[t - 2], 0), prefix)
            else:
                strand_src[pos + 0] = ("vo", d, 0)
                strand_w[pos + 0] = ws[0]
            strand_src[pos + t] = ("vo", d, 1)
            strand_w[pos + t] = ws[t]
        pos += r

    # product combs per output consume strands in position order
    flat = [f for blk in x.blocks for f in blk]
    by_output = {}
    for p, f in enumerate(flat):
        by_output.setdefault(f, []).append(p)
    for j in range(1, x.m + 1):
        work._build_comb([(strand_src[p], strand_w[p]) for p in by_output[j]],
                         ("out", j - 1), scale)
    return work


# ---------------------------------------------------------------------------
# randomized term and element generators (seeded; shared by tests and verify)

def random_interior(rng):
    return Fraction(rng.randint(1, 15), 16)


def random_sterm(rng, max_vertices=12, max_inputs=3) -> GraphTerm:
    """A random valid term over the counital generators."""
    n = rng.randint(1, max_inputs)
    g = unit(n)
    vertices = 0
    while vertices < max_vertices:
        if g.m == 0:
            break
        options = ["delta", "eps", "stop"]
        if g.m >= 2:
            options.extend(["mu", "perm"])
        choice = rng.choice(options)
        if choice == "stop" and vertices > 0 and rng.random() < 0.5:
            break
        if choice == "perm":
            image = list(range(1, g.m + 1))
            rng.shuffle(image)
            g = vertical_compose(g, permutation_graph(tuple(image)))
            continue
        if choice == "stop":
            continue
        if choice == "mu":
            a = rng.randint(0, g.m - 2)
            layer = horizontal_compose(
                [unit(a), corolla("mu", (random_interior(rng),)), unit(g.m - a - 2)])
        else:
            a = rng.randint(0, g.m - 1)
            layer = horizontal_compose(
                [unit(a), corolla(choice), unit(g.m - a - 1)])
        g = vertical_compose(g, layer)
        vertices += 1
    return g


def random_stype(rng, max_n=3, max_m=3, max_degree=3) -> SurjType:
    for _ in range(1000):
        n = rng.randint(1, max_n)
        m = rng.randint(1, max_m)
        degree = rng.randint(0, max_degree)
        basis = enumerate_basis(n, m, degree)
        if basis:
            return rng.choice(basis)
    raise InternalError("no basis element found")


def random_weights(rng, t: SurjType, boundary_strand=None) -> WeightedSurjection:
    """Random positive weights per output; optionally zero out one strand."""
    flat_positions = [(i, u) for i, blk in enumerate(t.blocks) for u in range(len(blk))]
    raw = [[rng.randint(1, 8) for _ in blk] for blk in t.blocks]
    if boundary_strand is not None:
        i, u = flat_positions[boundary_strand]
        raw[i][u] = 0
    totals = [Fraction(0)] * t.m
    for i, blk in enumerate(t.blocks):
        for u, f in enumerate(blk):
            totals[f - 1] += raw[i][u]
    if any(total == 0 for total in totals):
        raise InternalError("zeroed the only strand of an output")
    weights = tuple(
        tuple(Fraction(raw[i][u]) / totals[blk[u] - 1] for u in range(len(blk)))
        for i, blk in enumerate(t.blocks))
    return WeightedSurjection(t.n, t.m, t.blocks, weights)


def random_ws(rng, max_n=3, max_m=3, max_degree=3) -> WeightedSurjection:
    return random_weights(rng, random_stype(rng, max_n, max_m, max_degree))


def shuffle_relations(g: GraphTerm, rng, moves=6) -> GraphTerm:
    """Apply random relation instances; the canonical form must not change."""
    require_valid(g)
    work = _prepare(g)
    for _ in range(moves):
        move = rng.choice(["bubble", "counit-left", "counit-right", "commute", "leibniz"])
        if move == "bubble":
            candidates = [d for d in work.src if work.w[d] > 0]
            if not candidates:
                continue
            dst = rng.choice(sorted(candidates))
            s, a = work.del_edge(dst)
            d = work.new_vertex("delta")
            mu = work.new_vertex("mu")
            t = random_interior(rng)
            # rescale so that the mu splits the label a exactly
            k = t.denominator // gcd(a, t.denominator)
            if k > 1:
                work.rescale(k)
                a *= k
            second = a // t.denominator * t.numerator
            work.add_edge(s, ("vi", d, 0), a)
            work.add_edge(("vo", d, 0), ("vi", mu, 0), a - second)
            work.add_edge(("vo", d, 1), ("vi", mu, 1), second)
            work.add_edge(("vo", mu, 0), dst, a)
        elif move in ("counit-left", "counit-right"):
            candidates = sorted(work.src)
            if not candidates:
                continue
            dst = rng.choice(candidates)
            s, a = work.del_edge(dst)
            d = work.new_vertex("delta")
            e = work.new_vertex("eps")
            work.add_edge(s, ("vi", d, 0), a)
            if move == "counit-left":
                work.add_edge(("vo", d, 0), ("vi", e, 0), 0)
                work.add_edge(("vo", d, 1), dst, a)
            else:
                work.add_edge(("vo", d, 1), ("vi", e, 0), 0)
                work.add_edge(("vo", d, 0), dst, a)
        elif move == "commute":
            mus = sorted(v for v, k in work.kind.items() if k == "mu")
            if not mus:
                continue
            u = rng.choice(mus)
            s1, w1 = work.del_edge(("vi", u, 0))
            s2, w2 = work.del_edge(("vi", u, 1))
            work.add_edge(s2, ("vi", u, 0), w2)
            work.add_edge(s1, ("vi", u, 1), w1)
        else:
            redexes = list(work.leibniz_redexes())
            if not redexes:
                continue
            work.rewrite_leibniz(rng.choice(redexes))
    return work.to_graph()
