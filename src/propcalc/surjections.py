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
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CompositionError, GraphError, InternalError, WeightingError
from .generators import (EdgeWeighting, MS, S, apply_attaching, check_tag,
                         corolla, to_edge_weights)
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

    @property
    def has_caps(self):
        return any(not b for b in self.blocks)


@dataclass(frozen=True)
class WeightedSurjection:
    """A point of the cell named by its type: strand weights, sums 1 per output."""

    n: int
    m: int
    blocks: tuple
    weights: tuple

    def __post_init__(self):
        SurjType(self.n, self.m, self.blocks)  # structural checks
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
    def r(self):
        return sum(len(b) for b in self.blocks)

    @property
    def degree(self):
        return self.r - self.m

    @property
    def is_counit_class(self):
        return self.m == 0

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


def identity_ws(k: int) -> WeightedSurjection:
    return WeightedSurjection(k, k, tuple((j,) for j in range(1, k + 1)),
                              tuple((Fraction(1),) for _ in range(k)))


def counit_class(n: int) -> WeightedSurjection:
    return WeightedSurjection(n, 0, ((),) * n, ((),) * n)


def uniform_weights(t: SurjType) -> WeightedSurjection:
    """The barycenter of the cell: each output's weight split evenly."""
    counts = t.output_counts()
    weights = tuple(tuple(Fraction(1, counts[f - 1]) for f in blk) for blk in t.blocks)
    return WeightedSurjection(t.n, t.m, t.blocks, weights)


def _canonical_parts(blocks, weights):
    """Drop zero-weight strands, merge adjacent equal assignments (weights add)."""
    blocks = [list(b) for b in blocks]
    weights = [list(w) for w in weights]
    for i in range(len(blocks)):
        t = 0
        while t < len(blocks[i]):
            if weights[i][t] == 0:
                del blocks[i][t], weights[i][t]
                t = max(t - 1, 0)
                continue
            if t + 1 < len(blocks[i]) and blocks[i][t] == blocks[i][t + 1]:
                weights[i][t] = weights[i][t] + weights[i][t + 1]
                del blocks[i][t + 1], weights[i][t + 1]
                if weights[i][t] == 0:
                    continue
                t = max(t - 1, 0)
                continue
            t += 1
    return tuple(tuple(b) for b in blocks), tuple(tuple(w) for w in weights)


def canonicalize_ws(x: WeightedSurjection) -> WeightedSurjection:
    """Drop zero-weight strands and merge the involutions that exposes."""
    blocks, weights = _canonical_parts(x.blocks, x.weights)
    return WeightedSurjection(x.n, x.m, blocks, weights)


# ---------------------------------------------------------------------------
# prop structure on canonical forms

def horizontal_ws(xs) -> WeightedSurjection:
    xs = list(xs)
    blocks = []
    weights = []
    shift = 0
    n = m = 0
    for x in xs:
        blocks.extend(tuple(f + shift for f in blk) for blk in x.blocks)
        weights.extend(x.weights)
        shift += x.m
        n += x.n
        m += x.m
    return WeightedSurjection(n, m, tuple(blocks), tuple(weights))


def permute_inputs_ws(x: WeightedSurjection, sigma: Permutation) -> WeightedSurjection:
    """New input j carries what old input sigma(j) carried."""
    if sigma.degree != x.n:
        raise GraphError("permutation degree mismatch")
    blocks = tuple(x.blocks[sigma(j) - 1] for j in range(1, x.n + 1))
    weights = tuple(x.weights[sigma(j) - 1] for j in range(1, x.n + 1))
    return WeightedSurjection(x.n, x.m, blocks, weights)


def permute_outputs_ws(x: WeightedSurjection, tau: Permutation) -> WeightedSurjection:
    if tau.degree != x.m:
        raise GraphError("permutation degree mismatch")
    blocks = tuple(tuple(tau(f) for f in blk) for blk in x.blocks)
    return WeightedSurjection(x.n, x.m, blocks, x.weights)


def cap_output_ws(x: WeightedSurjection, j: int) -> WeightedSurjection:
    """Compose with a counit on output j: delete its strands, renumber."""
    if not 1 <= j <= x.m:
        raise GraphError(f"no output {j}")
    blocks = []
    weights = []
    for blk, ws in zip(x.blocks, x.weights):
        nb, nw = [], []
        for f, w in zip(blk, ws):
            if f == j:
                continue
            nb.append(f - 1 if f > j else f)
            nw.append(w)
        blocks.append(tuple(nb))
        weights.append(tuple(nw))
    blocks, weights = _canonical_parts(blocks, weights)
    return WeightedSurjection(x.n, x.m - 1, blocks, weights)


def _refine(widths_a, widths_b):
    """Common refinement of two partitions of the same interval.

    Returns (index_a, index_b, width) for the positive-width pieces, left
    to right.  The two width lists must have equal totals.
    """
    from itertools import accumulate
    if sum(widths_a, Fraction(0)) != sum(widths_b, Fraction(0)):
        raise InternalError("partition totals differ")
    cum_a = list(accumulate(widths_a))
    cum_b = list(accumulate(widths_b))
    cuts = sorted(set(cum_a) | set(cum_b) | {Fraction(0)})
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        ia = next(i for i, c in enumerate(cum_a)
                  if c >= hi and widths_a[i] > 0 and c - widths_a[i] <= lo)
        ib = next(i for i, c in enumerate(cum_b)
                  if c >= hi and widths_b[i] > 0 and c - widths_b[i] <= lo)
        pieces.append((ia, ib, hi - lo))
    return pieces


def compose_weighted(top: WeightedSurjection, bottom: WeightedSurjection) -> WeightedSurjection:
    """Vertical composition by overlaying scaled strand partitions.

    Each intermediate wire is a rectangle whose top partition (the weights
    of the top element's strands into that output, scaled by the wire's
    total weight below) is overlaid with the bottom partition (the weights
    of the bottom block); the common refinement gives the composite's
    strands, routed to the bottom's outputs.
    """
    if top.m != bottom.n:
        raise CompositionError(
            f"cannot compose ({top.n},{top.m}) above ({bottom.n},{bottom.m})")
    x = top
    # a counit-capped input below kills the corresponding output above
    for j in range(bottom.n, 0, -1):
        if not bottom.blocks[j - 1]:
            x = cap_output_ws(x, j)
    live = [j for j in range(1, bottom.n + 1) if bottom.blocks[j - 1]]

    # per wire: ordered top strand ids and scaled widths, bottom widths
    top_strands = {j: [] for j in range(1, x.m + 1)}  # wire -> [(block, pos)]
    for i, (blk, ws) in enumerate(zip(x.blocks, x.weights)):
        for t, (f, w) in enumerate(zip(blk, ws)):
            top_strands[f].append((i, t, w))

    piece_lists = {}  # (block i, pos t) -> list of (f2, width)
    for wire_idx, j in enumerate(live, start=1):
        blk_b = bottom.blocks[j - 1]
        ws_b = bottom.weights[j - 1]
        total = sum(ws_b, Fraction(0))
        tops = top_strands[wire_idx]
        widths_a = [w * total for (_, _, w) in tops]
        pieces = _refine(widths_a, list(ws_b))
        for ia, ib, width in pieces:
            key = tops[ia][:2]
            piece_lists.setdefault(key, []).append((blk_b[ib], width))

    blocks = []
    weights = []
    for i, blk in enumerate(x.blocks):
        nb, nw = [], []
        for t in range(len(blk)):
            for f2, width in piece_lists.get((i, t), []):
                nb.append(f2)
                nw.append(width)
        blocks.append(tuple(nb))
        weights.append(tuple(nw))
    blocks, weights = _canonical_parts(blocks, weights)
    return WeightedSurjection(x.n, bottom.m, blocks, weights)


def enumerate_basis(n: int, m: int, degree: int):
    """All nondegenerate assignment types of the given biarity and degree.

    Blocks are nonempty here (the interior cells); counit-capped cells
    only arise as boundaries.
    """
    if m < 1 or degree < 0 or n < 1:
        return []
    r = m + degree
    if r < n:
        return []
    results = []

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    def fill(blocks_sizes, built, used):
        if not blocks_sizes:
            if len(used) == m:
                results.append(SurjType(n, m, tuple(built)))
            return
        size = blocks_sizes[0]
        remaining_slots = sum(blocks_sizes)

        def extend(blk):
            if len(blk) == size:
                fill(blocks_sizes[1:], built + [tuple(blk)],
                     used | set(blk))
                return
            for f in range(1, m + 1):
                if blk and blk[-1] == f:
                    continue
                # prune: enough slots left to hit every unused output
                if len(used | set(blk) | {f}) + (remaining_slots - len(blk) - 1) < m:
                    continue
                extend(blk + [f])

        extend([])

    for sizes in compositions(r, n):
        fill(list(sizes), [], set())
    return sorted(results, key=lambda t: t.blocks)


# ---------------------------------------------------------------------------
# the rewriting engine

class _Work(Wiring):
    """The normalizer's rewrite passes over a weighted eps/delta/mu wiring."""

    @classmethod
    def from_graph(cls, g: GraphTerm, weighting: EdgeWeighting):
        for vert in g.vertices:
            if vert.kind not in ("eps", "delta", "mu"):
                raise GraphError(f"normalizer does not accept {vert.kind} vertices")
        return cls.from_term(g, weighting.weights)

    def counit_redexes(self):
        out = []
        for v in self.kind:
            if self.kind[v] == "eps" and self.src[("vi", v, 0)][0] != "in":
                out.append(v)
        return sorted(out)

    def rewrite_counit(self, v):
        s = self.src[("vi", v, 0)]
        u = s[1]
        ku = self.kind[u]
        if ku == "mu":
            p1, _ = self.del_edge(("vi", u, 0))
            p2, _ = self.del_edge(("vi", u, 1))
            self.del_edge(("vi", v, 0))
            self.del_vertex(u)
            self.add_edge(p1, ("vi", v, 0), Fraction(0))
            e2 = self.new_vertex("eps")
            self.add_edge(p2, ("vi", e2, 0), Fraction(0))
        elif ku == "delta":
            which = s[2]
            other = 1 - which
            d_other = self.tgt[("vo", u, other)]
            p, _ = self.del_edge(("vi", u, 0))
            _, w_other = self.del_edge(d_other)
            self.del_edge(("vi", v, 0))
            self.del_vertex(u)
            self.del_vertex(v)
            self.add_edge(p, d_other, w_other)
        else:
            raise InternalError(f"counit fed by {ku}")

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
        """Product-above-coproduct redexes whose strand positions are settled."""
        out = []
        for u in sorted(self.kind):
            if self.kind[u] != "mu":
                continue
            d = self.tgt[("vo", u, 0)]
            if d[0] != "vi" or self.kind[d[1]] != "delta":
                continue
            _, leaves = self._mu_tree(u)
            if all(self.position_key(s) is not None for s, _ in leaves):
                out.append((u, d[1]))
        return out

    def _build_comb(self, side, target, total):
        """Left comb of products joining `side` strands into `target`."""
        if sum(w for _, w in side) != total:
            raise InternalError("comb weights do not match the split")
        if len(side) == 1:
            self.add_edge(side[0][0], target, total)
            return
        mus = [self.new_vertex("mu") for _ in range(len(side) - 1)]
        self.add_edge(side[0][0], ("vi", mus[0], 0), side[0][1])
        running = side[0][1]
        for t, (s, w) in enumerate(side[1:]):
            self.add_edge(s, ("vi", mus[t], 1), w)
            running += w
            if t + 1 < len(mus):
                self.add_edge(("vo", mus[t], 0), ("vi", mus[t + 1], 0), running)
            else:
                self.add_edge(("vo", mus[t], 0), target, running)

    def rewrite_leibniz(self, u, v):
        """Exchange the product tree rooted at u with the coproduct v below it.

        The tree's strands, taken in canonical position order, partition an
        interval of width b1 + b2; cutting it at b1 (the coproduct's split)
        refines the strands into the two output combs, with the straddling
        strand split by a fresh coproduct.  This is the relation's three
        weight cases at once, generalized to whole trees so that crossings
        absorbed by commutativity cannot change the result.
        """
        tree, leaves = self._mu_tree(u)
        entries = sorted(
            ((self.position_key(s), s, self.w[d]) for s, d in leaves),
            key=lambda e: e[0])
        if any(key is None for key, _, _ in entries):
            raise InternalError("Leibniz redex with unsettled strand positions")
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
        cum = Fraction(0)
        for _, s, w in entries:
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
            side1 = [(("vo", d, 0), Fraction(0))]
            side2[0] = (("vo", d, 1), w)
        if not side2:
            s, w = side1[-1]
            d = self.new_vertex("delta")
            self.add_edge(s, ("vi", d, 0), w)
            side2 = [(("vo", d, 1), Fraction(0))]
            side1[-1] = (("vo", d, 0), w)
        self._build_comb(side1, t1, b1)
        self._build_comb(side2, t2, b2)

    def pass_counits(self, rng=None, budget=100000):
        while budget:
            redexes = self.counit_redexes()
            if not redexes:
                return
            v = rng.choice(redexes) if rng else redexes[0]
            self.rewrite_counit(v)
            budget -= 1
        raise InternalError("counit elimination did not terminate")

    def pass_leibniz(self, rng=None, budget=100000):
        while budget:
            redexes = self.leibniz_redexes()
            if not redexes:
                return
            u, v = rng.choice(redexes) if rng else redexes[0]
            self.rewrite_leibniz(u, v)
            budget -= 1
        raise InternalError("Leibniz push did not terminate")

    def to_graph(self) -> GraphTerm:
        """Export with mu parameters recovered from the local weights."""
        for v, kind in self.kind.items():
            if kind == "mu":
                a = self.w[self.tgt[("vo", v, 0)]]
                self.params[v] = (self.w[("vi", v, 1)] / a if a else Fraction(0),)
        return self.to_term()

    def extract(self) -> WeightedSurjection:
        """Read the canonical data off a fully rewritten graph."""

        def delta_leaves(src_ep):
            d = self.tgt[src_ep]
            if d[0] == "vi" and self.kind[d[1]] == "delta":
                v = d[1]
                return delta_leaves(("vo", v, 0)) + delta_leaves(("vo", v, 1))
            return [d]

        def output_of(dst_ep):
            while dst_ep[0] != "out":
                u = dst_ep[1]
                if self.kind[u] != "mu":
                    raise InternalError(f"strand ends in {self.kind[u]}")
                dst_ep = self.tgt[("vo", u, 0)]
            return dst_ep[1] + 1

        blocks = []
        weights = []
        for i in range(self.n):
            first = self.tgt[("in", i)]
            if first[0] == "vi" and self.kind[first[1]] == "eps":
                blocks.append(())
                weights.append(())
                continue
            leaves = delta_leaves(("in", i))
            blocks.append(tuple(output_of(d) for d in leaves))
            weights.append(tuple(self.w[d] for d in leaves))
        blocks, weights = _canonical_parts(blocks, weights)
        return WeightedSurjection(self.n, self.m, blocks, weights)


def _prepare(g: GraphTerm, tag: str) -> _Work:
    check_tag(g, tag)
    g = absorb_equivalences(g)
    g = apply_attaching(g, S)
    weighting = to_edge_weights(g)
    return _Work.from_graph(g, weighting)


def normalize(g: GraphTerm, tag: str = MS, rng=None) -> WeightedSurjection:
    """Unique canonical form of a term over the counital generators.

    The passes run in the proof's order: counit elimination, Leibniz push,
    then extraction (which forgets tree shapes, reorders each output's
    strands by position, and removes involutions).  `rng` shuffles the
    redex choices; the result must not depend on it.
    """
    require_valid(g)
    work = _prepare(g, tag)
    work.pass_counits(rng)
    work.pass_leibniz(rng)
    return work.extract()


def eliminate_counits(g: GraphTerm):
    """Remove internal counits; ones capping an external input remain.

    Returns the rewritten graph term, or the counit class when m = 0.
    """
    require_valid(g)
    work = _prepare(g, S)
    work.pass_counits()
    if g.m == 0:
        return counit_class(g.n)
    return work.to_graph()


def leibniz_push(g: GraphTerm, weighting: EdgeWeighting = None) -> GraphTerm:
    """Push every product below every coproduct along any directed path.

    With no weighting given, the strict one propagated from the outputs is
    used; an explicit (conservation-only) weighting supports rewriting
    subgraphs in context.
    """
    require_valid(g)
    if weighting is None:
        weighting = to_edge_weights(g)
    else:
        weighting.require(strict_outputs=False)
    work = _Work.from_graph(g, weighting)
    if work.counit_redexes():
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
    work = _Work(x.n, x.m)
    # coproduct combs produce the strand source endpoints per block
    strand_src = {}  # global position -> source endpoint
    strand_w = {}
    pos = 0
    for i, (blk, ws) in enumerate(zip(x.blocks, x.weights)):
        if not blk:
            e = work.new_vertex("eps")
            work.add_edge(("in", i), ("vi", e, 0), Fraction(0))
            continue
        r = len(blk)
        total = sum(ws, Fraction(0))
        if r == 1:
            strand_src[pos] = ("in", i)
            strand_w[pos] = ws[0]
            pos += 1
            continue
        # chain of r-1 deltas; deepest delta splits strands 1 and 2
        deltas = [work.new_vertex("delta") for _ in range(r - 1)]
        work.add_edge(("in", i), ("vi", deltas[-1], 0), total)
        for t in range(r - 1, 0, -1):
            d = deltas[t - 1]
            prefix = sum(ws[:t], Fraction(0))
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
        ps = by_output[j]
        if len(ps) == 1:
            work.add_edge(strand_src[ps[0]], ("out", j - 1), Fraction(1))
            continue
        mus = [work.new_vertex("mu") for _ in range(len(ps) - 1)]
        work.add_edge(strand_src[ps[0]], ("vi", mus[0], 0), strand_w[ps[0]])
        running = strand_w[ps[0]]
        for t, p in enumerate(ps[1:]):
            work.add_edge(strand_src[p], ("vi", mus[t], 1), strand_w[p])
            running += strand_w[p]
            if t + 1 < len(mus):
                work.add_edge(("vo", mus[t], 0), ("vi", mus[t + 1], 0), running)
            else:
                work.add_edge(("vo", mus[t], 0), ("out", j - 1), Fraction(1))
    return work.to_graph()


# ---------------------------------------------------------------------------
# randomized term and element generators (seeded; shared by tests and verify)

def random_interior(rng, denom=16):
    return Fraction(rng.randint(1, denom - 1), denom)


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


def random_weights(rng, t: SurjType, denom=8, boundary_strand=None) -> WeightedSurjection:
    """Random positive weights per output; optionally zero out one strand."""
    flat_positions = [(i, u) for i, blk in enumerate(t.blocks) for u in range(len(blk))]
    raw = [[rng.randint(1, denom) for _ in blk] for blk in t.blocks]
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
    work = _prepare(g, MS)
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
            work.add_edge(s, ("vi", d, 0), a)
            work.add_edge(("vo", d, 0), ("vi", mu, 0), (1 - t) * a)
            work.add_edge(("vo", d, 1), ("vi", mu, 1), t * a)
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
                work.add_edge(("vo", d, 0), ("vi", e, 0), Fraction(0))
                work.add_edge(("vo", d, 1), dst, a)
            else:
                work.add_edge(("vo", d, 1), ("vi", e, 0), Fraction(0))
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
            redexes = work.leibniz_redexes()
            if not redexes:
                continue
            u, v = rng.choice(redexes)
            work.rewrite_leibniz(u, v)
    return work.to_graph()
