"""The normalizer on integer edge labels against the Fraction-label passes
it replaced.

The oracle below is the normalizer as it was when every edge label of its
wiring was a `Fraction`: the weight propagation, the mu-parameter
recovery, the rewrite loop (a full redex list per step), the `_Work`
passes and the functions built on them, kept verbatim.  The integer-label
normalizer must give `==` results on every input, errors included, and
make the same number of rewrites of each kind.
"""

import random
from fractions import Fraction

import pytest

from propcalc.errors import GraphError, InternalError, PropcalcError
from propcalc.generators import (S, apply_attaching, counit_redexes, edge_labels,
                                 rewrite_counit, to_edge_weights)
from propcalc.graphs import (ARITY, REWRITE_BUDGET, GraphTerm, Vertex, Wiring,
                             absorb_equivalences, plan_of, require_valid)
from propcalc.surfaces import RibbonGraph, to_ribbon
from propcalc.surjections import (WeightedSurjection, _canonical_parts, _prepare,
                                  counit_class, eliminate_counits, enumerate_basis,
                                  expand_graph, leibniz_push, normalize, random_interior,
                                  random_sterm, random_weights, shuffle_relations)
from propcalc.terms import parse

# ---------------------------------------------------------------------------
# oracle: the Fraction-label normalizer


def _old_to_edge_weights(g: GraphTerm) -> dict:
    """Propagate weight 1 up from each external output.

    A delta input weighs the sum of its outputs; a mu_s vertex with output
    weight a puts (1-s)a on its first input and s*a on the second; counit
    edges weigh 0.  Total on acyclic graphs.  Edges are named by their
    target endpoints, as in the term's plan.
    """
    plan = plan_of(g)
    if any(v.kind == "phi" for v in g.vertices):
        raise GraphError("edge weights are defined on the counital presentation only")

    weights = {("out", j): Fraction(1) for j in range(g.m)}
    for v in reversed(plan.order):
        kind = g.vertices[v].kind
        if kind == "eps":
            weights[("vi", v, 0)] = Fraction(0)
        elif kind == "delta":
            weights[("vi", v, 0)] = (weights[plan.tgt[("vo", v, 0)]]
                                     + weights[plan.tgt[("vo", v, 1)]])
        elif kind == "mu":
            s = g.vertices[v].params[0]
            a = weights[plan.tgt[("vo", v, 0)]]
            weights[("vi", v, 0)] = (1 - s) * a
            weights[("vi", v, 1)] = s * a
        else:  # id
            weights[("vi", v, 0)] = weights[plan.tgt[("vo", v, 0)]]
    return weights


def _old_recover_mu_params(work: Wiring) -> frozenset:
    """Set each mu's parameter to its second input's share of its output
    weight, read off the edge labels of `work`.

    Returns the mu vertices whose output weighs 0: their parameter is
    unrecoverable, so they get s = 0, which is harmless because the
    relations identify all such parameters anyway.
    """
    flagged = set()
    for v, kind in work.kind.items():
        if kind == "mu":
            a = work.w[work.tgt[("vo", v, 0)]]
            if not a:
                flagged.add(v)
            work.params[v] = (work.w[("vi", v, 1)] / a if a else Fraction(0),)
    return frozenset(flagged)


class _OldWork(Wiring):
    """The normalizer's rewrite passes over a weighted eps/delta/mu wiring."""

    def exhaust(self, redexes, rewrite, rng=None, what="rewrite pass"):
        """Rewrite until `redexes(self)` lists no redex.

        Each step calls `rewrite(self, r)` on the first listed redex r, or on
        one drawn by `rng.choice` when an rng is given.
        """
        for _ in range(REWRITE_BUDGET):
            found = redexes(self)
            if not found:
                return
            rewrite(self, rng.choice(found) if rng else found[0])
        raise InternalError(f"{what} did not terminate")

    @classmethod
    def from_graph(cls, g: GraphTerm):
        """Open g with every edge labelled by `to_edge_weights`."""
        weights = _old_to_edge_weights(g)
        for vert in g.vertices:
            if vert.kind not in ("eps", "delta", "mu"):
                raise GraphError(f"normalizer does not accept {vert.kind} vertices")
        return cls.from_term(g, weights)

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

        `redex` is a pair (u, v) listed by `leibniz_redexes`.  The tree's
        strands, taken in canonical position order, partition an interval
        of width b1 + b2; cutting it at b1 (the coproduct's split) refines
        the strands into the two output combs, with the straddling strand
        split by a fresh coproduct.  This is the relation's three weight
        cases at once, generalized to whole trees so that crossings
        absorbed by commutativity cannot change the result.
        """
        u, v = redex
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

    def pass_counits(self, rng=None):
        self.exhaust(counit_redexes, rewrite_counit, rng, "counit elimination")

    def pass_leibniz(self, rng=None):
        self.exhaust(_OldWork.leibniz_redexes, _OldWork.rewrite_leibniz, rng, "Leibniz push")

    def to_graph(self) -> GraphTerm:
        """Export with mu parameters recovered from the local weights."""
        _old_recover_mu_params(self)
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


def _old_prepare(g: GraphTerm) -> _OldWork:
    return _OldWork.from_graph(apply_attaching(absorb_equivalences(g), S))


def _old_normalize(g: GraphTerm, rng=None) -> WeightedSurjection:
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
    work = _old_prepare(g)
    work.pass_counits(rng)
    work.pass_leibniz(rng)
    return work.extract()


def _old_eliminate_counits(g: GraphTerm):
    """Remove internal counits; ones capping an external input remain.

    Returns the rewritten graph term, or the counit class when m = 0.
    """
    require_valid(g)
    work = _old_prepare(g)
    work.pass_counits()
    if g.m == 0:
        return counit_class(g.n)
    return work.to_graph()


def _old_leibniz_push(g: GraphTerm) -> GraphTerm:
    """Push every product below every coproduct along any directed path,
    under the weighting propagated from the outputs."""
    require_valid(g)
    work = _OldWork.from_graph(g)
    if counit_redexes(work):
        raise GraphError("leibniz_push expects internal counits eliminated first")
    work.pass_leibniz()
    return work.to_graph()


def _old_expand_graph(x: WeightedSurjection) -> GraphTerm:
    """The canonical graph supporting x: coproduct combs above product combs.

    Left-comb convention on both sides; mu parameters are the second-input
    shares determined by the strand weights.
    """
    return _old_expand_work(x).to_graph()


def _old_expand_work(x: WeightedSurjection) -> _OldWork:
    """The wiring of `_old_expand_graph(x)`, every edge labelled by its weight.

    Vertices are only added, so their ids are already 0..k-1, the numbering
    of the exported term.
    """
    work = _OldWork(x.n, x.m)
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
        if r == 1:
            strand_src[pos] = ("in", i)
            strand_w[pos] = ws[0]
            pos += 1
            continue
        # chain of r-1 deltas; deepest delta splits strands 1 and 2
        deltas = [work.new_vertex("delta") for _ in range(r - 1)]
        prefix = sum(ws, Fraction(0))
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
                         ("out", j - 1), Fraction(1))
    return work


def _old_shuffle_relations(g: GraphTerm, rng, moves=6) -> GraphTerm:
    """Apply random relation instances; the canonical form must not change."""
    require_valid(g)
    work = _old_prepare(g)
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
            work.rewrite_leibniz(rng.choice(redexes))
    return work.to_graph()


def _old_to_ribbon(x: WeightedSurjection) -> RibbonGraph:
    """Ribbon graph of the canonical graph, before collapsing.

    Boundary circles are loops at the n+m new vertices, placed first in
    each rotation; all other rotations extend the slot order.  The graph
    is read off the wiring that `expand_graph` exports, whose edge labels
    are the weights `to_edge_weights` gives the exported term.
    """
    if x.m < 1:
        raise GraphError("the surface realization needs at least one output")
    work = _old_expand_work(x)
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
        e = rg.add_edge(node(src), node(dst), weight=work.w[dst], kind="strand")
        slot_half[src] = 2 * e
        slot_half[dst] = 2 * e + 1
    # rebuild internal rotations in slot order
    for v in range(work.fresh):
        a, b = ARITY[work.kind[v]]
        rg.rotation[("v", v)] = ([slot_half[("vi", v, k)] for k in range(a)]
                                 + [slot_half[("vo", v, k)] for k in range(b)])
    rg.check()
    return rg


# ---------------------------------------------------------------------------
# comparisons

def _outcome(f, *args):
    """f's result, or the type and text of the error it raised."""
    try:
        return f(*args)
    except PropcalcError as exc:
        return type(exc), str(exc)


def _ribbon_state(rg):
    assert all(type(d["weight"]) is Fraction for d in rg.edges.values())
    return vars(rg)


def _assert_passes_match(g, seed):
    """normalize (with and without an rng), eliminate_counits and
    leibniz_push of the counit-free form give the oracle's results."""
    z = _outcome(normalize, g)
    assert z == _outcome(_old_normalize, g)
    assert (_outcome(normalize, g, random.Random(seed))
            == _outcome(_old_normalize, g, random.Random(seed)))
    e = _outcome(eliminate_counits, g)
    assert e == _outcome(_old_eliminate_counits, g)
    if isinstance(e, GraphTerm):
        assert _outcome(leibniz_push, e) == _outcome(_old_leibniz_push, e)
    return z


def _at_boundary(g, rng, p=0.4):
    """g with some of its mu parameters moved to 0 or 1."""
    verts = tuple(Vertex("mu", (Fraction(rng.randint(0, 1)),))
                  if v.kind == "mu" and rng.random() < p else v for v in g.vertices)
    return GraphTerm(g.n, g.m, verts, g.edges)


# every basis type with n, m <= 3 and degree <= 3
_BASIS = [t for n in (1, 2, 3) for m in (1, 2, 3) for k in range(4)
          for t in enumerate_basis(n, m, k)]


def test_every_small_basis_type_matches_the_oracle():
    """Expansion, the ribbon graph, a seeded shuffle of the expansion and
    the passes on it, for every type with n, m <= 3 and degree <= 3."""
    rng = random.Random(1401)
    assert len(_BASIS) == 3787
    for t in _BASIS:
        x = random_weights(rng, t)
        g = expand_graph(x)
        assert g == _old_expand_graph(x)
        assert _ribbon_state(to_ribbon(x)) == _ribbon_state(_old_to_ribbon(x))
        seed = rng.random()
        h = shuffle_relations(g, random.Random(seed), 4)
        assert h == _old_shuffle_relations(g, random.Random(seed), 4)
        assert _assert_passes_match(h, seed) == x


def test_seeded_terms_match_the_oracle():
    """600 seeded terms and copies with mu parameters moved to 0 or 1;
    `leibniz_push` straight on counit-free forms with such mus pushes
    zero-weight strands."""
    rng = random.Random(1402)
    boundary = 0
    for cap in (6, 12, 20):
        for _ in range(200):
            g = random_sterm(rng, cap)
            for h in (g, _at_boundary(g, rng)):
                _assert_passes_match(h, rng.random())
                weights = _outcome(to_edge_weights, h)
                assert weights == _outcome(_old_to_edge_weights, h)
                assert all(type(w) is Fraction for w in weights.values())
            e = eliminate_counits(g)
            if isinstance(e, GraphTerm) and any(v.kind == "mu" for v in e.vertices):
                e = _at_boundary(e, rng, 0.5)
                boundary += any(v.kind == "mu" and v.params[0] in (0, 1) for v in e.vertices)
                assert _outcome(leibniz_push, e) == _outcome(_old_leibniz_push, e)
    assert boundary >= 80


def test_zero_weight_strands_match_the_oracle():
    rng = random.Random(1403)
    tried = 0
    while tried < 200:
        t = rng.choice(_BASIS)
        strand = rng.randrange(t.r)
        try:
            x = random_weights(rng, t, boundary_strand=strand)
        except InternalError:  # the strand was its output's only one
            continue
        tried += 1
        g = expand_graph(x)
        assert g == _old_expand_graph(x)
        assert _ribbon_state(to_ribbon(x)) == _ribbon_state(_old_to_ribbon(x))
        _assert_passes_match(g, rng.random())


def _old_counts(g):
    """The oracle's counit and Leibniz rewrites of g, counted as they are
    made, and its normal form."""
    work = _old_prepare(g)
    counts = []
    for redexes, rewrite in ((counit_redexes, rewrite_counit),
                             (_OldWork.leibniz_redexes, _OldWork.rewrite_leibniz)):
        made = []
        work.exhaust(redexes, lambda w, r: (made.append(r), rewrite(w, r)))
        counts.append(len(made))
    return counts, work.extract()


def test_the_passes_count_the_rewrites_the_oracle_makes():
    rng = random.Random(1404)
    totals = [0, 0]
    for cap in (6, 12, 20, 40):
        for _ in range(50):
            g = random_sterm(rng, cap)
            x = random_weights(rng, rng.choice(_BASIS))
            for h in (g, shuffle_relations(expand_graph(x), rng, 8)):
                work = _prepare(h)
                counts = [work.pass_counits(), work.pass_leibniz()]
                old_counts, old_z = _old_counts(h)
                assert counts == old_counts
                assert work.extract() == old_z == normalize(h)
                totals = [a + b for a, b in zip(totals, counts)]
    assert min(totals) > 100


def _mu_delta_chain(denominators):
    """A (2,2) text with one Leibniz redex per q: mu(1/q) ; delta, repeated."""
    return " ; ".join(f"mu(1/{q}) ; delta" for q in denominators)


@pytest.mark.parametrize("denominators, bound", [
    ([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59], 2 ** 64),
    ([10 ** 45 + 7 + 2 * k for k in range(100)], 10 ** 4300),
], ids=["over-64-bits", "over-4300-digits"])
def test_scales_of_any_size_match_the_oracle(denominators, bound):
    g = parse(_mu_delta_chain(denominators))
    labels, scale = edge_labels(g)
    assert scale > bound
    assert all(type(label) is int for label in labels.values())
    work = _prepare(g)
    assert [work.pass_counits(), work.pass_leibniz()] == [0, len(denominators)]
    assert _assert_passes_match(g, 7) == work.extract()
    assert to_edge_weights(g) == _old_to_edge_weights(g)
