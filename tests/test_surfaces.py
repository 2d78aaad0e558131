import random
from fractions import Fraction as F

import pytest

from propcalc.errors import GraphError, InternalError
from propcalc.generators import to_edge_weights
from propcalc.graphs import GraphTerm
from propcalc.surjections import (SurjType, WeightedSurjection, _Work, canonicalize_ws,
                                  counit_class, enumerate_basis, expand_graph, normalize,
                                  random_stype, random_weights, random_ws,
                                  uniform_weights)
from propcalc.surfaces import (RibbonGraph, arc_edges_in_position_order,
                               collapse_edges,
                               recover_surjection, remove_arc, ribbon_loops,
                               ribbon_to_dot, summarize_ribbon, surface_summary,
                               svg_sketch, to_ribbon)
from propcalc.terms import parse


def test_identity_form_annulus():
    s = surface_summary(normalize(parse("id")))
    assert (s.genus, s.boundary, s.components) == (0, 2, 1)
    assert len(s.arcs) == 1 and s.arcs[0] == (1, 1, F(1))
    assert s.chi_surface == 0


def test_coproduct_form_pair_of_pants():
    s = surface_summary(normalize(parse("delta")))
    assert (s.genus, s.boundary, s.components) == (0, 3, 1)
    assert len(s.arcs) == 2
    assert s.chi_surface == -1


def test_cup_one_form():
    s = surface_summary(uniform_weights(SurjType(1, 2, ((1, 2, 1),))))
    assert (s.genus, s.boundary) == (0, 3)
    assert len(s.arcs) == 3


def test_cup_two_form_is_a_torus():
    s = surface_summary(uniform_weights(SurjType(1, 2, ((1, 2, 1, 2),))))
    assert (s.genus, s.boundary) == (1, 3)


def test_disconnected_form():
    s = surface_summary(normalize(parse("id | id")))
    assert (s.genus, s.boundary, s.components) == (0, 4, 2)
    assert s.chi_surface == 2 * s.components - 2 * s.genus - s.boundary


def test_m_zero_rejected():
    with pytest.raises(GraphError):
        surface_summary(counit_class(2))


def test_theta_graph_loops():
    rg = RibbonGraph()
    rg.add_vertex("u")
    rg.add_vertex("v")
    for _ in range(3):
        rg.add_edge("u", "v")
    # same cyclic orders on both sides: a one-face torus embedding
    assert len(ribbon_loops(rg)) == 1
    # mirrored order at the second vertex: the planar theta, three loops
    rg.rotation["v"] = list(reversed(rg.rotation["v"]))
    assert len(ribbon_loops(rg)) == 3


def test_every_directed_edge_in_exactly_one_loop():
    rng = random.Random(91)
    for _ in range(60):
        x = random_ws(rng, max_n=2, max_m=3, max_degree=3)
        rg = to_ribbon(x)
        loops = ribbon_loops(rg)
        halves = [h for loop in loops for h in loop]
        assert sorted(halves) == sorted(rg.at)


def test_collapse_idempotent_and_stable():
    rng = random.Random(92)
    for _ in range(100):
        x = random_ws(rng, max_n=3, max_m=3, max_degree=3)
        rg = collapse_edges(to_ribbon(x))
        assert _old_collapsible_edges(rg) == []
        again = collapse_edges(rg)
        assert len(again.edges) == len(rg.edges)
        assert len(again.rotation) == len(rg.rotation)


def test_collapse_preserves_euler_characteristic():
    rng = random.Random(93)
    for _ in range(60):
        x = random_ws(rng, max_n=2, max_m=3, max_degree=3)
        rg = to_ribbon(x)
        chi_before = len(rg.rotation) - len(rg.edges) + len(ribbon_loops(rg))
        rg2 = collapse_edges(rg)
        chi_after = len(rg2.rotation) - len(rg2.edges) + len(ribbon_loops(rg2))
        assert chi_before == chi_after


def test_round_trip_faithfulness_enumerated():
    rng = random.Random(94)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for k in (0, 1, 2, 3):
                for t in enumerate_basis(n, m, k):
                    x = random_weights(rng, t)
                    rg = collapse_edges(to_ribbon(x))
                    assert recover_surjection(rg, x.n, x.m) == x


def test_euler_identity_two_ways():
    rng = random.Random(95)
    for _ in range(60):
        x = random_ws(rng, max_n=3, max_m=3, max_degree=3)
        s = surface_summary(x)
        assert s.euler == s.vertices - s.edges + s.faces
        assert s.chi_surface == 2 * s.components - 2 * s.genus - s.boundary
        assert s.boundary == x.n + x.m


def test_weight_zero_degeneration_removes_the_arc():
    rng = random.Random(96)
    tried = 0
    while tried < 120:
        t = random_stype(rng, max_n=2, max_m=3, max_degree=3)
        flat = [(i, u) for i, blk in enumerate(t.blocks) for u in range(len(blk))]
        strand = rng.randrange(len(flat))
        i, u = flat[strand]
        if t.output_counts()[t.blocks[i][u] - 1] < 2:
            continue
        tried += 1
        x0 = random_weights(rng, t, boundary_strand=strand)
        limit = canonicalize_ws(x0)
        rg = collapse_edges(to_ribbon(x0))
        rg2 = remove_arc(rg, arc_edges_in_position_order(rg)[strand])
        assert recover_surjection(rg2, x0.n, x0.m) == limit
        assert surface_summary(limit) == surface_summary(
            recover_surjection(rg2, x0.n, x0.m))


def test_boundary_circles_bound_disks():
    x = normalize(parse("delta ; (id | delta)"))
    rg = collapse_edges(to_ribbon(x))
    for v in rg.tags:
        rot = rg.rotation[v]
        h = rot[1]
        assert rg.sigma(h ^ 1) == h  # a one-gon face per circle


def test_exports():
    x = normalize(parse("delta ; (id | delta) ; (mu(1/2) | id)"))
    assert ribbon_to_dot(collapse_edges(to_ribbon(x))).startswith("graph")
    svg = svg_sketch(x)
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    s = surface_summary(x)
    assert '"genus"' in s.to_json()


def test_composition_independent_of_representative():
    # surfaces are built from canonical forms, so composites factor
    rng = random.Random(97)
    from propcalc.surjections import compose_weighted, expand_graph
    from propcalc.graphs import vertical_compose
    for _ in range(30):
        x = random_ws(rng, max_n=2, max_m=2, max_degree=2)
        while True:
            y = random_ws(rng, max_n=3, max_m=2, max_degree=2)
            if y.n == x.m:
                break
        direct = compose_weighted(x, y)
        via = normalize(vertical_compose(expand_graph(x), expand_graph(y)))
        assert surface_summary(direct) == surface_summary(via)


# ---------------------------------------------------------------------------
# oracle: the collapse that rescanned every edge pair and copied the graph
# for every contraction

def _old_collapsible_edges(rg):
    out = []
    for e, data in sorted(rg.edges.items()):
        if data["kind"] == "circle":
            continue
        u, w = rg.at[2 * e], rg.at[2 * e + 1]
        boundary_u = rg.tags[u] is not None
        boundary_w = rg.tags[w] is not None
        if boundary_u == boundary_w:
            continue
        interior = w if boundary_u else u
        incoming = w == interior
        siblings = 0
        for e2 in rg.edges:
            if e2 == e:
                continue
            if incoming and rg.at[2 * e2 + 1] == interior:
                siblings += 1
            if not incoming and rg.at[2 * e2] == interior:
                siblings += 1
        if siblings == 0:
            out.append(e)
    return out


def _old_contract_edge(rg, e):
    rg = rg.copy()
    del rg.edges[e]
    h_tail, h_head = 2 * e, 2 * e + 1
    u, w = rg.at[h_tail], rg.at[h_head]
    if rg.tags[u] is not None:
        keep, gone, h_keep, h_gone = u, w, h_tail, h_head
    else:
        keep, gone, h_keep, h_gone = w, u, h_head, h_tail
    rot_gone = rg.rotation[gone]
    i = rot_gone.index(h_gone)
    spliced = rot_gone[i + 1:] + rot_gone[:i]
    rot_keep = rg.rotation[keep]
    j = rot_keep.index(h_keep)
    rg.rotation[keep] = rot_keep[:j] + spliced + rot_keep[j + 1:]
    for h in spliced:
        rg.at[h] = keep
    del rg.rotation[gone], rg.tags[gone]
    del rg.at[h_tail], rg.at[h_head]
    return rg


def _old_collapse_edges(rg):
    while True:
        todo = _old_collapsible_edges(rg)
        if not todo:
            return rg
        rg = _old_contract_edge(rg, todo[0])


def _state(rg):
    return rg.rotation, rg.at, rg.edges, rg.tags


def _assert_collapse_matches_the_oracle(rg):
    before = _state(rg.copy())
    new = collapse_edges(rg)
    assert _state(rg) == before  # the input is left alone
    assert _state(new) == _state(_old_collapse_edges(rg))
    for e in new.edges:
        assert new.edge_of_half(2 * e) == new.edge_of_half(2 * e + 1) == e


def test_collapse_matches_the_oracle_on_every_small_basis_type():
    rng = random.Random(98)
    types = 0
    for n in range(1, 4):
        for m in range(1, 4):
            for k in range(4):
                for t in enumerate_basis(n, m, k):
                    _assert_collapse_matches_the_oracle(to_ribbon(random_weights(rng, t)))
                    types += 1
    assert types > 3000


def test_collapse_matches_the_oracle_on_random_elements():
    rng = random.Random(99)
    done = 0
    while done < 200:
        x = random_ws(rng, max_n=3, max_m=3, max_degree=3)
        if x.m >= 1:
            _assert_collapse_matches_the_oracle(to_ribbon(x))
            done += 1


def _random_ribbon(rng):
    """Random edges among boundary and interior vertices, random rotations.

    Unlike the ribbon graph of a canonical form, an interior vertex may
    have several collapsible edges here, so the order of contraction
    matters, and a contracted half may sit anywhere in its rotation."""
    rg = RibbonGraph()
    boundary = [rg.add_vertex(("b", i), tag=("in", i)) for i in range(rng.randint(1, 3))]
    interior = [rg.add_vertex(("x", i)) for i in range(rng.randint(1, 5))]
    for b in boundary:
        rg.add_edge(b, b, kind="circle")
    for _ in range(rng.randint(1, 10)):
        rg.add_edge(rng.choice(boundary + interior), rng.choice(boundary + interior),
                    weight=F(rng.randint(0, 4), 4))
    for rot in rg.rotation.values():
        rng.shuffle(rot)
    return rg


def test_collapse_matches_the_oracle_on_random_ribbon_graphs():
    rng = random.Random(100)
    for _ in range(500):
        _assert_collapse_matches_the_oracle(_random_ribbon(rng))


def test_collapse_contracts_the_smallest_collapsible_edge_first():
    rg = RibbonGraph()
    rg.add_vertex("in", tag=("in", 0))
    rg.add_vertex("out", tag=("out", 0))
    rg.add_vertex("x")
    first = rg.add_edge("in", "x")
    rg.add_edge("x", "out")
    assert _old_collapsible_edges(rg) == [first, first + 1]
    collapsed = collapse_edges(rg)
    assert set(collapsed.rotation) == {"in", "out"}
    assert collapsed.edges == {first + 1: rg.edges[first + 1]}
    assert collapsed.at[2 * (first + 1)] == "in"


def test_half_edge_map_follows_edits():
    x = uniform_weights(SurjType(1, 2, ((1, 2, 1),)))
    rg = collapse_edges(to_ribbon(x))
    for e in rg.edges:
        assert rg.edge_of_half(2 * e) == rg.edge_of_half(2 * e + 1) == e
    e = arc_edges_in_position_order(rg)[0]
    gone = 2 * e
    rg2 = remove_arc(rg, e)
    assert rg.edge_of_half(gone) == e
    with pytest.raises(InternalError):
        rg2.edge_of_half(gone)


# --- oracle: the ribbon of the exported term, and the expansion that re-sums
# every prefix of a block


def _old_build_comb(work, side, target, total):
    if sum(w for _, w in side) != total:
        raise InternalError("comb weights do not match the split")
    if len(side) == 1:
        work.add_edge(side[0][0], target, total)
        return
    mus = [work.new_vertex("mu") for _ in range(len(side) - 1)]
    work.add_edge(side[0][0], ("vi", mus[0], 0), side[0][1])
    running = side[0][1]
    for t, (s, w) in enumerate(side[1:]):
        work.add_edge(s, ("vi", mus[t], 1), w)
        running += w
        if t + 1 < len(mus):
            work.add_edge(("vo", mus[t], 0), ("vi", mus[t + 1], 0), running)
        else:
            work.add_edge(("vo", mus[t], 0), target, running)


def _old_expand_graph(x: WeightedSurjection) -> GraphTerm:
    work = _Work(x.n, x.m)
    strand_src = {}
    strand_w = {}
    pos = 0
    for i, (blk, ws) in enumerate(zip(x.blocks, x.weights)):
        if not blk:
            e = work.new_vertex("eps")
            work.add_edge(("in", i), ("vi", e, 0), F(0))
            continue
        r = len(blk)
        total = sum(ws, F(0))
        if r == 1:
            strand_src[pos] = ("in", i)
            strand_w[pos] = ws[0]
            pos += 1
            continue
        deltas = [work.new_vertex("delta") for _ in range(r - 1)]
        work.add_edge(("in", i), ("vi", deltas[-1], 0), total)
        for t in range(r - 1, 0, -1):
            d = deltas[t - 1]
            prefix = sum(ws[:t], F(0))
            if t > 1:
                work.add_edge(("vo", d, 0), ("vi", deltas[t - 2], 0), prefix)
            else:
                strand_src[pos + 0] = ("vo", d, 0)
                strand_w[pos + 0] = ws[0]
            strand_src[pos + t] = ("vo", d, 1)
            strand_w[pos + t] = ws[t]
        pos += r
    flat = [f for blk in x.blocks for f in blk]
    by_output = {}
    for p, f in enumerate(flat):
        by_output.setdefault(f, []).append(p)
    for j in range(1, x.m + 1):
        _old_build_comb(work, [(strand_src[p], strand_w[p]) for p in by_output[j]],
                        ("out", j - 1), F(1))
    return work.to_graph()


def _old_to_ribbon(x: WeightedSurjection) -> RibbonGraph:
    if x.m < 1:
        raise GraphError("the surface realization needs at least one output")
    g = expand_graph(x)
    weights = to_edge_weights(g)
    rg = RibbonGraph()
    for i in range(x.n):
        rg.add_vertex(("in", i), tag=("in", i))
    for j in range(x.m):
        rg.add_vertex(("out", j), tag=("out", j))
    for v in range(len(g.vertices)):
        rg.add_vertex(("v", v))
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

    order = {}
    for v, vert in enumerate(g.vertices):
        order[("v", v)] = ([("vi", v, k) for k in range(vert.arity[0])]
                           + [("vo", v, k) for k in range(vert.arity[1])])
    slot_half = {}
    for src, dst in sorted(g.edges):
        e = rg.add_edge(node(src), node(dst), weight=weights[dst],
                        kind="strand")
        slot_half[src] = 2 * e
        slot_half[dst] = 2 * e + 1
    for v, slots in order.items():
        rg.rotation[v] = [slot_half[s] for s in slots]
    rg.check()
    return rg


def _ribbon_data(rg):
    """Everything a ribbon graph holds, in insertion order, weights with their type."""
    edges = [(e, d["weight"], type(d["weight"]), d["kind"]) for e, d in rg.edges.items()]
    return (list(rg.rotation.items()), list(rg.tags.items()), edges,
            list(rg.at.items()), rg._next_edge)


def _expansion_cases():
    """Every basis type with n, m <= 3 and degree <= 3 under seeded interior
    weights; each type also with an eps block inserted at a random place,
    and, where some output has two strands, with one of them weighted 0."""
    rng = random.Random(61)
    for n in range(1, 4):
        for m in range(1, 4):
            for degree in range(4):
                for t in enumerate_basis(n, m, degree):
                    x = random_weights(rng, t)
                    yield x
                    k = rng.randint(0, n)
                    yield WeightedSurjection(n + 1, m, t.blocks[:k] + ((),) + t.blocks[k:],
                                             x.weights[:k] + ((),) + x.weights[k:])
                    counts = t.output_counts()
                    shared = [p for p, f in enumerate(f for blk in t.blocks for f in blk)
                              if counts[f - 1] > 1]
                    if shared:
                        yield random_weights(rng, t, boundary_strand=rng.choice(shared))


def test_expansion_cases_reach_every_kind_of_form():
    cases = list(_expansion_cases())
    assert len(cases) > 10000
    assert sum(any(not blk for blk in x.blocks) for x in cases) > 3500
    assert sum(any(w == 0 for ws in x.weights for w in ws) for x in cases) > 3500
    assert max(x.r for x in cases) == 6


def test_to_ribbon_matches_the_ribbon_of_the_exported_term():
    for x in _expansion_cases():
        assert _ribbon_data(to_ribbon(x)) == _ribbon_data(_old_to_ribbon(x)), x
    with pytest.raises(GraphError, match="at least one output"):
        to_ribbon(counit_class(2))


def test_expand_graph_matches_the_prefix_summing_oracle():
    for x in _expansion_cases():
        g = expand_graph(x)
        assert g == _old_expand_graph(x), x
        assert all(type(p) is F for vert in g.vertices for p in vert.params)


def test_comb_with_weights_off_the_split_raises():
    work = _Work(2, 1)
    side = [(("in", 0), F(1, 3)), (("in", 1), F(1, 2))]
    with pytest.raises(InternalError, match="comb weights do not match the split"):
        work._build_comb(side, ("out", 0), F(1))
    with pytest.raises(InternalError, match="comb weights do not match the split"):
        _Work(1, 1)._build_comb(side[:1], ("out", 0), F(1))
