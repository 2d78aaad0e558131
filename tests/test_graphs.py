import random
from fractions import Fraction
from itertools import permutations

import pytest

from propcalc.errors import CompositionError, GraphError
from propcalc.graphs import (GraphTerm, Permutation, Vertex, absorb_equivalences,
                             canonical_form, from_json, horizontal_compose,
                             iso_equal, permutation_graph, permute_inputs,
                             permute_outputs, to_dot, to_json, topological_order,
                             unit, validate, vertical_compose)
from propcalc.chains import chain_eval
from propcalc.generators import corolla
from propcalc.simplex import eval_term, parse_point
from propcalc.surjections import random_sterm


def brute_force_iso(g1, g2):
    """Oracle: try every decoration-preserving vertex bijection."""
    if (g1.n, g1.m) != (g2.n, g2.m) or len(g1.vertices) != len(g2.vertices):
        return False
    for perm in permutations(range(len(g2.vertices))):
        if any(g1.vertices[v] != g2.vertices[perm[v]]
               for v in range(len(g1.vertices))):
            continue

        def ren(ep):
            if ep[0] in ("vi", "vo"):
                return (ep[0], perm[ep[1]], ep[2])
            return ep

        if {(ren(s), ren(d)) for s, d in g1.edges} == set(g2.edges):
            return True
    return False


def test_unit_is_valid_identity_strands():
    assert validate(unit(0)) == []
    assert validate(unit(1)) == []
    g = corolla("delta")
    assert iso_equal(vertical_compose(unit(1), g), g)
    assert iso_equal(vertical_compose(g, unit(2)), g)


def test_validate_rejects_cycle():
    v = (Vertex("mu", (Fraction(1, 2),)), Vertex("delta"))
    # mu output feeds the delta, delta output feeds mu back: directed loop
    edges = frozenset({
        (("in", 0), ("vi", 0, 0)),
        (("vo", 1, 0), ("vi", 0, 1)),
        (("vo", 0, 0), ("vi", 1, 0)),
        (("vo", 1, 1), ("out", 0)),
    })
    g = GraphTerm(1, 1, v, edges)
    assert any("cycle" in p for p in validate(g))


def test_validate_rejects_arity_mismatch():
    # a mu vertex with three wired input slots
    v = (Vertex("mu", (Fraction(1, 2),)),)
    edges = frozenset({
        (("in", 0), ("vi", 0, 0)),
        (("in", 1), ("vi", 0, 1)),
        (("in", 2), ("vi", 0, 2)),
        (("vo", 0, 0), ("out", 0)),
    })
    problems = validate(GraphTerm(3, 1, v, edges))
    assert any("arity" in p for p in problems)


def test_horizontal_compose_examples():
    assert iso_equal(horizontal_compose([unit(1), unit(1)]), unit(2))
    g = horizontal_compose([corolla("eps"), corolla("delta")])
    assert g.biarity == (2, 2)
    assert iso_equal(horizontal_compose([]), unit(0))


def test_vertical_compose_bubble():
    bubble = vertical_compose(corolla("delta"), corolla("mu", (Fraction(1, 2),)))
    assert bubble.biarity == (1, 1)
    assert len(bubble.vertices) == 2


def test_vertical_biarity_mismatch():
    with pytest.raises(CompositionError):
        vertical_compose(corolla("delta"), corolla("delta"))


def test_associativity_of_composition_random():
    rng = random.Random(42)
    for _ in range(60):
        a = random_sterm(rng, max_vertices=4)
        b = random_sterm(rng, max_vertices=4)
        c = random_sterm(rng, max_vertices=4)
        # vertical: force matching biarities through unit padding
        lhs = horizontal_compose([a, b, c])
        rhs = horizontal_compose([horizontal_compose([a, b]), c])
        assert iso_equal(lhs, rhs)
    for _ in range(40):
        a = random_sterm(rng, max_vertices=3)
        b = random_sterm(rng, max_vertices=3)
        if a.m == 0:
            continue
        mid = unit(a.m)
        assert iso_equal(vertical_compose(vertical_compose(a, mid), mid),
                         vertical_compose(a, vertical_compose(mid, mid)))


def test_interchange_law():
    rng = random.Random(7)
    for _ in range(30):
        a = random_sterm(rng, max_vertices=3)
        b = random_sterm(rng, max_vertices=3)
        c, d = unit(a.m), unit(b.m)
        lhs = vertical_compose(horizontal_compose([a, b]),
                               horizontal_compose([c, d]))
        rhs = horizontal_compose([vertical_compose(a, c),
                                  vertical_compose(b, d)])
        assert iso_equal(lhs, rhs)


def test_permutations_group_action():
    rng = random.Random(3)
    for _ in range(100):
        g = random_sterm(rng, max_vertices=4)
        sigma = list(range(1, g.n + 1))
        rng.shuffle(sigma)
        sigma = Permutation(tuple(sigma))
        assert iso_equal(permute_inputs(permute_inputs(g, sigma),
                                        sigma.inverse()), g)
        if g.m:
            tau = list(range(1, g.m + 1))
            rng.shuffle(tau)
            tau = Permutation(tuple(tau))
            assert iso_equal(permute_outputs(permute_outputs(g, tau),
                                             tau.inverse()), g)


def test_permute_identity_and_swap():
    g = corolla("delta")
    assert iso_equal(permute_inputs(g, Permutation.identity(1)), g)
    crossing = permute_inputs(unit(2), Permutation((2, 1)))
    assert iso_equal(crossing, permutation_graph((2, 1)))
    assert not iso_equal(crossing, unit(2))


def test_iso_equal_same_composite_built_two_ways():
    rng = random.Random(11)
    for _ in range(50):
        a = random_sterm(rng, max_vertices=3)
        b = random_sterm(rng, max_vertices=3)
        g1 = horizontal_compose([a, b])
        # build the same thing with shifted insertion order
        g2 = permute_inputs(horizontal_compose([b, a]), _block_swap(b.n, a.n))
        g2 = permute_outputs(g2, _block_swap(a.m, b.m).inverse()) if (a.m or b.m) else g2
        assert iso_equal(g1, g2) == brute_force_iso(g1, g2)


def _block_swap(k, l):
    """Permutation moving a block of k past a block of l (1-based images)."""
    image = tuple(range(l + 1, l + k + 1)) + tuple(range(1, l + 1))
    return Permutation(image)


def test_iso_equal_is_equivalence_on_samples():
    rng = random.Random(5)
    terms = [random_sterm(rng, max_vertices=4) for _ in range(12)]
    for g in terms:
        assert iso_equal(g, g)
    for g1 in terms:
        for g2 in terms:
            assert iso_equal(g1, g2) == iso_equal(g2, g1)


def test_absorb_equivalences_unit_vertex():
    # a unit-decorated vertex on a strand is deleted
    g = GraphTerm(1, 1, (Vertex("id"),), frozenset({
        (("in", 0), ("vi", 0, 0)), (("vo", 0, 0), ("out", 0))}))
    assert iso_equal(absorb_equivalences(g), unit(1))
    rng = random.Random(9)
    for _ in range(50):
        h = random_sterm(rng, max_vertices=4)
        once = absorb_equivalences(h)
        assert iso_equal(absorb_equivalences(once), once)


def test_json_round_trip_exact():
    rng = random.Random(13)
    for _ in range(40):
        g = random_sterm(rng, max_vertices=5)
        text = to_json(g)
        g2 = from_json(text)
        assert iso_equal(g, g2)
        assert to_json(g2) == text  # bit-exact on the rational strings


def test_dot_export_mentions_all_vertices():
    g = vertical_compose(corolla("delta"), corolla("mu", (Fraction(1, 3),)))
    dot = to_dot(g)
    assert "invtriangle" in dot and "triangle" in dot
    assert dot.startswith("digraph")


def test_canonical_form_invariant_under_vertex_shuffle():
    rng = random.Random(17)
    for _ in range(40):
        g = random_sterm(rng, max_vertices=5)
        perm = list(range(len(g.vertices)))
        rng.shuffle(perm)

        def ren(ep):
            if ep[0] in ("vi", "vo"):
                return (ep[0], perm[ep[1]], ep[2])
            return ep

        verts = [None] * len(g.vertices)
        for v, vert in enumerate(g.vertices):
            verts[perm[v]] = vert
        g2 = GraphTerm(g.n, g.m, tuple(verts),
                       frozenset((ren(s), ren(d)) for s, d in g.edges))
        assert canonical_form(g) == canonical_form(g2)


def _unit_vertex():
    return GraphTerm(1, 1, (Vertex("id"),), frozenset({
        (("in", 0), ("vi", 0, 0)), (("vo", 0, 0), ("out", 0))}))


def test_absorb_equivalences_chain_of_two_units():
    two = vertical_compose(_unit_vertex(), _unit_vertex())
    assert absorb_equivalences(two) == unit(1)
    # between a coproduct and a product, on the first strand
    g = vertical_compose(
        vertical_compose(corolla("delta"), horizontal_compose([two, unit(1)])),
        corolla("mu", (Fraction(1, 3),)))
    absorbed = absorb_equivalences(g)
    assert absorbed == vertical_compose(corolla("delta"), corolla("mu", (Fraction(1, 3),)))
    point = (parse_point("1/3,3/4"),)
    assert eval_term(g, point) == eval_term(absorbed, point)
    assert chain_eval(g) == chain_eval(absorbed)


def _out_of_order_term():
    """Vertex 2 (delta) feeds vertex 0 (eps) and vertex 1 (delta)."""
    return GraphTerm(1, 2, (Vertex("eps"), Vertex("delta"), Vertex("delta")), frozenset({
        (("in", 0), ("vi", 2, 0)), (("vo", 2, 0), ("vi", 0, 0)),
        (("vo", 2, 1), ("vi", 1, 0)), (("vo", 1, 0), ("out", 0)),
        (("vo", 1, 1), ("out", 1))}))


def test_topological_order_takes_the_ready_vertex_with_the_smallest_key():
    g = _out_of_order_term()
    assert validate(g) == []
    assert list(topological_order(g)) == [2, 0, 1]
    assert list(topological_order(g, key=lambda v: -v)) == [2, 1, 0]
    assert list(topological_order(unit(2))) == []


def test_topological_order_reports_the_cycle():
    v = (Vertex("mu", (Fraction(1, 2),)), Vertex("delta"))
    g = GraphTerm(1, 1, v, frozenset({
        (("in", 0), ("vi", 0, 0)), (("vo", 1, 0), ("vi", 0, 1)),
        (("vo", 0, 0), ("vi", 1, 0)), (("vo", 1, 1), ("out", 0))}))
    with pytest.raises(GraphError, match=r"directed cycle through vertices \[0, 1\]"):
        list(topological_order(g))
