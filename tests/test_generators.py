import random
from fractions import Fraction

import pytest

from propcalc.errors import GraphError, WeightingError
from propcalc.generators import (EdgeWeighting, S, S_TILDE, apply_attaching,
                                 apply_relations_S, corolla, from_edge_weights,
                                 stabilize_add, stabilize_remove, to_edge_weights)
from propcalc.graphs import iso_equal, sources_by_target, unit, vertical_compose
from propcalc.surjections import normalize, random_sterm
from propcalc.terms import parse


def test_corolla_shapes():
    assert corolla("delta").biarity == (1, 2)
    assert corolla("mu", (Fraction(1, 2),)).biarity == (2, 1)
    with pytest.raises(GraphError):
        corolla("mu", (Fraction(3, 2),))
    with pytest.raises(GraphError):
        corolla("delta", (Fraction(1, 2),))


def test_attaching_mu_at_zero_counit_on_first_input():
    g = apply_attaching(corolla("mu", (Fraction(0),)))
    # counit on input 1, strand from input 2
    by_target = sources_by_target(g)
    eps_vertex = next(v for v, vert in enumerate(g.vertices) if vert.kind == "eps")
    assert by_target[("vi", eps_vertex, 0)] == ("in", 0)
    assert by_target[("out", 0)] == ("in", 1)


def test_attaching_mu_at_one_counit_on_second_input():
    g = apply_attaching(corolla("mu", (Fraction(1),)))
    by_target = sources_by_target(g)
    eps_vertex = next(v for v, vert in enumerate(g.vertices) if vert.kind == "eps")
    assert by_target[("vi", eps_vertex, 0)] == ("in", 1)
    assert by_target[("out", 0)] == ("in", 0)


def test_attaching_phi():
    assert iso_equal(apply_attaching(corolla("phi", (Fraction(0),))), unit(1))
    g = apply_attaching(corolla("phi", (Fraction(1),)))
    kinds = sorted(v.kind for v in g.vertices)
    assert kinds == ["delta", "eps"]
    # the counit caps the first output of the coproduct
    by_target = sources_by_target(g)
    eps_vertex = next(v for v, vert in enumerate(g.vertices) if vert.kind == "eps")
    delta_vertex = next(v for v, vert in enumerate(g.vertices) if vert.kind == "delta")
    assert by_target[("vi", eps_vertex, 0)] == ("vo", delta_vertex, 0)


def test_attaching_interior_point_unchanged():
    g = corolla("mu", (Fraction(1, 3),))
    assert apply_attaching(g) == g


def test_relations_counitality():
    assert iso_equal(apply_relations_S(parse("delta ; (eps | id)")), unit(1))
    assert iso_equal(apply_relations_S(parse("delta ; (id | eps)")), unit(1))


def test_relations_mu_eps():
    g = apply_relations_S(parse("mu(1/2) ; eps"))
    assert iso_equal(g, parse("eps | eps"))


def test_relations_phi_eps():
    g = apply_relations_S(parse("h(1/2) ; eps"), tag=S_TILDE)
    assert iso_equal(g, corolla("eps"))


def test_relations_stilde_does_not_use_counitality():
    g = parse("delta ; (eps | id)")
    assert iso_equal(apply_relations_S(g, tag=S_TILDE), g)
    both = parse("delta ; (eps | eps)")
    assert iso_equal(apply_relations_S(both, tag=S_TILDE), corolla("eps"))


def test_phi_rejected_outside_stilde():
    with pytest.raises(GraphError):
        apply_relations_S(parse("h(1/2)"), tag=S)


def test_edge_weights_mu_half():
    g = corolla("mu", (Fraction(1, 2),))
    w = to_edge_weights(g)
    vals = sorted(w.weights.values())
    assert vals == [Fraction(1, 2), Fraction(1, 2), Fraction(1)]


def test_edge_weights_delta():
    w = to_edge_weights(corolla("delta"))
    by = {dst: val for (src, dst), val in w.weights.items()}
    assert by[("out", 0)] == 1 and by[("out", 1)] == 1
    assert by[("vi", 0, 0)] == 2


def test_edge_weights_bubble():
    g = parse("delta ; mu(1/3)")
    w = to_edge_weights(g)
    by = {dst: val for (src, dst), val in w.weights.items()}
    inner = sorted(v for d, v in by.items() if d[0] == "vi" and g.vertices[d[1]].kind == "mu")
    assert inner == [Fraction(1, 3), Fraction(2, 3)]
    assert by[("out", 0)] == 1
    assert all(p == [] for p in [w.check()])


def test_edge_weights_conditions_random():
    rng = random.Random(21)
    for _ in range(80):
        g = random_sterm(rng, max_vertices=8)
        w = to_edge_weights(g)
        assert w.check() == []
        # conservation: total into inputs equals m when no counit interferes
        total_out = sum(v for (s, d), v in w.weights.items() if d[0] == "out")
        assert total_out == g.m


def test_from_edge_weights_round_trip():
    rng = random.Random(22)
    for _ in range(60):
        g = random_sterm(rng, max_vertices=8)
        w = to_edge_weights(g)
        g2, flagged = from_edge_weights(g, w)
        w2 = to_edge_weights(g2)
        assert w2.weights == w.weights
        for v in range(len(g.vertices)):
            if g.vertices[v].kind == "mu" and v not in flagged:
                assert g2.vertices[v].params == g.vertices[v].params


def test_from_edge_weights_second_input_share():
    g = corolla("mu", (Fraction(0),))
    weights = {}
    for src, dst in g.edges:
        if dst == ("vi", 0, 0):
            weights[(src, dst)] = Fraction(2, 3)
        elif dst == ("vi", 0, 1):
            weights[(src, dst)] = Fraction(1, 3)
        else:
            weights[(src, dst)] = Fraction(1)
    g2, flagged = from_edge_weights(g, EdgeWeighting(g, weights))
    assert not flagged
    assert g2.vertices[0].params == (Fraction(1, 3),)


def test_from_edge_weights_conservation_violation():
    g = corolla("mu", (Fraction(1, 2),))
    weights = {e: Fraction(1) for e in g.edges}
    with pytest.raises(WeightingError):
        from_edge_weights(g, EdgeWeighting(g, weights))


def test_degenerate_mu_flagged():
    g = vertical_compose(corolla("mu", (Fraction(1, 2),)), corolla("eps"))
    w = to_edge_weights(g)
    g2, flagged = from_edge_weights(g, w)
    mu_vertex = next(v for v, vert in enumerate(g.vertices) if vert.kind == "mu")
    assert mu_vertex in flagged
    assert g2.vertices[mu_vertex].params == (Fraction(0),)


def test_stabilize_add_on_unit_is_coproduct():
    assert iso_equal(stabilize_add(unit(1)), corolla("delta"))


def test_stabilize_round_trip_after_relations():
    g = stabilize_remove(stabilize_add(unit(1)))
    assert iso_equal(apply_relations_S(g), unit(1))


def test_stabilize_biarity_bookkeeping():
    rng = random.Random(23)
    for _ in range(100):
        g = random_sterm(rng, max_vertices=6)
        up = stabilize_add(g)
        assert up.biarity == (g.n, g.m + 1)
        if g.m >= 1:
            down = stabilize_remove(g)
            assert down.biarity == (g.n, g.m - 1)


def test_stabilize_add_needs_inputs():
    with pytest.raises(GraphError):
        stabilize_add(unit(0))


def test_attaching_and_relations_idempotent_and_biarity_preserving():
    rng = random.Random(24)
    for _ in range(60):
        g = random_sterm(rng, max_vertices=7)
        a = apply_attaching(g, S)
        assert a.biarity == g.biarity
        assert apply_attaching(a, S) == a
        r = apply_relations_S(g)
        assert r.biarity == g.biarity
        assert iso_equal(apply_relations_S(r), r)


def test_input_side_weight_conservation():
    rng = random.Random(25)
    for _ in range(60):
        g = random_sterm(rng, max_vertices=7)
        w = to_edge_weights(g)
        total_in = sum(v for (s, d), v in w.weights.items() if s[0] == "in")
        # counit edges carry zero, so the inflow equals the number of outputs
        assert total_in == g.m


def test_relations_keep_the_normal_form():
    rng = random.Random(26)
    for _ in range(300):
        g = random_sterm(rng)
        assert normalize(apply_relations_S(g)) == normalize(g)
