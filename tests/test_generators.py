import random
from fractions import Fraction

import pytest

from propcalc.errors import GraphError, WeightingError
from propcalc.generators import (S, S_TILDE, apply_attaching, apply_relations_S,
                                 check_edge_weights, check_tag, corolla, counit_redexes,
                                 from_edge_weights, rewrite_counit, stabilize_add,
                                 stabilize_remove, to_edge_weights)
from propcalc.graphs import (GraphTerm, Vertex, Wiring, absorb_equivalences,
                             horizontal_compose, iso_equal, sources_by_target, unit,
                             vertical_compose)
from propcalc.surjections import eliminate_counits, normalize, random_sterm
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
    vals = sorted(w.values())
    assert vals == [Fraction(1, 2), Fraction(1, 2), Fraction(1)]


def test_edge_weights_delta():
    w = to_edge_weights(corolla("delta"))
    assert w[("out", 0)] == 1 and w[("out", 1)] == 1
    assert w[("vi", 0, 0)] == 2


def test_edge_weights_bubble():
    g = parse("delta ; mu(1/3)")
    w = to_edge_weights(g)
    inner = sorted(v for d, v in w.items() if d[0] == "vi" and g.vertices[d[1]].kind == "mu")
    assert inner == [Fraction(1, 3), Fraction(2, 3)]
    assert w[("out", 0)] == 1
    assert check_edge_weights(g, w) == []


def test_edge_weights_conditions_random():
    rng = random.Random(21)
    for _ in range(80):
        g = random_sterm(rng, max_vertices=8)
        w = to_edge_weights(g)
        assert check_edge_weights(g, w) == []
        # conservation: total into inputs equals m when no counit interferes
        total_out = sum(v for d, v in w.items() if d[0] == "out")
        assert total_out == g.m


def test_from_edge_weights_round_trip():
    rng = random.Random(22)
    for _ in range(60):
        g = random_sterm(rng, max_vertices=8)
        w = to_edge_weights(g)
        g2, flagged = from_edge_weights(g, w)
        w2 = to_edge_weights(g2)
        assert w2 == w
        for v in range(len(g.vertices)):
            if g.vertices[v].kind == "mu" and v not in flagged:
                assert g2.vertices[v].params == g.vertices[v].params


def test_from_edge_weights_second_input_share():
    g = corolla("mu", (Fraction(0),))
    weights = {}
    for src, dst in g.edges:
        if dst == ("vi", 0, 0):
            weights[dst] = Fraction(2, 3)
        elif dst == ("vi", 0, 1):
            weights[dst] = Fraction(1, 3)
        else:
            weights[dst] = Fraction(1)
    g2, flagged = from_edge_weights(g, weights)
    assert not flagged
    assert g2.vertices[0].params == (Fraction(1, 3),)


def test_from_edge_weights_conservation_violation():
    g = corolla("mu", (Fraction(1, 2),))
    weights = {dst: Fraction(1) for _, dst in g.edges}
    with pytest.raises(WeightingError):
        from_edge_weights(g, weights)


def test_from_edge_weights_checks_the_graph_it_reads():
    # a weighting of another graph is refused, not read
    with pytest.raises(WeightingError, match="has no weight"):
        from_edge_weights(parse("delta ; mu(1/2)"), to_edge_weights(parse("mu(1/3)")))


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
        total_in = sum(w[d] for s, d in g.edges if s[0] == "in")
        # counit edges carry zero, so the inflow equals the number of outputs
        assert total_in == g.m


def test_relations_keep_the_normal_form():
    rng = random.Random(26)
    for _ in range(300):
        g = random_sterm(rng)
        assert normalize(apply_relations_S(g)) == normalize(g)


# --- the shared counit rule ------------------------------------------------

def test_relations_agree_with_counit_elimination():
    rng = random.Random(27)
    checked = 0
    for _ in range(300):
        g = random_sterm(rng)
        if g.m == 0:
            continue
        assert iso_equal(apply_relations_S(g), eliminate_counits(g))
        checked += 1
    assert checked > 100


def test_counit_redexes_under_s_tilde():
    # a coproduct is a redex only with both outputs capped, listed by its slot-0 cap
    work = Wiring.from_term(parse("delta ; (eps | eps)"))
    assert counit_redexes(work, S_TILDE) == [1]
    assert counit_redexes(work, S) == [1, 2]
    assert counit_redexes(Wiring.from_term(parse("delta ; (id | eps)")), S_TILDE) == []
    # a counit below phi or mu is a redex under S-tilde
    assert counit_redexes(Wiring.from_term(parse("h(1/2) ; eps")), S_TILDE) == [1]
    assert counit_redexes(Wiring.from_term(parse("mu(1/2) ; eps")), S_TILDE) == [1]


def test_counits_fed_by_an_input_or_an_id_vertex_are_never_redexes():
    # delta ; (id vertex ; eps | eps) and a counit on the input itself
    unit_vertex = GraphTerm(1, 0, (Vertex("delta"), Vertex("id"), Vertex("eps"), Vertex("eps")),
                            frozenset({(("in", 0), ("vi", 0, 0)), (("vo", 0, 0), ("vi", 1, 0)),
                                       (("vo", 1, 0), ("vi", 2, 0)), (("vo", 0, 1), ("vi", 3, 0))}))
    for g, expected in ((parse("eps"), {S: [], S_TILDE: []}),
                        (unit_vertex, {S: [3], S_TILDE: []})):
        for tag in (S, S_TILDE):
            assert counit_redexes(Wiring.from_term(g), tag) == expected[tag]
    # the relations absorb the id vertex first, so both tags reduce to one counit
    for tag in (S, S_TILDE):
        assert apply_relations_S(unit_vertex, tag) == corolla("eps")


def _splice_ids(g, rng, count):
    """g with `count` id vertices spliced into drawn edges."""
    work = Wiring.from_term(g)
    for _ in range(count):
        dst = rng.choice(sorted(work.src))
        src, _ = work.del_edge(dst)
        v = work.new_vertex("id")
        work.add_edge(src, ("vi", v, 0))
        work.add_edge(("vo", v, 0), dst)
    return work.to_term()


def test_relations_absorb_id_vertices_before_rewriting():
    rng = random.Random(27)
    for _ in range(200):
        g = random_sterm(rng, max_vertices=8)
        spliced = _splice_ids(g, rng, rng.randint(1, 3))
        assert absorb_equivalences(spliced) == g
        for tag in (S, S_TILDE):
            assert apply_relations_S(spliced, tag) == apply_relations_S(g, tag)


def test_counit_rewrites_carry_the_edge_labels():
    # below a product: both new counit edges take the label of the cap's edge
    work = Wiring.from_term(parse("mu(1/2) ; eps"))
    for dst in work.src:
        work.w[dst] = "cap" if dst == ("vi", 1, 0) else "other"
    rewrite_counit(work, 1)
    assert sorted(work.kind.values()) == ["eps", "eps"]
    assert {work.w[("vi", v, 0)] for v in work.kind} == {"cap"}
    # a collapsed coproduct passes on the label of its other output
    work = Wiring.from_term(parse("delta ; (eps | id)"))
    work.w[("out", 0)] = "kept"
    rewrite_counit(work, 1)
    assert work.kind == {} and work.src == {("out", 0): ("in", 0)}
    assert work.w == {("out", 0): "kept"}


# --- oracle: the attaching pass that rebuilds every term through a Wiring

def _old_apply_attaching(g, tag=S_TILDE):
    check_tag(g, tag)
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


def _attaching_outcome(fn, g, tag):
    try:
        return fn(g, tag)
    except GraphError as exc:
        return GraphError, str(exc)


def _attaching_terms(rng, count):
    """Seeded terms whose mu and phi vertices sit at 0, at 1 or inside."""
    params = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(3, 4)]
    for _ in range(count):
        g = random_sterm(rng, max_vertices=rng.choice([4, 12]))
        verts = tuple(Vertex("mu", (rng.choice(params),)) if vert.kind == "mu" else vert
                      for vert in g.vertices)
        g = GraphTerm(g.n, g.m, verts, g.edges)
        for _ in range(rng.choice([0, 0, 1, 3]) if g.m else 0):
            a = rng.randrange(g.m)
            g = vertical_compose(g, horizontal_compose(
                [unit(a), corolla("phi", (rng.choice(params),)), unit(g.m - a - 1)]))
        yield g


def test_attaching_matches_the_rebuilding_oracle_and_returns_a_term_it_keeps():
    rng = random.Random(25)
    kept = rewritten = 0
    for g in _attaching_terms(rng, 400):
        boundary = any(vert.kind in ("mu", "phi") and vert.params[0] in (0, 1)
                       for vert in g.vertices)
        for tag in (S, S_TILDE):
            new = _attaching_outcome(apply_attaching, g, tag)
            assert new == _attaching_outcome(_old_apply_attaching, g, tag)
            if isinstance(new, GraphTerm):
                assert (new is g) == (not boundary)
                kept += new is g
                rewritten += new is not g
    assert kept > 350 and rewritten > 200


@pytest.mark.parametrize("text", ["mu(0)", "mu(1)", "h(0)", "h(1)",
                                  "delta ; ((delta ; mu(1) ; h(1)) | id) ; (h(0) | eps)",
                                  "delta ; (h(1/2) | h(1)) ; mu(0)"])
def test_attaching_boundary_cells_rewrite_as_before(text):
    g = parse(text)
    new = apply_attaching(g)
    assert new is not g and new == _old_apply_attaching(g)
    assert all(vert.params[0] not in (0, 1) for vert in new.vertices
               if vert.kind in ("mu", "phi"))


@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(0)])
def test_attaching_refuses_a_term_with_an_unwired_slot(s):
    g = GraphTerm(2, 1, (Vertex("mu", (s,)),),
                  frozenset({(("in", 0), ("vi", 0, 0)), (("vo", 0, 0), ("out", 0))}))
    with pytest.raises(GraphError, match="unwired"):
        apply_attaching(g)
    assert (_attaching_outcome(apply_attaching, g, S)
            == _attaching_outcome(_old_apply_attaching, g, S))
    # the tag is checked before the wiring
    phi = GraphTerm(1, 1, (Vertex("phi", (s,)),), frozenset({(("in", 0), ("vi", 0, 0))}))
    with pytest.raises(GraphError, match="phi generator is not part"):
        apply_attaching(phi, S)
    with pytest.raises(GraphError, match="unwired"):
        apply_attaching(phi)


@pytest.mark.parametrize("text, change, message", [
    ("mu(1/2)", {("vi", 0, 0): Fraction(-1, 2), ("vi", 0, 1): Fraction(3, 2)},
     "edge ('in', 0)->('vi', 0, 0) has negative weight -1/2"),
    ("delta ; (id | eps)", {("vi", 1, 0): Fraction(1)},
     "counit edge ('vo', 0, 1)->('vi', 1, 0) has weight 1 != 0"),
    ("mu(1/2)", {("out", 0): Fraction(1, 2)},
     "output edge ('vo', 0, 0)->('out', 0) has weight 1/2 != 1"),
], ids=["negative", "counit", "output"])
def test_from_edge_weights_names_each_edge_problem(text, change, message):
    g = parse(text)
    weights = {**to_edge_weights(g), **change}
    with pytest.raises(WeightingError) as info:
        from_edge_weights(g, weights)
    assert str(info.value) == message


def test_to_edge_weights_refuses_h_and_passes_labels_through_id_vertices():
    with pytest.raises(GraphError) as info:
        to_edge_weights(parse("h(1/2)"))
    assert str(info.value) == "edge weights are defined on the counital presentation only"
    # delta with its first output through an id vertex
    g = GraphTerm(1, 2, (Vertex("delta"), Vertex("id")),
                  frozenset({(("in", 0), ("vi", 0, 0)), (("vo", 0, 0), ("vi", 1, 0)),
                             (("vo", 1, 0), ("out", 0)), (("vo", 0, 1), ("out", 1))}))
    assert to_edge_weights(g) == {("out", 0): 1, ("out", 1): 1,
                                  ("vi", 1, 0): 1, ("vi", 0, 0): 2}


@pytest.mark.parametrize("call, message", [
    (lambda: stabilize_remove(GraphTerm(1, 0, (Vertex("eps"),),
                                        frozenset({(("in", 0), ("vi", 0, 0))}))),
     "stabilize_remove needs at least one output"),
    (lambda: corolla("foo"), "unknown generator 'foo'"),
    (lambda: check_tag(parse("mu(1/2)"), "x"), "unknown prop tag 'x'"),
], ids=["stabilize-remove-m0", "corolla-kind", "check-tag"])
def test_generator_guards_name_the_problem(call, message):
    with pytest.raises(GraphError) as info:
        call()
    assert str(info.value) == message
