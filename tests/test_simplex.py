import random
from fractions import Fraction as F

import pytest

from propcalc.errors import GraphError
from propcalc.generators import S, apply_attaching, corolla
from propcalc.graphs import GraphTerm, Vertex
from propcalc.simplex import (SimplexPoint, carrier, check_cellular,
                              check_naturality, codegeneracy, coface,
                              eval_generator, eval_term, face_action,
                              face_point, parse_point, point_in_face,
                              random_point, vertex_point)
from propcalc.surjections import random_sterm
from propcalc.terms import parse


def test_point_validation():
    with pytest.raises(GraphError):
        SimplexPoint((F(1, 2), F(1, 4)))
    with pytest.raises(GraphError):
        SimplexPoint((F(-1, 2),))
    assert SimplexPoint(()).d == 0


def test_skeleton_level():
    assert SimplexPoint((F(0), F(1, 2), F(1))).skeleton_level == 1
    assert SimplexPoint((F(1, 4), F(1, 2))).skeleton_level == 2


def test_diagonal_formula():
    out = eval_generator("delta", None, (SimplexPoint((F(1, 4),)),))
    assert out == (SimplexPoint((F(0),)), SimplexPoint((F(1, 2),)))
    out = eval_generator("delta", None, (SimplexPoint((F(3, 4),)),))
    assert out == (SimplexPoint((F(1, 2),)), SimplexPoint((F(1),)))


def test_product_formula():
    out = eval_generator("mu", F(1, 2),
                         (SimplexPoint((F(1, 5),)), SimplexPoint((F(3, 5),))))
    assert out == (SimplexPoint((F(2, 5),)),)


def test_homotopy_formula():
    for x in (F(0), F(1, 4), F(1, 2), F(7, 8), F(1)):
        p = SimplexPoint((x,))
        assert eval_generator("phi", F(0), (p,)) == (p,)
    # corner where both branch formulas agree
    s = F(1, 3)
    x = (2 - s) / 2
    assert eval_generator("phi", s, (SimplexPoint((x,)),)) == (SimplexPoint((F(1),)),)


def test_eval_term_diagonal_anchor():
    outs = eval_term(parse("delta"), (parse_point("1/4"),), d=1)
    assert ", ".join(str(p) for p in outs) == "(0), (1/2)"


def test_eval_counit_discards():
    assert eval_term(parse("eps"), (parse_point("1/4,1/2"),)) == ()
    lhs = eval_term(parse("mu(1/3) ; eps"), (parse_point("1/4"), parse_point("1/2")))
    rhs = eval_term(parse("eps | eps"), (parse_point("1/4"), parse_point("1/2")))
    assert lhs == rhs == ()


def test_attaching_identities_pointwise():
    rng = random.Random(71)
    cases = [("mu", F(0)), ("mu", F(1)), ("phi", F(0)), ("phi", F(1))]
    for kind, s in cases:
        g = corolla(kind, (s,))
        h = apply_attaching(g)
        for _ in range(300):
            pts = tuple(random_point(rng, 3) for _ in range(g.n))
            assert eval_term(g, pts) == eval_term(h, pts)


def test_monotonicity_preserved():
    rng = random.Random(72)
    g = parse("delta ; (h(1/3) | id) ; mu(2/7) ; delta ; mu(1/2)")
    for _ in range(200):
        # outputs of every vertex stay monotone; constructors re-check
        p = random_point(rng, 4)
        eval_term(g, (p,))


def test_cellularity_of_generators():
    rng = random.Random(73)
    for kind, params in (("delta", ()), ("eps", ()), ("mu", (F(1, 3),)),
                         ("phi", (F(2, 5),))):
        assert check_cellular(corolla(kind, params), 3, 800, rng) == []


def test_cellularity_counts_the_cell_dimension():
    # the product of boundary vertices can be interior thanks to the s-cell
    g = corolla("mu", (F(1, 3),))
    pts = (SimplexPoint((F(0),)), SimplexPoint((F(1),)))
    out = eval_term(g, pts)[0]
    assert out.skeleton_level == 1  # exceeds the inputs' total of 0


def test_corrupted_map_reported():
    bad = ((lambda pts: (SimplexPoint(tuple(x / 3 for x in pts[0].coords)),)), 1, 1)
    rng = random.Random(74)
    assert check_cellular(bad, 1, 300, rng)


def test_naturality_all_generators_small_dims():
    rng = random.Random(75)
    for kind, params in (("delta", ()), ("eps", ()), ("mu", (F(1, 3),)),
                         ("phi", (F(2, 5),))):
        g = corolla(kind, params)
        for d in range(0, 3):
            for i in range(0, d + 2):
                assert check_naturality(g, "delta", i, d, 25, rng) == []
            for i in range(1, d + 2):
                assert check_naturality(g, "sigma", i, d, 25, rng) == []


def test_float_mode_naturality_with_tolerance():
    rng = random.Random(76)
    g = corolla("mu", (F(1, 3),))
    assert check_naturality(g, "delta", 0, 2, 20, rng, tol=1e-12) == []


def test_coface_and_codegeneracy_formulas():
    p = SimplexPoint((F(1, 4), F(1, 2)))
    assert coface(p, 0).coords == (F(0), F(1, 4), F(1, 2))
    assert coface(p, 1).coords == (F(1, 4), F(1, 4), F(1, 2))
    assert coface(p, 3).coords == (F(1, 4), F(1, 2), F(1))
    assert codegeneracy(coface(p, 1), 1) == p
    with pytest.raises(GraphError):
        coface(p, 4)


def test_carrier_and_face_membership():
    assert carrier(SimplexPoint((F(0), F(1, 2)))) == (0, 1)
    assert carrier(vertex_point(3, 2)) == (2,)
    rng = random.Random(77)
    for _ in range(100):
        face = tuple(sorted(rng.sample(range(4), rng.randint(1, 4))))
        p = face_point(rng, 3, face)
        assert point_in_face(p, face)


def test_face_action_formulas():
    assert face_action("delta", ((0, 2),)) == (((0,), (0, 2)), ((0, 2), (2,)))
    assert face_action("eps", ((0, 1, 2),)) == ((0,),)
    assert face_action("mu", ((0,), (1, 2))) == ((0, 1, 2),)
    assert face_action("phi", ((0, 2, 3),)) == ((0, 2, 3),)


def test_product_sweep_covers_the_union_face():
    rng = random.Random(78)
    f1, f2 = (0,), (1, 2)
    target = (0, 1, 2)
    covered = set()
    for _ in range(40):
        p1 = face_point(rng, 2, f1)
        p2 = face_point(rng, 2, f2)
        for k in range(0, 65):
            out = eval_generator("mu", F(k, 64), (p1, p2))[0]
            assert point_in_face(out, target)
            covered |= set(carrier(out))
    assert covered == set(target)


def test_face_action_matches_chain_level_diagonal():
    from propcalc.chains import act_type, delta_type, mu_type
    from itertools import combinations
    for d in range(0, 7):
        for k in range(1, d + 2):
            for face in combinations(range(d + 1), k):
                pairs = set(face_action("delta", (face,)))
                assert pairs == set(act_type(delta_type(), (face,)))
    # the join on disjoint faces produces the same index set
    assert set(act_type(mu_type(), ((0,), (1, 2)))) == {
        (face_action("mu", ((0,), (1, 2)))[0],)}


def test_attaching_maps_keep_the_evaluation():
    """Boundary mu vertices inside whole terms, not only single corollas."""
    rng = random.Random(27)
    attached = 0
    for _ in range(300):
        g = random_sterm(rng)
        vertices = tuple(Vertex("mu", (F(rng.randint(0, 1)),))
                         if v.kind == "mu" and rng.random() < 0.5 else v
                         for v in g.vertices)
        g = GraphTerm(g.n, g.m, vertices, g.edges)
        h = apply_attaching(g, S)
        attached += h != g
        for _ in range(5):
            points = tuple(random_point(rng, 2) for _ in range(g.n))
            assert eval_term(g, points) == eval_term(h, points)
    assert attached > 50
