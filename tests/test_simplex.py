import math
import pickle
import random
import re
import time
import tracemalloc
from bisect import bisect_right
from decimal import Decimal
from fractions import Fraction, Fraction as F
from operator import add, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propcalc import simplex
from propcalc.errors import GraphError, ParseError
from propcalc.generators import S, apply_attaching, corolla
from propcalc.graphs import (ARITY, GraphTerm, Vertex, horizontal_compose,
                             permutation_graph, plan_of, unit, vertical_compose)
from propcalc.simplex import (SimplexPoint, _apply, _inputs, carrier, check_cellular,
                              check_naturality, codegeneracy, coface,
                              eval_generator, eval_term, face_action,
                              face_point, parse_point, random_point)
from propcalc.surjections import random_sterm
from propcalc.terms import parse


# --- oracles: the generator-by-generator route and face membership ----------

def interpret(g: GraphTerm, points, d=None):
    """Evaluate a term generator by generator, in the plan's order: the
    reference for `eval_term`."""
    plan = plan_of(g)
    value = {plan.tgt[("in", i)]: p for i, p in enumerate(_inputs(g, points, d))}  # dst endpoint -> point
    for v in plan.order:
        vert = g.vertices[v]
        s = vert.params[0] if vert.params else None
        outs = eval_generator(vert.kind, s,
                              tuple(value[("vi", v, k)] for k in range(vert.arity[0])))
        for k, out in enumerate(outs):
            value[plan.tgt[("vo", v, k)]] = out
    return tuple(value[("out", j)] for j in range(g.m))


def point_in_face(p: SimplexPoint, face) -> bool:
    return set(carrier(p)) <= set(face)


def vertex_point(d, j) -> SimplexPoint:
    """The j-th vertex of the d-simplex: d-j zeros then j ones."""
    return SimplexPoint((Fraction(0),) * (d - j) + (Fraction(1),) * j)


def test_point_validation():
    with pytest.raises(GraphError):
        SimplexPoint((F(1, 2), F(1, 4)))
    with pytest.raises(GraphError):
        SimplexPoint((F(-1, 2),))
    assert SimplexPoint(()).d == 0


@pytest.mark.parametrize("coords, message", [
    ((F(3, 2), F(1, 2)), "coordinate 3/2 outside [0,1]"),
    ((F(1, 2), F(1, 4), F(2)), "coordinates not monotone: (1/2,1/4,2)"),
    ((F(1, 4), F(-1, 2)), "coordinate -1/2 outside [0,1]"),
    ((0.25, float("nan")), "coordinate nan outside [0,1]"),
], ids=["above-then-inside", "decrease-before-above", "inside-then-below", "nan"])
def test_point_validation_names_the_first_bad_coordinate(coords, message):
    with pytest.raises(GraphError, match=re.escape(message)):
        SimplexPoint(coords)


def _loop_point_message(coords):
    """The message of the point check's coordinate loop, or None when the
    point is valid: the oracle for the Fraction fast path in front of it."""
    prev = 0
    for x in coords:
        if not 0 <= x <= 1:
            return f"coordinate {x} outside [0,1]"
        if x < prev:
            return "coordinates not monotone: (" + ",".join(str(y) for y in coords) + ")"
        prev = x
    return None


@pytest.mark.parametrize("coords, message", [
    ((F(3, 2), F(1, 2)), "coordinate 3/2 outside [0,1]"),
    ((F(1, 2), F(1, 4), F(2)), "coordinates not monotone: (1/2,1/4,2)"),
    ((F(1, 4), F(-1, 2)), "coordinate -1/2 outside [0,1]"),
    ((F(1, 4), F(5, 4)), "coordinate 5/4 outside [0,1]"),
    ((2, 0), "coordinate 2 outside [0,1]"),
    ((1, 0, 2), "coordinates not monotone: (1,0,2)"),
    ((0, -1), "coordinate -1 outside [0,1]"),
    ((1.5, 0.5), "coordinate 1.5 outside [0,1]"),
    ((0.5, 0.25, 2.0), "coordinates not monotone: (0.5,0.25,2.0)"),
    ((0.25, -0.5), "coordinate -0.5 outside [0,1]"),
    ((0.25, float("nan")), "coordinate nan outside [0,1]"),
    ((F(1, 2), 0.25, 2), "coordinates not monotone: (1/2,0.25,2)"),
    ((F(1, 4), F(1, 2), -0.5), "coordinate -0.5 outside [0,1]"),
    ((0.5, F(3, 2)), "coordinate 3/2 outside [0,1]"),
    ((F(1, 2), 1, F(1, 2)), "coordinates not monotone: (1/2,1,1/2)"),
])
def test_every_coordinate_type_gets_the_same_messages(coords, message):
    assert _loop_point_message(coords) == message
    with pytest.raises(GraphError) as err:
        SimplexPoint(coords)
    assert str(err.value) == message


def test_the_point_check_matches_the_loop_on_seeded_tuples():
    rng = random.Random(709)
    big = 10 ** 300
    outcomes = {True: 0, False: 0}
    for k in range(4000):
        coords = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.5:
                coords.append(F(rng.randint(-2, 66), 64))
            else:
                denominator = big + rng.randint(0, big)
                coords.append(F(rng.randint(-1, denominator + 1), denominator))
        if rng.random() < 0.5:
            coords.sort()
        kind = k % 4  # Fraction, int, float, or mixed Fraction and float
        if kind == 1:
            coords = [int(x) for x in coords]
        elif kind == 2:
            coords = [float(x) for x in coords]
        elif kind == 3:
            coords = [float(x) if rng.random() < 0.5 else x for x in coords]
        coords = tuple(coords)
        message = _loop_point_message(coords)
        outcomes[message is None] += 1
        if message is None:
            assert SimplexPoint(coords).coords == coords
        else:
            with pytest.raises(GraphError) as err:
                SimplexPoint(coords)
            assert str(err.value) == message
    assert min(outcomes.values()) > 1000


@pytest.mark.parametrize("coords, shown", [
    (("a",), "'a'"),
    ((Decimal("0.5"),), "Decimal('0.5')"),
    ((F(1, 4), None), "None"),
    ((0.5, 1j), "1j"),
])
def test_points_refuse_coordinates_that_are_not_numbers(coords, shown):
    with pytest.raises(GraphError, match=re.escape(
            f"coordinate {shown} is not an int, a Fraction or a float")):
        SimplexPoint(coords)


def _fraction_sort_random_point(rng, d, denom=64):
    """random_point as it was first written, sorting Fractions: the oracle."""
    return SimplexPoint(tuple(sorted(F(rng.randint(0, denom), denom) for _ in range(d))))


def test_random_point_draws_the_points_of_the_fraction_sort():
    for seed in range(500):
        for d in range(7):
            for denom in (8, 64):
                new, old = random.Random(seed), random.Random(seed)
                p = random_point(new, d, denom)
                assert p == _fraction_sort_random_point(old, d, denom)
                assert all(type(x) is F for x in p.coords)
                assert new.getstate() == old.getstate()


def test_skeleton_level():
    assert SimplexPoint((F(0), F(1, 2), F(1))).skeleton_level == 1
    assert SimplexPoint((F(1, 4), F(1, 2))).skeleton_level == 2
    # repeated coordinates: the carrier is an edge, not the open simplex
    assert SimplexPoint((F(1, 3), F(1, 3), F(1, 3))).skeleton_level == 1
    assert SimplexPoint((F(1, 2), F(1, 2))).skeleton_level == 1


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


def test_corrupted_map_reported(monkeypatch):
    g = unit(1)
    assert check_cellular(g, 1, 300, random.Random(74)) == []
    # shrinking every coordinate by 3 moves the vertex 1 into the open edge
    monkeypatch.setattr(simplex, "eval_term", lambda term, points, d=None: tuple(
        SimplexPoint(tuple(x / 3 for x in p.coords)) for p in points))
    assert check_cellular(g, 1, 300, random.Random(74))


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


def test_float_points_commute_exactly_with_cofaces_and_codegeneracies():
    """Float points are mapped exactly and rounded once, so evaluation
    commutes with every coface and codegeneracy without a tolerance."""
    rng = random.Random(76)
    g = parse("delta ; (delta | h(2/5)) ; (mu(1/3) | id)")

    def float_point(dim):
        return SimplexPoint(tuple(sorted(rng.random() for _ in range(dim))))

    for d in range(4):
        for _ in range(20):
            p = float_point(d)
            for i in range(d + 2):
                assert eval_term(g, (coface(p, i),)) == tuple(
                    coface(q, i) for q in eval_term(g, (p,)))
            p = float_point(d + 1)
            assert any(type(x) is float for q in eval_term(g, (p,)) for x in q.coords)
            for i in range(1, d + 2):
                assert eval_term(g, (codegeneracy(p, i),)) == tuple(
                    codegeneracy(q, i) for q in eval_term(g, (p,)))


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


@pytest.mark.parametrize("text", ["abc", "1/0", "1/4,", "0.5.5", "1/2,x"])
def test_parse_point_rejects_bad_coordinates(text):
    with pytest.raises(ParseError, match="bad coordinate"):
        parse_point(text)


@pytest.mark.parametrize("text", [
    "." + "0" * 4299 + "1",  # denominator 10^4300 has 4301 digits
    "0.5e-4300",
    "1/" + "3" * 4301,
    "1e-" + "9" * 5000,
], ids=["4300-decimals", "0.5e-4300", "4301-digit-denominator", "5000-digit-exponent"])
def test_parse_point_rejects_coordinates_past_the_digit_limit(text):
    with pytest.raises(ParseError, match="needs more than 4300 digits"):
        parse_point(text)


def test_parse_point_keeps_long_coordinates_within_the_digit_limit():
    assert parse_point("1e-4298").coords == (F(1, 10 ** 4298),)
    assert parse_point("1/" + "3" * 4300).coords == (F(1, int("3" * 4300)),)


# ---------------------------------------------------------------------------
# compiled programs against the interpreter

ID_VERTEX = GraphTerm(1, 1, (Vertex("id"),), frozenset({
    (("in", 0), ("vi", 0, 0)), (("vo", 0, 0), ("out", 0))}))


def _parameter(rng):
    return rng.choice((F(0), F(1), F(rng.randint(1, 15), 16)))


def _random_term(rng, n, vertices, max_width=6, parameter=_parameter):
    """A valid (n,m) term of exactly `vertices` vertices, layer by layer,
    over delta, phi, id, eps and mu, each parameter drawn by `parameter`
    (by default with 0 and 1 among them)."""
    g = unit(n)
    width = n
    for step in range(vertices):
        if width == 1:
            kinds = ("delta", "phi", "id") + (("eps",) if step == vertices - 1 else ())
        elif width >= max_width:
            kinds = ("eps", "mu")
        else:
            kinds = ("delta", "phi", "id", "eps", "mu")
        kind = rng.choice(kinds)
        if width > 1 and rng.random() < 0.25:
            image = list(range(1, width + 1))
            rng.shuffle(image)
            g = vertical_compose(g, permutation_graph(tuple(image)))
        a, b = ARITY[kind]
        gen = ID_VERTEX if kind == "id" else corolla(
            kind, (parameter(rng),) if kind in ("mu", "phi") else ())
        pos = rng.randint(0, width - a)
        g = vertical_compose(g, horizontal_compose([unit(pos), gen, unit(width - pos - a)]))
        width += b - a
    return GraphTerm(g.n, g.m, g.vertices, g.edges)  # fresh: no plan, no maps


def _stored_maps(program):
    """Every map of a compiled program, as stored: each mix side's and each
    output's."""
    return ([f for mix in program.mixes for _, f in mix]
            + [f for _, f in program.outputs])


def _exact(f):
    """A stored map (D, K, segments) as its exact knots K/D and its
    (slope, intercept) pairs, a zero stored as None read back as 0."""
    scale, ints, segments = f
    return (tuple(F(k, scale) for k in ints),
            tuple((F(0) if a is None else a, F(0) if b is None else b) for a, b in segments))


def _program_maps(g):
    """Every map of g's compiled program, exact: each mix side's and each output's."""
    return [_exact(f) for f in _stored_maps(g._maps)]


def _special_coordinates(g):
    """1/2, each (2-s)/2, and every knot of the compiled maps: the points
    where some generator of g sits exactly on its own knot."""
    coords = {F(0), F(1), F(1, 2)}
    coords.update((2 - v.params[0]) / 2 for v in g.vertices if v.kind == "phi")
    for knots, _ in _program_maps(g):
        coords.update(knots)
    return sorted(coords)


def _special_points(rng, g, d):
    """n points of dimension d, most coordinates drawn from the special ones."""
    special = _special_coordinates(g)
    pool = special + [F(rng.randint(0, 64), 64) for _ in range(len(special))]
    return tuple(SimplexPoint(tuple(sorted(rng.choice(pool) for _ in range(d))))
                 for _ in range(g.n))


def _float_gap(g, points):
    """The largest gap between the program and the interpreter on the
    points' floats; every output coordinate must be a float."""
    floats = tuple(SimplexPoint(tuple(float(x) for x in p.coords)) for p in points)
    gap = 0.0
    for p, q in zip(eval_term(g, floats), interpret(g, floats)):
        assert all(type(x) is float for x in p.coords)
        gap = max([gap] + [abs(x - y) for x, y in zip(p.coords, q.coords)])
    return gap


def test_compiled_maps_match_the_interpreter_on_seeded_terms():
    rng = random.Random(707)
    terms = exact = on_knots = 0
    kinds = set()
    worst = 0.0
    for k in range(600):
        g = _random_term(rng, 1, rng.randint(4, 40))
        kinds.update((v.kind, v.params) for v in g.vertices)
        d = k % 6
        first = random_point(rng, d)
        assert g._maps is None
        assert eval_term(g, (first,)) == interpret(g, (first,))
        special = _special_coordinates(g)
        interior = {x for x in special if 0 < x < 1}
        for _ in range(3):
            pool = special + [F(rng.randint(0, 64), 64) for _ in range(len(special))]
            point = SimplexPoint(tuple(sorted(rng.choice(pool) for _ in range(d))))
            on_knots += any(x in interior for x in point.coords)
            assert eval_term(g, (point,)) == interpret(g, (point,))
            floats = SimplexPoint(tuple(float(x) for x in point.coords))
            for p, q in zip(eval_term(g, (floats,)), interpret(g, (floats,))):
                worst = max([worst] + [abs(x - y) for x, y in zip(p.coords, q.coords)])
            exact += 1
        terms += 1
    assert terms == 600 and exact == 1800
    assert worst <= 1e-12, worst
    assert on_knots > 600
    assert {("phi", ()), ("id", ()), ("eps", ())} <= {(kind, ()) for kind, _ in kinds}
    for s in (F(0), F(1)):
        assert ("mu", (s,)) in kinds and ("phi", (s,)) in kinds


def test_compiled_maps_are_continuous_monotone_and_fix_the_endpoints():
    rng = random.Random(708)
    for _ in range(100):
        g = _random_term(rng, 1, rng.randint(4, 40))
        eval_term(g, (random_point(rng, 1),))
        assert g._maps.joins == g._maps.mixes == ()
        assert len(g._maps.outputs) == g.m
        for base, f in g._maps.outputs:
            knots, segments = _exact(f)
            assert base == 0
            assert len(segments) == len(knots) + 1
            assert list(knots) == sorted(set(knots)) and all(0 < t < 1 for t in knots)
            assert all(a >= 0 for a, _ in segments)
            for t, (a, b), (c, e) in zip(knots, segments, segments[1:]):
                assert a * t + b == c * t + e and (a, b) != (c, e)
            assert segments[0][1] == 0 and sum(segments[-1]) == 1  # f(0) = 0, f(1) = 1


def test_the_maps_are_written_once_and_leave_equality_hashing_and_repr_alone():
    g = parse("delta ; (h(1/3) | id) ; mu(2/7) ; delta")
    fresh = parse("delta ; (h(1/3) | id) ; mu(2/7) ; delta")
    point = parse_point("1/4,1/2,3/4")
    outs = eval_term(g, (point,))
    maps = g._maps
    assert maps is not None and len(maps.outputs) == g.m == 2
    assert eval_term(g, (parse_point("0,1/3,1"),)) and g._maps is maps
    with pytest.raises(AttributeError):
        g._maps = None
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert fresh._maps is None
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy._plan is None and copy._maps is None
    assert eval_term(copy, (point,)) == outs and copy._maps == maps


def test_terms_of_two_and_three_inputs_are_compiled_and_match_the_interpreter():
    rng = random.Random(709)
    exact = on_knots = 0
    kinds = set()
    mixes = []
    worst = 0.0
    for k in range(600):
        g = _random_term(rng, 2 + k % 2, rng.randint(4, 40))
        kinds.update((v.kind, v.params) for v in g.vertices)
        d = k % 6
        first = tuple(random_point(rng, d) for _ in range(g.n))
        assert g._maps is None
        assert eval_term(g, first) == interpret(g, first)
        program = g._maps
        assert len(program.outputs) == g.m
        assert all(0 <= i < j < g.n for i, j in program.joins)
        mixes.append(len(program.mixes))
        knots = {t for f, _ in _program_maps(g) for t in f}
        for _ in range(3):
            points = _special_points(rng, g, d)
            on_knots += any(x in knots for p in points for x in p.coords)
            assert eval_term(g, points) == interpret(g, points)
            worst = max(worst, _float_gap(g, points))
            exact += 1
        assert g._maps is program
        copy = pickle.loads(pickle.dumps(g))
        assert copy._maps is None
        assert eval_term(copy, points) == eval_term(g, points) and copy._maps == program
    assert exact == 1800
    assert worst <= 1e-12, worst
    assert on_knots > 600
    assert sum(m > 0 for m in mixes) > 300 and max(mixes) >= 3
    assert {("phi", ()), ("id", ()), ("eps", ())} <= {(kind, ()) for kind, _ in kinds}
    for s in (F(0), F(1)):
        assert ("mu", (s,)) in kinds and ("phi", (s,)) in kinds


# about 1.5 s; hypothesis favours small draws, and about half of the 500 have 10 to 60 vertices
@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
       vertices=st.integers(0, 60), d=st.integers(0, 5))
def test_the_program_matches_the_interpreter_at_size(seed, n, vertices, d):
    rng = random.Random(seed)
    g = _random_term(rng, n, vertices)
    points = tuple(random_point(rng, d) for _ in range(n))
    assert eval_term(g, points) == interpret(g, points)
    points = _special_points(rng, g, d)
    assert eval_term(g, points) == interpret(g, points)


def _cyclic_two_input_term():
    # mu(1/2) and delta feed each other; input 2 is capped
    return GraphTerm(2, 1, (Vertex("mu", (F(1, 2),)), Vertex("delta"), Vertex("eps")),
                     frozenset({(("in", 0), ("vi", 0, 0)), (("vo", 1, 0), ("vi", 0, 1)),
                                (("vo", 0, 0), ("vi", 1, 0)), (("vo", 1, 1), ("out", 0)),
                                (("in", 1), ("vi", 2, 0))}))


@pytest.mark.parametrize("evaluate", [eval_term, interpret])
def test_points_of_unequal_dimension_raise_exactly_where_the_interpreter_does(evaluate):
    points = (parse_point("1/4"), parse_point("1/4,1/2"))
    for text in ("mu(1/3)", "mu(1/3) ; eps", "(delta | id) ; (id | mu(0)) ; (eps | eps)"):
        with pytest.raises(GraphError, match="product needs points of equal dimension"):
            evaluate(parse(text), points)
    assert evaluate(parse("eps | eps"), points) == ()
    assert evaluate(parse("id | id"), points) == points
    with pytest.raises(GraphError, match="directed cycle"):
        evaluate(_cyclic_two_input_term(), points)


def test_bad_terms_and_calls_raise_the_same_errors():
    cycle = GraphTerm(1, 1, (Vertex("mu", (F(1, 2),)), Vertex("delta")), frozenset({
        (("in", 0), ("vi", 0, 0)), (("vo", 1, 0), ("vi", 0, 1)),
        (("vo", 0, 0), ("vi", 1, 0)), (("vo", 1, 1), ("out", 0))}))
    for evaluate in (eval_term, interpret):
        with pytest.raises(GraphError, match="directed cycle"):
            evaluate(cycle, (parse_point("1/2"),))
        g = parse("delta ; mu(1/3)")
        with pytest.raises(GraphError, match="term has 1 inputs, got 2 points"):
            evaluate(g, (parse_point("1/2"), parse_point("1/3")))
        with pytest.raises(GraphError, match=r"point \(1/2\) does not live in dimension 2"):
            evaluate(g, (parse_point("1/2"),), d=2)
    assert cycle._maps is None


def test_the_integer_bisection_matches_a_fraction_bisection():
    rng = random.Random(711)
    tiny = F(1, 10 ** 60)
    maps = checked = 0
    scales = set()
    for _ in range(150):
        g = _random_term(rng, rng.randint(1, 3), rng.randint(4, 60))
        eval_term(g, tuple(random_point(rng, 1) for _ in range(g.n)))
        for scale, ints, int_segments in _stored_maps(g._maps):
            knots, segments = _exact((scale, ints, int_segments))
            assert all(type(k) is int for k in ints)
            scales.add(scale)
            xs = [0, 1, F(0), F(1)] + list(knots)
            xs += [t + e for t in knots for e in (tiny, -tiny)]
            for _ in range(4):
                denominator = 10 ** 300 + rng.randint(0, 10 ** 300)
                xs.append(F(rng.randint(0, denominator), denominator))
            xs = [x for x in xs if 0 <= x <= 1]
            expected = []
            for x in xs:
                a, b = segments[bisect_right(knots, x)]
                expected.append(a * x + b)
            assert list(_apply((scale, ints, int_segments), xs)) == expected
            maps += 1
            checked += len(xs)
    assert maps > 400 and checked > 5000 and max(scales) > 2 ** 40


def test_each_map_is_stored_once_as_integer_knots_over_their_least_scale():
    """A stored map is (D, K, segments) with int D and K, D the lcm of the
    denominators of K/D, and segments that decode to the exact continuous,
    monotone map; a zero slope is stored as (None, b) and a zero intercept
    beside a nonzero slope as (a, None)."""
    rng = random.Random(712)
    maps = mixed = marked = 0
    for _ in range(160):
        g = _random_term(rng, rng.randint(1, 3), rng.randint(4, 60))
        eval_term(g, tuple(random_point(rng, 1) for _ in range(g.n)))
        program = g._maps
        assert len(program) == 3
        for f in _stored_maps(program):
            scale, ints, stored = f
            assert type(scale) is int and type(ints) is tuple
            assert all(type(k) is int for k in ints)
            knots, segments = _exact(f)
            assert scale == math.lcm(*(t.denominator for t in knots))
            for a, b in stored:
                if a is None:
                    assert type(b) is F
                else:
                    assert type(a) is F and a != 0
                    assert b is None or (type(b) is F and b != 0)
                marked += a is None or b is None
            assert len(segments) == len(knots) + 1
            assert list(knots) == sorted(set(knots)) and all(0 < t < 1 for t in knots)
            assert all(a >= 0 for a, _ in segments)
            for t, (a, b), (c, e) in zip(knots, segments, segments[1:]):
                assert a * t + b == c * t + e and (a, b) != (c, e)
            assert segments[0][1] == 0  # f(0) = 0
            maps += 1
        for base, f in program.outputs:
            assert sum(_exact(f)[1][-1]) == 1  # f(1) = 1
        for (_, f), (_, h) in program.mixes:
            # the two sides carry the weights s and 1 - s
            assert sum(_exact(f)[1][-1]) + sum(_exact(h)[1][-1]) == 1
            mixed += 1
    assert maps > 400 and mixed > 50 and marked > 100


ODD_DENOMINATORS = (3, 5, 7, 9, 11, 13, 31, 97)


def _odd_parameter(rng):
    """0, 1, or k/q for an odd q, reduced, so that most denominators are
    coprime to each other and to the knots' powers of 2."""
    q = rng.choice(ODD_DENOMINATORS)
    return rng.choice((F(0), F(1), F(rng.randint(1, q - 1), q), F(rng.randint(1, q - 1), q)))


def _assert_canonical(f):
    """A stored map (D, K, segments) in its one form: D the least common
    scale of its knots, K strictly inside (0, D), each slope and intercept a
    nonzero Fraction or a None marker, and continuous, monotone, distinct
    segments with f(0) = 0."""
    scale, ints, stored = f
    assert type(scale) is int and all(type(k) is int for k in ints)
    assert list(ints) == sorted(set(ints)) and all(0 < k < scale for k in ints)
    assert scale == math.lcm(*(F(k, scale).denominator for k in ints))
    for a, b in stored:
        assert a is not None or type(b) is F
        assert a is None or (type(a) is F and a > 0 and (b is None or (type(b) is F and b != 0)))
    knots, segments = _exact(f)
    assert len(segments) == len(knots) + 1
    for t, (a, b), (c, e) in zip(knots, segments, segments[1:]):
        assert a * t + b == c * t + e and (a, b) != (c, e)
    assert segments[0][1] == 0


def test_odd_coprime_parameters_compile_to_canonical_maps_that_match_the_interpreter():
    rng = random.Random(713)
    denominators = set()
    scales = set()
    negative = 0
    for k in range(420):
        g = _random_term(rng, 1 + k % 3, rng.randint(4, 60), parameter=_odd_parameter)
        denominators.update(p.denominator for v in g.vertices for p in v.params)
        d = k % 5
        first = tuple(random_point(rng, d) for _ in range(g.n))
        assert g._maps is None
        assert eval_term(g, first) == interpret(g, first)
        for _ in range(2):
            points = _special_points(rng, g, d)
            assert eval_term(g, points) == interpret(g, points)
        program = g._maps
        for f in _stored_maps(program):
            _assert_canonical(f)
            scales.add(f[0])
            negative += any(b is not None and b < 0 for _, b in f[2])
        for _, f in program.outputs:
            assert sum(_exact(f)[1][-1]) == 1  # f(1) = 1
        for (_, f), (_, h) in program.mixes:
            assert sum(_exact(f)[1][-1]) + sum(_exact(h)[1][-1]) == 1
    assert set(ODD_DENOMINATORS) | {1} <= denominators
    assert any(scale % 97 == 0 for scale in scales) and any(scale % 31 == 0 for scale in scales)
    assert negative > 100


def test_the_compiler_keeps_no_state_between_calls():
    def snapshot():
        return {name: (value, len(value) if isinstance(value, (dict, list, set)) else None)
                for name, value in vars(simplex).items()}

    before = snapshot()
    rng = random.Random(714)
    for k in range(200):
        parameter = _odd_parameter if k % 2 else _parameter
        g = _random_term(rng, 1 + k % 3, rng.randint(1, 40), parameter=parameter)
        twin = GraphTerm(g.n, g.m, g.vertices, g.edges)
        assert g == twin and g._maps is None and twin._maps is None
        eval_term(g, tuple(random_point(rng, 2) for _ in range(g.n)))
        eval_term(twin, tuple(random_point(rng, 1) for _ in range(g.n)))
        assert g._maps == twin._maps and g._maps is not twin._maps
    after = snapshot()
    assert after.keys() == before.keys()
    for name, (value, size) in before.items():
        assert after[name][0] is value, name
        assert after[name][1] == size, name


@pytest.mark.parametrize("call, message", [
    (lambda: codegeneracy(SimplexPoint((F(1, 2),)), 2), "codegeneracy index 2 outside 1..1"),
    (lambda: check_naturality(corolla("delta"), "x", 0, 1, 1, random.Random(0)),
     "unknown operator 'x'"),
    (lambda: check_naturality(corolla("delta"), "foo", 0, 1, 0, random.Random(0)),
     "unknown operator 'foo'"),
    (lambda: check_naturality(corolla("delta"), "delta", 99, 1, 0, random.Random(0)),
     "coface index 99 outside 0..2"),
    (lambda: check_naturality(corolla("delta"), "sigma", 0, 1, 0, random.Random(0)),
     "codegeneracy index 0 outside 1..2"),
    (lambda: eval_generator("foo", None, ()), "unknown generator 'foo'"),
    (lambda: face_action("foo", ()), "unknown generator 'foo'"),
], ids=["codegeneracy-index", "naturality-operator", "naturality-operator-no-sample",
        "naturality-coface-index-no-sample", "naturality-codegeneracy-index-no-sample",
        "eval-generator", "face-action"])
def test_guards_name_the_problem(call, message):
    with pytest.raises(GraphError) as info:
        call()
    assert str(info.value) == message


def _constant_evaluator(value):
    """An evaluator that moves every output coordinate to value(d), d the
    output point's dimension: a corrupted control for `check_naturality`."""
    def corrupted(g, points, d=None):
        return tuple(SimplexPoint((value(p.d),) * p.d) for p in eval_term(g, points, d))
    return corrupted


def test_naturality_reports_a_corrupted_evaluator(monkeypatch):
    g = corolla("delta")
    for op, index in (("delta", 0), ("sigma", 1)):
        assert check_naturality(g, op, index, 1, 10, random.Random(79)) == []
    # every coordinate at 1/2 moves the coface's new 0 ...
    monkeypatch.setattr(simplex, "eval_term", _constant_evaluator(lambda d: F(1, 2)))
    assert len(check_naturality(g, "delta", 0, 1, 10, random.Random(79))) == 10
    # ... but commutes with dropping a coordinate, as any coordinatewise map does
    assert check_naturality(g, "sigma", 1, 1, 10, random.Random(79)) == []
    # a value that depends on the dimension is caught across a codegeneracy too
    monkeypatch.setattr(simplex, "eval_term", _constant_evaluator(lambda d: F(1, d + 1)))
    for op, index in (("delta", 0), ("sigma", 1)):
        bad = check_naturality(g, op, index, 1, 10, random.Random(79))
        assert len(bad) == 10


# --- oracles: the evaluation route before the segment lookup read each
# coordinate's integers, kept as it was ------------------------------------

def _oracle_random_point(rng, d, denom=64) -> SimplexPoint:
    ints = sorted(rng.randint(0, denom) for _ in range(d))
    return SimplexPoint(tuple(Fraction(k, denom) for k in ints))


def _oracle_apply(f, xs):
    """The map f, in integer form, at each exact coordinate of xs."""
    if f is simplex._INT_IDENTITY:
        return xs
    scale, knots, segments = f
    out = []
    for x in xs:
        # the knots are integers, so K <= x*D exactly when K <= floor(x*D)
        a, b = segments[bisect_right(knots, x.numerator * scale // x.denominator)]
        # a constant segment, or one through 0, is marked None and needs one
        # Fraction operation or none
        out.append(b if a is None else a * x if b is None else a * x + b)
    return out


def _oracle_eval_term(g: GraphTerm, points, d=None):
    """Evaluate a term on one point per input; returns the output tuple.

    The term runs as its compiled `Program`, built on its first evaluation.
    """
    plan = plan_of(g)
    points = _inputs(g, points, d)
    program = g._maps if g._maps is not None else simplex._compile(g, plan)
    for i, j in program.joins:
        if points[i].d != points[j].d:
            raise GraphError("product needs points of equal dimension")
    values, floats = [], []  # per base: exact coordinates, and which were floats
    for p in points:
        if any(type(x) is float for x in p.coords):
            # exact at a float's binary value: a*x + b in floats cancels
            # badly on steep segments and can leave [0,1]
            values.append(tuple(Fraction(x) if type(x) is float else x for x in p.coords))
            floats.append(tuple(type(x) is float for x in p.coords))
        else:
            values.append(p.coords)
            floats.append(None)
    for (a, f), (b, h) in program.mixes:
        values.append(tuple(map(add, _oracle_apply(f, values[a]), _oracle_apply(h, values[b]))))
        fa, fb = floats[a], floats[b]
        floats.append(fb if fa is None else fa if fb is None else tuple(map(or_, fa, fb)))
    outs = []
    for base, f in program.outputs:
        coords = _oracle_apply(f, values[base])
        if floats[base] is not None:
            coords = [float(y) if r else y for y, r in zip(coords, floats[base])]
        outs.append(SimplexPoint(tuple(coords)))
    return tuple(outs)


def _typed(points):
    """Each coordinate of each point with its type: 1/2 and 0.5 differ."""
    return [[(type(x), x) for x in p.coords] for p in points]


def test_eval_term_matches_the_oracle_route_on_every_coordinate_type():
    """Fraction, int (0 and 1), float, mixed Fraction/float and mixed
    Fraction/int points, on 300 seeded terms of 20-60 vertices and 200 of
    1-19, whose maps are less often constant near 0 and 1."""
    rng = random.Random(725)
    routes = {"fraction": 0, "int": 0, "float": 0, "mixed": 0, "mixed-int": 0, "special": 0}
    mixes = 0
    for k in range(500):
        g = _random_term(rng, rng.randint(1, 3),
                         rng.randint(20, 60) if k < 300 else rng.randint(1, 19))
        d = rng.randint(0, 5)
        exact = tuple(random_point(rng, d) for _ in range(g.n))
        eval_term(g, exact)
        mixes += len(g._maps.mixes)
        cases = {
            "fraction": exact,
            "int": tuple(SimplexPoint(tuple(sorted(rng.randint(0, 1) for _ in range(d))))
                         for _ in range(g.n)),
            # k/64 is a float exactly, so either type keeps the point monotone
            "float": tuple(SimplexPoint(tuple(map(float, p.coords))) for p in exact),
            "mixed": tuple(SimplexPoint(tuple(float(x) if rng.random() < 0.5 else x
                                              for x in p.coords)) for p in exact),
            "mixed-int": tuple(SimplexPoint(tuple(int(x) if x in (0, 1) else x for x in p.coords))
                               for p in exact),
            "special": _special_points(rng, g, d),
        }
        for name, points in cases.items():
            assert _typed(eval_term(g, points)) == _typed(_oracle_eval_term(g, points)), name
            routes[name] += sum(len(p.coords) for p in points)
        special_floats = tuple(SimplexPoint(tuple(map(float, p.coords))) for p in cases["special"])
        assert _typed(eval_term(g, special_floats)) == _typed(_oracle_eval_term(g, special_floats))
    assert mixes > 100 and all(count > 500 for count in routes.values()), (mixes, routes)


def test_random_point_matches_the_oracle_draw_for_draw():
    """The same points, coordinate types and generator state, for the
    denominators that naturality and verify use and a few others."""
    for seed in range(300):
        for d in range(8):
            for denom in (8, 32, 64, 1, 63, 65, 1000, 10 ** 12):
                new, old = random.Random(seed), random.Random(seed)
                assert _typed((random_point(new, d, denom),)) == _typed(
                    (_oracle_random_point(old, d, denom),))
                assert new.getstate() == old.getstate()
    new, old = random.Random(0), random.Random(0)
    assert random_point(new, 4) == _oracle_random_point(old, 4)
    assert random_point(new, 0, 0) == _oracle_random_point(old, 0, 0) == SimplexPoint(())
    with pytest.raises(ZeroDivisionError):
        random_point(new, 1, 0)


def test_random_point_keeps_its_memory_bounded():
    """No table of a large denominator, and what stays behind after drawing
    for many denominators is bounded."""
    rng = random.Random(726)
    tracemalloc.start()
    try:
        # 10**6 first: a table of it would fail the bound long before one
        # of 10**12 could run out of memory
        for denom in (10 ** 6, 10 ** 12):
            tracemalloc.reset_peak()
            start = time.perf_counter()
            p = random_point(rng, 3, denom=denom)
            assert time.perf_counter() - start < 1.0
            assert tracemalloc.get_traced_memory()[1] < 2 ** 20
            assert p.d == 3 and all(type(x) is F and denom % x.denominator == 0 for x in p.coords)
        kept = tracemalloc.get_traced_memory()[0]
        for denom in range(1, 2000):
            for _ in range(3):
                random_point(rng, 3, denom)
        assert tracemalloc.get_traced_memory()[0] - kept < 2 ** 20
    finally:
        tracemalloc.stop()
