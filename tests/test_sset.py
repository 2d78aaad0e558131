import json
import random
from fractions import Fraction as F

import pytest

from propcalc.errors import GraphError, ParseError
from propcalc.simplex import SimplexPoint, random_point
from propcalc.sset import (Cell, FormalCell, RealizationPoint, SimplicialSet,
                           apply_word_to_point, canonicalize,
                           from_complex, pull_back_cell, realization_act,
                           sset_from_json, sset_to_json, standard_sset)
from propcalc.terms import parse


def circle_sset() -> SimplicialSet:
    """One vertex, one edge, both faces at the vertex."""
    pt = Cell("pt", 0)
    e = Cell("e", 1)
    return SimplicialSet([pt, e], {("e", 0): FormalCell((), pt),
                                   ("e", 1): FormalCell((), pt)})


def test_simplicial_identities_on_standard_simplex():
    ss = standard_sset(3)
    top = ss.nondegenerate("0,1,2,3")
    # d_i d_j = d_{j-1} d_i for i < j
    for j in range(4):
        for i in range(j):
            lhs = ss.face(ss.face(top, j), i)
            rhs = ss.face(ss.face(top, i), j - 1)
            assert lhs == rhs


def test_degeneracy_word_normalization():
    ss = circle_sset()
    e = ss.nondegenerate("e")
    s0e = ss.degeneracy(e, 0)
    s1s0e = ss.degeneracy(s0e, 1)
    s0s0e = ss.degeneracy(s0e, 0)
    assert s1s0e.word == (1, 0)
    assert s0s0e.word == (1, 0)  # s_0 s_0 = s_1 s_0
    # face identities through words: d_0 s_0 = id
    assert ss.face(s0e, 0) == e
    assert ss.face(s0e, 1) == e
    # d_2 s_0 e = s_0 d_1 e
    assert ss.face(s0e, 2) == ss.degeneracy(ss.face(e, 1), 0)


def test_admissible_word_enforced():
    with pytest.raises(GraphError):
        FormalCell((0, 1), Cell("x", 0))


def test_canonicalize_interior_point_is_fixed():
    ss = standard_sset(2)
    rp = RealizationPoint(ss.nondegenerate("0,1,2"),
                          SimplexPoint((F(1, 3), F(2, 3))))
    assert canonicalize(ss, rp) == rp


def test_canonicalize_face_points():
    ss = standard_sset(2)
    top = ss.nondegenerate("0,1,2")
    # x_1 = 0 lands in the last face, trailing 1 in the zeroth vertex side
    rp = canonicalize(ss, RealizationPoint(top, SimplexPoint((F(0), F(1, 2)))))
    assert rp.cell.base.name == "0,1" and rp.point.coords == (F(1, 2),)
    rp = canonicalize(ss, RealizationPoint(top, SimplexPoint((F(1, 2), F(1)))))
    assert rp.cell.base.name == "1,2" and rp.point.coords == (F(1, 2),)
    rp = canonicalize(ss, RealizationPoint(top, SimplexPoint((F(1, 4), F(1, 4)))))
    assert rp.cell.base.name == "0,2" and rp.point.coords == (F(1, 4),)
    rp = canonicalize(ss, RealizationPoint(top, SimplexPoint((F(0), F(1)))))
    assert rp.cell.base.dim == 0


def test_canonicalize_degenerate_cell():
    c = circle_sset()
    s0e = c.degeneracy(c.nondegenerate("e"), 0)
    rp = canonicalize(c, RealizationPoint(s0e, SimplexPoint((F(1, 3), F(1, 3)))))
    assert rp.cell == c.nondegenerate("e")
    assert rp.point.coords == (F(1, 3),)


def test_realization_act_identity_and_diagonal():
    ss = standard_sset(1)
    top = ss.nondegenerate("0,1")
    rp = RealizationPoint(top, SimplexPoint((F(1, 4),)))
    assert realization_act(ss, parse("id"), rp) == (canonicalize(ss, rp),)
    a, b = realization_act(ss, parse("delta"), rp)
    assert a.cell.base.name == "0" and a.cell.base.dim == 0
    assert b.cell == top and b.point.coords == (F(1, 2),)


def test_realization_act_requires_operadic_arity():
    ss = standard_sset(1)
    rp = RealizationPoint(ss.nondegenerate("0,1"), SimplexPoint((F(1, 4),)))
    with pytest.raises(GraphError):
        realization_act(ss, parse("mu(1/2)"), rp)


def test_well_definedness_on_equivalent_representatives():
    rng = random.Random(81)
    ss = standard_sset(2)
    cells_by_dim = {0: ["0", "1", "2"], 1: ["0,1", "0,2", "1,2"], 2: ["0,1,2"]}
    for _ in range(300):
        d = rng.randint(0, 2)
        word = []
        cur = d
        for _ in range(rng.randint(1, 3)):
            if cur == 0 or (rng.random() < 0.5 and cur < 2):
                word.append(("delta", rng.randint(0, cur + 1)))
                cur += 1
            else:
                word.append(("sigma", rng.randint(1, cur)))
                cur -= 1
        gamma = ss.nondegenerate(rng.choice(cells_by_dim[cur]))
        x = random_point(rng, d, denom=8)
        lhs = canonicalize(ss, RealizationPoint(
            pull_back_cell(ss, word, gamma), x))
        rhs = canonicalize(ss, RealizationPoint(
            gamma, apply_word_to_point(word, x)))
        assert lhs == rhs


def test_realization_action_well_defined_through_the_action():
    # acting commutes with canonicalization of equivalent representatives
    rng = random.Random(82)
    ss = standard_sset(2)
    g = parse("delta")
    top = ss.nondegenerate("0,1,2")
    for _ in range(100):
        x = random_point(rng, 1, denom=8)
        word = [("delta", rng.randint(0, 2))]
        lhs = realization_act(ss, g, RealizationPoint(
            pull_back_cell(ss, word, top), x))
        rhs = realization_act(ss, g, canonicalize(ss, RealizationPoint(
            top, apply_word_to_point(word, x))))
        assert lhs == rhs


def test_from_complex_builder():
    from propcalc.complexes import rp2
    ss = from_complex(rp2())
    cell = ss.nondegenerate("1,2,3")
    assert cell.dim == 2
    assert ss.face(cell, 0).base.name == "2,3"


def test_sset_json_round_trip():
    from propcalc.sset import sset_from_json, sset_to_json
    c = circle_sset()
    c2 = sset_from_json(sset_to_json(c))
    e = c2.nondegenerate("e")
    assert c2.face(e, 0) == c2.face(e, 1) == c2.nondegenerate("pt")
    s0e = c2.degeneracy(e, 0)
    assert c2.face(s0e, 2) == c2.degeneracy(c2.face(e, 1), 0)


@pytest.mark.parametrize("call, message", [
    (lambda: SimplicialSet([Cell("pt", 0), Cell("e", 1)], {("e", 0): FormalCell((), Cell("pt", 0))}),
     "missing face d_1 of e"),
    (lambda: standard_sset(2).face(standard_sset(2).nondegenerate("0,1,2"), 3),
     "face index 3 outside 0..2"),
    (lambda: standard_sset(2).degeneracy(standard_sset(2).nondegenerate("0,1,2"), 3),
     "degeneracy index 3 outside 0..2"),
    (lambda: standard_sset(2).face(standard_sset(2).nondegenerate("0"), 0),
     "vertex has no faces"),
    (lambda: RealizationPoint(standard_sset(2).nondegenerate("0,1,2"), SimplexPoint((F(1, 2),))),
     "cell dimension does not match the point"),
], ids=["missing-face", "face-index", "degeneracy-index", "face-of-a-vertex", "point-dimension"])
def test_guards_name_the_problem(call, message):
    with pytest.raises(GraphError) as info:
        call()
    assert str(info.value) == message


def _document(cells, faces=None):
    doc = {"cells": cells}
    if faces is not None:
        doc["faces"] = faces
    return json.dumps(doc)


CIRCLE_CELLS = [["pt", 0], ["e", 1]]

MALFORMED_DOCUMENTS = [
    ("{}", ParseError, 'simplicial set: expected an object with a "cells" list'),
    ("[1]", ParseError, 'simplicial set: expected an object with a "cells" list'),
    ('{"cells": 3}', ParseError, 'simplicial set: expected an object with a "cells" list'),
    ("{", ParseError, "simplicial set: not JSON (Expecting property name enclosed in double "
                      "quotes: line 1 column 2 (char 1))"),
    ('{"cells": [], "cells": []}', ParseError, "simplicial set: key 'cells' given twice"),
    (_document([["pt", 0], ["e"]]), ParseError,
     'simplicial set: cell ["e"] is not a [name, dimension] pair'),
    (_document([["pt", -1]]), ParseError,
     'simplicial set: cell ["pt", -1] is not a [name, dimension] pair'),
    (_document([["pt", True]]), ParseError,
     'simplicial set: cell ["pt", true] is not a [name, dimension] pair'),
    (_document([[0, 0]]), ParseError,
     "simplicial set: cell [0, 0] is not a [name, dimension] pair"),
    (_document(CIRCLE_CELLS, []), ParseError,
     'simplicial set: "faces" must be an object'),
    (_document(CIRCLE_CELLS, {"e": "pt"}), ParseError,
     "simplicial set: faces of 'e' must be a list"),
    (_document(CIRCLE_CELLS, {"e": [[[], "pt"], ["pt"]]}), ParseError,
     "simplicial set: face d_1 of 'e' is not a [degeneracy word, base name] pair"),
    (_document(CIRCLE_CELLS, {"e": [[[], "pt"], [[-1], "pt"]]}), ParseError,
     "simplicial set: face d_1 of 'e' is not a [degeneracy word, base name] pair"),
    (_document([["pt", 0], ["pt", 0]]), GraphError, "duplicate cell 'pt'"),
    (_document([["pt", 0]], {"e": [[[], "pt"], [[], "pt"]]}), GraphError,
     "faces given for undeclared cell 'e'"),
    (_document(CIRCLE_CELLS, {"e": [[[], "pt"]] * 3}), GraphError,
     "cell 'e' of dimension 1 needs 2 faces, got 3"),
    (_document(CIRCLE_CELLS, {"e": [[[], "pt"]]}), GraphError,
     "cell 'e' of dimension 1 needs 2 faces, got 1"),
    (_document(CIRCLE_CELLS), GraphError, "cell 'e' of dimension 1 needs 2 faces, got 0"),
    (_document(CIRCLE_CELLS, {"e": [[[], "pt"], [[], "pt"]], "pt": [[[], "pt"]]}), GraphError,
     "cell 'pt' of dimension 0 needs 0 faces, got 1"),
    (_document(CIRCLE_CELLS, {"e": [[[], "pt"], [[], "x"]]}), GraphError,
     "face d_1 of 'e': unknown cell 'x'"),
    (_document(CIRCLE_CELLS + [["f", 1]], {"e": [[[], "f"], [[], "pt"]], "f": [[[], "pt"]] * 2}),
     GraphError, "face d_0 of 'e' has dimension 1, not 0"),
    (_document(CIRCLE_CELLS + [["t", 2]], {"e": [[[], "pt"]] * 2, "t": [[[], "pt"]] * 3}),
     GraphError, "face d_0 of 't' has dimension 0, not 1"),
    (_document(CIRCLE_CELLS + [["t", 2]], {"e": [[[], "pt"]] * 2, "t": [[[0, 1], "pt"]] * 3}),
     GraphError, "degeneracy word (0, 1) not admissible"),
    (_document(CIRCLE_CELLS + [["t", 2]], {"e": [[[], "pt"]] * 2, "t": [[[1], "pt"]] * 3}),
     GraphError, "face d_0 of 't': degeneracy s_1 outside 0..0"),
]


@pytest.mark.parametrize("text, error, message", MALFORMED_DOCUMENTS,
                         ids=[f"doc{k}" for k in range(len(MALFORMED_DOCUMENTS))])
def test_the_reader_refuses_documents_that_are_not_simplicial_sets(text, error, message):
    with pytest.raises(error) as info:
        sset_from_json(text)
    assert type(info.value) is error and str(info.value) == message


def test_the_reader_accepts_degenerate_faces_and_the_standard_simplex():
    doc = _document(CIRCLE_CELLS + [["t", 2]],
                    {"e": [[[], "pt"]] * 2, "t": [[[0], "pt"], [[], "e"], [[], "e"]]})
    ss = sset_from_json(doc)
    t = ss.nondegenerate("t")
    assert ss.face(t, 0) == ss.degeneracy(ss.nondegenerate("pt"), 0)
    assert sset_to_json(sset_from_json(sset_to_json(ss))) == sset_to_json(ss)
    simplex3 = standard_sset(3)
    assert sset_to_json(sset_from_json(sset_to_json(simplex3))) == sset_to_json(simplex3)


def test_an_unknown_cell_name_is_a_graph_error():
    with pytest.raises(GraphError) as info:
        circle_sset().nondegenerate("x")
    assert str(info.value) == "unknown cell 'x'"


def test_the_reader_refuses_a_key_given_twice_in_any_object():
    text = _document(CIRCLE_CELLS, {"e": [[[], "pt"], [[], "pt"]]})
    assert sset_from_json(text).cells
    with pytest.raises(ParseError) as info:
        sset_from_json(text.replace('{"e":', '{"e": [], "e":'))
    assert str(info.value) == "simplicial set: key 'e' given twice"
