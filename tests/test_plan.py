"""The incidence plan a graph term keeps once it has been found valid."""

import pickle
import random
import re
from fractions import Fraction

import pytest

from propcalc.errors import GraphError
from propcalc.generators import (S, apply_attaching, apply_relations_S, check_edge_weights,
                                 to_edge_weights)
from propcalc.graphs import (GraphTerm, Vertex, Wiring, plan_of, sources_by_target,
                             targets_by_source, topological_order, validate)
from propcalc.surjections import eliminate_counits, leibniz_push, normalize, random_sterm
from propcalc.terms import parse


def _kahn_oracle(g):
    """Smallest ready index first, recomputed from the edge set at every step."""
    preds = {v: set() for v in range(len(g.vertices))}
    for src, dst in g.edges:
        if src[0] == "vo" and dst[0] == "vi":
            preds[dst[1]].add(src[1])
    order = []
    while preds:
        v = min(u for u, ps in preds.items() if not ps - set(order))
        order.append(v)
        del preds[v]
    return order


def _seeded_terms(count, seed):
    rng = random.Random(seed)
    return [random_sterm(rng, max_vertices=rng.choice([4, 12, 24])) for _ in range(count)]


def test_plan_matches_the_edge_set_on_seeded_terms():
    for g in _seeded_terms(300, 5):
        assert g._plan is None
        plan = plan_of(g)
        assert plan.src == {dst: src for src, dst in g.edges}
        assert plan.tgt == {src: dst for src, dst in g.edges}
        assert list(plan.order) == list(topological_order(g)) == _kahn_oracle(g)
        assert list(topological_order(g, key=lambda v: v)) == list(plan.order)
        assert sources_by_target(g) is plan.src and targets_by_source(g) is plan.tgt


def test_the_plan_is_written_once_and_is_read_only():
    g = parse("delta ; (id | delta) ; (mu(1/3) | id)")
    plan = plan_of(g)
    assert validate(g) == [] and plan_of(g) is plan
    with pytest.raises(TypeError):
        plan.src[("out", 0)] = ("in", 0)
    with pytest.raises(TypeError):
        del plan.tgt[("in", 0)]
    with pytest.raises(AttributeError):
        plan.order = ()


def test_the_plan_leaves_equality_hashing_and_pickling_alone():
    g = parse("delta ; mu(1/2)")
    fresh = parse("delta ; mu(1/2)")
    plan_of(g)
    assert g == fresh and hash(g) == hash(fresh) and fresh._plan is None
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy._plan is None
    assert plan_of(copy).src == plan_of(g).src


CYCLE = GraphTerm(1, 1, (Vertex("mu", (Fraction(1, 2),)), Vertex("delta")), frozenset({
    (("in", 0), ("vi", 0, 0)), (("vo", 1, 0), ("vi", 0, 1)),
    (("vo", 0, 0), ("vi", 1, 0)), (("vo", 1, 1), ("out", 0))}))
ARITY = GraphTerm(3, 1, (Vertex("mu", (Fraction(1, 2),)),), frozenset({
    (("in", 0), ("vi", 0, 0)), (("in", 1), ("vi", 0, 1)), (("in", 2), ("vi", 0, 2)),
    (("vo", 0, 0), ("out", 0))}))
TARGET_TWICE = GraphTerm(2, 1, (), frozenset({
    (("in", 0), ("out", 0)), (("in", 1), ("out", 0))}))
SOURCE_TWICE = GraphTerm(1, 2, (), frozenset({
    (("in", 0), ("out", 0)), (("in", 0), ("out", 1))}))
UNWIRED = GraphTerm(1, 1, (Vertex("delta"),), frozenset({
    (("in", 0), ("vi", 0, 0)), (("vo", 0, 0), ("out", 0))}))


@pytest.mark.parametrize("g, problems", [
    (CYCLE, ["directed cycle through vertices [0, 1]"]),
    (ARITY, ["bad slot arity, unexpected targets: [('vi', 0, 2)]"]),
    (TARGET_TWICE, ["target endpoint ('out', 0) wired twice"]),
    (SOURCE_TWICE, ["source endpoint ('in', 0) wired twice"]),
    (UNWIRED, ["unwired sources: [('vo', 0, 1)]"]),
], ids=["cycle", "arity", "target-twice", "source-twice", "unwired"])
def test_invalid_terms_keep_their_problems_and_get_no_plan(g, problems):
    assert validate(g) == problems
    assert validate(g) == problems
    assert g._plan is None
    for read in (sources_by_target, targets_by_source, plan_of, topological_order):
        with pytest.raises(GraphError, match=re.escape("; ".join(problems))):
            read(g)
    assert g._plan is None


def _snapshot(g):
    plan = plan_of(g)
    return plan, dict(plan.src), dict(plan.tgt), plan.order


def _no_internal_counits(g):
    return eliminate_counits(g) if g.m else None


@pytest.mark.parametrize("prepare, rewrite", [
    (None, lambda g: apply_attaching(g, S)),
    (None, apply_relations_S),
    (None, normalize),
    (_no_internal_counits, leibniz_push),
], ids=["apply_attaching", "apply_relations_S", "normalize", "leibniz_push"])
def test_rewrites_leave_their_input_plan_unchanged(prepare, rewrite):
    rng = random.Random(11)
    for g in _seeded_terms(60, 13):
        verts = tuple(Vertex("mu", (Fraction(rng.randint(0, 1)),))
                      if vert.kind == "mu" and rng.random() < 0.3 else vert
                      for vert in g.vertices)
        g = GraphTerm(g.n, g.m, verts, g.edges)
        if prepare is not None:
            g = prepare(g)
            if g is None:
                continue
        before = _snapshot(g)
        rewrite(g)
        plan = g._plan
        assert plan is before[0]
        assert (dict(plan.src), dict(plan.tgt), plan.order) == before[1:]


def test_wiring_copies_the_plan_maps():
    g = parse("delta ; mu(1/4)")
    plan, src, tgt, order = _snapshot(g)
    work = Wiring.from_term(g)
    assert work.src == src and work.src is not plan.src
    assert work.tgt == tgt and work.tgt is not plan.tgt
    work.del_edge(("out", 0))
    assert (dict(plan.src), dict(plan.tgt)) == (src, tgt)


def test_edge_weighting_check_reads_inflow_and_outflow_per_slot():
    g = parse("delta ; (delta | id) ; (mu(1/3) | eps)")
    weights = to_edge_weights(g)
    assert check_edge_weights(g, weights) == []
    bumped = {dst: w + Fraction(1, 5) if dst[0] == "vi" and dst[2] == 1 else w
              for dst, w in weights.items()}
    assert check_edge_weights(g, bumped) == [
        "vertex 1 (delta): inflow 1 != outflow 6/5",
        "vertex 2 (mu): inflow 6/5 != outflow 1"]
