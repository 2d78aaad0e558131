import json
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations
from types import MappingProxyType

import pytest

from propcalc.errors import CompositionError, GraphError, InternalError, ParseError
from propcalc.graphs import (GraphTerm, Permutation, Plan, Vertex, Wiring, _kahn,
                             absorb_equivalences, canonical_form, from_json,
                             horizontal_compose, iso_equal, permutation_graph,
                             permute_inputs, permute_outputs, to_dot, to_json,
                             require_valid, topological_order, unit, validate,
                             vertical_compose)
from propcalc.chains import chain_eval
from propcalc.generators import corolla
from propcalc.simplex import eval_term, parse_point
from propcalc.surjections import (expand_graph, normalize, random_sterm, random_ws,
                                  shuffle_relations)
from propcalc.terms import parse


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


def test_exhaust_stops_when_no_redex_is_left():
    work = Wiring(1, 1)
    work.add_edge(("in", 0), ("out", 0))
    steps = []
    work.exhaust(lambda w: [len(steps), -1] if len(steps) < 3 else [],
                 lambda w, r: steps.append(r))
    assert steps == [0, 1, 2]  # the first listed redex, without an rng
    drawn = []
    work.exhaust(lambda w: [0, 1, 2, 3] if len(drawn) < 20 else [],
                 lambda w, r: drawn.append(r), rng=random.Random(5))
    expected = random.Random(5)
    assert drawn == [expected.choice([0, 1, 2, 3]) for _ in range(20)]


def test_exhaust_reads_only_the_first_redex_and_counts_the_rewrites():
    work = Wiring(1, 1)
    work.add_edge(("in", 0), ("out", 0))
    read = []
    steps = []

    def redexes(w):
        for r in range(len(steps), 10):
            read.append(r)
            yield r

    assert work.exhaust(redexes, lambda w, r: steps.append(r)) == 10
    assert steps == read == list(range(10))  # nothing read past the first
    steps.clear()
    drawn = random.Random(3)
    assert work.exhaust(redexes, lambda w, r: steps.append(r), rng=random.Random(3)) == 10
    assert steps == [drawn.choice(range(k, 10)) for k in range(10)]
    assert work.exhaust(lambda w: iter(()), lambda w, r: None) == 0


def test_exhaust_names_a_pass_that_does_not_terminate():
    work = Wiring(0, 0)
    with pytest.raises(InternalError, match="^spinning pass did not terminate$"):
        work.exhaust(lambda w: [0], lambda w, r: None, what="spinning pass")


@pytest.mark.parametrize("call, message", [
    (lambda: Vertex("foo"), "unknown vertex kind 'foo'"),
    (lambda: Vertex("mu", (0.5,)), "parameters must be exact Fractions"),
    (lambda: unit(-1), "unit arity must be nonnegative"),
    (lambda: permute_inputs(corolla("mu", (Fraction(1, 2),)), Permutation((1,))),
     "permutation degree 1 != 2 inputs"),
    (lambda: permute_outputs(unit(1), Permutation((2, 1))), "permutation degree 2 != 1 outputs"),
], ids=["vertex-kind", "vertex-param", "unit", "permute-inputs", "permute-outputs"])
def test_constructor_guards_name_the_problem(call, message):
    with pytest.raises(GraphError) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# oracle: the set-based `validate` body that the one-pass check replaced,
# copied unchanged; it stores its plan on the term it is given

def _set_based_validate(g: GraphTerm) -> list:
    if g._plan is not None:
        return []
    src = {}
    for s, dst in g.edges:
        if dst in src:
            return [f"target endpoint {dst} wired twice"]
        src[dst] = s
    tgt = {}
    for dst, s in src.items():
        if s in tgt:
            return [f"source endpoint {s} wired twice"]
        tgt[s] = dst

    expected_targets = {("out", j) for j in range(g.m)}
    expected_sources = {("in", i) for i in range(g.n)}
    for v, vert in enumerate(g.vertices):
        a, b = vert.arity
        expected_targets.update(("vi", v, k) for k in range(a))
        expected_sources.update(("vo", v, k) for k in range(b))
    problems = []
    for found, expected, what in ((src, expected_targets, "targets"),
                                  (tgt, expected_sources, "sources")):
        missing = expected - found.keys()
        extra = found.keys() - expected
        if missing:
            problems.append(f"unwired {what}: {sorted(missing)}")
        if extra:
            problems.append(f"bad slot arity, unexpected {what}: {sorted(extra)}")
    if problems:
        return problems

    try:
        order = tuple(_kahn(len(g.vertices), src, int))
    except GraphError as exc:
        return [str(exc)]
    object.__setattr__(g, "_plan", Plan(MappingProxyType(src), MappingProxyType(tgt), order))
    return []


def _validated_like_the_oracle(g):
    """validate's problems for a fresh copy of g, and that copy, after
    checking that the oracle finds the same problems or the same plan."""
    fresh, oracle = (GraphTerm(g.n, g.m, g.vertices, g.edges) for _ in range(2))
    problems = validate(fresh)
    assert problems == _set_based_validate(oracle), g
    if problems:
        assert fresh._plan is None
    else:
        plans = [(list(p.src.items()), list(p.tgt.items()), p.order)
                 for p in (fresh._plan, oracle._plan)]
        assert plans[0] == plans[1], g
    return problems, fresh


def _seeded_text(rng, layers, params, with_h=True):
    """Term-language text of up to `layers` layers over every atom, with
    each parameter drawn from `params`; "h" only when `with_h`."""
    width = rng.randint(1, 4)
    texts = []
    for _ in range(layers):
        atoms, left, out = [], width, 0
        while left:
            r = rng.random()
            if r < 0.15 and out < 6:
                atoms.append("delta")
                left, out = left - 1, out + 2
            elif r < 0.3 and left >= 2:
                atoms.append(f"mu({rng.choice(params)})")
                left, out = left - 2, out + 1
            elif r < 0.38 and with_h:
                atoms.append(f"h({rng.choice(params)})")
                left, out = left - 1, out + 1
            elif r < 0.45 and (out or left > 1):
                atoms.append("eps")
                left -= 1
            elif r < 0.52 and left >= 2:
                atoms.append("swap")
                left, out = left - 2, out + 2
            elif r < 0.62:
                image = list(range(1, rng.randint(1, left) + 1))
                rng.shuffle(image)
                atoms.append(f"{rng.choice(['sigma', 'tau'])}[{','.join(map(str, image))}]")
                left, out = left - len(image), out + len(image)
            elif r < 0.67:
                atoms.append("(delta ; (id | id) ; mu(1/3))")
                left, out = left - 1, out + 1
            else:
                atoms.append("id")
                left, out = left - 1, out + 1
        texts.append(" | ".join(atoms))
        width = out
    return " ; ".join(texts)


def _rebuilt(g, edges, perm=None):
    """g with the given edges, its vertices renumbered by `perm` if given."""
    if perm is None:
        return GraphTerm(g.n, g.m, g.vertices, frozenset(edges))

    def ren(ep):
        return (ep[0], perm[ep[1]], ep[2]) if ep[0] in ("vi", "vo") else ep

    vertices = [None] * len(g.vertices)
    for v, vert in enumerate(g.vertices):
        vertices[perm[v]] = vert
    return GraphTerm(g.n, g.m, tuple(vertices),
                     frozenset((ren(s), ren(d)) for s, d in edges))


def _corruptions(g, rng):
    """Seeded copies of the valid term g: an edge dropped, a target fed
    twice, a target and a source moved out of range, a source feeding two
    targets, the vertices renumbered (edges backward in index order, still
    acyclic) and, on the renumbered term, two targets' sources swapped
    (which may close a cycle)."""
    edges = sorted(g.edges)
    nv = len(g.vertices)
    k = rng.randrange(len(edges))
    s, d = edges[k]
    rest = edges[:k] + edges[k + 1:]
    bad_targets = [("out", g.m), ("out", -1), ("vi", nv, 0)]
    bad_targets += [("vi", v, vert.arity[0]) for v, vert in enumerate(g.vertices)]
    bad_sources = [("in", g.n), ("in", -1), ("vo", nv, 0)]
    bad_sources += [("vo", v, vert.arity[1]) for v, vert in enumerate(g.vertices)]
    perm = list(range(nv))
    rng.shuffle(perm)
    out = [_rebuilt(g, rest),
           _rebuilt(g, edges + [(rng.choice(edges)[0], d)]),
           _rebuilt(g, rest + [(s, rng.choice(bad_targets))]),
           _rebuilt(g, rest + [(rng.choice(bad_sources), d)]),
           _rebuilt(g, edges, perm)]
    if len(edges) >= 2:
        d2 = edges[k - 1][1]
        out.append(_rebuilt(g, [e for e in edges if e[1] != d2] + [(s, d2)]))
        i, j = rng.sample(range(len(edges)), 2)
        swapped = list(edges)
        swapped[i], swapped[j] = (edges[i][0], edges[j][1]), (edges[j][0], edges[i][1])
        out.append(_rebuilt(g, swapped, perm))
    return out


def test_validate_matches_the_set_based_body(monkeypatch):
    """Parsed terms, every term `Wiring.to_term` exports while normalizing,
    expanding and shuffling seeded inputs, and corruptions of each."""
    exported = []
    to_term = Wiring.to_term

    def recording(work):
        exported.append(to_term(work))
        return exported[-1]

    monkeypatch.setattr(Wiring, "to_term", recording)
    rng = random.Random(71)
    params = ["0", "1", "1/2", "007/016", "2/3"]
    terms = [parse(_seeded_text(rng, rng.randint(1, 40), params)) for _ in range(600)]
    for _ in range(400):
        normalize(parse(_seeded_text(rng, rng.randint(2, 16), ["0", "1", "1/2"], with_h=False)))
    normalizing = len(exported)
    for _ in range(700):
        shuffle_relations(expand_graph(random_ws(rng)), rng, rng.randint(1, 8))
    terms += exported
    assert normalizing >= 150 and len(terms) >= 2000
    seen = Counter()
    for g in terms:
        assert _validated_like_the_oracle(g)[0] == []
        for bad in _corruptions(g, rng):
            problems, fresh = _validated_like_the_oracle(bad)
            for p in problems:
                seen[p.split(" ")[0]] += 1
            if not problems:
                in_index_order = fresh._plan.order == tuple(range(len(fresh.vertices)))
                seen["valid, index order" if in_index_order else "valid, Kahn order"] += 1
    assert all(seen[kind] >= 100 for kind in ("unwired", "bad", "target", "source", "directed",
                                              "valid, index order", "valid, Kahn order")), seen


@pytest.mark.parametrize("g, problems", [
    (GraphTerm(1, 1, (Vertex("phi", (Fraction(1, 2),)),), frozenset({
        (("in", 0), ("vi", 0.0, 0)), (("vo", 0, 0), ("out", 0))})),
     ["non-int index in targets: [('vi', 0.0, 0)]"]),
    (GraphTerm(2, 2, (), frozenset({(("in", 0), ("out", 0)), (("in", 1), ("out", 1.0))})),
     ["non-int index in targets: [('out', 1.0)]"]),
    (GraphTerm(2, 1, (), frozenset({(("in", False), ("out", 0))})),
     ["unwired sources: [('in', 1)]", "non-int index in sources: [('in', False)]"]),
], ids=["vertex-slot", "output", "bool"])
def test_validate_requires_plain_int_indices(g, problems):
    assert validate(g) == problems and g._plan is None


def test_from_json_rejects_float_indices():
    doc = json.loads(to_json(corolla("delta")))
    doc["edges"][0][0][1] = 1.0
    with pytest.raises(GraphError, match=re.escape("non-int index in sources: [('in', 0.0)]")):
        from_json(json.dumps(doc))
    doc = json.loads(to_json(corolla("delta")))
    doc["edges"][-1][1][1] = 2.0
    with pytest.raises(GraphError, match=re.escape("non-int index in targets: [('out', 1.0)]")):
        from_json(json.dumps(doc))


def test_validate_orders_unexpected_endpoints_of_mixed_index_types():
    doc = json.loads(to_json(corolla("delta")))
    doc["edges"][0][1] = ["v", "a", "in", 1]
    doc["edges"][1][1] = ["v", 0, "in", 3]
    with pytest.raises(GraphError) as info:
        from_json(json.dumps(doc))
    assert str(info.value) == ("unwired targets: [('out', 0), ('vi', 0, 0)]; bad slot arity, "
                               "unexpected targets: [('vi', 0, 2), ('vi', 'a', 0)]")


_ENDPOINT_FORMAT = '["in" or "out", port] or ["v", vertex, "in" or "out", slot]'
_DOC_KEYS = ('expected an object with nonnegative int "inputs" and "outputs" '
             'and "vertices" and "edges" lists')


def _edited(edit):
    doc = json.loads(to_json(corolla("delta")))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    ("{", "not JSON (Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1))"),
    ("[]", _DOC_KEYS),
    (_edited(lambda d: d.pop("vertices")), _DOC_KEYS),
    (_edited(lambda d: d.pop("edges")), _DOC_KEYS),
    (_edited(lambda d: d.update(inputs="1")), _DOC_KEYS),
    (_edited(lambda d: d.update(outputs=-1)), _DOC_KEYS),
    (_edited(lambda d: d.update(inputs=True)), _DOC_KEYS),
    (_edited(lambda d: d["vertices"][0].pop("params")),
     'vertex {"kind": "delta"} is not a kind with a list of parameter strings'),
    (_edited(lambda d: d["vertices"][0].update(kind=["delta"])),
     'vertex {"kind": ["delta"], "params": []} is not a kind with a list of parameter strings'),
    (_edited(lambda d: d["vertices"].append({"kind": "mu", "params": [0.5]})),
     'vertex {"kind": "mu", "params": [0.5]} is not a kind with a list of parameter strings'),
    (_edited(lambda d: d["vertices"].append({"kind": "mu", "params": ["1/0"]})),
     'a parameter of vertex {"kind": "mu", "params": ["1/0"]} is not a fraction'),
    (_edited(lambda d: d["vertices"].append({"kind": "mu", "params": ["half"]})),
     'a parameter of vertex {"kind": "mu", "params": ["half"]} is not a fraction'),
    (_edited(lambda d: d["edges"].append([["in", 1]])),
     'edge [["in", 1]] is not a [source, target] pair'),
    (_edited(lambda d: d["edges"][0].__setitem__(0, ["v", 0])),
     f'endpoint ["v", 0] is not {_ENDPOINT_FORMAT}'),
    (_edited(lambda d: d["edges"][0].__setitem__(0, ["x", 0])),
     f'endpoint ["x", 0] is not {_ENDPOINT_FORMAT}'),
    (_edited(lambda d: d["edges"][0].__setitem__(0, ["in", "1"])),
     f'endpoint ["in", "1"] is not {_ENDPOINT_FORMAT}'),
    (_edited(lambda d: d["edges"][0].__setitem__(0, ["in", True])),
     f'endpoint ["in", true] is not {_ENDPOINT_FORMAT}'),
    (_edited(lambda d: d["edges"][0].__setitem__(1, ["v", [0], "in", 1])),
     f'endpoint ["v", [0], "in", 1] is not {_ENDPOINT_FORMAT}'),
    (_edited(lambda d: d["edges"][0].__setitem__(1, ["v", 0, "up", 1])),
     f'endpoint ["v", 0, "up", 1] is not {_ENDPOINT_FORMAT}'),
    (_edited(lambda d: d["edges"][0].__setitem__(1, "out")),
     f'endpoint "out" is not {_ENDPOINT_FORMAT}'),
], ids=["not-json", "not-object", "no-vertices", "no-edges", "str-inputs", "negative-outputs",
        "bool-inputs", "no-params", "list-kind", "float-param", "zero-denominator",
        "word-param", "short-edge", "short-endpoint", "bad-tag", "str-port", "bool-port",
        "list-vertex", "bad-side", "bare-tag"])
def test_from_json_names_a_malformed_document(text, message):
    with pytest.raises(ParseError) as info:
        from_json(text)
    assert str(info.value) == "graph term: " + message


def test_from_json_keeps_graph_errors_for_well_formed_documents():
    with pytest.raises(GraphError) as info:
        from_json(_edited(lambda d: d["vertices"][0].update(kind="foo")))
    assert str(info.value) == "unknown vertex kind 'foo'"
    with pytest.raises(GraphError) as info:
        from_json(_edited(lambda d: d.update(inputs=2)))
    assert str(info.value) == "unwired sources: [('in', 1)]"
    with pytest.raises(GraphError) as info:
        from_json(_edited(lambda d: d["edges"][0].__setitem__(1, ["v", None, "in", 1.5])))
    assert str(info.value) == ("unwired targets: [('vi', 0, 0)]; bad slot arity, "
                               "unexpected targets: [('vi', None, 0.5)]")


@pytest.mark.parametrize("g", [
    GraphTerm(-1, 0, (), frozenset()),
    # m = -1 balances the counts against the unwired input of the counit
    GraphTerm(0, -1, (Vertex("eps"),), frozenset()),
    GraphTerm(-2, -3, (), frozenset({(("in", 0), ("out", 0))})),
], ids=["inputs", "outputs", "both"])
def test_validate_refuses_a_negative_arity(g):
    message = f"term arity ({g.n}, {g.m}) must be nonnegative"
    assert validate(g) == [message] and g._plan is None
    for reader in (require_valid, chain_eval, lambda g: eval_term(g, ())):
        with pytest.raises(GraphError) as info:
            reader(g)
        assert str(info.value) == message
    assert g._plan is None and g._maps is None


def test_from_json_refuses_a_key_given_twice():
    text = to_json(corolla("delta"))
    assert text.count('"inputs": 1,') == 1
    with pytest.raises(ParseError) as info:
        from_json(text.replace('"inputs": 1,', '"inputs": 3,\n  "inputs": 1,'))
    assert str(info.value) == "graph term: key 'inputs' given twice"
    # in a nested object too
    with pytest.raises(ParseError) as info:
        from_json(text.replace('"params": []', '"params": [],\n      "kind": "eps"'))
    assert str(info.value) == "graph term: key 'kind' given twice"
    assert from_json(text) == corolla("delta")
