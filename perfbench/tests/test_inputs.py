"""The sized generators reach their sizes, and each knob scales the work."""

import random

import pytest

from propcalc import chains, complexes, graphs, simplex, surjections, terms

import inputs
import run
import workloads


@pytest.mark.parametrize("n,m,r", [(1, 2, 2), (1, 3, 9), (2, 3, 16), (3, 2, 24), (2, 1, 2)])
def test_sample_type_reaches_its_size(n, m, r):
    rng = random.Random(f"{n}{m}{r}")
    for _ in range(20):
        t = inputs.sample_type(rng, n, m, r)
        assert (t.n, t.m, t.r) == (n, m, r)
        x = inputs.sample_weights(rng, t)
        assert x.stype == t and x.is_interior


def test_sample_type_rejects_impossible_sizes():
    for n, m, r in [(1, 1, 2), (3, 2, 2), (1, 4, 3)]:
        with pytest.raises(ValueError):
            inputs.sample_type(random.Random(0), n, m, r)


@pytest.mark.parametrize("n,V", [(1, 1), (1, 12), (2, 40), (3, 120)])
def test_build_term_reaches_exactly_v_vertices(n, V):
    rng = random.Random(V)
    g, layers = inputs.build_term(rng, n, V)
    assert len(g.vertices) == V and g.n == n and g.m >= 1
    assert graphs.validate(g) == []
    for _ in range(5):
        pts = tuple(simplex.random_point(rng, 3) for _ in range(n))
        assert workloads.eval_layers(layers, pts) == simplex.eval_term(g, pts)


def test_random_sterm_cannot_reach_benchmark_sizes():
    """Why build_term exists: random_sterm stays small whatever the cap."""
    rng = random.Random(1)
    sizes = [len(surjections.random_sterm(rng, max_vertices=200).vertices)
             for _ in range(200)]
    assert sum(sizes) / len(sizes) < 10


def test_render_round_trips_through_the_parser():
    rng = random.Random(5)
    for _ in range(10):
        g, _ = inputs.build_term(rng, rng.randint(1, 3), 25)
        assert graphs.iso_equal(terms.parse(inputs.render(g)), g)
    for _ in range(10):
        x = inputs.sample_weights(rng, inputs.sample_type(rng, 2, 3, 8))
        g = surjections.shuffle_relations(surjections.expand_graph(x), rng, 8)
        assert graphs.iso_equal(terms.parse(inputs.render(g)), g)
        assert surjections.normalize(terms.parse(inputs.render(g))) == x


@pytest.mark.parametrize("k", [0, 1, 2])
def test_subdivided_rp2(k):
    K = inputs.subdivided(complexes.rp2(), k)
    assert len(K.simplices(2)) == 10 * 6 ** k
    assert K.euler_characteristic() == 1
    g = complexes.representative_cocycle(K, 1)
    sq1 = chains.steenrod_square(1, g, K)
    assert len(sq1) % 2 == 1   # Sq^1 of the generator pairs to 1 with [RP^2]
    assert complexes.SimplicialComplex.from_text(inputs.complex_to_text(K)).simplices(2) \
        == K.simplices(2)


# each knob must raise the work a workload does, counted by the tracer
SCALING = [
    ("compose", {"r": 4, "moves": 2, "pool": 3}, "r", 10, "terms.parse.chars"),
    ("compose", {"r": 6, "moves": 0, "pool": 3}, "moves", 12, "terms.parse.chars"),
    ("act", {"d": 2, "pool": 3}, "d", 4, "chains.act_type.combos"),
    ("act", {"d": 3, "degree": 1, "pool": 3}, "degree", 3, "chains.act_type.combos"),
    ("steenrod", {"k": 0, "pool": 2}, "k", 1, "chains.cup_i.simplices_scanned"),
    ("evaluate", {"V": 6, "P": 1, "pool": 3}, "V", 24, "simplex.eval_term.vertices"),
    ("evaluate", {"V": 6, "P": 1, "pool": 3}, "P", 4, "simplex.eval_term.calls"),
    ("evaluate", {"V": 6, "d": 1, "P": 1, "pool": 3}, "d", 6, "simplex.eval_term.coords_in"),
]


def _counts(name, knobs, tmp_path):
    workload = workloads.WORKLOADS[name]
    knobs = dict(workload.knobs, **knobs)
    harness, metrics, _ = run.traced(workload, knobs, 3, 0, str(tmp_path / "w"),
                                     str(tmp_path / "spans.tsv.gz"))
    assert harness.failed == 0
    return {key: value for key, (value, _) in metrics.items()}


@pytest.mark.parametrize("name,small,knob,big,metric", SCALING)
def test_each_knob_scales_the_work(name, small, knob, big, metric, tmp_path):
    low = _counts(name, small, tmp_path)
    high = _counts(name, dict(small, **{knob: big}), tmp_path)
    assert high[metric] > low[metric] > 0
