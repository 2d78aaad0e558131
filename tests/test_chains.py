import functools
import gc
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest

from propcalc import chains
from propcalc.chains import (ChainElement, act, act_type, chain_compose,
                             chain_eval, compose_types,
                             cup_i, cup_type, delta_type, differential,
                             diff_type, eps_type,
                             face_boundary, horizontal_chain, identity_type,
                             mu_type, tensor_boundary)
from propcalc.complexes import SimplicialComplex, _rref, circle, coboundary, rp2
from propcalc.errors import CompositionError, GraphError
from propcalc.graphs import NPARAMS, GraphTerm, Permutation, Vertex, plan_of
from propcalc.surjections import (SurjType, enumerate_basis, expand_graph, normalize,
                                  permute_inputs_type, permute_outputs_type, random_stype,
                                  random_sterm, uniform_weights)
from propcalc.terms import parse


# --- oracles: independent routes the library does not need ------------------

def differential_via_graphs(t: SurjType) -> ChainElement:
    """Boundary computed the long way, as an independent route.

    Re-expand the cell into its canonical graph, replace each product
    vertex by each of its two attaching endpoints, normalize every summand
    and keep the ones of the expected dimension, mod 2.
    """
    g = expand_graph(uniform_weights(t))
    result = ChainElement.zero(t.n, t.m, t.degree - 1)
    for v, vert in enumerate(g.vertices):
        if vert.kind != "mu":
            continue
        for endpoint in (Fraction(0), Fraction(1)):
            verts = list(g.vertices)
            verts[v] = type(vert)("mu", (endpoint,))
            g2 = GraphTerm(g.n, g.m, tuple(verts), g.edges)
            y = normalize(g2)
            if y.degree == t.degree - 1:
                result = result + ChainElement.of(y.stype)
    return result


def permute_inputs_chain(x: ChainElement, sigma: Permutation) -> ChainElement:
    return ChainElement(x.n, x.m, x.degree,
                        frozenset(permute_inputs_type(t, sigma) for t in x.support))


def permute_outputs_chain(x: ChainElement, tau: Permutation) -> ChainElement:
    return ChainElement(x.n, x.m, x.degree,
                        frozenset(permute_outputs_type(t, tau) for t in x.support))


def splittings(face, r):
    """All ways to cut a face into r consecutive pieces sharing endpoints."""
    q = len(face) - 1
    for cuts in combinations_with_replacement(range(q + 1), r - 1):
        prev = 0
        pieces = []
        for c in cuts:
            pieces.append(face[prev:c + 1])
            prev = c
        pieces.append(face[prev:])
        yield tuple(pieces)


def faces_of(d):
    vs = range(d + 1)
    return [tuple(c) for k in range(1, d + 2) for c in combinations(vs, k)]


# --- differential ----------------------------------------------------------

def test_differential_degree_zero_generator():
    assert differential(delta_type()).is_zero()
    assert differential(eps_type()).is_zero()


def test_differential_cup_one_generator():
    d = differential(SurjType(1, 2, ((1, 2, 1),)))
    assert {t.blocks for t in d.support} == {((1, 2),), ((2, 1),)}


def test_differential_of_product_is_the_two_caps():
    d = differential(mu_type())
    assert {t.blocks for t in d.support} == {((), (1,)), ((1,), ())}


def test_differential_drops_degenerate_faces():
    d = differential(SurjType(1, 2, ((1, 2, 1, 2),)))
    assert {t.blocks for t in d.support} == {((2, 1, 2),), ((1, 2, 1),)}


def test_d_squared_zero_exhaustive_small():
    for n in (1, 2):
        for m in (1, 2, 3):
            for k in range(0, 3):
                for t in enumerate_basis(n, m, k):
                    assert differential(differential(t)).is_zero()


def _one_input_homology(m, top):
    """GF(2) Betti numbers of the (1, m) chains in degrees 0..top - 1; the
    ranks of the boundaries diff_type: C_k -> C_(k-1) come from `_rref` on
    bitmask rows indexed by the basis of C_(k-1)."""
    bases = [enumerate_basis(1, m, k) for k in range(top + 1)]
    ranks = [0]
    for k in range(1, top + 1):
        index = {t: j for j, t in enumerate(bases[k - 1])}
        rows = [sum(1 << index[s] for s in diff_type(t)) for t in bases[k]]
        ranks.append(len(_rref(rows)[0]))
    return [len(bases[k]) - ranks[k] - ranks[k + 1] for k in range(top)]


@pytest.mark.parametrize("m, top", [(1, 5), (2, 5), (3, 5), (4, 4)])
def test_one_input_chains_are_acyclic_below_the_top_degree(m, top):
    """The E-infinity claim in arity m: H_0 = F2 and H_k = 0 for 0 < k < top."""
    assert _one_input_homology(m, top) == [1] + [0] * (top - 1)


def test_differential_agrees_with_graph_expansion_route():
    rng = random.Random(51)
    checked = 0
    for n in (1, 2):
        for m in (1, 2):
            for k in range(0, 3):
                for t in enumerate_basis(n, m, k):
                    assert differential(t) == differential_via_graphs(t)
                    checked += 1
    for _ in range(40):
        t = random_stype(rng, max_n=3, max_m=3, max_degree=2)
        assert differential(t) == differential_via_graphs(t)
    assert checked > 20


def test_differential_is_a_derivation_for_composition():
    rng = random.Random(52)
    for _ in range(150):
        t1 = random_stype(rng, max_n=2, max_m=2, max_degree=2)
        while True:
            t2 = random_stype(rng, max_n=3, max_m=2, max_degree=2)
            if t2.n == t1.m:
                break
        x, y = ChainElement.of(t1), ChainElement.of(t2)
        lhs = differential(chain_compose(x, y))
        rhs = (chain_compose(differential(x), y)
               + chain_compose(x, differential(y)))
        assert lhs == rhs


# --- the action ------------------------------------------------------------

def test_act_diagonal_on_an_edge():
    assert act_type(delta_type(), ((0, 1),)) == frozenset(
        {((0,), (0, 1)), ((0, 1), (1,))})


def test_act_join():
    assert act_type(mu_type(), ((0,), (1, 2))) == frozenset({((0, 1, 2),)})
    assert act_type(mu_type(), ((0, 1), (1, 2))) == frozenset()


def test_act_counit():
    assert act_type(eps_type(), ((0, 1),)) == frozenset()
    assert act_type(eps_type(), ((3,),)) == frozenset({()})


def test_act_arity_checked():
    with pytest.raises(GraphError):
        act_type(mu_type(), ((0,),))


def test_chain_map_property_sample():
    rng = random.Random(53)
    for _ in range(250):
        t = random_stype(rng, max_n=2, max_m=3, max_degree=2)
        x = ChainElement.of(t)
        dx = differential(x)
        d = rng.randint(1, 4)
        tensor = tuple(rng.choice(faces_of(d)) for _ in range(t.n))
        lhs = act(dx, [tensor])
        rhs = tensor_boundary(act(x, [tensor])) ^ act(x, list(
            {tensor[:i] + (df,) + tensor[i + 1:]
             for i in range(len(tensor)) for df in face_boundary(tensor[i])}))
        assert lhs == rhs


def test_act_respects_operadic_composition():
    rng = random.Random(54)
    for _ in range(200):
        top = random_stype(rng, max_n=1, max_m=3, max_degree=2)
        bots = [random_stype(rng, max_n=1, max_m=2, max_degree=1)
                for _ in range(top.m)]
        bottom = ChainElement.of(bots[0])
        for y in bots[1:]:
            bottom = horizontal_chain(bottom, ChainElement.of(y))
        xc = ChainElement.of(top)
        comp = chain_compose(xc, bottom)
        f = tuple(range(rng.randint(1, 5)))
        assert act(comp, [(f,)]) == act(bottom, act(xc, [(f,)]))


def test_act_respects_horizontal_composition():
    rng = random.Random(55)
    for _ in range(100):
        t1 = random_stype(rng, max_n=2, max_m=2, max_degree=1)
        t2 = random_stype(rng, max_n=1, max_m=2, max_degree=1)
        h = ChainElement.of(t1)
        h = horizontal_chain(h, ChainElement.of(t2))
        tensor = tuple(rng.choice(faces_of(3)) for _ in range(t1.n + t2.n))
        lhs = act(h, [tensor])
        rhs = frozenset()
        for o1 in act_type(t1, tensor[:t1.n]):
            for o2 in act_type(t2, tensor[t1.n:]):
                rhs ^= {o1 + o2}
        assert lhs == rhs


def test_act_equivariance():
    rng = random.Random(56)
    count = 0
    while count < 100:
        t = random_stype(rng, max_n=2, max_m=2, max_degree=1)
        if t.n != 2 or t.m != 2:
            continue
        count += 1
        x = ChainElement.of(t)
        sigma = Permutation((2, 1))
        tau = Permutation((2, 1))
        tensor = tuple(rng.choice(faces_of(3)) for _ in range(2))
        # inputs: acting on the permuted element equals permuting the tensor
        lhs = act(permute_inputs_chain(x, sigma), [tensor])
        rhs = act(x, [(tensor[1], tensor[0])])
        assert lhs == rhs
        # outputs: permuting the result
        lhs = act(permute_outputs_chain(x, tau), [tensor])
        rhs = frozenset((o2, o1) for o1, o2 in act(x, [tensor]))
        assert lhs == rhs


def test_coassociativity_and_counit_laws_on_faces():
    for d in range(0, 7):
        for f in faces_of(d):
            one = act_type(delta_type(), (f,))
            lhs = frozenset()
            rhs = frozenset()
            for p, q in one:
                for p1, p2 in act_type(delta_type(), (p,)):
                    lhs ^= {(p1, p2, q)}
                for q1, q2 in act_type(delta_type(), (q,)):
                    rhs ^= {(p, q1, q2)}
            assert lhs == rhs
            assert frozenset((q,) for p, q in one if len(p) == 1) == {(f,)}
            assert frozenset((p,) for p, q in one if len(q) == 1) == {(f,)}


# --- the chain class of a term ----------------------------------------------

def test_chain_eval_generators():
    assert chain_eval(parse("mu(1/2)")).support == frozenset({mu_type()})
    assert chain_eval(parse("delta")).support == frozenset({delta_type()})
    assert chain_eval(parse("h(1/2)")).is_zero()


def test_chains_S_relations_hold_in_the_quotient():
    # productcounit
    assert chain_eval(parse("mu(1/2) ; eps")).is_zero()
    # left and right counitality
    left = chain_eval(parse("delta ; (eps | id)"))
    right = chain_eval(parse("delta ; (id | eps)"))
    assert left.support == right.support == frozenset({identity_type(1)})


def test_chain_eval_respects_the_quotient():
    lhs = chain_eval(parse("delta ; (delta | id)"))
    rhs = chain_eval(parse("delta ; (id | delta)"))
    assert lhs == rhs
    # the involution collapses the bubble cell, so its chain class is zero
    bubble = chain_eval(parse("delta ; mu(1/2)"))
    assert bubble.is_zero() and bubble.degree == 1


def test_compose_types_cup_composition():
    # the coproduct below two coproducts: all splittings of degree 0
    out = compose_types(delta_type(), horizontal_chain(
        ChainElement.of(delta_type()), ChainElement.of(identity_type(1))).support.__iter__().__next__())
    assert out == frozenset({SurjType(1, 3, ((1, 2, 3),))})


def test_cup_type_shape():
    assert cup_type(0) == delta_type()
    assert cup_type(2).blocks == ((1, 2, 1, 2),)
    assert cup_type(3).degree == 3


def test_splittings_count():
    # r pieces of a q-simplex: binomial(q + r - 1, r - 1)
    assert len(list(splittings((0, 1, 2), 2))) == 3
    assert len(list(splittings((0, 1), 3))) == 3
    assert list(splittings((0,), 1)) == [((0,),)]


# --- the interval-cut enumerator against brute force -------------------------

def brute_force_act(t, faces):
    """Every product of splittings, joined afterwards; zero on any overlap."""
    options = []
    for blk, face in zip(t.blocks, faces):
        if not blk:
            if len(face) != 1:
                return frozenset()
            options.append([()])
        else:
            options.append(list(splittings(face, len(blk))))
    out = set()
    for combo in product(*options):
        per_out = [[] for _ in range(t.m)]
        for blk, pieces in zip(t.blocks, combo):
            for f, piece in zip(blk, pieces):
                per_out[f - 1].append(piece)
        outs = []
        for pieces in per_out:
            seen = [v for piece in pieces for v in piece]
            if len(set(seen)) != len(seen):
                break
            outs.append(tuple(sorted(seen)))
        else:
            out ^= {tuple(outs)}
    return frozenset(out)


def test_act_matches_brute_force_on_every_face_of_the_5_simplex():
    checked = 0
    for m in (1, 2, 3):
        for k in range(4):
            for t in enumerate_basis(1, m, k):
                for f in faces_of(5):
                    assert act_type(t, (f,)) == brute_force_act(t, (f,)), (t, f)
                    checked += 1
    assert checked > 10000


def test_act_matches_brute_force_on_face_pairs():
    checked = 0
    for m in (1, 2):
        for k in range(3):
            for t in enumerate_basis(2, m, k):
                for f in faces_of(3):
                    for g in faces_of(3):
                        faces = (f, g)
                        assert act_type(t, faces) == brute_force_act(t, faces), (t, faces)
                        checked += 1
                    # the same face in both factors, as the chain-map checks use it
                    assert act_type(t, (f, f)) == brute_force_act(t, (f, f)), (t, f)
    assert checked > 5000


ODD_FACES = [(2, 0, 0), (3, 1), (1, 1), (0, 2, 1), (5,), (4, 4, 4), (2, 7, 2),
             (-3, 0, 6), ()]


def test_act_matches_brute_force_on_repeated_and_unsorted_labels():
    types = [t for m in (1, 2, 3) for k in range(3) for t in enumerate_basis(1, m, k)]
    for t in types:
        for f in ODD_FACES:
            assert act_type(t, (f,)) == brute_force_act(t, (f,)), (t, f)
    rng = random.Random(57)
    pool = ODD_FACES + faces_of(3)
    for t in [t for m in (1, 2) for k in range(3) for t in enumerate_basis(2, m, k)]:
        for _ in range(20):
            faces = (rng.choice(pool), rng.choice(pool))
            assert act_type(t, faces) == brute_force_act(t, faces), (t, faces)


def test_act_matches_brute_force_with_counit_blocks():
    capped = [eps_type(), SurjType(2, 1, ((), (1,))), SurjType(2, 1, ((1,), ())),
              SurjType(2, 2, ((1, 2), ())), SurjType(3, 2, ((1,), (), (2, 1))),
              SurjType(3, 3, ((1, 2, 3), (), (3, 1)))]
    pool = ODD_FACES + faces_of(2)
    for t in capped:
        for faces in product(pool, repeat=t.n):
            assert act_type(t, faces) == brute_force_act(t, faces), (t, faces)


def test_act_matches_brute_force_beyond_the_span_table():
    # 9 to 12 distinct labels, more than a call tabulates by vertex mask
    rng = random.Random(211)

    def labels():
        return sorted(rng.sample(range(30), rng.randint(9, 12)))

    def cells(n, m, k, count):
        basis = enumerate_basis(n, m, k)
        return rng.sample(basis, min(count, len(basis)))

    cases = []
    for m, k in product((1, 2, 3), range(4)):  # n = 1 on one long face
        cases += [(t, (tuple(labels()),)) for t in cells(1, m, k, 12)]
    for m, k in product((1, 2), range(3)):  # n = 2 on two disjoint faces
        for t in cells(2, m, k, 12):
            vs = labels()
            cut = rng.randint(3, len(vs) - 3)
            cases.append((t, (tuple(vs[:cut]), tuple(vs[cut:]))))
    # n = 3 on three disjoint faces, 12 labels
    cases.append((SurjType(3, 2, ((1, 2), (2, 1), (1,))),
                  ((0, 3, 5, 9), (1, 2, 6, 10), (4, 7, 8, 11))))
    nonzero = 0
    for t, faces in cases:
        assert len({v for face in faces for v in face}) > chains.SPAN_TABLE_LABELS
        result = act_type(t, faces)
        assert result == brute_force_act(t, faces), (t, faces)
        nonzero += bool(result)
    assert len(cases) > 70 and nonzero > 60


def test_act_calls_act_type_through_the_module_once_per_tensor_and_cell(monkeypatch):
    x = ChainElement(1, 2, 1, frozenset(enumerate_basis(1, 2, 1)))
    tensors = [((0, 1, 2),), ((0, 2),), ((1,),), ((0, 1, 2, 3),)]
    expected = act(x, tensors)
    calls = []

    def counted(t, tensor):
        calls.append((t, tensor))
        return act_type(t, tensor)

    monkeypatch.setattr(chains, "act_type", counted)
    assert chains.act(x, tensors) == expected
    assert len(calls) == len(tensors) * len(x.support)
    assert set(calls) == set(product(x.support, tensors))


def brute_force_cup(i, a, b, complex_):
    """cup_i by one brute-force action per simplex."""
    pa = len(next(iter(a))) - 1
    deg = pa + len(next(iter(b))) - 1 - i
    result = set()
    for sigma in complex_.simplices(deg):
        count = 0
        for f1, f2 in brute_force_act(cup_type(i), (sigma,)):
            if len(f1) == pa + 1 and f1 in a and f2 in b:
                count ^= 1
        if count:
            result.add(sigma)
    return frozenset(result)


def random_cochain(rng, complex_, q):
    faces = complex_.simplices(q)
    while True:
        x = frozenset(f for f in faces if rng.random() < 0.5)
        if x:
            return x


@pytest.mark.parametrize("make", [rp2, lambda: circle(4),
                                  lambda: SimplicialComplex.standard_simplex(5)],
                         ids=["rp2", "circle4", "simplex5"])
def test_cup_i_matches_the_per_simplex_brute_force(make):
    complex_ = make()
    rng = random.Random(58)
    checked = 0
    for i in range(4):
        for pa in range(complex_.dim + 1):
            for pb in range(complex_.dim + 1):
                if not 0 <= pa + pb - i <= complex_.dim:
                    continue
                for _ in range(3):
                    a = random_cochain(rng, complex_, pa)
                    b = random_cochain(rng, complex_, pb)
                    assert cup_i(i, a, b, complex_) == brute_force_cup(i, a, b, complex_)
                    checked += 1
    assert checked >= 12


def test_steenrod_coboundary_formula_holds_on_arbitrary_cochains():
    """d(a cup_i b) = da cup_i b + a cup_i db + a cup_(i-1) b + b cup_(i-1) a,
    with cup_(-1) = 0, on cochains of the simplices 1..6 that need not be
    cocycles."""
    rng = random.Random(60)
    pairs = nonzero = not_cocycles = 0
    for d in range(1, 7):
        complex_ = SimplicialComplex.standard_simplex(d)
        for _ in range(70):
            while True:  # a degree the coboundary of a cup_i b still lives in
                i, pa, pb = rng.randint(0, 3), rng.randint(0, d), rng.randint(0, d)
                if 0 <= pa + pb - i < d and i <= min(pa, pb) + 1:
                    break
            a = random_cochain(rng, complex_, pa)
            b = random_cochain(rng, complex_, pb)
            da, db = coboundary(complex_, a), coboundary(complex_, b)
            lhs = coboundary(complex_, cup_i(i, a, b, complex_))
            rhs = cup_i(i, da, b, complex_) ^ cup_i(i, a, db, complex_)
            if i:
                rhs ^= cup_i(i - 1, a, b, complex_) ^ cup_i(i - 1, b, a, complex_)
            assert lhs == rhs, (d, i, a, b)
            pairs += 1
            nonzero += bool(lhs)
            not_cocycles += bool(da or db)
    assert pairs == 420 and nonzero > 60 and not_cocycles > 300


def test_act_type_and_cup_i_leave_no_cyclic_garbage():
    complex_ = rp2()
    rng = random.Random(59)
    a, b = random_cochain(rng, complex_, 1), random_cochain(rng, complex_, 1)
    calls = [lambda: act_type(cup_type(2), ((0, 1, 2, 3),)),
             lambda: act_type(SurjType(2, 2, ((1, 2), (2, 1))), ((0, 1, 2), (3, 4))),
             lambda: cup_i(1, a, b, complex_)]
    for call in calls:  # warm up every lazily built structure
        call()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            assert call()
            assert gc.collect() == 0
    finally:
        gc.enable()


# --- oracle: compose_types with a counit-capping prologue ---------------------

def _staircases(p, q):
    """Monotone lattice paths from (0,0) to (p-1,q-1), as index pairs."""
    steps = p + q - 2
    for a_positions in combinations(range(steps), p - 1):
        path = [(0, 0)]
        ia = ib = 0
        for s in range(steps):
            if s in a_positions:
                ia += 1
            else:
                ib += 1
            path.append((ia, ib))
        yield path


def _old_cap_type(t: SurjType, j: int):
    """Remove output j, which must own a single strand; None if degenerate."""
    blocks = []
    for blk in t.blocks:
        if j in blk:
            u = blk.index(j)
            if 0 < u < len(blk) - 1 and blk[u - 1] == blk[u + 1]:
                return None
            blk = blk[:u] + blk[u + 1:]
        blocks.append(tuple(f - 1 if f > j else f for f in blk))
    return SurjType(t.n, t.m - 1, tuple(blocks))


def _old_compose_types(t1: SurjType, t2: SurjType) -> frozenset:
    """All top cells of the composed cells, mod 2."""
    if t1.m != t2.n:
        raise CompositionError(f"cannot compose ({t1.n},{t1.m}) above ({t2.n},{t2.m})")
    x = t1
    for j in range(t2.n, 0, -1):
        if t2.blocks[j - 1]:
            continue
        if x.output_counts()[j - 1] > 1:
            return frozenset()  # the composed cell drops dimension
        x = _old_cap_type(x, j)
        if x is None:
            return frozenset()
    live_blocks = [blk for blk in t2.blocks if blk]

    wire_tops = {w: [] for w in range(1, x.m + 1)}  # wire -> [(block, pos)]
    for i, blk in enumerate(x.blocks):
        for u, f in enumerate(blk):
            wire_tops[f].append((i, u))

    options = []
    for w in range(1, x.m + 1):
        options.append(list(_staircases(len(wire_tops[w]), len(live_blocks[w - 1]))))

    results = set()
    for combo in product(*options):
        pieces = {}  # (block, pos) -> [f2,...]
        for w, path in enumerate(combo, start=1):
            for ia, ib in path:
                pieces.setdefault(wire_tops[w][ia], []).append(live_blocks[w - 1][ib])
        blocks = []
        ok = True
        for i, blk in enumerate(x.blocks):
            nb = []
            for u in range(len(blk)):
                nb.extend(pieces[(i, u)])
            for a, b in zip(nb, nb[1:]):
                if a == b:
                    ok = False
                    break
            if not ok:
                break
            blocks.append(tuple(nb))
        if ok:
            results ^= {SurjType(x.n, t2.m, tuple(blocks))}
    return frozenset(results)


@functools.lru_cache(maxsize=None)
def _basis(n, m, k):
    return enumerate_basis(n, m, k)


def _random_capped_pair(rng):
    """A composable pair of types whose bottom has capped blocks more often than not."""
    options = []
    while not options:
        options = _basis(rng.randint(1, 2), rng.randint(1, 3), rng.randint(0, 2))
    bottom = list(rng.choice(options).blocks)
    for _ in range(rng.choice([0, 1, 1, 2])):
        bottom.insert(rng.randint(0, len(bottom)), ())
    bottom = SurjType(len(bottom), options[0].m, tuple(bottom))
    while True:
        options = _basis(rng.randint(1, 2), bottom.n, rng.randint(0, 2))
        if options:
            return rng.choice(options), bottom


def test_compose_types_matches_the_capping_oracle():
    rng = random.Random(53)
    capped = nonzero_capped = 0
    for _ in range(2000):
        t1, t2 = _random_capped_pair(rng)
        new = compose_types(t1, t2)
        assert new == _old_compose_types(t1, t2)
        capped += () in t2.blocks
        nonzero_capped += () in t2.blocks and bool(new)
    assert capped > 1000 and nonzero_capped > 300


def test_chain_eval_matches_the_capping_oracle_on_terms_with_counits(monkeypatch):
    rng = random.Random(54)
    terms = []
    while len(terms) < 1000:
        g = random_sterm(rng)
        if any(v.kind == "eps" for v in g.vertices):
            terms.append(g)
    new = [chain_eval(g) for g in terms]
    # chain_eval cuts strands itself; the permutation-layer route composes
    # through chain_compose, which reads the patched compose_types
    monkeypatch.setattr(chains, "compose_types", _old_compose_types)
    assert new == [_old_chain_eval(g) for g in terms]
    assert sum(not x.is_zero() for x in new) > 300


# --- oracle: chain_eval through permutation and padding layers ----------------

def _old_chain_eval(g: GraphTerm) -> ChainElement:
    """Each vertex's inputs brought together by a permutation of the state's
    outputs, the generator padded by identities on both sides, then composed."""
    plan = plan_of(g)
    degree = sum(NPARAMS[v.kind] for v in g.vertices)
    if any(v.kind == "phi" for v in g.vertices):
        return ChainElement.zero(g.n, g.m, degree)
    gens = {"eps": eps_type, "delta": delta_type, "mu": mu_type}

    wires = [plan.tgt[("in", i)] for i in range(g.n)]
    state = ChainElement.of(identity_type(g.n))
    for v in plan.order:
        vert = g.vertices[v]
        ins = [("vi", v, k) for k in range(vert.arity[0])]
        others = [wb for wb in wires if wb not in ins]
        first = min(wires.index(ep) for ep in ins)
        cut = sum(1 for wb in wires[:first] if wb not in ins)
        new_wires = others[:cut] + ins + others[cut:]
        tau = Permutation(tuple(new_wires.index(wb) + 1 for wb in wires))
        state = permute_outputs_chain(state, tau)

        gen = ChainElement.of(gens[vert.kind]()) if vert.kind != "id" \
            else ChainElement.of(identity_type(1))
        layer = ChainElement.of(identity_type(cut))
        layer = horizontal_chain(layer, gen)
        layer = horizontal_chain(
            layer, ChainElement.of(identity_type(len(new_wires) - cut - len(ins))))
        state = chain_compose(state, layer)
        outs = [plan.tgt[("vo", v, k)] for k in range(vert.arity[1])]
        wires = new_wires[:cut] + outs + new_wires[cut + len(ins):]

    tau = Permutation(tuple(dst[1] + 1 for dst in wires))
    return permute_outputs_chain(state, tau)


def _splice_units(g: GraphTerm, rng, count) -> GraphTerm:
    """g with `count` unit-decorated vertices inserted on random edges."""
    for _ in range(count):
        src, dst = rng.choice(sorted(g.edges))
        v = len(g.vertices)
        g = GraphTerm(g.n, g.m, g.vertices + (Vertex("id"),),
                      g.edges - {(src, dst)} | {(src, ("vi", v, 0)), (("vo", v, 0), dst)})
    return g


def test_chain_eval_matches_the_permutation_layer_route():
    rng = random.Random(55)
    terms = [random_sterm(rng) for _ in range(1000)]
    while len(terms) < 1600:
        terms.append(_splice_units(random_sterm(rng, max_inputs=3), rng, rng.randint(1, 3)))
    assert sum(v.kind == "id" for g in terms for v in g.vertices) >= 600
    new = [chain_eval(g) for g in terms]
    assert new == [_old_chain_eval(g) for g in terms]
    assert sum(not x.is_zero() for x in new) > 300
    assert sum(not x.is_zero() for x in new[1000:]) > 100


def _delta_layers(layers):
    """`delta ; (delta | delta) ; ...`, a (1, 2^layers) term."""
    return parse(" ; ".join(" | ".join(["delta"] * 2 ** k) for k in range(layers)))


def test_chain_eval_matches_the_permutation_layer_route_on_layers_of_deltas():
    for layers in range(1, 8):
        g = _delta_layers(layers)
        x = chain_eval(g)
        assert x == _old_chain_eval(g)
        assert x.support == {SurjType(1, 2 ** layers, (tuple(range(1, 2 ** layers + 1)),))}


_LAYER_ATOMS = {"delta": (1, 2), "mu": (2, 1), "eps": (1, 0), "id": (1, 1), "swap": (2, 2)}


def _layered_term(rng):
    """A term of 20-60 vertices on 1-3 inputs, one layer at a time over the
    current width.  Deltas, swaps and ids are drawn far more often than
    products and counits, which make most cells degenerate, and a counit
    never takes the last strand."""
    width = rng.randint(1, 3)
    target = rng.randint(20, 60)
    layers, vertices = [], 0
    while vertices < target:
        atoms, read, out = [], 0, width
        while read < width:
            kind, = rng.choices(list(_LAYER_ATOMS), (30, 1, 3, 10, 15))
            a, b = _LAYER_ATOMS[kind]
            if a > width - read or a != b and vertices == target or kind == "eps" and out == 1:
                kind, a, b = "id", 1, 1
            atoms.append(f"mu({rng.randint(0, 16)}/16)" if kind == "mu" else kind)
            read += a
            out += b - a
            vertices += kind in ("delta", "mu", "eps")
        layers.append(" | ".join(atoms))
        width = out
    return parse(" ; ".join(layers))


def test_chain_eval_matches_the_permutation_layer_route_on_deep_layered_terms():
    rng = random.Random(57)
    terms = [_layered_term(rng) for _ in range(300)]
    assert all(20 <= len(g.vertices) <= 60 and 1 <= g.n <= 3 for g in terms)
    new = [chain_eval(g) for g in terms]
    assert new == [_old_chain_eval(g) for g in terms]
    assert sum(not x.is_zero() for x in new) >= 100
    assert sum(not x.is_zero() and x.degree > 0 for x in new) >= 30


def test_chain_eval_of_a_vertex_free_term_is_its_permutation():
    g = parse("sigma[3,1,4,2] ; (swap | id | id) ; tau[2,4,1,3]")
    assert not g.vertices
    x = chain_eval(g)
    assert x == _old_chain_eval(g)
    # input i goes to output image[i]: 1 -> 3 -> 3 -> 1, 2 -> 1 -> 2 -> 4,
    # 3 -> 4 -> 4 -> 3 and 4 -> 2 -> 1 -> 2
    assert x.support == {SurjType(4, 4, ((1,), (4,), (3,), (2,)))}


def test_biarity_guards_name_the_problem():
    with pytest.raises(GraphError) as info:
        ChainElement(1, 1, 0, frozenset([mu_type()]))
    assert str(info.value) == ("type SurjType(n=2, m=1, blocks=((1,), (1,))) "
                               "does not live in (1,1) degree 0")
    with pytest.raises(GraphError) as info:
        ChainElement.of(mu_type()) + ChainElement.of(delta_type())
    assert str(info.value) == "cannot add chains of different biarity or degree"
    with pytest.raises(CompositionError) as info:
        compose_types(delta_type(), delta_type())
    assert str(info.value) == "cannot compose (1,2) above (1,2)"
