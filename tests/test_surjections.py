import random
from fractions import Fraction
from itertools import product

import pytest

from propcalc.errors import (CompositionError, GraphError, InternalError, PropcalcError,
                             WeightingError)
from propcalc.graphs import (GraphTerm, Permutation, Vertex, iso_equal, sources_by_target,
                             unit, vertical_compose)
from propcalc.surjections import (SurjType, WeightedSurjection, _canonical_parts,
                                  canonicalize_ws, compose_weighted, counit_class,
                                  eliminate_counits, enumerate_basis, equal_ms,
                                  expand_graph, horizontal_ws, identity_ws,
                                  leibniz_push, normalize, permute_inputs_ws,
                                  permute_outputs_ws, random_stype, random_sterm,
                                  random_weights, random_ws, shuffle_relations)
from propcalc.terms import parse


def cap_output_ws(x: WeightedSurjection, j: int) -> WeightedSurjection:
    """Compose with a counit on output j: delete its strands, renumber."""
    if not 1 <= j <= x.m:
        raise GraphError(f"no output {j}")
    return compose_weighted(
        x, horizontal_ws([identity_ws(j - 1), counit_class(1), identity_ws(x.m - j)]))


def W(n, m, blocks, weights):
    return WeightedSurjection(
        n, m, tuple(tuple(b) for b in blocks),
        tuple(tuple(Fraction(x) for x in ws) for ws in weights))


# --- normal form anchors --------------------------------------------------

def test_normalize_delta_already_canonical():
    assert normalize(parse("delta")) == W(1, 2, [(1, 2)], [(1, 1)])


def test_normalize_involutive_bubble():
    for s in ("1/7", "1/2", "9/10"):
        assert normalize(parse(f"delta ; mu({s})")) == identity_ws(1)


def test_normalize_coassociativity():
    lhs = normalize(parse("delta ; (delta | id)"))
    rhs = normalize(parse("delta ; (id | delta)"))
    assert lhs == rhs == W(1, 3, [(1, 2, 3)], [(1, 1, 1)])


def test_normalize_mu_weights_are_shares():
    assert normalize(parse("mu(1/3)")) == W(2, 1, [(1,), (1,)],
                                            [(Fraction(2, 3),), (Fraction(1, 3),)])


def test_normalize_counit_class():
    assert normalize(parse("eps")) == counit_class(1)
    assert normalize(parse("delta ; (eps | eps)")) == counit_class(1)


def test_normalize_leibniz_middle_case():
    assert normalize(parse("mu(1/2) ; delta")) == horizontal_ws(
        [identity_ws(1), identity_ws(1)])


def test_normalize_crossing_absorbed_by_commutativity():
    g1 = parse("mu(3/8) ; delta")
    g2 = parse("swap ; mu(5/8) ; delta")
    assert normalize(g1) == normalize(g2)


def test_idempotence_via_expansion():
    rng = random.Random(31)
    for _ in range(100):
        ws = random_ws(rng)
        assert normalize(expand_graph(ws)) == ws


def test_confluence_under_shuffled_orders():
    rng = random.Random(32)
    for i in range(150):
        g = random_sterm(rng)
        a = normalize(g)
        assert normalize(g, rng=random.Random(1000 + i)) == a


def test_relation_instances_preserve_normal_form():
    rng = random.Random(33)
    for _ in range(120):
        g = random_sterm(rng, max_vertices=8)
        assert normalize(shuffle_relations(g, rng, moves=8)) == normalize(g)


def test_critical_pair_regressions():
    for s in (Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)):
        for text in (f"mu({s}) ; delta ; (delta | id)",
                     f"delta ; mu({s}) ; delta"):
            g = parse(text)
            a = normalize(g)
            for k in range(5):
                assert normalize(g, rng=random.Random(k)) == a
    assert normalize(parse("delta ; mu(1/2) ; delta")) == normalize(parse("delta"))


# --- counit elimination and the Leibniz push ------------------------------

def test_eliminate_counits_counitality_case():
    g = eliminate_counits(parse("delta ; (eps | id)"))
    assert iso_equal(g, unit(1))


def test_eliminate_counits_no_eps_unchanged():
    g = parse("delta ; mu(1/2)")
    assert iso_equal(eliminate_counits(g), g)


def test_eliminate_counits_m_zero_gives_class():
    assert eliminate_counits(parse("mu(1/2) ; eps")) == counit_class(2)


def test_eliminate_counits_keeps_input_caps():
    g = eliminate_counits(parse("eps | id"))
    assert g.biarity == (2, 1)
    assert sum(1 for v in g.vertices if v.kind == "eps") == 1


def test_leibniz_push_three_cases():
    # the (2,2) exchange under the weights propagated from the outputs: mu(s)
    # splits the weight 2 below it into 2(1 - s) on input 0 and 2s on input 1,
    # and the input that carries more than one output's weight 1 keeps a coproduct

    # middle case: two disjoint strands
    assert iso_equal(leibniz_push(parse("mu(1/2) ; delta")), unit(2))

    # first case: the coproduct sits on input 0
    g = leibniz_push(parse("mu(1/3) ; delta"))
    assert sorted(v.kind for v in g.vertices) == ["delta", "mu"]
    delta_v = next(v for v, vert in enumerate(g.vertices) if vert.kind == "delta")
    assert sources_by_target(g)[("vi", delta_v, 0)] == ("in", 0)

    # mirror case
    g = leibniz_push(parse("mu(2/3) ; delta"))
    assert sorted(v.kind for v in g.vertices) == ["delta", "mu"]
    delta_v = next(v for v, vert in enumerate(g.vertices) if vert.kind == "delta")
    assert sources_by_target(g)[("vi", delta_v, 0)] == ("in", 1)


def test_leibniz_push_mu_free_unchanged():
    g = parse("delta ; (delta | id)")
    assert iso_equal(leibniz_push(g), g)


def test_leibniz_push_postcondition():
    rng = random.Random(34)
    for _ in range(60):
        g = random_sterm(rng, max_vertices=8)
        h = eliminate_counits(g)
        if isinstance(h, WeightedSurjection):
            continue
        pushed = leibniz_push(h)
        order = _vertex_order(pushed)
        by_target = sources_by_target(pushed)
        for v, vert in enumerate(pushed.vertices):
            if vert.kind != "delta":
                continue
            src = by_target[("vi", v, 0)]
            # nothing above a coproduct may be a product
            while src[0] != "in":
                u = src[1]
                assert pushed.vertices[u].kind == "delta"
                src = by_target[("vi", u, 0)]


def _vertex_order(g):
    return list(range(len(g.vertices)))


# --- equality, composition, bases ------------------------------------------

def test_equal_ms_biarity_mismatch():
    with pytest.raises(GraphError):
        equal_ms(parse("delta"), parse("eps"))


def test_equal_ms_swap_delta_differs():
    assert not equal_ms(parse("delta"), parse("delta ; swap"))


def test_equal_ms_all_n_zero_outputs_equal():
    assert equal_ms(parse("mu(1/3) ; eps"), parse("eps | eps"))
    assert equal_ms(parse("eps"), parse("delta ; (eps | eps)"))


def test_compose_with_identity():
    rng = random.Random(35)
    for _ in range(50):
        x = random_ws(rng)
        assert compose_weighted(x, identity_ws(x.m)) == x
        assert compose_weighted(identity_ws(x.n), x) == x


def test_compose_examples():
    d = normalize(parse("delta"))
    did = normalize(parse("delta | id"))
    assert compose_weighted(d, did) == W(1, 3, [(1, 2, 3)], [(1, 1, 1)])
    mu = normalize(parse("mu(1/2)"))
    assert compose_weighted(mu, d) == normalize(parse("mu(1/2) ; delta"))


def test_compose_matches_graph_route():
    rng = random.Random(36)
    for _ in range(120):
        x = random_ws(rng, max_n=2, max_m=2, max_degree=2)
        while True:
            g2 = random_sterm(rng, max_vertices=6, max_inputs=4)
            if g2.n == x.m:
                break
        y = normalize(g2)
        direct = compose_weighted(x, y)
        stacked = normalize(vertical_compose(expand_graph(x), expand_graph(y)))
        assert direct == stacked


def test_composition_associativity_at_the_graph_level():
    # composing terms is bracket-independent; canonical forms of triple
    # stacks agree no matter how the stack is built
    rng = random.Random(37)
    for _ in range(60):
        a = random_sterm(rng, max_vertices=4)
        b = random_sterm(rng, max_vertices=4, max_inputs=4)
        c = random_sterm(rng, max_vertices=4, max_inputs=4)
        if a.m != b.n or b.m != c.n:
            continue
        lhs = vertical_compose(vertical_compose(a, b), c)
        rhs = vertical_compose(a, vertical_compose(b, c))
        assert normalize(lhs) == normalize(rhs)


def test_compose_weight_sums_stay_normalized():
    rng = random.Random(38)
    for _ in range(80):
        x = random_ws(rng, max_n=2, max_m=2)
        while True:
            y = random_ws(rng, max_n=3, max_m=2)
            if y.n == x.m:
                break
        compose_weighted(x, y)  # the constructor enforces per-output sums


def test_horizontal_of_normal_forms_is_block_concatenation():
    rng = random.Random(39)
    for _ in range(60):
        a = random_ws(rng, max_n=2, max_m=2)
        b = random_ws(rng, max_n=2, max_m=2)
        h = horizontal_ws([a, b])
        stacked = normalize(
            __import__("propcalc.graphs", fromlist=["horizontal_compose"])
            .horizontal_compose([expand_graph(a), expand_graph(b)]))
        assert h == stacked


def test_enumerate_basis_anchors():
    assert {t.blocks for t in enumerate_basis(1, 2, 0)} == {((1, 2),), ((2, 1),)}
    assert {t.blocks for t in enumerate_basis(1, 2, 1)} == {((1, 2, 1),), ((2, 1, 2),)}
    assert enumerate_basis(1, 1, 1) == []
    assert enumerate_basis(1, 1, 3) == []


def _brute_basis(n, m, degree):
    """Every sequence of r = m + degree outputs, cut by every choice of n
    block sizes, kept when no block repeats an output twice in a row and
    every output is hit."""
    r = m + degree
    splits = [sizes for sizes in product(range(1, r + 1), repeat=n) if sum(sizes) == r]
    found = []
    for seq in product(range(1, m + 1), repeat=r):
        if len(set(seq)) != m:
            continue
        for sizes in splits:
            blocks, start = [], 0
            for size in sizes:
                blocks.append(seq[start:start + size])
                start += size
            if all(a != b for blk in blocks for a, b in zip(blk, blk[1:])):
                found.append(tuple(blocks))
    return sorted(found)


def test_enumerate_basis_matches_brute_force():
    for n in range(1, 5):
        for m in range(0, 5):
            for degree in range(4):
                got = enumerate_basis(n, m, degree)
                assert all((t.n, t.m, t.degree) == (n, m, degree) for t in got)
                assert [t.blocks for t in got] == _brute_basis(n, m, degree), (n, m, degree)


def test_enumerated_cells_are_the_checked_constructor_cells():
    """The cells `enumerate_basis` builds without `SurjType`'s checks equal,
    hash and print like the checked cells of the same blocks."""
    sizes = [(n, m, k) for n in range(1, 4) for m in range(4) for k in range(4)]
    for n, m, k in sizes + [(1, 5, k) for k in range(4)]:
        got = enumerate_basis(n, m, k)
        checked = [SurjType(n, m, blocks) for blocks in _brute_basis(n, m, k)]
        assert got == checked, (n, m, k)
        assert [hash(t) for t in got] == [hash(t) for t in checked]
        assert [repr(t) for t in got] == [repr(t) for t in checked]
        assert all(type(t) is SurjType and t.degree == k for t in got)


def test_zero_weight_strand_boundary():
    x = W(1, 2, [(1, 2, 1)], [(0, 1, 1)])
    assert canonicalize_ws(x) == W(1, 2, [(2, 1)], [(1, 1)])
    y = W(1, 2, [(1, 2, 1)], [("1/4", 1, "3/4")])
    assert canonicalize_ws(y) == y


def test_cap_output():
    x = normalize(parse("delta ; (id | delta)"))
    capped = cap_output_ws(x, 1)
    assert capped == normalize(parse("delta ; (eps | delta)"))


def test_permutation_actions_on_forms():
    rng = random.Random(40)
    for _ in range(60):
        x = random_ws(rng)
        sig = list(range(1, x.n + 1))
        rng.shuffle(sig)
        sig = Permutation(tuple(sig))
        rho = list(range(1, x.n + 1))
        rng.shuffle(rho)
        rho = Permutation(tuple(rho))
        lhs = permute_inputs_ws(permute_inputs_ws(x, sig), rho)
        rhs = permute_inputs_ws(x, sig.compose(rho))
        assert lhs == rhs


def test_text_and_json_formats():
    x = normalize(parse("mu(1/3)"))
    assert x.text() == "surj n=2 m=1 : 1/2/3 ; 1/1/3"
    assert WeightedSurjection.from_json(x.to_json()) == x
    assert normalize(parse("eps")).text() == "counit-class n=1"
    assert "eps" in normalize(parse("eps | id")).text()


def test_weighted_surjection_validation():
    with pytest.raises(WeightingError):
        W(1, 1, [(1,)], [("1/2",)])
    with pytest.raises(GraphError):
        W(1, 1, [(1, 1)], [("1/2", "1/2")])
    with pytest.raises(GraphError):
        W(1, 2, [(1, 1, 2)], [("1/2", "1/2", 1)])


def test_confluence_at_size():
    # shuffled expansions average about 25 vertices; random_sterm averages under 4
    rng = random.Random(34)
    sizes = []
    for i in range(100):
        x = random_ws(rng, max_degree=6)
        g = shuffle_relations(expand_graph(x), rng, moves=16)
        sizes.append(len(g.vertices))
        assert normalize(g) == x
        for k in range(3):
            assert normalize(g, rng=random.Random(f"{i}:{k}")) == x
    assert sum(sizes) / len(sizes) > 15


def test_normalize_refuses_phi():
    with pytest.raises(GraphError, match="phi generator is not part of this presentation"):
        normalize(parse("h(1/2)"))


# --- oracle: compose_weighted with a counit-capping prologue and a rescanning refine

def _old_canonical_parts(blocks, weights):
    """Drop zero-weight strands, merge adjacent equal assignments (weights add)."""
    blocks = [list(b) for b in blocks]
    weights = [list(w) for w in weights]
    for i in range(len(blocks)):
        t = 0
        while t < len(blocks[i]):
            if weights[i][t] == 0:
                del blocks[i][t], weights[i][t]
                t = max(t - 1, 0)
                continue
            if t + 1 < len(blocks[i]) and blocks[i][t] == blocks[i][t + 1]:
                weights[i][t] = weights[i][t] + weights[i][t + 1]
                del blocks[i][t + 1], weights[i][t + 1]
                if weights[i][t] == 0:
                    continue
                t = max(t - 1, 0)
                continue
            t += 1
    return tuple(tuple(b) for b in blocks), tuple(tuple(w) for w in weights)


def _old_cap_output_ws(x: WeightedSurjection, j: int) -> WeightedSurjection:
    """Compose with a counit on output j: delete its strands, renumber."""
    if not 1 <= j <= x.m:
        raise GraphError(f"no output {j}")
    blocks = []
    weights = []
    for blk, ws in zip(x.blocks, x.weights):
        nb, nw = [], []
        for f, w in zip(blk, ws):
            if f == j:
                continue
            nb.append(f - 1 if f > j else f)
            nw.append(w)
        blocks.append(tuple(nb))
        weights.append(tuple(nw))
    blocks, weights = _old_canonical_parts(blocks, weights)
    return WeightedSurjection(x.n, x.m - 1, blocks, weights)


def _old_refine(widths_a, widths_b):
    """Common refinement of two partitions of the same interval.

    Returns (index_a, index_b, width) for the positive-width pieces, left
    to right.  The two width lists must have equal totals.
    """
    from itertools import accumulate
    if sum(widths_a, Fraction(0)) != sum(widths_b, Fraction(0)):
        raise InternalError("partition totals differ")
    cum_a = list(accumulate(widths_a))
    cum_b = list(accumulate(widths_b))
    cuts = sorted(set(cum_a) | set(cum_b) | {Fraction(0)})
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        ia = next(i for i, c in enumerate(cum_a)
                  if c >= hi and widths_a[i] > 0 and c - widths_a[i] <= lo)
        ib = next(i for i, c in enumerate(cum_b)
                  if c >= hi and widths_b[i] > 0 and c - widths_b[i] <= lo)
        pieces.append((ia, ib, hi - lo))
    return pieces


def _old_compose_weighted(top: WeightedSurjection, bottom: WeightedSurjection) -> WeightedSurjection:
    """Vertical composition by overlaying scaled strand partitions.

    Each intermediate wire is a rectangle whose top partition (the weights
    of the top element's strands into that output, scaled by the wire's
    total weight below) is overlaid with the bottom partition (the weights
    of the bottom block); the common refinement gives the composite's
    strands, routed to the bottom's outputs.
    """
    if top.m != bottom.n:
        raise CompositionError(
            f"cannot compose ({top.n},{top.m}) above ({bottom.n},{bottom.m})")
    x = top
    # a counit-capped input below kills the corresponding output above
    for j in range(bottom.n, 0, -1):
        if not bottom.blocks[j - 1]:
            x = _old_cap_output_ws(x, j)
    live = [j for j in range(1, bottom.n + 1) if bottom.blocks[j - 1]]

    # per wire: ordered top strand ids and scaled widths, bottom widths
    top_strands = {j: [] for j in range(1, x.m + 1)}  # wire -> [(block, pos)]
    for i, (blk, ws) in enumerate(zip(x.blocks, x.weights)):
        for t, (f, w) in enumerate(zip(blk, ws)):
            top_strands[f].append((i, t, w))

    piece_lists = {}  # (block i, pos t) -> list of (f2, width)
    for wire_idx, j in enumerate(live, start=1):
        blk_b = bottom.blocks[j - 1]
        ws_b = bottom.weights[j - 1]
        total = sum(ws_b, Fraction(0))
        tops = top_strands[wire_idx]
        widths_a = [w * total for (_, _, w) in tops]
        pieces = _old_refine(widths_a, list(ws_b))
        for ia, ib, width in pieces:
            key = tops[ia][:2]
            piece_lists.setdefault(key, []).append((blk_b[ib], width))

    blocks = []
    weights = []
    for i, blk in enumerate(x.blocks):
        nb, nw = [], []
        for t in range(len(blk)):
            for f2, width in piece_lists.get((i, t), []):
                nb.append(f2)
                nw.append(width)
        blocks.append(tuple(nb))
        weights.append(tuple(nw))
    blocks, weights = _old_canonical_parts(blocks, weights)
    return WeightedSurjection(x.n, bottom.m, blocks, weights)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PropcalcError as exc:
        return type(exc), str(exc)


def _random_cell(rng, n, m, r, capped=0, zeroed=False):
    """A random point of a cell with n nonempty blocks, m outputs and r >= n
    strands (r = n when m = 1), with `capped` empty blocks inserted at random
    places and, if `zeroed`, one strand of a shared output weighted 0."""
    cuts = sorted(rng.sample(range(1, r), n - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [r])]
    while True:
        blocks = []
        for size in sizes:
            blk = []
            for _ in range(size):
                blk.append(rng.choice([f for f in range(1, m + 1) if not blk or f != blk[-1]]))
            blocks.append(tuple(blk))
        if len({f for blk in blocks for f in blk}) == m:
            break
    for _ in range(capped):
        blocks.insert(rng.randint(0, len(blocks)), ())
    t = SurjType(n + capped, m, tuple(blocks))
    shared = [k for k, f in enumerate(f for blk in blocks for f in blk)
              if t.output_counts()[f - 1] > 1]
    boundary = rng.choice(shared) if zeroed and shared else None
    return random_weights(rng, t, boundary_strand=boundary)


def _random_pair(rng, max_strands=6, zero_rate=0.3):
    """A composable (top, bottom) pair whose bottom often has capped blocks;
    each side has a zero-weight strand with probability `zero_rate`."""
    if rng.random() < 0.1:
        bottom = counit_class(rng.randint(1, 3))
    else:
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        r = n if m == 1 else rng.randint(max(n, m), max_strands)
        bottom = _random_cell(rng, n, m, r, capped=rng.choice([0, 1, 1, 2]),
                              zeroed=rng.random() < zero_rate)
    m = bottom.n
    n = rng.randint(1, 3)
    r = n if m == 1 else rng.randint(max(n, m), max(n, m, max_strands))
    return _random_cell(rng, n, m, r, zeroed=rng.random() < zero_rate), bottom


def test_compose_weighted_matches_the_capping_oracle():
    rng = random.Random(41)
    capped = 0
    for _ in range(2000):
        x, y = _random_pair(rng)
        capped += () in y.blocks
        assert compose_weighted(x, y) == _old_compose_weighted(x, y)
    assert capped > 1000
    bad = W(1, 2, [(1, 2)], [(1, 1)])
    assert _outcome(compose_weighted, bad, counit_class(1)) == \
        _outcome(_old_compose_weighted, bad, counit_class(1))


def test_compose_weighted_raises_when_the_bottom_partition_runs_out():
    # a top whose output weights were never checked: its wire is wider than the block below
    wide = object.__new__(WeightedSurjection)
    for field, value in (("n", 1), ("m", 1), ("blocks", ((1,),)), ("weights", ((Fraction(2),),))):
        object.__setattr__(wide, field, value)
    with pytest.raises(InternalError, match="partition totals differ"):
        compose_weighted(wide, identity_ws(1))


def test_cap_output_matches_the_oracle_at_every_output_and_out_of_range():
    rng = random.Random(42)
    calls = 0
    for _ in range(1000):
        x, y = _random_pair(rng)
        for z in (x, compose_weighted(x, y)):
            for j in range(0, z.m + 2):
                assert _outcome(cap_output_ws, z, j) == _outcome(_old_cap_output_ws, z, j)
                calls += 1
    assert calls > 8000


def test_canonical_parts_matches_the_oracle():
    rng = random.Random(43)
    values = [Fraction(0), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    for _ in range(5000):
        blocks, weights = [], []
        for _ in range(rng.randint(0, 4)):
            size = rng.randint(0, 6)
            blocks.append([rng.randint(1, 3) for _ in range(size)])
            weights.append([rng.choice(values) for _ in range(size)])
        assert _canonical_parts(blocks, weights) == _old_canonical_parts(blocks, weights)


def test_compose_matches_graph_route_with_capped_blocks_and_larger_cells():
    # interior weights only: expand_graph turns a zero-weight strand entering a
    # product into mu(0) or mu(1), which normalize reads as capping the other input
    rng = random.Random(44)
    capped = 0
    for _ in range(150):
        x, y = _random_pair(rng, max_strands=8, zero_rate=0)
        if not y.m:
            continue
        capped += () in y.blocks
        stacked = normalize(vertical_compose(expand_graph(x), expand_graph(y)))
        assert compose_weighted(x, y) == stacked
    assert capped > 60


# --- a weighted surjection is its cell plus weights ----------------------------
# The prop operations below are the weighted ones before they were built on the
# type operations, kept verbatim as oracles.

def _old_identity_ws(k: int) -> WeightedSurjection:
    return WeightedSurjection(k, k, tuple((j,) for j in range(1, k + 1)),
                              tuple((Fraction(1),) for _ in range(k)))


def _old_horizontal_ws(xs) -> WeightedSurjection:
    xs = list(xs)
    blocks = []
    weights = []
    shift = 0
    n = m = 0
    for x in xs:
        blocks.extend(tuple(f + shift for f in blk) for blk in x.blocks)
        weights.extend(x.weights)
        shift += x.m
        n += x.n
        m += x.m
    return WeightedSurjection(n, m, tuple(blocks), tuple(weights))


def _old_permute_inputs_ws(x: WeightedSurjection, sigma: Permutation) -> WeightedSurjection:
    """New input j carries what old input sigma(j) carried."""
    if sigma.degree != x.n:
        raise GraphError("permutation degree mismatch")
    blocks = tuple(x.blocks[sigma(j) - 1] for j in range(1, x.n + 1))
    weights = tuple(x.weights[sigma(j) - 1] for j in range(1, x.n + 1))
    return WeightedSurjection(x.n, x.m, blocks, weights)


def _old_permute_outputs_ws(x: WeightedSurjection, tau: Permutation) -> WeightedSurjection:
    if tau.degree != x.m:
        raise GraphError("permutation degree mismatch")
    blocks = tuple(tuple(tau(f) for f in blk) for blk in x.blocks)
    return WeightedSurjection(x.n, x.m, blocks, x.weights)


def _exact(x):
    """A result with its class, so that a type never passes for a point."""
    return type(x), x


def test_the_type_permutations_check_the_permutation_degree():
    from propcalc import chains
    from propcalc.surjections import permute_inputs_type, permute_outputs_type
    # chains has no reader of either permutation, so it keeps no copy of them
    assert not hasattr(chains, "permute_inputs_type")
    assert not hasattr(chains, "permute_outputs_type")
    with pytest.raises(GraphError, match="permutation degree mismatch"):
        permute_inputs_type(SurjType(2, 1, ((1,), (1,))), Permutation((2, 1, 3)))
    with pytest.raises(GraphError, match="permutation degree mismatch"):
        permute_outputs_type(SurjType(1, 2, ((1, 2),)), Permutation((1,)))


def test_weighted_surjections_are_their_cells_and_match_the_old_prop_operations():
    from itertools import permutations
    from propcalc.surjections import uniform_weights
    rng = random.Random(45)
    points = []
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for k in range(4):
                for t in enumerate_basis(n, m, k):
                    points += [uniform_weights(t), random_weights(rng, t)]
    assert len(points) == 2 * 3787
    perms = {d: [Permutation(p) for p in permutations(range(1, d + 1))] for d in (1, 2, 3)}
    pool = points + [counit_class(1)]
    for x in points:
        t = x.stype
        assert type(t) is SurjType and isinstance(x, SurjType)
        assert (x.r, x.degree, x.output_counts()) == (t.r, t.degree, t.output_counts())
        assert x != t
        # a drawn permutation of the right degree and one of the wrong degree
        for sigma in (rng.choice(perms[x.n]), Permutation.identity(x.n + 1)):
            assert _exact(_outcome(permute_inputs_ws, x, sigma)) == \
                _exact(_outcome(_old_permute_inputs_ws, x, sigma))
        for tau in (rng.choice(perms[x.m]), Permutation.identity(x.m + 1)):
            assert _exact(_outcome(permute_outputs_ws, x, tau)) == \
                _exact(_outcome(_old_permute_outputs_ws, x, tau))
        xs = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
        xs.insert(rng.randint(0, len(xs)), x)
        assert _exact(horizontal_ws(xs)) == _exact(_old_horizontal_ws(xs))
    assert _exact(horizontal_ws([])) == _exact(_old_horizontal_ws([]))
    for k in range(7):
        assert _exact(identity_ws(k)) == _exact(_old_identity_ws(k))
    assert repr(points[-1]) == repr(_old_permute_outputs_ws(points[-1], Permutation.identity(3)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: SurjType(2, 1, ((1,),)), GraphError, "2 inputs but 1 blocks"),
    (lambda: SurjType(1, 1, ((2,),)), GraphError, "assignment value 2 outside 1..1"),
    (lambda: SurjType(1, 2, ((1,),)), GraphError, "assignment misses output 2"),
    (lambda: WeightedSurjection(1, 1, ((1,),), ()), GraphError, "weights do not match blocks"),
    (lambda: WeightedSurjection(1, 1, ((1,),), ((Fraction(1), Fraction(0)),)), GraphError,
     "weights do not match blocks"),
    (lambda: WeightedSurjection(1, 1, ((1,),), ((0.5,),)), WeightingError,
     "bad strand weight 0.5"),
    (lambda: WeightedSurjection(1, 1, ((1,),), ((Fraction(-1),),)), WeightingError,
     "bad strand weight Fraction(-1, 1)"),
], ids=["block-count", "value-range", "missed-output", "weights-per-block",
        "weights-per-strand", "float-weight", "negative-weight"])
def test_type_guards_name_the_problem(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_leibniz_push_refuses_id_vertices_and_internal_counits():
    id_vertex = GraphTerm(1, 1, (Vertex("id"),),
                          frozenset({(("in", 0), ("vi", 0, 0)), (("vo", 0, 0), ("out", 0))}))
    for g, message in ((id_vertex, "normalizer does not accept id vertices"),
                       (parse("delta ; (id | eps)"),
                        "leibniz_push expects internal counits eliminated first")):
        with pytest.raises(GraphError) as info:
            leibniz_push(g)
        assert str(info.value) == message
