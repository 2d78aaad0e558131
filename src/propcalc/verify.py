"""Seeded verification suites, one per acceptance criterion.

Each suite returns a `Outcome` with a pass flag and a short detail line;
`run_all` executes every suite with deterministic sub-seeds and prints one
line per criterion.  All randomness flows from the given seed, so a run
is reproducible bit for bit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product

from . import chains, complexes, generators, graphs, simplex, sset, surfaces
from .surjections import (canonicalize_ws, enumerate_basis, equal_ms, normalize,
                          permute_inputs_ws, permute_outputs_ws, random_interior,
                          random_stype, random_sterm, random_weights, random_ws,
                          uniform_weights)
from .terms import parse

DEFAULT_SEED = 0


@dataclass
class Outcome:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _outcome(number, name, passed, detail, t0):
    return Outcome(number, name, passed, detail, time.time() - t0)


# ---------------------------------------------------------------------------

def crit1_confluence(seed=DEFAULT_SEED):
    """Unique normal forms under independently shuffled rule orders."""
    t0 = time.time()
    rng = random.Random(f"{seed}:1")
    terms = 1000
    bad = 0
    for i in range(terms):
        g = random_sterm(rng, max_vertices=12)
        a = normalize(g)
        if (normalize(g, rng=random.Random(f"{seed}:1:{i}:0")) != a
                or normalize(g, rng=random.Random(f"{seed}:1:{i}:1")) != a):
            bad += 1
    # the two displayed critical pairs, as fixed regressions
    regressions = 0
    for s in (Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)):
        cp1 = parse(f"mu({s}) ; delta ; (delta | id)")
        cp2 = parse(f"delta ; mu({s}) ; delta")
        for g in (cp1, cp2):
            a = normalize(g)
            for k in range(4):
                if normalize(g, rng=random.Random(f"{seed}:1:cp:{s}:{k}")) != a:
                    regressions += 1
    if normalize(parse("delta ; mu(1/2) ; delta")) != normalize(parse("delta")):
        regressions += 1
    ok = bad == 0 and regressions == 0
    return _outcome(1, "confluence / unique normal forms", ok,
                    f"{terms - bad}/{terms} terms identical, "
                    f"{regressions} critical-pair failures", t0)


def crit2_basis_counts(seed=DEFAULT_SEED):
    """enumerate_basis against brute-force sequence counting."""
    t0 = time.time()
    bad = []
    for m in range(1, 5):
        for k in range(0, 5):
            got = len(enumerate_basis(1, m, k))
            want = _brute_count(m, m + k)
            if got != want:
                bad.append((m, k, got, want))
    product_cells = len(enumerate_basis(2, 1, 1))  # the binary product cell
    cup1_cells = len(enumerate_basis(1, 2, 1))  # 121 and 212
    ok = not bad and cup1_cells == 2 and product_cells == 1
    counts = ("all match" if not bad
              else f"{len(bad)} mismatches, first (m, k, got, want) {bad[:3]}")
    return _outcome(2, "basis counts", ok,
                    f"m<=4, k<=4 {counts}; degree-1 anchors (1,2) = {cup1_cells}, "
                    f"(2,1) = {product_cells}", t0)


def _brute_count(m, length):
    count = 0
    for seq in product(range(1, m + 1), repeat=length):
        if any(a == b for a, b in zip(seq, seq[1:])):
            continue
        if len(set(seq)) == m:
            count += 1
    return count


def crit3_differential(seed=DEFAULT_SEED):
    """d o d = 0 on the exhaustive small range plus random elements."""
    t0 = time.time()
    rng = random.Random(f"{seed}:3")
    checked = bad = 0
    for m in range(1, 5):
        for k in range(0, 5):
            for t in enumerate_basis(1, m, k):
                if not chains.differential(chains.differential(t)).is_zero():
                    bad += 1
                checked += 1
    for _ in range(200):
        t = random_stype(rng, max_n=4, max_m=3, max_degree=3)
        if not chains.differential(chains.differential(t)).is_zero():
            bad += 1
        checked += 1
    return _outcome(3, "d^2 = 0", bad == 0, f"{checked} elements, {bad} failures", t0)


def _basis_faces(d):
    vs = range(d + 1)
    return [tuple(c) for k in range(1, d + 2) for c in combinations(vs, k)]


def crit4_chain_map(seed=DEFAULT_SEED):
    """act is a chain map and respects operadic composition, exactly."""
    t0 = time.time()
    rng = random.Random(f"{seed}:4")
    gens = []
    for m in range(1, 4):
        for k in range(0, 4):
            gens.extend(enumerate_basis(1, m, k))
    bad = tested = 0
    for t in gens:
        x = chains.ChainElement.of(t)
        dx = chains.differential(x)
        for d in range(1, 6):
            for f in _basis_faces(d):
                lhs = chains.act(dx, [(f,)])
                rhs = (chains.tensor_boundary(chains.act(x, [(f,)]))
                       ^ chains.act(x, [(df,) for df in chains.face_boundary(f)]))
                if lhs != rhs:
                    bad += 1
                tested += 1
    comp_bad = comp_tested = 0
    for _ in range(250):
        top = random_stype(rng, max_n=1, max_m=3, max_degree=2)
        bots = [random_stype(rng, max_n=1, max_m=2, max_degree=1)
                for _ in range(top.m)]
        bottom = chains.ChainElement.of(bots[0])
        for y in bots[1:]:
            bottom = chains.horizontal_chain(bottom, chains.ChainElement.of(y))
        xc = chains.ChainElement.of(top)
        comp = chains.chain_compose(xc, bottom)
        f = tuple(range(rng.randint(1, 5)))
        if chains.act(comp, [(f,)]) != chains.act(bottom, chains.act(xc, [(f,)])):
            comp_bad += 1
        comp_tested += 1
    ok = bad == 0 and comp_bad == 0
    return _outcome(4, "chain map / act compatibility", ok,
                    f"{tested} chain-map checks, {comp_tested} composites, "
                    f"{bad + comp_bad} failures", t0)


def crit5_steenrod(seed=DEFAULT_SEED):
    """Steenrod suite: coboundary relations, Sq1 on the projective plane,
    Sq0 stability, and cup-0 against the front/back oracle."""
    t0 = time.time()
    rng = random.Random(f"{seed}:5")
    failures = []

    # delta(a cup_1 b) = a cup b + b cup a for cocycles, d <= 5
    for d in range(1, 6):
        K = complexes.SimplicialComplex.standard_simplex(d)
        for _ in range(20):
            qa = rng.randint(0, d - 1)
            qb = rng.randint(0, d - 1)
            a = _random_cocycle(rng, K, qa)
            b = _random_cocycle(rng, K, qb)
            if a is None or b is None:
                continue
            lhs = complexes.coboundary(K, chains.cup_i(1, a, b, K))
            rhs = (chains.cup_i(0, a, b, K) ^ chains.cup_i(0, b, a, K))
            if lhs != rhs:
                failures.append(("coboundary", d, qa, qb))

    # Steenrod's formula on arbitrary cochains, d <= 6, i <= 3:
    # delta(a cup_i b) = da cup_i b + a cup_i db + a cup_(i-1) b + b cup_(i-1) a
    for d in range(1, 7):
        K = complexes.SimplicialComplex.standard_simplex(d)
        for _ in range(70):
            while True:  # a degree the coboundary of a cup_i b still lives in
                i, qa, qb = rng.randint(0, 3), rng.randint(0, d), rng.randint(0, d)
                if 0 <= qa + qb - i < d and i <= min(qa, qb) + 1:
                    break
            a = frozenset(f for f in K.simplices(qa) if rng.random() < 0.5)
            b = frozenset(f for f in K.simplices(qb) if rng.random() < 0.5)
            da, db = complexes.coboundary(K, a), complexes.coboundary(K, b)
            lhs = complexes.coboundary(K, chains.cup_i(i, a, b, K))
            rhs = chains.cup_i(i, da, b, K) ^ chains.cup_i(i, a, db, K)
            if i:
                rhs ^= chains.cup_i(i - 1, a, b, K) ^ chains.cup_i(i - 1, b, a, K)
            if lhs != rhs:
                failures.append(("steenrod-formula", d, i, qa, qb))

    # Sq1 detects the generator on the projective plane
    K = complexes.rp2()
    gen = complexes.representative_cocycle(K, 1)
    sq1 = chains.steenrod_square(1, gen, K)
    if not sq1 or complexes.is_coboundary(K, sq1):
        failures.append(("sq1-rp2",))

    # Sq0 fixes classes on three small complexes
    for K2, q in ((complexes.circle(4), 1), (complexes.rp2(), 1),
                  (complexes.SimplicialComplex(
                      [f for f in combinations(range(4), 3)]), 2)):
        x = complexes.representative_cocycle(K2, q)
        sq0 = chains.steenrod_square(0, x, K2)
        if not complexes.is_coboundary(K2, frozenset(sq0 ^ x)):
            failures.append(("sq0", q))

    # cup_0 equals the front/back-face product on all basis cochains, d <= 4
    for d in range(1, 5):
        K3 = complexes.SimplicialComplex.standard_simplex(d)
        for qa in range(0, d + 1):
            for qb in range(0, d + 1 - qa):
                for fa in K3.simplices(qa):
                    for fb in K3.simplices(qb):
                        got = chains.cup_i(0, frozenset([fa]), frozenset([fb]), K3)
                        want = _front_back_cup(K3, fa, fb)
                        if got != want:
                            failures.append(("cup0", d, fa, fb))
    return _outcome(5, "Steenrod suite", not failures,
                    f"{len(failures)} failures" if failures else "all identities hold", t0)


def _random_cocycle(rng, K, q):
    basis = complexes.cocycle_basis(K, q)
    basis = [b for b in basis if b]
    if not basis:
        return None
    out = frozenset()
    for b in basis:
        if rng.random() < 0.5:
            out ^= b
    return out if out else basis[0]


def _front_back_cup(K, fa, fb):
    """Independent Alexander-Whitney product: front face of a, back of b."""
    qa, qb = len(fa) - 1, len(fb) - 1
    out = set()
    for sigma in K.simplices(qa + qb):
        if sigma[:qa + 1] == fa and sigma[qa:] == fb:
            out.add(sigma)
    return frozenset(out)


def crit6_cw_suite(seed=DEFAULT_SEED):
    """The interval-level identities: attaching maps, relations,
    cellularity, naturality, and realization well-definedness."""
    t0 = time.time()
    rng = random.Random(f"{seed}:6")
    failures = []
    samples = 10000

    # attaching-map identities, exact rationals
    pairs = [
        (generators.corolla("mu", (Fraction(0),)), 2),
        (generators.corolla("mu", (Fraction(1),)), 2),
        (generators.corolla("phi", (Fraction(0),)), 1),
        (generators.corolla("phi", (Fraction(1),)), 1),
    ]
    for g, arity in pairs:
        boundary = generators.apply_attaching(g)
        bad = 0
        for _ in range(samples):
            pts = tuple(simplex.random_point(rng, 2, denom=32) for _ in range(arity))
            if simplex.eval_term(g, pts) != simplex.eval_term(boundary, pts):
                bad += 1
        if bad:
            failures.append(("attaching", g.vertices[0], bad))

    # relations of the homotopy presentation (counit-capped, so the point
    # content is biarity bookkeeping; checked on sampled points anyway)
    relation_pairs = [
        ("delta ; (eps | eps)", "eps"),
        ("mu(3/8) ; eps", "eps | eps"),
        ("h(3/8) ; eps", "eps"),
    ]
    for lhs, rhs in relation_pairs:
        g1, g2 = parse(lhs), parse(rhs)
        for _ in range(200):
            pts = tuple(simplex.random_point(rng, 2) for _ in range(g1.n))
            if simplex.eval_term(g1, pts) != simplex.eval_term(g2, pts):
                failures.append(("relation", lhs))
                break

    # cellularity
    for kind, params in (("delta", ()), ("eps", ()),
                         ("mu", (random_interior(rng),)),
                         ("phi", (random_interior(rng),))):
        g = generators.corolla(kind, params)
        v = simplex.check_cellular(g, 3, samples, rng)
        if v:
            failures.append(("cellular", kind, len(v)))

    # naturality, exact, d <= 4
    for kind, params in (("delta", ()), ("eps", ()),
                         ("mu", (random_interior(rng),)),
                         ("phi", (random_interior(rng),))):
        g = generators.corolla(kind, params)
        for d in range(0, 5):
            for i in range(0, d + 2):
                if simplex.check_naturality(g, "delta", i, d, 40, rng):
                    failures.append(("naturality-delta", kind, d, i))
            for i in range(1, d + 2):
                if simplex.check_naturality(g, "sigma", i, d, 40, rng):
                    failures.append(("naturality-sigma", kind, d, i))

    # realization well-definedness on both representatives
    ss = sset.standard_sset(2)
    cells_by_dim = {0: ["0", "1", "2"], 1: ["0,1", "0,2", "1,2"], 2: ["0,1,2"]}
    bad = 0
    for _ in range(1000):
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
        x = simplex.random_point(rng, d, denom=8)
        lhs = sset.canonicalize(ss, sset.RealizationPoint(
            sset.pull_back_cell(ss, word, gamma), x))
        rhs = sset.canonicalize(ss, sset.RealizationPoint(
            gamma, sset.apply_word_to_point(word, x)))
        if lhs != rhs:
            bad += 1
    if bad:
        failures.append(("realization", bad))
    return _outcome(6, "CW-level suite", not failures,
                    f"{len(failures)} failing identity groups" if failures
                    else "attaching, relations, cellularity, naturality, realization ok", t0)


def crit7_stabilization(seed=DEFAULT_SEED):
    """r o i is the identity on canonical forms; endpoint identities of
    the other composite hold at the parameter boundary."""
    t0 = time.time()
    rng = random.Random(f"{seed}:7")
    bad = 0
    for _ in range(500):
        g = random_sterm(rng, max_vertices=8)
        gi = generators.stabilize_add(g)
        gr = generators.stabilize_remove(gi)
        if not equal_ms(gr, g):
            bad += 1
    # the i o r homotopy at its endpoints
    endpoint_bad = 0
    for _ in range(100):
        g = random_sterm(rng, max_vertices=6)
        if g.m == 0:
            continue
        for s, reference in ((Fraction(1), generators.stabilize_add(
                generators.stabilize_remove(g))), (Fraction(0), g)):
            h = _ir_homotopy(g, s)
            if not equal_ms(h, reference):
                endpoint_bad += 1
    ok = bad == 0 and endpoint_bad == 0
    return _outcome(7, "stabilization", ok,
                    f"r o i identity: {500 - bad}/500; endpoint failures: {endpoint_bad}", t0)


def _ir_homotopy(g, s):
    """Pull a strand off input 1, rejoin it with output 1 by the product."""
    top = graphs.horizontal_compose([generators.corolla("delta"),
                                     graphs.unit(g.n - 1)])
    mid = graphs.horizontal_compose([graphs.unit(1), g])
    bottom = graphs.horizontal_compose([generators.corolla("mu", (s,)),
                                        graphs.unit(g.m - 1)])
    return graphs.vertical_compose(graphs.vertical_compose(top, mid), bottom)


def crit8_surfaces(seed=DEFAULT_SEED):
    """Arc surfaces: faithfulness, Euler identities, anchors, degeneration."""
    t0 = time.time()
    rng = random.Random(f"{seed}:8")
    failures = []

    count = 0
    for n in range(1, 4):
        for m in range(1, 4):
            for k in range(0, 4):
                for t in enumerate_basis(n, m, k):
                    x = random_weights(rng, t)
                    rg = surfaces.collapse_edges(surfaces.to_ribbon(x))
                    if surfaces.recover_surjection(rg, x.n, x.m) != x:
                        failures.append(("faithful", t))
                    count += 1

    for _ in range(200):
        x = random_ws(rng, max_n=3, max_m=3, max_degree=3)
        s = surfaces.surface_summary(x)
        if s.euler != s.vertices - s.edges + s.faces:
            failures.append(("chi", x))
        if s.chi_surface != 2 * s.components - 2 * s.genus - s.boundary:
            failures.append(("chi2", x))
        rg = surfaces.to_ribbon(x)
        if (len(rg.rotation) - len(rg.edges) + len(surfaces.ribbon_loops(rg))
                != s.euler):
            failures.append(("chi-uncollapsed", x))

    s_id = surfaces.surface_summary(normalize(parse("id")))
    s_delta = surfaces.surface_summary(normalize(parse("delta")))
    if (s_id.genus, s_id.boundary) != (0, 2):
        failures.append(("anchor-id",))
    if (s_delta.genus, s_delta.boundary) != (0, 3):
        failures.append(("anchor-delta",))

    # weight -> 0 degeneration: removing the arc is the limit element
    degen = 0
    tried = 0
    while tried < 200:
        t = random_stype(rng, max_n=2, max_m=3, max_degree=3)
        flat = [(i, u) for i, blk in enumerate(t.blocks) for u in range(len(blk))]
        strand = rng.randrange(len(flat))
        i, u = flat[strand]
        if t.output_counts()[t.blocks[i][u] - 1] < 2:
            continue
        tried += 1
        x0 = random_weights(rng, t, boundary_strand=strand)
        limit = canonicalize_ws(x0)
        rg = surfaces.collapse_edges(surfaces.to_ribbon(x0))
        rg2 = surfaces.remove_arc(
            rg, surfaces.arc_edges_in_position_order(rg)[strand])
        recovered = surfaces.recover_surjection(rg2, x0.n, x0.m)
        if recovered != limit:
            degen += 1
            continue
        if surfaces.surface_summary(limit) != surfaces.surface_summary(recovered):
            degen += 1
    if degen:
        failures.append(("degeneration", degen))
    return _outcome(8, "arc surfaces", not failures,
                    f"{count} basis round-trips, degeneration 200 cases"
                    + ("" if not failures else f"; failures {failures[:3]}"), t0)


def crit9_symmetry(seed=DEFAULT_SEED):
    """Output actions are free on the operadic bases; the known input
    fixed point in biarity (3,1) is reproduced."""
    t0 = time.time()
    failures = []
    for m in range(1, 5):
        perms = [p for p in permutations(range(1, m + 1)) if p != tuple(range(1, m + 1))]
        for k in range(0, 4):
            for t in enumerate_basis(1, m, k):
                x = uniform_weights(t)
                for p in perms:
                    if permute_outputs_ws(x, graphs.Permutation(p)) == x:
                        failures.append(("fixed", t, p))
    fixed = normalize(parse("eps | eps | id"))
    swap12 = graphs.Permutation((2, 1, 3))
    if permute_inputs_ws(fixed, swap12) != fixed:
        failures.append(("remark-fixed-point",))
    moved = graphs.Permutation((1, 3, 2))
    if permute_inputs_ws(fixed, moved) == fixed:
        failures.append(("remark-should-move",))
    return _outcome(9, "symmetric group anchors", not failures,
                    "free output action, input fixed point reproduced"
                    if not failures else f"failures {failures[:3]}", t0)


SUITES = [crit1_confluence, crit2_basis_counts, crit3_differential,
          crit4_chain_map, crit5_steenrod, crit6_cw_suite,
          crit7_stabilization, crit8_surfaces, crit9_symmetry]


def run_all(seed=DEFAULT_SEED, only=None, out=print):
    results = []
    for number, fn in enumerate(SUITES, start=1):
        if only and number not in only:
            continue
        res = fn(seed)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        out(f"criterion {res.number} {status} [{res.seconds:6.2f}s] "
            f"{res.name}: {res.detail}")
    total = sum(r.seconds for r in results)
    out(f"{'OK' if all(r.passed for r in results) else 'FAILED'} "
        f"({sum(r.passed for r in results)}/{len(results)} criteria, {total:.1f}s, seed={seed})")
    return results
