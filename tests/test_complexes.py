import os
import random
from itertools import combinations, permutations

import pytest

from propcalc.chains import cup_i, steenrod_square
from propcalc.complexes import (RP2_FACES, SimplicialComplex, _coboundary_rows, _rref,
                                circle, coboundary, cochain_degree, cochain_from_text,
                                cochain_to_text, cocycle_basis, is_coboundary,
                                is_cocycle, representative_cocycle, rp2)
from propcalc.errors import GraphError


# --- oracle: Betti numbers by rank, which the library does not need ----------

def _image_rank(complex_, q):
    """Rank of the coboundary map from q-cochains to (q+1)-cochains."""
    if not complex_.simplices(q) or not complex_.simplices(q + 1):
        return 0
    rows, _ = _coboundary_rows(complex_, q)
    return len(_rref(rows)[0])


def cohomology_dim(complex_, q) -> int:
    """dim H^q with F2 coefficients."""
    n = len(complex_.simplices(q))
    cocycles = n - _image_rank(complex_, q)
    coboundaries = _image_rank(complex_, q - 1) if q > 0 else 0
    return cocycles - coboundaries


def sphere2():
    return SimplicialComplex(list(combinations(range(4), 3)))


def test_complex_from_text_and_closure():
    K = SimplicialComplex.from_text("# triangle\n0 1 2\n")
    assert (0, 1) in K and (2,) in K and (0, 1, 2) in K
    assert K.euler_characteristic() == 1
    with pytest.raises(GraphError):
        SimplicialComplex.from_text("# nothing\n")


class EagerComplex:
    """The whole downward closure, built at once: an oracle for SimplicialComplex."""

    def __init__(self, maximal_faces):
        faces = set()
        for f in maximal_faces:
            f = tuple(sorted(set(f)))
            if not f:
                raise GraphError("empty face")
            for k in range(1, len(f) + 1):
                faces.update(combinations(f, k))
        self.faces = faces
        self.by_dim = {}
        for f in faces:
            self.by_dim.setdefault(len(f) - 1, []).append(f)
        for k in self.by_dim:
            self.by_dim[k].sort()
        self.dim = max(self.by_dim) if self.by_dim else -1
        self.euler = sum((-1) ** k * len(fs) for k, fs in self.by_dim.items())


def _random_maximal_faces(rng):
    """Mixed dimensions, plus a repeated vertex, a duplicate and a face inside another."""
    faces = [tuple(rng.sample(range(9), rng.randint(1, 5))) for _ in range(rng.randint(1, 6))]
    big = faces[0]
    faces.append(big)
    faces.append(big[:rng.randint(1, len(big))])
    faces.append(big + big[:1])
    rng.shuffle(faces)
    return faces


def _assert_same_complex(K, oracle, rng):
    assert K.dim == oracle.dim
    assert K.euler_characteristic() == oracle.euler
    for k in range(-1, oracle.dim + 2):
        assert K.simplices(k) == oracle.by_dim.get(k, [])
    for face in oracle.faces:
        assert face in K and list(face) in K
    assert () not in K
    # faces of every dimension, most of them not in the complex
    for n in range(1, oracle.dim + 3):
        for _ in range(20):
            face = tuple(sorted(rng.sample(range(10), n)))
            assert (face in K) == (face in oracle.faces)


@pytest.mark.parametrize("seed", range(40))
def test_closure_matches_the_eager_oracle(seed):
    rng = random.Random(seed)
    faces = _random_maximal_faces(rng)
    K = SimplicialComplex(faces)
    # the same complex whatever is asked for first
    for k in reversed(range(-1, K.dim + 2)):
        K.simplices(k)
    _assert_same_complex(K, EagerComplex(faces), rng)
    _assert_same_complex(SimplicialComplex(faces), EagerComplex(faces), rng)
    text = "# random\n" + "\n".join(" ".join(map(str, f)) for f in faces)
    _assert_same_complex(SimplicialComplex.from_text(text), EagerComplex(faces), rng)


def test_closure_of_the_projective_plane_file_is_unchanged():
    path = os.path.join(os.path.dirname(__file__), "data", "rp2.sc")
    with open(path) as fh:
        K = SimplicialComplex.from_text(fh.read())
    _assert_same_complex(K, EagerComplex(RP2_FACES), random.Random(2))
    assert [len(K.simplices(k)) for k in range(3)] == [6, 15, 10]


def test_empty_face_is_rejected():
    with pytest.raises(GraphError, match="empty face"):
        SimplicialComplex([(0, 1), ()])


def test_cochain_text_round_trip():
    c = frozenset({(1, 2), (3, 4)})
    assert cochain_from_text(cochain_to_text(c)) == c


def test_rp2_invariants():
    K = rp2()
    assert len(K.simplices(0)) == 6
    assert len(K.simplices(1)) == 15
    assert len(K.simplices(2)) == 10
    assert K.euler_characteristic() == 1
    assert [cohomology_dim(K, q) for q in (0, 1, 2)] == [1, 1, 1]


def test_circle_and_sphere_cohomology():
    assert [cohomology_dim(circle(5), q) for q in (0, 1)] == [1, 1]
    assert [cohomology_dim(sphere2(), q) for q in (0, 1, 2)] == [1, 0, 1]


def test_coboundary_squares_to_zero():
    rng = random.Random(61)
    for K in (rp2(), sphere2(), SimplicialComplex.standard_simplex(3)):
        for q in range(0, 2):
            faces = K.simplices(q)
            c = frozenset(f for f in faces if rng.random() < 0.5)
            if not c:
                continue
            assert coboundary(K, coboundary(K, c)) == frozenset()


def test_cocycle_basis_members_are_cocycles():
    for K in (rp2(), circle(4)):
        for q in (0, 1):
            for c in cocycle_basis(K, q):
                assert is_cocycle(K, c)


def test_cup0_front_back_anchor():
    K = SimplicialComplex.standard_simplex(2)
    a = frozenset({(0, 1)})
    b = frozenset({(1, 2)})
    assert cup_i(0, a, b, K) == frozenset({(0, 1, 2)})
    assert cup_i(0, b, a, K) == frozenset()


def test_cup1_of_top_cochain_on_interval():
    K = SimplicialComplex.standard_simplex(1)
    x = frozenset({(0, 1)})
    assert cup_i(1, x, x, K) == x


def test_cup_above_total_degree_vanishes():
    K = SimplicialComplex.standard_simplex(2)
    a = frozenset({(0, 1)})
    assert cup_i(3, a, a, K) == frozenset()
    assert cup_i(2, a, frozenset({(2,)}), K) == frozenset()


def test_cup_requires_homogeneous():
    K = SimplicialComplex.standard_simplex(2)
    with pytest.raises(GraphError):
        cup_i(0, frozenset({(0,), (0, 1)}), frozenset({(1,)}), K)


def test_is_coboundary_requires_homogeneous():
    with pytest.raises(GraphError, match="homogeneous"):
        is_coboundary(rp2(), frozenset({(1, 2), (1, 2, 3)}))


def test_faces_read_from_text_are_sorted_once():
    assert SimplicialComplex.from_text("2 0 1\n1 2 0\n").simplices(2) == [(0, 1, 2)]
    assert cochain_from_text("2 1\n3 1 2\n") == frozenset({(1, 2), (1, 2, 3)})
    # a repeated vertex is kept, so the face is no simplex of any complex
    assert cochain_from_text("2 1 1\n") == frozenset({(1, 1, 2)})


def test_steenrod_coboundary_relation_on_simplices():
    rng = random.Random(62)
    for d in (2, 3, 4):
        K = SimplicialComplex.standard_simplex(d)
        for _ in range(12):
            qa, qb = rng.randint(0, d - 1), rng.randint(0, d - 1)
            a = _random_cocycle(rng, K, qa)
            b = _random_cocycle(rng, K, qb)
            if a is None or b is None:
                continue
            for i in (1, 2, 3):
                lhs = coboundary(K, cup_i(i, a, b, K))
                rhs = cup_i(i - 1, a, b, K) ^ cup_i(i - 1, b, a, K)
                assert lhs == rhs


def _random_cocycle(rng, K, q):
    basis = [c for c in cocycle_basis(K, q) if c]
    if not basis:
        return None
    out = frozenset()
    for c in basis:
        if rng.random() < 0.5:
            out ^= c
    return out or basis[0]


def test_sq1_on_projective_plane_detects_the_generator():
    K = rp2()
    x = representative_cocycle(K, 1)
    y = steenrod_square(1, x, K)
    assert is_cocycle(K, y)
    assert y and not is_coboundary(K, y)


def test_sq0_fixes_cohomology_classes():
    for K, q in ((circle(4), 1), (rp2(), 1), (sphere2(), 2)):
        x = representative_cocycle(K, q)
        y = steenrod_square(0, x, K)
        assert is_coboundary(K, frozenset(x ^ y))


def test_sq_above_degree_vanishes():
    K = rp2()
    x = representative_cocycle(K, 1)
    assert steenrod_square(2, x, K) == frozenset()


def test_sq_top_degree_is_cup_square():
    K = rp2()
    x = representative_cocycle(K, 1)
    assert steenrod_square(1, x, K) == cup_i(0, x, x, K)


def test_sq_rejects_non_cocycles():
    K = rp2()
    with pytest.raises(GraphError):
        steenrod_square(1, frozenset({(1, 2)}), K)


def _all_coboundaries(K, q):
    """Every delta x for x a (q-1)-cochain, one face toggled at a time (Gray code)."""
    lower = K.simplices(q - 1)
    x, images = frozenset(), {frozenset()}
    for k in range(1, 2 ** len(lower)):
        x ^= {lower[(k & -k).bit_length() - 1]}
        images.add(coboundary(K, x))
    return images


@pytest.mark.parametrize("make", [
    lambda: circle(4), lambda: circle(5), rp2, lambda: SimplicialComplex.standard_simplex(3),
    sphere2, lambda: SimplicialComplex(list(combinations(range(5), 3)))],
    ids=["circle4", "circle5", "rp2", "simplex3", "sphere2", "simplex4-2skeleton"])
def test_is_coboundary_matches_brute_force_enumeration(make):
    K = make()
    rng = random.Random(61)
    checked = 0
    for q in range(1, K.dim + 1):
        images = _all_coboundaries(K, q)
        faces = K.simplices(q)
        if len(faces) <= 10:
            cochains = [frozenset(f for k, f in enumerate(faces) if bits >> k & 1)
                        for bits in range(2 ** len(faces))]
        else:
            cochains = list(images) + [frozenset(f for f in faces if rng.random() < 0.5)
                                       for _ in range(300)]
        for c in cochains:
            assert is_coboundary(K, c) == (c in images), (q, sorted(c))
        checked += len(cochains)
    assert not is_coboundary(K, frozenset({K.simplices(0)[0]}))
    assert checked >= 16


def test_the_zero_cochain_has_a_text_that_reads_back_as_zero():
    assert cochain_to_text(frozenset()) == "# zero cochain"
    assert cochain_from_text(cochain_to_text(frozenset())) == frozenset()


# ---------------------------------------------------------------------------
# oracle: the coboundary that sliced out each facet

def _old_coboundary(complex_, cochain):
    if not cochain:
        return frozenset()
    q = cochain_degree(cochain)
    out = set()
    for sigma in complex_.simplices(q + 1):
        parity = sum(1 for j in range(len(sigma))
                     if sigma[:j] + sigma[j + 1:] in cochain) % 2
        if parity:
            out.add(sigma)
    return frozenset(out)


def _subdivide(K):
    """Barycentric subdivision: the flags of K's top faces, each old face
    numbered by its place in (dimension, vertices) order."""
    faces = sorted((s for k in range(K.dim + 1) for s in K.simplices(k)),
                   key=lambda s: (len(s), s))
    label = {s: i for i, s in enumerate(faces)}
    flags = set()
    for top in K.simplices(K.dim):
        for order in permutations(top):
            flags.add(tuple(label[tuple(sorted(order[:j]))] for j in range(1, len(order) + 1)))
    return SimplicialComplex(sorted(flags))


@pytest.mark.parametrize("make", [
    rp2, lambda: circle(4), lambda: SimplicialComplex.standard_simplex(5),
    lambda: _subdivide(rp2())], ids=["rp2", "circle4", "simplex5", "sd-rp2"])
def test_coboundary_matches_the_facet_slicing_oracle(make):
    K = make()
    rng = random.Random(62)
    nonzero = 0
    for q in range(K.dim + 1):
        faces = K.simplices(q)
        for _ in range(40):
            density = rng.random()
            c = frozenset(f for f in faces if rng.random() < density)
            if c and rng.random() < 0.2:  # a face the complex does not have
                c |= {tuple(range(1000, 1001 + q))}
            d = coboundary(K, c)
            assert d == _old_coboundary(K, c)
            nonzero += bool(d)
    assert nonzero >= 15
