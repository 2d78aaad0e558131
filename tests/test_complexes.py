import os
import random
from itertools import combinations, permutations
from operator import itemgetter

import pytest

from propcalc.chains import act_type, cup_i, cup_type, steenrod_square
from propcalc.cli import run
from propcalc.complexes import (RP2_FACES, SimplicialComplex, _coboundary_rows,
                                _faces_from_text, _rref, circle, coboundary, cochain_degree,
                                cochain_from_text, cochain_to_text, cocycle_basis,
                                is_coboundary, is_cocycle, representative_cocycle, rp2)
from propcalc.errors import GraphError, InternalError


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


# ---------------------------------------------------------------------------
# oracle: the per-line reader and the per-simplex kernels that the
# column-wise ones replaced, kept verbatim in behaviour

def _old_faces_from_text(text):
    faces = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            try:
                faces.append(tuple(map(int, line.split())))
            except ValueError:
                raise GraphError(f"vertices must be integers: {line!r}") from None
    return faces


class _OldComplex:
    """Maximal faces sorted one by one; k-faces by one comprehension."""

    def __init__(self, maximal_faces):
        self._maximal = {tuple(sorted(set(f))) for f in maximal_faces}
        if () in self._maximal:
            raise GraphError("empty face")
        self.dim = max(map(len, self._maximal), default=0) - 1

    def _faces(self, k):
        return {c for f in self._maximal if len(f) > k >= 0 for c in combinations(f, k + 1)}

    def simplices(self, k):
        return sorted(self._faces(k))

    @classmethod
    def from_text(cls, text):
        faces = _old_faces_from_text(text)
        if not faces:
            raise GraphError("no faces in complex description")
        return cls(faces)


def _old_cochain_from_text(text):
    return frozenset(tuple(sorted(f)) for f in _old_faces_from_text(text))


def _old_cochain_to_text(cochain):
    if not cochain:
        return "# zero cochain"
    return "\n".join(" ".join(str(v) for v in f) for f in sorted(cochain))


def _old_cochain_degree(cochain):
    dims = {len(f) - 1 for f in cochain}
    if len(dims) != 1:
        raise GraphError("cochain must be homogeneous")
    return dims.pop()


def _old_face_picker(positions):
    if len(positions) == 1:
        j = positions[0]
        return lambda sigma: (sigma[j],)
    return itemgetter(*positions)


def _old_picker_coboundary(complex_, cochain):
    if not cochain:
        return frozenset()
    q = _old_cochain_degree(cochain)
    facets = [_old_face_picker(tuple(k for k in range(q + 2) if k != j)) for j in range(q + 2)]
    out = set()
    for sigma in complex_.simplices(q + 1):
        parity = 0
        for facet in facets:
            if facet(sigma) in cochain:
                parity ^= 1
        if parity:
            out.add(sigma)
    return frozenset(out)


def _old_cup_i(i, a, b, complex_):
    if i < 0:
        raise GraphError("cup index must be nonnegative")
    if not a or not b:
        return frozenset()
    pa = _old_cochain_degree(a)
    pb = _old_cochain_degree(b)
    deg = pa + pb - i
    if deg < 0:
        return frozenset()
    pattern = [(_old_face_picker(f1), _old_face_picker(f2))
               for f1, f2 in act_type(cup_type(i), (tuple(range(deg + 1)),))
               if len(f1) == pa + 1]
    result = set()
    for sigma in complex_.simplices(deg):
        count = 0
        for f1, f2 in pattern:
            if f1(sigma) in a and f2(sigma) in b:
                count ^= 1
        if count:
            result.add(sigma)
    return frozenset(result)


def _old_steenrod_square(k, x, complex_):
    if _old_picker_coboundary(complex_, x):
        raise GraphError("steenrod_square expects a cocycle")
    if not x or k < 0:
        return frozenset()
    q = _old_cochain_degree(x)
    if k > q:
        return frozenset()
    y = _old_cup_i(q - k, x, x, complex_)
    if _old_picker_coboundary(complex_, y):
        raise InternalError("square of a cocycle failed to be a cocycle")
    return y


def _outcome(f, *args):
    """What a call returns, or the class and message of the error it raises."""
    try:
        return f(*args)
    except GraphError as exc:
        return type(exc), str(exc)


# --- the reader against the per-line oracle ----------------------------------

def _token(rng, v):
    """A vertex as a file may write it: plain, signed or zero-padded."""
    r = rng.random()
    if v < 0 or r >= 0.25:
        return str(v)
    return ("+", "-", "00")[int(r / 0.1)] + str(v)


def _random_face_text(rng):
    """A face file in the layouts the reader accepts: comments, blank lines,
    tabs, CRLF, padding, one or many widths, sorted or unsorted vertices."""
    eol = rng.choice(["\n", "\n", "\r\n", "\r"])
    order = rng.choice(["increasing", "any", "mixed"])
    width = rng.choice([None, 1, 2, 3, 4])  # None: every line its own width
    lines = []
    for _ in range(rng.randint(0, 12)):
        r = rng.random()
        if r < 0.08:
            lines.append(rng.choice(["", "   ", "\t", " \t "]))
            continue
        if r < 0.16:
            lines.append(rng.choice(["# comment", "#", "  # 1 2 3", "#x y"]))
            continue
        w = width or rng.randint(1, 5)
        if order == "increasing" or (order == "mixed" and rng.random() < 0.5):
            vertices = sorted(rng.sample(range(-3, 12), w))
        else:
            vertices = [rng.randrange(-3, 12) for _ in range(w)]
        seps = [rng.choice([" ", "  ", "\t", " \t"]) for _ in range(w - 1)]
        line = _token(rng, vertices[0]) + "".join(
            sep + _token(rng, v) for sep, v in zip(seps, vertices[1:]))
        line = rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\t "])
        if rng.random() < 0.15:
            line += rng.choice(["#", " # 7 8", "#tail"])
        lines.append(line)
    return eol.join(lines) + rng.choice(["", eol])


def test_the_reader_matches_the_per_line_oracle_on_seeded_texts():
    rng = random.Random(180)
    fast = 0
    for _ in range(2400):
        text = _random_face_text(rng)
        faces = _faces_from_text(text)
        assert faces == _old_faces_from_text(text), text
        assert all(type(f) is tuple for f in faces)
        assert cochain_from_text(text) == _old_cochain_from_text(text), text
        new = _outcome(SimplicialComplex.from_text, text)
        old = _outcome(_OldComplex.from_text, text)
        if isinstance(old, tuple):
            assert new == old
            continue
        assert new._maximal == old._maximal and new.dim == old.dim, text
        fast += faces != [] and len(set(map(len, faces))) == 1 and all(
            list(f) == sorted(set(f)) for f in faces)
    assert fast >= 300  # the column check keeps many texts as written


@pytest.mark.parametrize("bad", ["x", "1.5", "1e3", "--1", "0x1", "1_", "٣x", "1" * 4301],
                         ids=["letter", "decimal", "exponent", "two-signs", "hex", "underscore",
                              "digit-then-letter", "past-the-digit-limit"])
def test_a_bad_token_gives_the_per_line_error(bad):
    rng = random.Random(len(bad))
    for _ in range(40):
        lines = _random_face_text(rng).splitlines() or [""]
        at = rng.randrange(len(lines) + 1)
        lines.insert(at, rng.choice(["", " ", "1 "]) + bad + rng.choice(["", " 2", "\t# c"]))
        text = "\n".join(lines)
        for new, old in ((_faces_from_text, _old_faces_from_text),
                         (SimplicialComplex.from_text, _OldComplex.from_text),
                         (cochain_from_text, _old_cochain_from_text)):
            got, want = _outcome(new, text), _outcome(old, text)
            assert isinstance(want, tuple) and got == want
            assert want[1].startswith("vertices must be integers: ")


def test_a_vertex_past_the_digit_limit_is_named_like_any_bad_token():
    long = "7" * 4301
    text = f"0 1 2\n1 2 {long}\n# done\n"
    message = f"vertices must be integers: '1 2 {long}'"
    for read in (_faces_from_text, _old_faces_from_text, SimplicialComplex.from_text,
                 cochain_from_text):
        with pytest.raises(GraphError) as exc:
            read(text)
        assert str(exc.value) == message


def test_faces_given_in_any_iterable_form_build_the_same_complex():
    faces = [[2, 0, 1], (3, 4), iter((5, 5, 6)), "78", range(9, 11)]
    assert SimplicialComplex(faces)._maximal == _OldComplex(
        [[2, 0, 1], (3, 4), iter((5, 5, 6)), "78", range(9, 11)])._maximal
    sorted_lists = [[0, 1, 2], [1, 2, 3]]
    assert SimplicialComplex(sorted_lists)._maximal == {(0, 1, 2), (1, 2, 3)}
    with pytest.raises(GraphError, match="empty face"):
        SimplicialComplex([(), ()])


# --- the kernels against the per-simplex oracle ------------------------------

def _oracle_complexes():
    rng = random.Random(181)
    for seed in range(12):
        faces = _random_maximal_faces(random.Random(seed))
        faces += [(20 + j,) for j in range(rng.randint(0, 2))]  # isolated vertices
        yield f"random{seed}", faces
    K = rp2()
    for k in range(3):
        yield f"sd{k}-rp2", K.simplices(K.dim)
        K = _subdivide(K)


def _random_cochains(rng, old, q, count):
    faces = old.simplices(q)
    for _ in range(count):
        density = rng.random()
        c = {f for f in faces if rng.random() < density}
        if rng.random() < 0.2:  # a face the complex does not have
            c.add(tuple(range(1000, 1001 + q)))
        yield frozenset(c)


@pytest.mark.parametrize("name, faces", list(_oracle_complexes()),
                         ids=[name for name, _ in _oracle_complexes()])
def test_the_kernels_match_the_per_simplex_oracle(name, faces):
    rng = random.Random(name)
    K, old = SimplicialComplex(faces), _OldComplex(faces)
    for k in range(-1, old.dim + 2):
        assert K._faces(k) == old._faces(k)
        assert K.simplices(k) == old.simplices(k)
    nonzero = 0
    pool = {q: list(_random_cochains(rng, old, q, 10)) for q in range(old.dim + 1)}
    for q, cochains in pool.items():
        for c in cochains:
            d = coboundary(K, c)
            assert d == _old_picker_coboundary(old, c)
            assert cochain_to_text(d) == _old_cochain_to_text(d)
            assert cochain_to_text(c) == _old_cochain_to_text(c)
            nonzero += bool(d)
    for i in range(4):
        for _ in range(10):
            pa = rng.randrange(old.dim + 1)  # mostly degrees with room for a result
            pb = rng.randint(0, min(old.dim, old.dim + i - pa) if rng.random() < 0.8 else old.dim)
            a, b = rng.choice(pool[pa]), rng.choice(pool[pb])
            got = cup_i(i, a, b, K)
            assert got == _old_cup_i(i, a, b, old)
            assert cochain_to_text(got) == _old_cochain_to_text(got)
            nonzero += bool(got)
    for q in range(old.dim + 1):
        x = representative_cocycle(K, q) or frozenset()
        for c in pool[q][:3] + [frozenset(), x]:
            cocycle = coboundary(K, c) ^ x if q and rng.random() < 0.7 else c
            for k in range(-1, q + 2):
                got = _outcome(steenrod_square, k, cocycle, K)
                assert got == _outcome(_old_steenrod_square, k, cocycle, old)
                if not isinstance(got, tuple):
                    assert cochain_to_text(got) == _old_cochain_to_text(got)
    mixed = frozenset(f for q in pool for f in pool[q][0])
    assert cochain_to_text(mixed) == _old_cochain_to_text(mixed)
    assert _outcome(coboundary, K, mixed) == _outcome(_old_picker_coboundary, old, mixed)
    assert nonzero >= 8 or old.dim == 0  # a point has few nonzero results


def test_cup_and_sq_on_a_40_vertex_simplex_build_only_low_faces():
    K = SimplicialComplex.from_text(" ".join(map(str, range(40))) + "\n")
    every = cochain_from_text("".join(f"{v}\n" for v in range(40)))
    assert steenrod_square(0, every, K) == every
    evens = cochain_from_text("".join(f"{v}\n" for v in range(0, 40, 2)))
    thirds = cochain_from_text("".join(f"{v}\n" for v in range(0, 40, 3)))
    assert cup_i(0, evens, thirds, K) == frozenset((v,) for v in range(0, 40, 6))
    edges = frozenset(combinations(range(0, 40, 13), 2))
    assert cup_i(1, edges, edges, K) == _old_cup_i(1, edges, edges, _OldComplex(K._maximal))
    assert max(K._face_sets) <= 2 and max(K._scans) <= 2


# --- `propcalc sq` and `cup` against the per-simplex route -------------------

DATA = os.path.join(os.path.dirname(__file__), "data")


def _oracle_cli(command, index, complex_path, *cochain_paths):
    """(exit code, stdout, stderr) of `propcalc sq`/`cup` by the oracle route."""
    try:
        with open(complex_path) as fh:
            K = _OldComplex.from_text(fh.read())
        cochains = []
        for path in cochain_paths:
            with open(path) as fh:
                c = _old_cochain_from_text(fh.read())
            stray = c.difference(*(K._faces(n - 1) for n in {len(f) for f in c}))
            if stray:
                return 1, "", (f"error: {path}: face {' '.join(map(str, min(stray)))} "
                               f"is not a simplex of the complex\n")
            cochains.append(c)
        if command == "sq":
            result = _old_steenrod_square(index, cochains[0], K)
        else:
            result = _old_cup_i(index, *cochains, K)
    except GraphError as exc:
        return 1, "", f"error: {exc}\n"
    return 0, _old_cochain_to_text(result) + "\n", ""


def _messy_text(rng, faces):
    """The faces shuffled, each written unsorted among comments and blank
    lines, with tabs, padding and CRLF line ends."""
    lines = ["# a commented, unsorted copy"]
    for f in rng.sample(sorted(faces), len(faces)):
        vertices = rng.sample(f, len(f))
        line = rng.choice([" ", "", "\t"]) + rng.choice([" ", "\t", "  "]).join(map(str, vertices))
        lines.append(line + rng.choice(["", " ", "  # face"]))
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "#", "   "]))
    return "\r\n".join(lines) + "\r\n"


def test_sq_and_cup_print_what_the_per_simplex_route_printed(capsys, tmp_path):
    rng = random.Random(182)
    K = _subdivide(_subdivide(rp2()))
    g = representative_cocycle(K, 1)
    a = coboundary(K, frozenset(v for v in K.simplices(0) if rng.random() < 0.5)) ^ g
    b = coboundary(K, frozenset(v for v in K.simplices(0) if rng.random() < 0.5))
    files = {
        "sd2.sc": "".join(" ".join(map(str, f)) + "\n" for f in K.simplices(2)),
        "sd2-messy.sc": _messy_text(rng, K.simplices(2)),
        "a.cc": cochain_to_text(a) + "\n",
        "a-messy.cc": _messy_text(rng, a),
        "b.cc": cochain_to_text(b) + "\n",
        "zero.cc": cochain_to_text(frozenset()) + "\n",
        "stray.cc": cochain_to_text(a) + "\n1000 1001\n",
        "edge.cc": " ".join(map(str, K.simplices(1)[7])) + "\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_bytes(text.encode())
    path = {name: str(tmp_path / name) for name in files}
    rp2_sc, rp2_h1 = os.path.join(DATA, "rp2.sc"), os.path.join(DATA, "rp2_h1.cc")
    cases = [("sq", k, rp2_sc, rp2_h1) for k in range(3)]
    cases += [("cup", i, rp2_sc, rp2_h1, rp2_h1) for i in range(3)]
    for complex_ in (path["sd2.sc"], path["sd2-messy.sc"]):
        cases += [("sq", k, complex_, path[x]) for k in range(3)
                  for x in ("a.cc", "a-messy.cc", "b.cc", "zero.cc", "stray.cc", "edge.cc")]
        cases += [("cup", i, complex_, path[x], path[y]) for i in range(3)
                  for x, y in (("a.cc", "a-messy.cc"), ("a-messy.cc", "b.cc"),
                               ("b.cc", "zero.cc"), ("a.cc", "stray.cc"))]
    outcomes = set()
    for command, index, complex_, *cochains in cases:
        argv = [command, "--k" if command == "sq" else "--i", str(index), "--complex", complex_]
        if command == "sq":
            argv += ["--cocycle", cochains[0]]
        else:
            argv += ["--a", cochains[0], "--b", cochains[1]]
        code = run(argv)
        out, err = capsys.readouterr()
        want = _oracle_cli(command, index, complex_, *cochains)
        assert (code, out, err) == want, argv
        outcomes.add((code, out == "# zero cochain\n", err.split(":")[0]))
    assert outcomes == {(0, False, ""), (0, True, ""), (1, False, "error")}


def test_a_circle_needs_three_edges():
    with pytest.raises(GraphError) as info:
        circle(2)
    assert str(info.value) == "need at least three edges"
