"""Finite ordered simplicial complexes, mod-2 cochain calculus, and the
small amount of GF(2) linear algebra the verification suites need.

A complex is given by its maximal faces; every face is stored as a
strictly increasing vertex tuple.  Cochains are represented by their
supports: frozensets of faces of one dimension.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter

from .errors import GraphError


class SimplicialComplex:
    """Downward closure of a set of maximal faces, built one dimension at a
    time, the first time that dimension is asked for."""

    def __init__(self, maximal_faces):
        self._maximal = {tuple(sorted(set(f))) for f in maximal_faces}
        if () in self._maximal:
            raise GraphError("empty face")
        self.dim = max(map(len, self._maximal), default=0) - 1
        self._face_sets = {}
        self._sorted = {}

    def _faces(self, k):
        """The set of k-faces."""
        faces = self._face_sets.get(k)
        if faces is None:
            faces = self._face_sets[k] = {c for f in self._maximal if len(f) > k >= 0
                                          for c in combinations(f, k + 1)}
        return faces

    def simplices(self, k):
        faces = self._sorted.get(k)
        if faces is None:
            faces = self._sorted[k] = sorted(self._faces(k))
        return faces

    def __contains__(self, face):
        face = tuple(face)
        return face in self._faces(len(face) - 1)

    def euler_characteristic(self):
        return sum((-1) ** k * len(self._faces(k)) for k in range(self.dim + 1))

    @classmethod
    def from_text(cls, text):
        """One maximal face per line, vertices as integers, '#' comments."""
        faces = _faces_from_text(text)
        if not faces:
            raise GraphError("no faces in complex description")
        return cls(faces)

    @classmethod
    def standard_simplex(cls, d):
        return cls([tuple(range(d + 1))])


def _faces_from_text(text):
    """One face per line as a vertex tuple in the order written; blank lines
    and '#' comments skipped."""
    faces = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            try:
                faces.append(tuple(map(int, line.split())))
            except ValueError:
                raise GraphError(f"vertices must be integers: {line!r}") from None
    return faces


def cochain_from_text(text) -> frozenset:
    """One face per line, vertices as integers, '#' comments; a text with
    no face, such as `cochain_to_text` of the zero cochain, is zero."""
    return frozenset(tuple(sorted(f)) for f in _faces_from_text(text))


def cochain_to_text(cochain) -> str:
    """One sorted face per line; the zero cochain is the comment line
    `# zero cochain`, so the text of every cochain reads back as it."""
    if not cochain:
        return "# zero cochain"
    return "\n".join(" ".join(str(v) for v in f) for f in sorted(cochain))


def cochain_degree(cochain) -> int:
    """The dimension shared by the faces of a nonzero cochain."""
    dims = {len(f) - 1 for f in cochain}
    if len(dims) != 1:
        raise GraphError("cochain must be homogeneous")
    return dims.pop()


def face_picker(positions):
    """The face of a simplex at these vertex positions, as a function."""
    if len(positions) == 1:
        j = positions[0]
        return lambda sigma: (sigma[j],)
    return itemgetter(*positions)


def coboundary(complex_: SimplicialComplex, cochain: frozenset) -> frozenset:
    """Mod-2 coboundary: count odd incidences with codimension-one faces,
    each read through its own `face_picker`."""
    if not cochain:
        return frozenset()
    q = cochain_degree(cochain)
    facets = [face_picker(tuple(k for k in range(q + 2) if k != j)) for j in range(q + 2)]
    out = set()
    for sigma in complex_.simplices(q + 1):
        parity = 0
        for facet in facets:
            if facet(sigma) in cochain:
                parity ^= 1
        if parity:
            out.add(sigma)
    return frozenset(out)


def is_cocycle(complex_: SimplicialComplex, cochain: frozenset) -> bool:
    return not coboundary(complex_, cochain)


# ---------------------------------------------------------------------------
# GF(2) linear algebra on integer bitmasks

def _rref(rows):
    """Reduced row echelon form; returns (pivot columns, reduced rows)."""
    pivots = []
    reduced = []
    for row in rows:
        for c, r in zip(pivots, reduced):
            if row >> c & 1:
                row ^= r
        if row == 0:
            continue
        c = row.bit_length() - 1
        for i in range(len(reduced)):
            if reduced[i] >> c & 1:
                reduced[i] ^= row
        pivots.append(c)
        reduced.append(row)
    return pivots, reduced


def kernel_basis(rows, nvars):
    """Basis of the right kernel of the bitmask-row matrix."""
    pivot_cols, reduced = _rref(rows)
    basis = []
    for fv in range(nvars):
        if fv in pivot_cols:
            continue
        vec = 1 << fv
        for c, r in zip(pivot_cols, reduced):
            if r >> fv & 1:
                vec |= 1 << c
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# cochain-level cohomology helpers

def _index(faces):
    return {f: i for i, f in enumerate(faces)}


def _coboundary_rows(complex_, q):
    """Rows = (q+1)-simplices, variables = q-simplices."""
    qs = complex_.simplices(q)
    idx = _index(qs)
    rows = []
    for sigma in complex_.simplices(q + 1):
        row = 0
        for j in range(len(sigma)):
            tau = sigma[:j] + sigma[j + 1:]
            row |= 1 << idx[tau]
        rows.append(row)
    return rows, qs


def is_coboundary(complex_, cochain) -> bool:
    """Whether delta x = cochain has a solution over GF(2).

    Each equation is its row of the coboundary matrix with the cochain's
    value in bit 0, below the variables, so reduction leaves the row 1
    (0 = 1) exactly when the system is inconsistent.
    """
    if not cochain:
        return True
    q = cochain_degree(cochain)
    if q == 0:
        return False
    rows, _ = _coboundary_rows(complex_, q - 1)
    # rows are indexed by q-simplices in order
    rows = [row << 1 | (sigma in cochain)
            for row, sigma in zip(rows, complex_.simplices(q))]
    return 1 not in _rref(rows)[1]


def cocycle_basis(complex_, q):
    """Supports of a basis of the q-cocycles."""
    qs = complex_.simplices(q)
    n = len(qs)
    if not complex_.simplices(q + 1):
        vecs = [1 << i for i in range(n)]
    else:
        rows, _ = _coboundary_rows(complex_, q)
        vecs = kernel_basis(rows, n)
    return [frozenset(qs[i] for i in range(n) if vec >> i & 1) for vec in vecs]


def representative_cocycle(complex_, q):
    """A q-cocycle that is not a coboundary, or None if H^q = 0."""
    for vec in cocycle_basis(complex_, q):
        if vec and not is_coboundary(complex_, vec):
            return vec
    return None


# ---------------------------------------------------------------------------
# stock complexes

RP2_FACES = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
]


def rp2() -> SimplicialComplex:
    """The six-vertex triangulation of the real projective plane."""
    return SimplicialComplex(RP2_FACES)


def circle(n=3) -> SimplicialComplex:
    """Triangulated circle with n edges."""
    if n < 3:
        raise GraphError("need at least three edges")
    return SimplicialComplex([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
