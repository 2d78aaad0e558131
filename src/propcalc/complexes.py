"""Finite ordered simplicial complexes, mod-2 cochain calculus, and the
small amount of GF(2) linear algebra the verification suites need.

A complex is given by its maximal faces; every face is stored as a
strictly increasing vertex tuple.  Cochains are represented by their
supports: frozensets of faces of one dimension.

The work is done a column at a time by builtins rather than a face at a
time in Python.  The reader converts every token of a file in one `int`
pass and regroups the values into faces.  Faces that enter, from a file or
a constructor, are checked for strict increase column by column when they
all have one width, and are sorted one by one only when that check fails.
The maximal faces of each width are kept as vertex columns, and the k-faces
are read off those columns one choice of k + 1 vertex positions at a time.
`coboundary` and `chains.cup_i` scan the simplices once per facet, or once
per cut pattern, and fold the hits into the result by symmetric
difference, which is the mod-2 count.
"""

from __future__ import annotations

from itertools import chain, combinations, compress, islice, repeat
from operator import lt

from .errors import GraphError


class SimplicialComplex:
    """Downward closure of a set of maximal faces, built one dimension at a
    time, the first time that dimension is asked for."""

    def __init__(self, maximal_faces):
        faces = list(map(tuple, maximal_faces))
        if _increasing(faces):
            self._maximal = set(faces)
        else:
            self._maximal = {tuple(sorted(set(f))) for f in faces}
        if () in self._maximal:
            raise GraphError("empty face")
        self.dim = max(map(len, self._maximal), default=0) - 1
        self._by_width = None
        self._face_sets = {}
        self._sorted = {}
        self._scans = {}

    def _faces(self, k):
        """The set of k-faces, read off each width's vertex columns one
        choice of k + 1 vertex positions at a time; empty for k < 0."""
        faces = self._face_sets.get(k)
        if faces is None:
            faces = set()
            for w, columns in self._groups().items() if k >= 0 else ():
                for positions in combinations(range(w), k + 1):
                    faces.update(pick_faces(columns, positions))
            self._face_sets[k] = faces
        return faces

    def _groups(self):
        """Each width's maximal faces as vertex columns, made once."""
        if self._by_width is None:
            self._by_width = {w: list(zip(*(f for f in self._maximal if len(f) == w)))
                              for w in set(map(len, self._maximal))}
        return self._by_width

    def _columns(self, k):
        """The k-simplices in one fixed order, and their k + 1 vertex
        columns: the j-th column holds the j-th vertex of each simplex."""
        scan = self._scans.get(k)
        if scan is None:
            sigmas = list(self._faces(k))
            scan = self._scans[k] = (sigmas, list(zip(*sigmas)) or [()] * (k + 1))
        return scan

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


def _increasing(faces) -> bool:
    """Whether every face is strictly increasing, tested one pair of
    adjacent vertex columns at a time; False unless all faces have one
    width, so that ragged input takes the per-face route."""
    if len(set(map(len, faces))) != 1:
        return False
    columns = list(zip(*faces))
    return all(all(map(lt, left, right)) for left, right in zip(columns, columns[1:]))


def _faces_from_text(text):
    """One face per line as a vertex tuple in the order written; blank lines
    and '#' comments skipped.  Every token goes through one `int` pass."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = list(filter(None, map(str.split, lines)))
    try:
        values = list(map(int, chain.from_iterable(rows)))
    except ValueError:
        # name the first line with a bad token, as written less its comment
        for line in map(str.strip, lines):
            try:
                list(map(int, line.split()))
            except ValueError:
                raise GraphError(f"vertices must be integers: {line!r}") from None
        raise
    return list(_regroup(values, list(map(len, rows))))


def _regroup(values, lengths):
    """The values cut, in order, into consecutive tuples of these lengths:
    one `zip` over a shared iterator when all lengths agree."""
    it = iter(values)
    widths = set(lengths)
    if len(widths) == 1:
        return zip(*[it] * widths.pop())
    return map(tuple, map(islice, repeat(it), lengths))


def cochain_from_text(text) -> frozenset:
    """One face per line, vertices as integers, '#' comments; a text with
    no face, such as `cochain_to_text` of the zero cochain, is zero."""
    faces = _faces_from_text(text)
    if _increasing(faces):
        return frozenset(faces)
    return frozenset(tuple(sorted(f)) for f in faces)


def cochain_to_text(cochain) -> str:
    """One sorted face per line; the zero cochain is the comment line
    `# zero cochain`, so the text of every cochain reads back as it."""
    if not cochain:
        return "# zero cochain"
    faces = sorted(cochain)
    words = map(str, chain.from_iterable(faces))
    return "\n".join(map(" ".join, _regroup(words, list(map(len, faces)))))


def cochain_degree(cochain) -> int:
    """The dimension shared by the faces of a nonzero cochain."""
    widths = set(map(len, cochain))
    if len(widths) != 1:
        raise GraphError("cochain must be homogeneous")
    return widths.pop() - 1


def pick_faces(columns, positions):
    """The face at these vertex positions of each simplex, read off the
    simplices' vertex columns."""
    return zip(*[columns[j] for j in positions])


def coboundary(complex_: SimplicialComplex, cochain: frozenset) -> frozenset:
    """Mod-2 coboundary: one scan of the (q+1)-simplices per facet position,
    each simplex whose facet lies in the cochain toggled in the result."""
    if not cochain:
        return frozenset()
    q = cochain_degree(cochain)
    sigmas, columns = complex_._columns(q + 1)
    out = set()
    for j in range(q + 2):
        facet = (*range(j), *range(j + 1, q + 2))
        out.symmetric_difference_update(
            compress(sigmas, map(cochain.__contains__, pick_faces(columns, facet))))
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
    rows, qs = _coboundary_rows(complex_, q)
    n = len(qs)
    return [frozenset(qs[i] for i in range(n) if vec >> i & 1)
            for vec in kernel_basis(rows, n)]


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
