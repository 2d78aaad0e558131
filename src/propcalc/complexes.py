"""Finite ordered simplicial complexes, mod-2 cochain calculus, and the
small amount of GF(2) linear algebra the verification suites need.

A complex is given by its maximal faces; every face is stored as a
strictly increasing vertex tuple.  Cochains are represented by their
supports: frozensets of faces of one dimension.
"""

from __future__ import annotations

from itertools import combinations

from .errors import GraphError


class SimplicialComplex:
    """Downward closure of a set of maximal faces."""

    def __init__(self, maximal_faces):
        faces = set()
        for f in maximal_faces:
            f = tuple(sorted(set(f)))
            if not f:
                raise GraphError("empty face")
            for k in range(1, len(f) + 1):
                faces.update(combinations(f, k))
        self._faces = faces
        self.vertices = tuple(sorted({v for f in faces for v in f}))
        self._by_dim = {}
        for f in faces:
            self._by_dim.setdefault(len(f) - 1, []).append(f)
        for k in self._by_dim:
            self._by_dim[k].sort()

    @property
    def dim(self):
        return max(self._by_dim) if self._by_dim else -1

    def simplices(self, k):
        return self._by_dim.get(k, [])

    def __contains__(self, face):
        return tuple(face) in self._faces

    def euler_characteristic(self):
        return sum((-1) ** k * len(fs) for k, fs in self._by_dim.items())

    @classmethod
    def from_text(cls, text):
        """One maximal face per line, vertices as integers, '#' comments."""
        faces = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                faces.append(tuple(int(tok) for tok in line.split()))
            except ValueError:
                raise GraphError(f"vertices must be integers: {line!r}") from None
        if not faces:
            raise GraphError("no faces in complex description")
        return cls(faces)

    @classmethod
    def standard_simplex(cls, d):
        return cls([tuple(range(d + 1))])


def cochain_from_text(text) -> frozenset:
    """One face per line, vertices as integers, '#' comments."""
    faces = set()
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            faces.add(tuple(sorted(int(tok) for tok in line.split())))
        except ValueError:
            raise GraphError(f"vertices must be integers: {line!r}") from None
    return frozenset(faces)


def cochain_to_text(cochain) -> str:
    return "\n".join(" ".join(str(v) for v in f) for f in sorted(cochain))


def coboundary(complex_: SimplicialComplex, cochain: frozenset) -> frozenset:
    """Mod-2 coboundary: count odd incidences with codimension-one faces."""
    if not cochain:
        return frozenset()
    q = {len(f) - 1 for f in cochain}
    if len(q) != 1:
        raise GraphError("cochain must be homogeneous")
    q = q.pop()
    out = set()
    for sigma in complex_.simplices(q + 1):
        parity = sum(1 for j in range(len(sigma))
                     if sigma[:j] + sigma[j + 1:] in cochain) % 2
        if parity:
            out.add(sigma)
    return frozenset(out)


def is_cocycle(complex_: SimplicialComplex, cochain: frozenset) -> bool:
    return not coboundary(complex_, cochain)


# ---------------------------------------------------------------------------
# GF(2) linear algebra on integer bitmasks

def _rref(rows, keep_bits=None):
    """Reduced row echelon form; returns (pivot columns, reduced rows).

    With keep_bits set, pivot columns are chosen below that bit only (the
    higher bits ride along, which implements augmented systems).
    """
    pivots = []
    reduced = []
    for row in rows:
        for c, r in zip(pivots, reduced):
            if c is not None and row >> c & 1:
                row ^= r
        var_part = row if keep_bits is None else row & ((1 << keep_bits) - 1)
        if row == 0:
            continue
        if var_part == 0:
            pivots.append(None)  # inconsistent or rhs-only row
            reduced.append(row)
            continue
        c = var_part.bit_length() - 1
        for i in range(len(reduced)):
            if reduced[i] >> c & 1:
                reduced[i] ^= row
        pivots.append(c)
        reduced.append(row)
    return pivots, reduced


def gf2_solve(rows, rhs, nvars):
    """One solution of the affine system (row_i . x = rhs_i) or None."""
    aug = [row | (b << nvars) for row, b in zip(rows, rhs)]
    pivots, reduced = _rref(aug, keep_bits=nvars)
    x = 0
    for c, r in zip(pivots, reduced):
        if c is None:
            return None  # 0 = 1
        if r >> nvars & 1:
            x |= 1 << c
    return x


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
    """Solve delta x = cochain over GF(2)."""
    if not cochain:
        return True
    q = {len(f) - 1 for f in cochain}.pop()
    if q == 0:
        return False
    rows, lower = _coboundary_rows(complex_, q - 1)
    # rows are indexed by q-simplices in order
    rhs = [1 if sigma in cochain else 0 for sigma in complex_.simplices(q)]
    return gf2_solve(rows, rhs, len(lower)) is not None


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
