"""Numeric evaluation on standard simplices.

Points of the d-simplex are monotone tuples 0 <= x_1 <= ... <= x_d <= 1.
The four generating operations act coordinatewise through the interval
maps: the diagonal doubles a coordinate into the front/back pair, the
counit collapses to the empty tuple, the product takes the convex
combination s*x + (1-s)*y, and the counit homotopy is a reparametrized
cap.  Exact rationals by default; floats work for experiments, compared
against a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GraphError
from .graphs import GraphTerm, require_valid, targets_by_source, topological_order
from .generators import term_degree


@dataclass(frozen=True)
class SimplexPoint:
    coords: tuple

    def __post_init__(self):
        prev = 0
        for x in self.coords:
            if x < 0 or x > 1:
                raise GraphError(f"coordinate {x} outside [0,1]")
            if x < prev:
                raise GraphError(f"coordinates not monotone: {self.coords}")
            prev = x

    @property
    def d(self):
        return len(self.coords)

    @property
    def skeleton_level(self):
        """Dimension of the smallest cell containing the point."""
        return sum(1 for x in self.coords if 0 < x < 1)

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.coords) + ")"


def parse_point(text: str) -> SimplexPoint:
    text = text.strip()
    if not text:
        return SimplexPoint(())
    return SimplexPoint(tuple(Fraction(tok) for tok in text.split(",")))


def random_point(rng, d, denom=64) -> SimplexPoint:
    return SimplexPoint(tuple(sorted(Fraction(rng.randint(0, denom), denom)
                                     for _ in range(d))))


# interval-level formulas

def diagonal_front(x):
    return 0 * x if x <= Fraction(1, 2) else 2 * x - 1


def diagonal_back(x):
    return 2 * x if x <= Fraction(1, 2) else 1 + 0 * x


def convex(s, x, y):
    return s * x + (1 - s) * y


def counit_homotopy(s, x):
    return 2 * x / (2 - s) if x <= (2 - s) / 2 else 1 + 0 * x


def eval_generator(kind, s, points):
    """Apply one generator to a tuple of points, coordinatewise."""
    if kind == "delta":
        (p,) = points
        return (SimplexPoint(tuple(diagonal_front(x) for x in p.coords)),
                SimplexPoint(tuple(diagonal_back(x) for x in p.coords)))
    if kind == "eps":
        return ()
    if kind == "mu":
        p, q = points
        if p.d != q.d:
            raise GraphError("product needs points of equal dimension")
        return (SimplexPoint(tuple(convex(s, x, y)
                                   for x, y in zip(p.coords, q.coords))),)
    if kind == "phi":
        (p,) = points
        return (SimplexPoint(tuple(counit_homotopy(s, x) for x in p.coords)),)
    if kind == "id":
        return points
    raise GraphError(f"unknown generator {kind!r}")


def eval_term(g: GraphTerm, points, d=None):
    """Evaluate a term by topological order; returns the output tuple."""
    require_valid(g)
    points = tuple(points)
    if len(points) != g.n:
        raise GraphError(f"term has {g.n} inputs, got {len(points)} points")
    if d is not None:
        for p in points:
            if p.d != d:
                raise GraphError(f"point {p} does not live in dimension {d}")
    by_source = targets_by_source(g)
    value = {by_source[("in", i)]: p for i, p in enumerate(points)}  # dst endpoint -> point
    for v in topological_order(g):
        vert = g.vertices[v]
        s = vert.params[0] if vert.params else None
        outs = eval_generator(vert.kind, s,
                              tuple(value[("vi", v, k)] for k in range(vert.arity[0])))
        for k, out in enumerate(outs):
            value[by_source[("vo", v, k)]] = out
    return tuple(value[("out", j)] for j in range(g.m))


# ---------------------------------------------------------------------------
# cells of the simplex and the face-level action

def carrier(p: SimplexPoint) -> tuple:
    """Vertices of the smallest face containing the point.

    The barycentric weight of vertex j is x_{d-j+1} - x_{d-j} with the
    sentinels x_0 = 0 and x_{d+1} = 1.
    """
    xs = (0,) + tuple(p.coords) + (1,)
    d = p.d
    return tuple(j for j in range(d + 1) if xs[d - j + 1] > xs[d - j])


def point_in_face(p: SimplexPoint, face) -> bool:
    return set(carrier(p)) <= set(face)


def face_point(rng, d, face, denom=16) -> SimplexPoint:
    """A random point of the closed face [v_0,...,v_k] inside the d-simplex."""
    raw = [rng.randint(0, denom) for _ in face]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    lam = {v: Fraction(r, total) for v, r in zip(face, raw)}
    coords = []
    for c in range(1, d + 1):
        coords.append(sum((w for v, w in lam.items() if v > d - c), Fraction(0)))
    return SimplexPoint(tuple(coords))


def vertex_point(d, j) -> SimplexPoint:
    """The j-th vertex of the d-simplex: d-j zeros then j ones."""
    return SimplexPoint((Fraction(0),) * (d - j) + (Fraction(1),) * j)


def face_action(kind, faces):
    """The image cells of a generator swept over its whole parameter cell.

    The diagonal splits a face into its front/back pairs, the counit hits
    the base vertex, the product sweeps out the face spanned by a disjoint
    union, and the counit homotopy fixes the face.
    """
    if kind == "delta":
        (face,) = faces
        return tuple((face[:i + 1], face[i:]) for i in range(len(face)))
    if kind == "eps":
        return ((0,),)
    if kind == "mu":
        f1, f2 = faces
        return (tuple(sorted(set(f1) | set(f2))),)
    if kind == "phi":
        return faces
    raise GraphError(f"unknown generator {kind!r}")


# ---------------------------------------------------------------------------
# coface / codegeneracy maps and the checkers

def coface(p: SimplexPoint, i) -> SimplexPoint:
    """delta_i into one dimension up: prepend 0, double x_i, or append 1."""
    d = p.d
    if not 0 <= i <= d + 1:
        raise GraphError(f"coface index {i} outside 0..{d + 1}")
    xs = p.coords
    if i == 0:
        return SimplexPoint((Fraction(0),) + xs)
    if i == d + 1:
        return SimplexPoint(xs + (Fraction(1),))
    return SimplexPoint(xs[:i] + (xs[i - 1],) + xs[i:])


def codegeneracy(p: SimplexPoint, i) -> SimplexPoint:
    """sigma_i one dimension down: drop the i-th coordinate (1-based)."""
    if not 1 <= i <= p.d:
        raise GraphError(f"codegeneracy index {i} outside 1..{p.d}")
    xs = p.coords
    return SimplexPoint(xs[:i - 1] + xs[i:])


def _as_map(g, degree=0):
    if isinstance(g, GraphTerm):
        return (lambda pts: eval_term(g, pts)), g.n, g.m, term_degree(g)
    fn, n, m = g
    return fn, n, m, degree


def check_cellular(g, d, samples, rng, denom=64):
    """Sample the operation and report skeleton-level violations.

    Cellularity: the total output skeleton level may exceed the total
    input level by at most the dimension of the operation's own cell.
    `g` is a graph term, or a triple (fn, n, m) for corrupted controls.
    """
    fn, n, m, degree = _as_map(g)
    violations = []
    for _ in range(samples):
        pts = tuple(random_point(rng, d, denom) for _ in range(n))
        outs = fn(pts)
        lvl_in = sum(p.skeleton_level for p in pts)
        lvl_out = sum(p.skeleton_level for p in outs)
        if lvl_out > lvl_in + degree:
            violations.append((pts, outs, lvl_in, lvl_out))
    return violations


def check_naturality(g: GraphTerm, op, index, d, samples, rng, tol=None):
    """Compare the operation across a coface or codegeneracy map.

    For delta_i the inputs live in dimension d and the comparison happens
    one dimension up; for sigma_i the inputs live in dimension d+1.
    Returns the list of counterexamples (empty = natural).
    """
    require_valid(g)
    bad = []
    for _ in range(samples):
        if op == "delta":
            pts = tuple(random_point(rng, d) for _ in range(g.n))
            mapped = tuple(coface(p, index) for p in pts)
        elif op == "sigma":
            pts = tuple(random_point(rng, d + 1) for _ in range(g.n))
            mapped = tuple(codegeneracy(p, index) for p in pts)
        else:
            raise GraphError(f"unknown operator {op!r}")
        lhs = eval_term(g, mapped)
        rhs = tuple(
            (coface(p, index) if op == "delta" else codegeneracy(p, index))
            for p in eval_term(g, pts))
        if tol is None:
            equal = lhs == rhs
        else:
            equal = all(abs(a - b) <= tol
                        for pl, pr in zip(lhs, rhs)
                        for a, b in zip(pl.coords, pr.coords))
        if not equal:
            bad.append((pts, lhs, rhs))
    return bad
