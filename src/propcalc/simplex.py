"""Numeric evaluation on standard simplices.

Points of the d-simplex are monotone tuples 0 <= x_1 <= ... <= x_d <= 1.
The four generating operations act coordinatewise through the interval
maps: the diagonal doubles a coordinate into the front/back pair, the
counit collapses to the empty tuple, the product takes the convex
combination s*x + (1-s)*y, and the counit homotopy is a reparametrized
cap.  Exact rationals by default; float points work for experiments and
are compared exactly too, since each is mapped exactly (see below).

Every one of these interval maps is continuous, monotone and piecewise
linear, so a term is compiled once, on its first `eval_term`, into a
program of such maps, stored on the term and written once like its plan.
Each wire carries a base (an input, or a mix of two earlier values) and
one map of [0,1]: a diagonal or homotopy composes into the map, a product
of two wires on the same base folds the two maps into one, and a product
of two different bases becomes a new mix.  Output j is then
x -> (f_j(x_1), ..., f_j(x_d)) on its base.  The compile does its
arithmetic on reduced (numerator, denominator) int pairs and builds a
Fraction only for a slope or intercept it stores.  The program keeps every
map once, as integer knots over the lcm D of their denominators and one
exact (slope, intercept) pair per segment.  Evaluating is one bisection of
floor(x*D) among the integer knots, which picks the same segment as x
among the exact knots, at most one exact a*x + b per coordinate for each
mix side and each output, and one sum per coordinate of a mix.  Each is
integer work on the numerators and denominators at hand, and each value
it makes is one Fraction.  A float coordinate is mapped exactly at its
binary value and rounded once, so it never leaves [0,1] by rounding.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import or_
from typing import NamedTuple

from .errors import GraphError, ParseError
from .graphs import GraphTerm, plan_of, require_valid
from .generators import term_degree


@dataclass(frozen=True)
class SimplexPoint:
    coords: tuple

    def __post_init__(self):
        # 0 <= x_1 <= ... <= x_d <= 1, for Fraction coordinates as integer
        # cross products n*pd >= pn*d; any other type, and any failure, goes
        # on to the checks below, which name the first bad coordinate
        pn, pd = 0, 1
        for x in self.coords:
            if type(x) is not Fraction:
                break
            n, d = x._numerator, x._denominator
            if n * pd < pn * d:
                break
            pn, pd = n, d
        else:
            if pn <= pd:
                return
        for x in self.coords:
            if not isinstance(x, (int, Fraction, float)):
                raise GraphError(f"coordinate {x!r} is not an int, a Fraction or a float")
        prev = 0
        for x in self.coords:
            if not 0 <= x <= 1:
                raise GraphError(f"coordinate {x} outside [0,1]")
            if x < prev:
                raise GraphError(f"coordinates not monotone: {self}")
            prev = x

    @property
    def d(self):
        return len(self.coords)

    @property
    def skeleton_level(self):
        """Dimension of the smallest cell containing the point."""
        return len(carrier(self)) - 1

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.coords) + ")"


# CPython's default limit on the digits of an int converted to or from text
MAX_DIGITS = 4300
_EXPONENT = re.compile(r"[eE][-+]?(\d+)\s*$")


def _digit_bound(tok):
    """A bound on the digits of the numerator and of the denominator of
    Fraction(tok), read off the text without building the number."""
    if "/" in tok:
        return max(sum(c.isdigit() for c in part) for part in tok.split("/"))
    m = _EXPONENT.search(tok)
    if m is None:
        return sum(c.isdigit() for c in tok) + 1
    if len(m.group(1)) > len(str(MAX_DIGITS)):
        return MAX_DIGITS + 1
    return sum(c.isdigit() for c in tok[:m.start()]) + int(m.group(1)) + 1


def parse_point(text: str) -> SimplexPoint:
    """A point given as comma-separated coordinates, each a rational or a decimal."""
    text = text.strip()
    if not text:
        return SimplexPoint(())
    coords = []
    for k, tok in enumerate(text.split(","), start=1):
        if _digit_bound(tok) > MAX_DIGITS:
            raise ParseError(f"point coordinate {k} needs more than {MAX_DIGITS} digits")
        try:
            coords.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"point {text!r}: bad coordinate {tok.strip()!r}") from None
    return SimplexPoint(tuple(coords))


# random_point's shared k/denom Fractions, one tuple per int denominator of
# at most _GRID_MAX, built on first use: at most about _GRID_MAX**2/2 of them
_GRID_MAX = 64
_GRIDS = {}


def random_point(rng, d, denom=64) -> SimplexPoint:
    ints = sorted(rng.randint(0, denom) for _ in range(d))
    if not (type(denom) is int and 0 < denom <= _GRID_MAX):
        return SimplexPoint(tuple(Fraction(k, denom) for k in ints))
    grid = _GRIDS.get(denom)
    if grid is None:
        grid = _GRIDS[denom] = tuple(Fraction(k, denom) for k in range(denom + 1))
    return SimplexPoint(tuple(map(grid.__getitem__, ints)))


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


def _inputs(g: GraphTerm, points, d):
    points = tuple(points)
    if len(points) != g.n:
        raise GraphError(f"term has {g.n} inputs, got {len(points)} points")
    if d is not None:
        for p in points:
            if p.d != d:
                raise GraphError(f"point {p} does not live in dimension {d}")
    return points


def eval_term(g: GraphTerm, points, d=None):
    """Evaluate a term on one point per input; returns the output tuple.

    The term runs as its compiled `Program`, built on its first evaluation.
    """
    plan = plan_of(g)
    points = _inputs(g, points, d)
    program = g._maps if g._maps is not None else _compile(g, plan)
    for i, j in program.joins:
        if points[i].d != points[j].d:
            raise GraphError("product needs points of equal dimension")
    values, floats = [], []  # per base: exact coordinates, and which were floats
    for p in points:
        if float in map(type, p.coords):
            # exact at a float's binary value: a*x + b in floats cancels
            # badly on steep segments and can leave [0,1]
            values.append(tuple(Fraction(x) if type(x) is float else x for x in p.coords))
            floats.append(tuple(type(x) is float for x in p.coords))
        else:
            values.append(p.coords)
            floats.append(None)
    for (a, f), (b, h) in program.mixes:
        # both sides are Fractions: f and h are never the identity
        values.append(tuple(Fraction(x._numerator * y._denominator + y._numerator * x._denominator,
                                     x._denominator * y._denominator)
                            for x, y in zip(_apply(f, values[a]), _apply(h, values[b]))))
        fa, fb = floats[a], floats[b]
        floats.append(fb if fa is None else fa if fb is None else tuple(map(or_, fa, fb)))
    outs = []
    for base, f in program.outputs:
        coords = _apply(f, values[base])
        if floats[base] is not None:
            coords = [float(y) if r else y for y, r in zip(coords, floats[base])]
        outs.append(SimplexPoint(tuple(coords)))
    return tuple(outs)


# ---------------------------------------------------------------------------
# compiled programs
#
# While `_compile` builds it, a map is (knots, segments): the interior
# knots 0 < t_1 < ... < t_k < 1 and k+1 pairs (a, b), the map being a*x + b
# on [t_i, t_{i+1}] with t_0 = 0 and t_{k+1} = 1.  Each of these rationals
# is a reduced int pair (numerator, denominator) with a positive
# denominator, so equal values are equal pairs; adjacent segments always
# differ, so the knots are exactly the breaks.  The program keeps each map
# once, in integer form (D, K, segments): D is the lcm of the knots'
# denominators and K the integers t_i*D, so the exact knots are K/D and x
# lies in segment #{K_i <= floor(x*D)}, which `_apply` finds by bisection
# on ints.  Its slopes and intercepts are Fractions, the only ones the
# compile builds; a zero slope is stored as (None, b), and a zero
# intercept beside a nonzero slope as (a, None).


class Program(NamedTuple):
    """A term as interval maps on bases, each map in integer form.

    Bases 0..n-1 are the inputs and base n+k is the value of mix k.  Each
    mix is ((a, f), (b, h)), the sum f(x_a) + h(x_b) coordinate by
    coordinate, with the product's weights s and 1-s folded into f and h.
    `joins` are the input pairs that some product, live or capped, puts
    side by side: their points must have equal dimension.
    """
    joins: tuple    # (i, j) with i < j
    mixes: tuple    # ((a, f), (b, h)), each reading only earlier bases
    outputs: tuple  # (base, map) per output


def _mul(p, q):
    """p*q on reduced pairs, reduced by the two cross gcds."""
    (a, b), (c, d) = p, q
    g, h = gcd(a, d), gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def _add(p, q):
    """p + q on reduced pairs."""
    (a, b), (c, d) = p, q
    n, m = (a + c, b) if b == d else (a * d + c * b, b * d)
    g = gcd(n, m)
    return n // g, m // g


def _sub_div(p, q, r):
    """(p - q)/r on reduced pairs, r positive."""
    (a, b), (c, d), (e, f) = p, q, r
    n, m = (a * d - c * b) * f, b * d * e
    g = gcd(n, m)
    return n // g, m // g


def _le(p, q):
    return p[0] * q[1] <= q[0] * p[1]


_ZERO, _ONE, _HALF = (0, 1), (1, 1), (1, 2)
_IDENTITY = ((), ((_ONE, _ZERO),))
_FRONT = ((_HALF,), ((_ZERO, _ZERO), ((2, 1), (-1, 1))))
_BACK = ((_HALF,), (((2, 1), _ZERO), (_ZERO, _ONE)))
_INT_IDENTITY = (1, (), ((Fraction(1), None),))


def _generator_maps(kind, s):
    """The interval maps of a one-input generator, one per output, for the
    parameter s = n/d given as its reduced pair."""
    if kind == "delta":
        return (_FRONT, _BACK)
    if kind == "eps":
        return ()
    if kind == "id" or (kind == "phi" and s[0] == 0):
        return (_IDENTITY,)
    if kind == "phi":
        # the knot 1 - s/2 = (2d - n)/(2d) and the slope 2/(2 - s) = 2d/(2d - n)
        n, d = s
        g = gcd(2 * d - n, 2 * d)
        knot = ((2 * d - n) // g, 2 * d // g)
        return (((knot,), ((knot[::-1], _ZERO), (_ZERO, _ONE))),)
    raise GraphError(f"no interval map for generator {kind!r}")


def _extend(knots, segments, x, seg):
    """Start segment `seg` at x, unless it continues the last one."""
    if not segments:
        segments.append(seg)
    elif seg != segments[-1]:
        knots.append(x)
        segments.append(seg)


def _compose_maps(outer, inner):
    """outer after inner, in one walk over the segments of `inner`.

    The walk inserts a knot where `inner` crosses a knot of `outer`; the
    inner map is monotone, so the outer segment index only grows.
    """
    ok, osegs = outer
    ik, isegs = inner
    knots, segments = [], []
    j = 0
    left, lo = _ZERO, isegs[0][1]  # a segment's left end and the value there
    for i, (a, b) in enumerate(isegs):
        right = ik[i] if i < len(ik) else _ONE
        hi = _add(_mul(a, right), b) if a[0] else b
        while j < len(ok) and _le(ok[j], lo):
            j += 1
        x = left
        while True:
            c, e = osegs[j]
            _extend(knots, segments, x, (_mul(c, a), _add(_mul(c, b), e)) if c[0] else (c, e))
            if j == len(ok) or _le(hi, ok[j]):
                break
            x = _sub_div(ok[j], b, a)
            j += 1
        left, lo = right, hi
    return tuple(knots), tuple(segments)


def _convex_maps(s, f, g):
    """x -> s*f(x) + (1-s)*g(x), merging the two knot lists in one walk."""
    t = (s[1] - s[0], s[1])
    (fk, fsegs), (gk, gsegs) = f, g
    knots, segments = [], []
    i = j = 0
    x = _ZERO
    while True:
        (a, b), (c, e) = fsegs[i], gsegs[j]
        _extend(knots, segments, x, (_add(_mul(s, a), _mul(t, c)), _add(_mul(s, b), _mul(t, e))))
        if i == len(fk) and j == len(gk):
            return tuple(knots), tuple(segments)
        if j == len(gk) or (i < len(fk) and _le(fk[i], gk[j])):
            x = fk[i]
        else:
            x = gk[j]
        if i < len(fk) and fk[i] == x:
            i += 1
        if j < len(gk) and gk[j] == x:
            j += 1


def _scaled(c, f):
    """x -> c*f(x), as the linear map x -> c*x after f."""
    return _compose_maps(((), ((c, _ZERO),)), f)


def _integer_form(f):
    """The map f as (D, K, segments), its knots scaled to the integers K and
    each slope and intercept a Fraction, or None where it is zero."""
    if f is _IDENTITY:
        return _INT_IDENTITY
    knots, segments = f
    scale = lcm(*(d for _, d in knots))
    return (scale, tuple(n * (scale // d) for n, d in knots),
            tuple((None, Fraction(*b)) if not a[0] else (Fraction(*a), None) if not b[0]
                  else (Fraction(*a), Fraction(*b)) for a, b in segments))


def _apply(f, xs):
    """The map f, in integer form, at each exact coordinate of xs."""
    if f is _INT_IDENTITY:
        return xs
    scale, knots, segments = f
    out = []
    for x in xs:
        # x = n/d, read off a Fraction's own integers; the knots are
        # integers, so K <= x*D exactly when K <= floor(x*D)
        if type(x) is Fraction:
            n, d = x._numerator, x._denominator
        else:
            n, d = x.numerator, x.denominator
        a, b = segments[bisect_right(knots, n * scale // d)]
        # a constant segment, or one through 0, is marked None; otherwise
        # a*x + b is one Fraction built from the integers of a, x and b
        if a is None:
            out.append(b)
        elif b is None:
            out.append(Fraction(a._numerator * n, a._denominator * d))
        else:
            q = a._denominator * d
            out.append(Fraction(a._numerator * n * b._denominator + b._numerator * q,
                                q * b._denominator))
    return out


def _compile(g, plan):
    """The program of the valid term g, stored on it once."""
    value = {plan.tgt[("in", i)]: (i, _IDENTITY) for i in range(g.n)}  # dst endpoint -> (base, map)
    reads = list(range(g.n))  # base -> one input it reads
    joins, mixes = {}, []
    for v in plan.order:
        vert = g.vertices[v]
        ins = [value.pop(("vi", v, k)) for k in range(vert.arity[0])]
        # the parameter as its reduced pair (n, d)
        s = (vert.params[0].numerator, vert.params[0].denominator) if vert.params else None
        if vert.kind == "mu":
            (a, f), (b, h) = ins
            if reads[a] != reads[b]:
                joins[min(reads[a], reads[b]), max(reads[a], reads[b])] = None
            if a == b:
                outs = ((a, _convex_maps(s, f, h)),)
            else:
                mixes.append(((a, _integer_form(_scaled(s, f))),
                              (b, _integer_form(_scaled((s[1] - s[0], s[1]), h)))))
                reads.append(reads[a])
                outs = ((len(reads) - 1, _IDENTITY),)
        else:
            ((base, f),) = ins
            outs = tuple((base, _compose_maps(h, f)) for h in _generator_maps(vert.kind, s))
        for k, out in enumerate(outs):
            value[plan.tgt[("vo", v, k)]] = out
    outputs = tuple((base, _integer_form(f))
                    for base, f in (value[("out", j)] for j in range(g.m)))
    program = Program(tuple(joins), tuple(mixes), outputs)
    object.__setattr__(g, "_maps", program)
    return program


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


def face_point(rng, d, face) -> SimplexPoint:
    """A random point of the closed face [v_0,...,v_k] inside the d-simplex."""
    raw = [rng.randint(0, 16) for _ in face]
    if not any(raw):
        raw[rng.randrange(len(raw))] = 1
    total = sum(raw)
    lam = {v: Fraction(r, total) for v, r in zip(face, raw)}
    coords = []
    for c in range(1, d + 1):
        coords.append(sum((w for v, w in lam.items() if v > d - c), Fraction(0)))
    return SimplexPoint(tuple(coords))


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

_ZERO_COORD, _ONE_COORD = Fraction(0), Fraction(1)


def coface(p: SimplexPoint, i) -> SimplexPoint:
    """delta_i into one dimension up: prepend 0, double x_i, or append 1."""
    d = p.d
    if not 0 <= i <= d + 1:
        raise GraphError(f"coface index {i} outside 0..{d + 1}")
    xs = p.coords
    if i == 0:
        return SimplexPoint((_ZERO_COORD,) + xs)
    if i == d + 1:
        return SimplexPoint(xs + (_ONE_COORD,))
    return SimplexPoint(xs[:i] + (xs[i - 1],) + xs[i:])


def codegeneracy(p: SimplexPoint, i) -> SimplexPoint:
    """sigma_i one dimension down: drop the i-th coordinate (1-based)."""
    if not 1 <= i <= p.d:
        raise GraphError(f"codegeneracy index {i} outside 1..{p.d}")
    xs = p.coords
    return SimplexPoint(xs[:i - 1] + xs[i:])


def check_cellular(g: GraphTerm, d, samples, rng):
    """Sample the operation and report skeleton-level violations.

    Cellularity: the total output skeleton level may exceed the total
    input level by at most the dimension of the operation's own cell.
    """
    degree = term_degree(g)
    violations = []
    for _ in range(samples):
        pts = tuple(random_point(rng, d) for _ in range(g.n))
        outs = eval_term(g, pts)
        lvl_in = sum(p.skeleton_level for p in pts)
        lvl_out = sum(p.skeleton_level for p in outs)
        if lvl_out > lvl_in + degree:
            violations.append((pts, outs, lvl_in, lvl_out))
    return violations


def check_naturality(g: GraphTerm, op, index, d, samples, rng):
    """Compare the operation across a coface or codegeneracy map.

    For delta_i the inputs live in dimension d and the comparison happens
    one dimension up; for sigma_i the inputs live in dimension d+1.
    Points are mapped exactly, so the two sides are compared for equality.
    Returns the list of counterexamples (empty = natural).
    """
    require_valid(g)
    if op == "delta":
        move, dim, name, low = coface, d, "coface", 0
    elif op == "sigma":
        move, dim, name, low = codegeneracy, d + 1, "codegeneracy", 1
    else:
        raise GraphError(f"unknown operator {op!r}")
    if not low <= index <= d + 1:  # as `move` would raise, but before any sample
        raise GraphError(f"{name} index {index} outside {low}..{d + 1}")
    bad = []
    for _ in range(samples):
        pts = tuple(random_point(rng, dim) for _ in range(g.n))
        lhs = eval_term(g, tuple(move(p, index) for p in pts))
        rhs = tuple(move(p, index) for p in eval_term(g, pts))
        if lhs != rhs:
            bad.append((pts, lhs, rhs))
    return bad
