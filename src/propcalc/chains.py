"""Cellular chains of the quotient prop over F2, and their action on
simplicial chains.

Basis elements in biarity (n, m) and degree k are the nondegenerate
combinatorial types with k more strands than outputs (weights forgotten).
A formal sum is a frozenset of types; addition is symmetric difference.
Cells compose by the interval cuts of the surjection operad (`_cut`); the
class of a term labels each strand by the edge it runs on, and each
vertex cuts only the strands it reads.

The action on chains of a standard simplex splits each input face into
consecutive overlapping pieces (the iterated diagonal), routes the pieces
by the assignment, and joins each output's pieces into the face spanned
by their union, zero whenever two pieces share a vertex (the interval-cut
formulas of McClure-Smith); `act_type` places the cut points by a
depth-first search that abandons a placement at its first shared vertex.
`cup_i` computes the cut pattern of the cup-i cell once per call, on
(0, ..., n), and relabels it through each n-simplex (following
Medina-Mardones' treatment of cup-i products as index patterns on a
simplex).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, compress, product
from operator import and_

from .complexes import cochain_degree, is_cocycle, pick_faces
from .errors import CompositionError, GraphError, InternalError
from .graphs import NPARAMS, GraphTerm, plan_of
from .surjections import SurjType, horizontal_type, identity_type


@dataclass(frozen=True)
class ChainElement:
    n: int
    m: int
    degree: int
    support: frozenset

    def __post_init__(self):
        for t in self.support:
            if (t.n, t.m, t.degree) != (self.n, self.m, self.degree):
                raise GraphError(f"type {t} does not live in "
                                 f"({self.n},{self.m}) degree {self.degree}")

    @classmethod
    def zero(cls, n, m, degree):
        return cls(n, m, degree, frozenset())

    @classmethod
    def of(cls, t: SurjType):
        return cls(t.n, t.m, t.degree, frozenset([t]))

    def __add__(self, other):
        if (self.n, self.m, self.degree) != (other.n, other.m, other.degree):
            raise GraphError("cannot add chains of different biarity or degree")
        return ChainElement(self.n, self.m, self.degree,
                            self.support ^ other.support)

    def is_zero(self):
        return not self.support


def eps_type() -> SurjType:
    return SurjType(1, 0, ((),))


def delta_type() -> SurjType:
    return SurjType(1, 2, ((1, 2),))


def mu_type() -> SurjType:
    return SurjType(2, 1, ((1,), (1,)))


def cup_type(i: int) -> SurjType:
    """The (1,2) generator of degree i: assignments alternate 1,2,1,2,..."""
    return SurjType(1, 2, (tuple(1 if t % 2 == 0 else 2 for t in range(i + 2)),))


# ---------------------------------------------------------------------------
# differential

def diff_type(t: SurjType) -> frozenset:
    """Boundary of one basis cell: remove each removable strand.

    A strand is removable when its output keeps at least one other strand;
    a removal whose block neighbors then coincide lands in a cell of lower
    dimension and contributes nothing.  Emptied blocks become counit caps.
    """
    counts = t.output_counts()
    out = set()
    for i, blk in enumerate(t.blocks):
        for u, f in enumerate(blk):
            if counts[f - 1] < 2:
                continue
            if 0 < u < len(blk) - 1 and blk[u - 1] == blk[u + 1]:
                continue
            nb = blk[:u] + blk[u + 1:]
            new_blocks = t.blocks[:i] + (nb,) + t.blocks[i + 1:]
            out ^= {SurjType(t.n, t.m, new_blocks)}
    return frozenset(out)


def differential(x) -> ChainElement:
    """F2 boundary, degree drops by one."""
    if isinstance(x, SurjType):
        x = ChainElement.of(x)
    support = frozenset()
    for t in x.support:
        support ^= diff_type(t)
    return ChainElement(x.n, x.m, x.degree - 1, support)


# ---------------------------------------------------------------------------
# composition of chains (interval cuts of each strand's block below)

def _cut(blocks, below) -> set:
    """The cells of `blocks`, mod 2, with each strand whose label `below`
    maps cut into a run of that label's block; other strands keep theirs.

    The p strands with one label take consecutive runs of its q entries,
    neighbors sharing one entry, at p - 1 nondecreasing cut points from
    range(q).  A counit's empty block leaves one strand an empty run, and
    two or more none: that cell drops dimension.  A placement whose
    neighbors then coincide is degenerate and dropped.
    """
    strands = {}  # label -> positions (block, index) of its strands, in strand order
    for i, blk in enumerate(blocks):
        for u, f in enumerate(blk):
            if f in below:
                strands.setdefault(f, []).append((i, u))
    options = [combinations_with_replacement(range(len(below[f])), len(on) - 1)
               for f, on in strands.items()]
    results = set()
    for combo in product(*options):
        pieces = [[(f,) for f in blk] for blk in blocks]  # per strand: its run
        for (f, on), cuts in zip(strands.items(), combo):
            a = 0
            for (i, u), b in zip(on, cuts):
                pieces[i][u] = below[f][a:b + 1]
                a = b
            i, u = on[-1]
            pieces[i][u] = below[f][a:]
        cell = tuple(tuple(f for strand in blk for f in strand) for blk in pieces)
        if all(a != b for blk in cell for a, b in zip(blk, blk[1:])):
            results ^= {cell}
    return results


def compose_types(t1: SurjType, t2: SurjType) -> frozenset:
    """All top cells of t1 above t2, mod 2: t1's strands cut t2's blocks (`_cut`)."""
    if t1.m != t2.n:
        raise CompositionError(f"cannot compose ({t1.n},{t1.m}) above ({t2.n},{t2.m})")
    return frozenset(SurjType(t1.n, t2.m, blocks)
                     for blocks in _cut(t1.blocks, dict(enumerate(t2.blocks, 1))))


def chain_compose(x: ChainElement, y: ChainElement) -> ChainElement:
    """Vertical composition in the chain prop (x on top)."""
    support = frozenset()
    for t1 in x.support:
        for t2 in y.support:
            support ^= compose_types(t1, t2)
    return ChainElement(x.n, y.m, x.degree + y.degree, support)


def horizontal_chain(x: ChainElement, y: ChainElement) -> ChainElement:
    support = frozenset(horizontal_type(t1, t2)
                        for t1 in x.support for t2 in y.support)
    return ChainElement(x.n + y.n, x.m + y.m, x.degree + y.degree, support)


_GEN_TYPES = {"eps": eps_type(), "delta": delta_type(), "mu": mu_type(), "id": identity_type(1)}


def chain_eval(g: GraphTerm) -> ChainElement:
    """Class of a term in the chain prop; every parametrized vertex
    contributes its whole generating cell, and the counit homotopy is sent
    to zero (its image cell is degenerate).

    Each strand is labelled by the edge it runs on, named by its target
    endpoint.  A vertex cuts the strands on its input edges into its
    generating cell's blocks, relabelled by its output edges (`_cut`); every
    other strand keeps its label, so each ends on an output port's edge.
    """
    plan = plan_of(g)
    degree = sum(NPARAMS[v.kind] for v in g.vertices)
    if any(v.kind == "phi" for v in g.vertices):
        return ChainElement.zero(g.n, g.m, degree)

    cells = {tuple((plan.tgt[("in", i)],) for i in range(g.n))}
    for v in plan.order:
        below = {("vi", v, k): tuple(plan.tgt[("vo", v, f - 1)] for f in blk)
                 for k, blk in enumerate(_GEN_TYPES[g.vertices[v].kind].blocks)}
        cut = set()
        for cell in cells:
            cut ^= _cut(cell, below)
        cells = cut
    return ChainElement(g.n, g.m, degree, frozenset(
        SurjType(g.n, g.m, tuple(tuple(dst[1] + 1 for dst in blk) for blk in cell))
        for cell in cells))


# ---------------------------------------------------------------------------
# action on simplicial chains

# above this many distinct labels a call does not build its 2^L span table;
# it converts each vertex mask it meets once instead
SPAN_TABLE_LABELS = 8


class _Spans(dict):
    """The sorted label tuple of each vertex mask, made on first use."""

    def __init__(self, labels):
        super().__init__()
        self.labels = labels

    def __missing__(self, mask):
        span = self[mask] = tuple(v for j, v in enumerate(self.labels) if mask >> j & 1)
        return span


def act_type(t: SurjType, faces) -> frozenset:
    """Apply one basis cell to a tuple of faces; result is a set of
    m-tuples of faces (the F2 sum).

    This is the interval-cut description of the action.  Cut points are
    placed block by block, by a depth-first search on an explicit stack, so
    a cell with many pieces needs no interpreter recursion.  Each output
    keeps the vertex set of the pieces routed to it so far, as a bitmask.
    A piece stops growing as soon as it repeats a vertex or meets its
    output's set: every longer piece overlaps too, so that branch
    contributes zero.  The last piece of a block is forced (it runs to the
    end of the face) and is checked in one step.  Each complete placement
    adds its tuple of sorted unions mod 2, read from a span table indexed
    by vertex mask (built by doubling over the sorted labels; above
    `SPAN_TABLE_LABELS` labels each mask met is converted once instead).
    """
    if len(faces) != t.n:
        raise GraphError(f"expected {t.n} tensor factors, got {len(faces)}")
    labels = sorted({v for face in faces for v in face})
    bit = {v: 1 << j for j, v in enumerate(labels)}
    masks = [0] * t.m
    # every piece but the last of its block, as (output, vertex bits of its
    # face, their number, tails, output of the next piece, whether that one
    # ends the block)
    pieces = []
    for blk, face in zip(t.blocks, faces):
        if not blk:
            if len(face) != 1:
                return frozenset()  # counit kills positive-degree factors
            continue
        bits = [bit[v] for v in face]
        tails = [None] * len(bits) + [0]  # tails[e]: bits of face[e:], None on a repeat
        acc = 0
        for e in range(len(bits) - 1, -1, -1):
            if acc & bits[e]:
                break
            acc |= bits[e]
            tails[e] = acc
        if len(blk) == 1:  # the whole face goes to one output
            o = blk[0] - 1
            if tails[0] is None or masks[o] & tails[0]:
                return frozenset()
            masks[o] |= tails[0]
            continue
        for u in range(len(blk) - 1):
            pieces.append((blk[u] - 1, bits, len(bits), tails, blk[u + 1] - 1,
                           u == len(blk) - 2))
    if len(labels) > SPAN_TABLE_LABELS:
        span = _Spans(labels)
    else:
        span = [()]
        for v in labels:
            span += [s + (v,) for s in span]
    span_of = span.__getitem__
    if not pieces:
        return frozenset((tuple(map(span_of, masks)),))

    found = set()
    last = len(pieces) - 1
    # one frame per piece being grown: (piece, next end, its output's mask so
    # far, that mask before the piece, the next output's mask to restore)
    stack = []
    i = e = 0
    o, bits, n, tails, o2, closes = pieces[0]
    old = acc = masks[o]
    while True:
        if e < n and not acc & bits[e]:
            b = bits[e]
            acc |= b
            e += 1
            masks[o] = acc
            m2 = masks[o2]
            if not closes:
                if not m2 & b:  # the next piece starts where this one ends
                    stack.append((i, e, acc, old, m2))
                    i += 1
                    e -= 1
                    o, bits, n, tails, o2, closes = pieces[i]
                    old = acc = m2
                continue
            tail = tails[e - 1]
            if tail is None or m2 & tail:
                continue
            masks[o2] = m2 | tail
            if i < last:  # the next block starts at its first vertex
                stack.append((i, e, acc, old, m2))
                i += 1
                e = 0
                o, bits, n, tails, o2, closes = pieces[i]
                old = acc = masks[o]
                continue
            # a complete placement, added mod 2
            found.symmetric_difference_update((tuple(map(span_of, masks)),))
            masks[o2] = m2
            continue
        masks[o] = old  # this piece can grow no further: resume the one before
        if not stack:
            return frozenset(found)
        i, e, acc, old, m2 = stack.pop()
        o, bits, n, tails, o2, closes = pieces[i]
        masks[o2] = m2


def act(x: ChainElement, tensors) -> frozenset:
    """F2-linear extension of act_type over a set of input tensors."""
    out = set()
    for tensor in tensors:
        for t in x.support:
            out.symmetric_difference_update(act_type(t, tensor))
    return frozenset(out)


def face_boundary(face) -> frozenset:
    """Simplicial boundary of one face, mod 2."""
    if len(face) == 1:
        return frozenset()
    return frozenset(face[:j] + face[j + 1:] for j in range(len(face)))


def tensor_boundary(tensors) -> frozenset:
    """Boundary of a sum of tensors of faces (no signs over F2)."""
    out = set()
    for tensor in tensors:
        for i, face in enumerate(tensor):
            for df in face_boundary(face):
                out ^= {tensor[:i] + (df,) + tensor[i + 1:]}
    return frozenset(out)


# ---------------------------------------------------------------------------
# cochain operations on a simplicial complex

def cup_i(i: int, a: frozenset, b: frozenset, complex_) -> frozenset:
    """The degree-i binary operation dual to the alternating (1,2) cell.

    `a` and `b` are cochains given by their supports on a finite ordered
    simplicial complex; the result lives in degree |a| + |b| - i.
    """
    if i < 0:
        raise GraphError("cup index must be nonnegative")
    if not a or not b:
        return frozenset()
    pa = cochain_degree(a)
    pb = cochain_degree(b)
    deg = pa + pb - i
    if deg < 0:
        return frozenset()
    # every simplex is a sorted tuple of distinct vertices, so the action on
    # it is the action on (0..deg) relabelled through the simplex; each cut
    # pattern is one scan of the simplices, its hits toggled in the result
    sigmas, columns = complex_._columns(deg)
    result = set()
    for f1, f2 in act_type(cup_type(i), (tuple(range(deg + 1)),)):
        if len(f1) == pa + 1:
            result.symmetric_difference_update(compress(sigmas, map(
                and_, map(a.__contains__, pick_faces(columns, f1)),
                map(b.__contains__, pick_faces(columns, f2)))))
    return frozenset(result)


def steenrod_square(k: int, x: frozenset, complex_) -> frozenset:
    """Sq^k of a mod-2 cocycle: x cup_(|x|-k) x; zero above the degree."""
    if not is_cocycle(complex_, x):
        raise GraphError("steenrod_square expects a cocycle")
    if not x or k < 0:
        return frozenset()
    q = cochain_degree(x)
    if k > q:
        return frozenset()
    y = cup_i(q - k, x, x, complex_)
    if not is_cocycle(complex_, y):
        raise InternalError("square of a cocycle failed to be a cocycle")
    return y

