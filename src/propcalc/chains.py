"""Cellular chains of the quotient prop over F2, and their action on
simplicial chains.

Basis elements in biarity (n, m) and degree k are the nondegenerate
combinatorial types with k more strands than outputs (weights forgotten).
A formal sum is a frozenset of types; addition is symmetric difference.

The action on chains of a standard simplex splits each input face into
consecutive overlapping pieces (the iterated diagonal), routes the pieces
by the assignment, and joins each output's pieces into the face spanned
by their union, zero whenever two pieces share a vertex (the interval-cut
formulas of McClure-Smith).  `act_type` enumerates the cut points by
backtracking and abandons a partial placement at the first shared vertex,
so the overlapping combinations are never built.  `cup_i` computes the
cut pattern of the cup-i cell once per call, on (0, ..., n), and relabels
it through each n-simplex (following Medina-Mardones' treatment of cup-i
products as index patterns on a simplex).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from operator import itemgetter

from .errors import CompositionError, GraphError, InternalError
from .graphs import (GraphTerm, Permutation, require_valid, targets_by_source,
                     topological_order)
from .surjections import SurjType, expand_graph, normalize, uniform_weights


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


def identity_type(k: int) -> SurjType:
    return SurjType(k, k, tuple((j,) for j in range(1, k + 1)))


def eps_type() -> SurjType:
    return SurjType(1, 0, ((),))


def delta_type() -> SurjType:
    return SurjType(1, 2, ((1, 2),))


def mu_type() -> SurjType:
    return SurjType(2, 1, ((1,), (1,)))


def cup_type(i: int) -> SurjType:
    """The (1,2) generator of degree i: assignments alternate 1,2,1,2,..."""
    return SurjType(1, 2, (tuple(1 if t % 2 == 0 else 2 for t in range(i + 2)),))


def horizontal_type(t1: SurjType, t2: SurjType) -> SurjType:
    blocks = t1.blocks + tuple(tuple(f + t1.m for f in blk) for blk in t2.blocks)
    return SurjType(t1.n + t2.n, t1.m + t2.m, blocks)


def permute_inputs_type(t: SurjType, sigma: Permutation) -> SurjType:
    return SurjType(t.n, t.m,
                    tuple(t.blocks[sigma(j) - 1] for j in range(1, t.n + 1)))


def permute_outputs_type(t: SurjType, tau: Permutation) -> SurjType:
    return SurjType(t.n, t.m, tuple(tuple(tau(f) for f in blk) for blk in t.blocks))


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


def differential_via_graphs(t: SurjType) -> ChainElement:
    """Boundary computed the long way, as an independent route.

    Re-expand the cell into its canonical graph, replace each product
    vertex by each of its two attaching endpoints, normalize every summand
    and keep the ones of the expected dimension, mod 2.
    """
    g = expand_graph(uniform_weights(t))
    result = ChainElement.zero(t.n, t.m, t.degree - 1)
    for v, vert in enumerate(g.vertices):
        if vert.kind != "mu":
            continue
        for endpoint in (Fraction(0), Fraction(1)):
            verts = list(g.vertices)
            verts[v] = type(vert)("mu", (endpoint,))
            g2 = GraphTerm(g.n, g.m, tuple(verts), g.edges)
            y = normalize(g2)
            if y.degree == t.degree - 1:
                result = result + ChainElement.of(y.stype)
    return result


# ---------------------------------------------------------------------------
# composition of chains (staircase refinements)

def _staircases(p, q):
    """Monotone lattice paths from (0,0) to (p-1,q-1), as index pairs."""
    steps = p + q - 2
    for a_positions in combinations(range(steps), p - 1):
        path = [(0, 0)]
        ia = ib = 0
        for s in range(steps):
            if s in a_positions:
                ia += 1
            else:
                ib += 1
            path.append((ia, ib))
        yield path


def _cap_type(t: SurjType, j: int):
    """Remove output j, which must own a single strand; None if degenerate."""
    blocks = []
    for blk in t.blocks:
        if j in blk:
            u = blk.index(j)
            if 0 < u < len(blk) - 1 and blk[u - 1] == blk[u + 1]:
                return None
            blk = blk[:u] + blk[u + 1:]
        blocks.append(tuple(f - 1 if f > j else f for f in blk))
    return SurjType(t.n, t.m - 1, tuple(blocks))


def compose_types(t1: SurjType, t2: SurjType) -> frozenset:
    """All top cells of the composed cells, mod 2."""
    if t1.m != t2.n:
        raise CompositionError(f"cannot compose ({t1.n},{t1.m}) above ({t2.n},{t2.m})")
    x = t1
    for j in range(t2.n, 0, -1):
        if t2.blocks[j - 1]:
            continue
        if x.output_counts()[j - 1] > 1:
            return frozenset()  # the composed cell drops dimension
        x = _cap_type(x, j)
        if x is None:
            return frozenset()
    live_blocks = [blk for blk in t2.blocks if blk]

    wire_tops = {w: [] for w in range(1, x.m + 1)}  # wire -> [(block, pos)]
    for i, blk in enumerate(x.blocks):
        for u, f in enumerate(blk):
            wire_tops[f].append((i, u))

    options = []
    for w in range(1, x.m + 1):
        options.append(list(_staircases(len(wire_tops[w]), len(live_blocks[w - 1]))))

    results = set()
    for combo in product(*options):
        pieces = {}  # (block, pos) -> [f2,...]
        for w, path in enumerate(combo, start=1):
            for ia, ib in path:
                pieces.setdefault(wire_tops[w][ia], []).append(live_blocks[w - 1][ib])
        blocks = []
        ok = True
        for i, blk in enumerate(x.blocks):
            nb = []
            for u in range(len(blk)):
                nb.extend(pieces[(i, u)])
            for a, b in zip(nb, nb[1:]):
                if a == b:
                    ok = False
                    break
            if not ok:
                break
            blocks.append(tuple(nb))
        if ok:
            results ^= {SurjType(x.n, t2.m, tuple(blocks))}
    return frozenset(results)


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


def permute_outputs_chain(x: ChainElement, tau: Permutation) -> ChainElement:
    return ChainElement(x.n, x.m, x.degree,
                        frozenset(permute_outputs_type(t, tau) for t in x.support))


def permute_inputs_chain(x: ChainElement, sigma: Permutation) -> ChainElement:
    return ChainElement(x.n, x.m, x.degree,
                        frozenset(permute_inputs_type(t, sigma) for t in x.support))


_GEN_TYPES = {"eps": eps_type, "delta": delta_type, "mu": mu_type}
_GEN_DEGREE = {"eps": 0, "delta": 0, "mu": 1, "phi": 1, "id": 0}


def chain_eval(g: GraphTerm) -> ChainElement:
    """Class of a term in the chain prop; every parametrized vertex
    contributes its whole generating cell, and the counit homotopy is sent
    to zero (its image cell is degenerate)."""
    require_valid(g)
    by_source = targets_by_source(g)
    degree = sum(_GEN_DEGREE[v.kind] for v in g.vertices)
    if any(v.kind == "phi" for v in g.vertices):
        return ChainElement.zero(g.n, g.m, degree)

    wires = [by_source[("in", i)] for i in range(g.n)]  # edge ids = dst endpoints
    state = ChainElement.of(identity_type(g.n))
    for v in topological_order(g):
        vert = g.vertices[v]
        ins = [("vi", v, k) for k in range(vert.arity[0])]
        others = [wb for wb in wires if wb not in ins]
        first = min(wires.index(ep) for ep in ins)
        cut = sum(1 for wb in wires[:first] if wb not in ins)
        new_wires = others[:cut] + ins + others[cut:]
        tau = Permutation(tuple(new_wires.index(wb) + 1 for wb in wires))
        state = permute_outputs_chain(state, tau)

        gen = ChainElement.of(_GEN_TYPES[vert.kind]()) if vert.kind != "id" \
            else ChainElement.of(identity_type(1))
        layer = ChainElement.of(identity_type(cut))
        layer = horizontal_chain(layer, gen)
        layer = horizontal_chain(
            layer, ChainElement.of(identity_type(len(new_wires) - cut - len(ins))))
        state = chain_compose(state, layer)
        outs = [by_source[("vo", v, k)] for k in range(vert.arity[1])]
        wires = new_wires[:cut] + outs + new_wires[cut + len(ins):]

    tau = Permutation(tuple(dst[1] + 1 for dst in wires))
    return permute_outputs_chain(state, tau)


# ---------------------------------------------------------------------------
# action on simplicial chains

def splittings(face, r):
    """All ways to cut a face into r consecutive pieces sharing endpoints."""
    q = len(face) - 1
    for cuts in combinations_with_replacement(range(q + 1), r - 1):
        prev = 0
        pieces = []
        for c in cuts:
            pieces.append(face[prev:c + 1])
            prev = c
        pieces.append(face[prev:])
        yield tuple(pieces)


def act_type(t: SurjType, faces) -> frozenset:
    """Apply one basis cell to a tuple of faces; result is a set of
    m-tuples of faces (the F2 sum).

    This is the interval-cut description of the action.  Cut points are
    placed block by block, and each output keeps the vertex set of the
    pieces routed to it so far, as a bitmask.  A piece stops growing as
    soon as it repeats a vertex or meets its output's set: every longer
    piece overlaps too, so that branch contributes zero.  The last piece of
    a block is forced (it runs to the end of the face) and is checked in
    one step.  Each complete placement adds its tuple of sorted unions
    mod 2.
    """
    if len(faces) != t.n:
        raise GraphError(f"expected {t.n} tensor factors, got {len(faces)}")
    labels = sorted({v for face in faces for v in face})
    bit = {v: 1 << j for j, v in enumerate(labels)}
    masks = [0] * t.m
    # every piece but the last of its block, as (output, vertex bits of its
    # face, tails, output of the next piece, whether that one ends the block)
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
            pieces.append((blk[u] - 1, bits, tails, blk[u + 1] - 1, u == len(blk) - 2))
    found = set()
    total = len(pieces)

    def place(i, start):
        o, bits, tails, o2, closes = pieces[i]
        old = acc = masks[o]
        for e in range(start, len(bits)):
            b = bits[e]
            if acc & b:
                break
            acc |= b
            masks[o] = acc
            m2 = masks[o2]
            if not closes:
                if not m2 & b:  # the next piece starts at e
                    place(i + 1, e)
                continue
            tail = tails[e]
            if tail is None or m2 & tail:
                continue
            masks[o2] = m2 | tail
            if i + 1 < total:
                place(i + 1, 0)
            else:  # a complete placement, added mod 2
                found.symmetric_difference_update((tuple(masks),))
            masks[o2] = m2
        masks[o] = old

    if pieces:
        place(0, 0)
    else:
        found.add(tuple(masks))
    pairs = tuple(zip(labels, bit.values()))
    spans = {mask: tuple(v for v, b in pairs if mask & b)
             for mask in {mask for key in found for mask in key}}
    return frozenset(tuple(map(spans.__getitem__, key)) for key in found)


def act(x: ChainElement, tensors) -> frozenset:
    """F2-linear extension of act_type over a set of input tensors."""
    out = frozenset()
    for tensor in tensors:
        for t in x.support:
            out ^= act_type(t, tensor)
    return out


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

def evaluate_pairing(cochains, tensor):
    """Evaluate a tuple of cochains (sets of faces) against a face tuple."""
    return all(face in cochain for cochain, face in zip(cochains, tensor))


def cup_i(i: int, a: frozenset, b: frozenset, complex_) -> frozenset:
    """The degree-i binary operation dual to the alternating (1,2) cell.

    `a` and `b` are cochains given by their supports on a finite ordered
    simplicial complex; the result lives in degree |a| + |b| - i.
    """
    if i < 0:
        raise GraphError("cup index must be nonnegative")
    if not a or not b:
        return frozenset()
    pa = _cochain_dim(a)
    pb = _cochain_dim(b)
    deg = pa + pb - i
    if deg < 0:
        return frozenset()
    # every simplex is a sorted tuple of distinct vertices, so the action on
    # it is the action on (0..deg) relabelled through the simplex
    pattern = [(_picker(f1), _picker(f2))
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


def _picker(positions):
    """The face of a simplex at these vertex positions, as a function."""
    if len(positions) == 1:
        j = positions[0]
        return lambda sigma: (sigma[j],)
    return itemgetter(*positions)


def _cochain_dim(a):
    dims = {len(f) - 1 for f in a}
    if len(dims) != 1:
        raise GraphError("cochain must be homogeneous")
    return dims.pop()


def steenrod_square(k: int, x: frozenset, complex_) -> frozenset:
    """Sq^k of a mod-2 cocycle: x cup_(|x|-k) x; zero above the degree."""
    from .complexes import is_cocycle
    if not is_cocycle(complex_, x):
        raise GraphError("steenrod_square expects a cocycle")
    if not x or k < 0:
        return frozenset()
    q = _cochain_dim(x)
    if k > q:
        return frozenset()
    y = cup_i(q - k, x, x, complex_)
    if not is_cocycle(complex_, y):
        raise InternalError("square of a cocycle failed to be a cocycle")
    return y


def chains_S_check(g: GraphTerm) -> ChainElement:
    """Image of a term over the strictly counital presentation in the
    chain prop; phi cells die, and the counitality relations hold."""
    return chain_eval(g)
