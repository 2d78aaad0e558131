"""Finitely presented simplicial sets and points of their realizations.

A simplicial set is generated by nondegenerate cells with an explicit face
table; arbitrary cells are degeneracy words (admissible, strictly
decreasing) applied to a base cell, and the simplicial identities push
faces and degeneracies through the words.

A realization point is a cell together with a point of the standard
simplex of its dimension; canonicalization pushes the point into the
nondegenerate cell whose open cell contains it, making equality of
realization points decidable.

Index conventions: face and degeneracy tables use the vertex-based
indices d_j (delete vertex j) and s_j (repeat vertex j); the coordinate
maps of the simplex module use the coordinate-based indices, and the
translation between the two is index -> dimension - index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .complexes import SimplicialComplex
from .errors import GraphError, ParseError
from .graphs import GraphTerm, _read_json
from .simplex import SimplexPoint, codegeneracy, coface, eval_term


@dataclass(frozen=True)
class Cell:
    name: str
    dim: int


@dataclass(frozen=True)
class FormalCell:
    """s_{w[0]} s_{w[1]} ... applied to a nondegenerate base cell."""

    word: tuple
    base: Cell

    def __post_init__(self):
        for a, b in zip(self.word, self.word[1:]):
            if a <= b:
                raise GraphError(f"degeneracy word {self.word} not admissible")

    @property
    def dim(self):
        return self.base.dim + len(self.word)

    @property
    def is_degenerate(self):
        return bool(self.word)


class SimplicialSet:
    def __init__(self, cells, faces):
        """cells: iterable of Cell; faces: dict (cell name, j) -> FormalCell."""
        self.cells = {c.name: c for c in cells}
        self.faces = dict(faces)
        for c in self.cells.values():
            for j in range(c.dim + 1):
                if c.dim > 0 and (c.name, j) not in self.faces:
                    raise GraphError(f"missing face d_{j} of {c.name}")

    def nondegenerate(self, name) -> FormalCell:
        if name not in self.cells:
            raise GraphError(f"unknown cell {name!r}")
        return FormalCell((), self.cells[name])

    def face(self, fc: FormalCell, j) -> FormalCell:
        """d_j applied to a formal cell, via the simplicial identities."""
        if not 0 <= j <= fc.dim:
            raise GraphError(f"face index {j} outside 0..{fc.dim}")
        word = list(fc.word)
        for pos, k in enumerate(word):
            if j < k:
                word[pos] = k - 1
            elif j in (k, k + 1):
                del word[pos]
                return FormalCell(tuple(word), fc.base)
            else:
                j -= 1
        if fc.base.dim == 0:
            raise GraphError("vertex has no faces")
        target = self.faces[(fc.base.name, j)]
        out = target
        for s in reversed(word):
            out = self.degeneracy(out, s)
        return out

    def degeneracy(self, fc: FormalCell, j) -> FormalCell:
        """s_j applied to a formal cell, keeping the word admissible."""
        if not 0 <= j <= fc.dim:
            raise GraphError(f"degeneracy index {j} outside 0..{fc.dim}")
        word = list(fc.word)
        pos = 0
        while pos < len(word) and j <= word[pos]:
            word[pos] += 1
            pos += 1
        word.insert(pos, j)
        return FormalCell(tuple(word), fc.base)


def sset_from_json(text) -> SimplicialSet:
    """Load a finitely presented simplicial set.

    Schema: {"cells": [[name, dim], ...],
             "faces": {"name": [[ [degeneracy word], base name], ...]}}
    with one face entry per index 0..dim for every positive-dimensional
    cell; degeneracy words are standard indices, outermost first.

    The document is checked here, where it enters: cell names are distinct
    strings and dimensions nonnegative ints; a cell of dimension n > 0 has
    exactly n + 1 faces and a vertex none; and each face of an n-cell is
    an admissible degeneracy word on a declared cell, of dimension n - 1.
    A malformed document raises ParseError, and one that is well formed
    but not a simplicial set raises GraphError.
    """
    doc = _read_json(text, "simplicial set")
    if not isinstance(doc, dict) or not isinstance(doc.get("cells"), list):
        raise ParseError('simplicial set: expected an object with a "cells" list')
    listed = doc.get("faces", {})
    if not isinstance(listed, dict):
        raise ParseError('simplicial set: "faces" must be an object')
    dims = {}
    for entry in doc["cells"]:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and type(entry[1]) is int and entry[1] >= 0):
            raise ParseError(f"simplicial set: cell {json.dumps(entry)} "
                             "is not a [name, dimension] pair")
        name, dim = entry
        if name in dims:
            raise GraphError(f"duplicate cell {name!r}")
        dims[name] = dim
    for name in listed:
        if name not in dims:
            raise GraphError(f"faces given for undeclared cell {name!r}")
    faces = {}
    for name, dim in dims.items():
        entries = listed.get(name, [])
        if not isinstance(entries, list):
            raise ParseError(f"simplicial set: faces of {name!r} must be a list")
        need = dim + 1 if dim else 0
        if len(entries) != need:
            raise GraphError(f"cell {name!r} of dimension {dim} needs {need} faces, "
                             f"got {len(entries)}")
        for j, entry in enumerate(entries):
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)
                    and all(type(k) is int and k >= 0 for k in entry[0])
                    and isinstance(entry[1], str)):
                raise ParseError(f"simplicial set: face d_{j} of {name!r} is not a "
                                 "[degeneracy word, base name] pair")
            word, base = entry
            if base not in dims:
                raise GraphError(f"face d_{j} of {name!r}: unknown cell {base!r}")
            fc = FormalCell(tuple(word), Cell(base, dims[base]))
            if fc.dim != dim - 1:
                raise GraphError(f"face d_{j} of {name!r} has dimension {fc.dim}, "
                                 f"not {dim - 1}")
            # the outermost s_k acts on a cell of dimension fc.dim - 1
            if word and word[0] >= fc.dim:
                raise GraphError(f"face d_{j} of {name!r}: degeneracy s_{word[0]} "
                                 f"outside 0..{fc.dim - 1}")
            faces[(name, j)] = fc
    return SimplicialSet([Cell(name, dim) for name, dim in dims.items()], faces)


def sset_to_json(ss: SimplicialSet) -> str:
    cells = sorted((c.name, c.dim) for c in ss.cells.values())
    faces = {}
    for (name, j), fc in sorted(ss.faces.items()):
        faces.setdefault(name, [None] * (ss.cells[name].dim + 1))
        faces[name][j] = [list(fc.word), fc.base.name]
    return json.dumps({"cells": cells, "faces": faces}, indent=2)


def standard_sset(d) -> SimplicialSet:
    """The standard d-simplex: nondegenerate cells are vertex subsets."""
    return from_complex(SimplicialComplex.standard_simplex(d))


def from_complex(complex_) -> SimplicialSet:
    """Simplicial set generated by the simplices of an ordered complex."""
    cells = []
    faces = {}
    for k in range(complex_.dim + 1):
        for vs in complex_.simplices(k):
            name = ",".join(map(str, vs))
            cells.append(Cell(name, k))
            for j in range(k + 1):
                sub = vs[:j] + vs[j + 1:]
                if sub:
                    faces[(name, j)] = FormalCell((), Cell(",".join(map(str, sub)), k - 1))
    return SimplicialSet(cells, faces)


# ---------------------------------------------------------------------------
# realization points

@dataclass(frozen=True)
class RealizationPoint:
    cell: FormalCell
    point: SimplexPoint

    def __post_init__(self):
        if self.cell.dim != self.point.d:
            raise GraphError("cell dimension does not match the point")


def canonicalize(sset: SimplicialSet, rp: RealizationPoint) -> RealizationPoint:
    """Push a realization point into its unique nondegenerate carrier.

    While the point lies in the image of a coface, pull back along the
    matching face map; while the cell is degenerate, drop the outer
    degeneracy and the coordinate it duplicates.
    """
    cell, point = rp.cell, rp.point
    while True:
        d = cell.dim
        xs = point.coords
        i = None
        if d > 0:
            if xs[0] == 0:
                i = 0
            elif xs[-1] == 1:
                i = d
            else:
                for c in range(1, d):
                    if xs[c - 1] == xs[c]:
                        i = c
                        break
        if i is not None:
            # the pull-back drops x_1 = 0 (i = 0), x_d = 1 (i = d) or one of the
            # equal x_i = x_(i+1): in every case the codegeneracy at max(i, 1)
            point = codegeneracy(point, max(i, 1))
            cell = sset.face(cell, d - i)
            continue
        if cell.is_degenerate:
            j = cell.word[0]
            point = codegeneracy(point, d - j)
            cell = FormalCell(cell.word[1:], cell.base)
            continue
        return RealizationPoint(cell, point)


def realization_act(sset: SimplicialSet, g: GraphTerm, rp: RealizationPoint):
    """Act by an operadic term and canonicalize every output."""
    if g.n != 1:
        raise GraphError("realization actions use biarity (1,m) terms")
    outs = eval_term(g, (rp.point,))
    return tuple(canonicalize(sset, RealizationPoint(rp.cell, p)) for p in outs)


# simplex-category morphisms as words, for the well-definedness tests

def apply_word_to_point(word, p: SimplexPoint) -> SimplexPoint:
    """Apply coordinate maps left to right: ("delta", i) or ("sigma", i)."""
    for op, i in word:
        p = coface(p, i) if op == "delta" else codegeneracy(p, i)
    return p


def pull_back_cell(sset: SimplicialSet, word, fc: FormalCell) -> FormalCell:
    """The contravariant action of a word of coordinate maps on a cell.

    Applied right to left; a coface of coordinate index i on dimension-d
    targets is the face d_{d-i}, and a codegeneracy of coordinate index i
    from dimension d+1 is the degeneracy s_{d+1-i}.
    """
    for op, i in reversed(word):
        if op == "delta":
            fc = sset.face(fc, fc.dim - i)
        else:
            fc = sset.degeneracy(fc, fc.dim + 1 - i)
    return fc
