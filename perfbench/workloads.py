"""The four benchmark workloads.

Each workload builds a seeded pool of inputs of a stated size, runs one
op per input, and checks each op's output outside the timed region.  The
check is an independent identity (two routes that must agree, or an
answer known by construction); it runs once per input on the warm-up
output, and every timed op's output must then equal that verified
answer.  All program calls go through module attributes, so the traced
run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass

from propcalc import (chains, cli, complexes, graphs, simplex, sset, surfaces,
                      surjections, terms)

import inputs


@dataclass
class Workload:
    name: str
    knobs: dict
    build: object      # (rng, knobs, workdir) -> list of inputs
    op: object         # input -> output, the timed call
    verify: object     # (input, output) -> bool, never timed
    replay: object = None  # input -> None, traced passes only, never timed


# fixed shapes; the size knobs are each workload's `knobs`
COMPOSE_ARITY = (2, 3, 2)   # x is (n,m), y is (m,p)
ACT_M = 2                   # outputs of the (1,m) and (2,m) cells
EVAL_MAX_WIDTH = 6          # most strands a built term carries at once


# ---------------------------------------------------------------------------
# compose: parse -> normalize -> compose_weighted -> surface_summary

@dataclass
class ComposeInput:
    text: str
    x: object
    y: object
    graph: object  # G_x ; G_y as a graph, for the stage replay


def compose_build(rng, knobs, workdir):
    r, moves, pool = knobs["r"], knobs["moves"], knobs["pool"]
    n, m, p = COMPOSE_ARITY
    out = []
    for _ in range(pool):
        x = inputs.sample_weights(rng, inputs.sample_type(rng, n, m, r))
        y = inputs.sample_weights(rng, inputs.sample_type(rng, m, p, r))
        gx = surjections.shuffle_relations(surjections.expand_graph(x), rng, moves)
        gy = surjections.shuffle_relations(surjections.expand_graph(y), rng, moves)
        text = inputs.render(gx) + " ; " + inputs.render(gy)
        out.append(ComposeInput(text, x, y, graphs.vertical_compose(gx, gy)))
    return out


def compose_op(inp):
    z1 = surjections.normalize(terms.parse(inp.text))
    z2 = surjections.compose_weighted(inp.x, inp.y)
    return z1, z2, surfaces.surface_summary(z2)


def compose_verify(inp, out):
    z1, z2, summary = out
    if z1 != z2 or z2.n != inp.x.n or z2.m != inp.y.m:
        return False
    rg = surfaces.collapse_edges(surfaces.to_ribbon(z2))
    if surfaces.recover_surjection(rg, z2.n, z2.m) != z2:
        return False
    arcs = tuple((i + 1, f, w) for i, (blk, ws) in enumerate(zip(z2.blocks, z2.weights))
                 for f, w in zip(blk, ws))
    return summary.arcs == arcs and summary.boundary == z2.n + z2.m


def compose_replay(inp):
    """Normalization's counit and Leibniz stages, through public functions."""
    surjections.leibniz_push(surjections.eliminate_counits(inp.graph))


# ---------------------------------------------------------------------------
# act: chain-map identity and composition compatibility on top faces

@dataclass
class ActInput:
    x: object        # ChainElement of one basis cell
    faces: tuple     # one top face of the d-simplex per input
    top: object      # (1,2) cell composed above x, or None
    bottom: object   # horizontal (1,2) cells composed below x, or None


def act_build(rng, knobs, workdir):
    d, k, m, pool = knobs["d"], knobs["degree"], ACT_M, knobs["pool"]
    face = tuple(range(d + 1))
    out = []
    for i in range(pool):
        # one (2,m) cell for every two (1,m) cells; a 50/50 mix would put
        # the median between the two cost clusters
        n = 2 if i % 3 == 2 else 1
        x = chains.ChainElement.of(inputs.sample_type(rng, n, m, m + k))
        top = bottom = None
        if n == 1:
            bottom = chains.ChainElement.of(inputs.sample_type(rng, 1, 2, 3))
            for _ in range(m - 1):
                bottom = chains.horizontal_chain(
                    bottom, chains.ChainElement.of(inputs.sample_type(rng, 1, 2, 3)))
        else:
            top = chains.ChainElement.of(inputs.sample_type(rng, 1, 2, 3))
        out.append(ActInput(x, (face,) * n, top, bottom))
    return out


def act_op(inp):
    x, faces = inp.x, inp.faces
    lhs = chains.act(chains.differential(x), [faces])
    ax = chains.act(x, [faces])
    rhs = chains.tensor_boundary(ax) ^ chains.act(x, chains.tensor_boundary([faces]))
    if inp.bottom is not None:
        composed = chains.act(chains.chain_compose(x, inp.bottom), [faces])
        stacked = chains.act(inp.bottom, ax)
    else:
        f = faces[:1]
        composed = chains.act(chains.chain_compose(inp.top, x), [f])
        stacked = chains.act(x, chains.act(inp.top, [f]))
    return lhs, rhs, composed, stacked


def act_verify(inp, out):
    lhs, rhs, composed, stacked = out
    return lhs == rhs and composed == stacked


# ---------------------------------------------------------------------------
# steenrod: `propcalc sq` and `propcalc cup --i 1` on files for sd^k(RP^2)

@dataclass
class SteenrodInput:
    argv: list
    complex_: object
    a: frozenset
    b: frozenset     # second cup factor; empty for sq
    c: int           # a = c*g + delta(f)


def steenrod_build(rng, knobs, workdir):
    K = inputs.subdivided(complexes.rp2(), knobs["k"])
    g = complexes.representative_cocycle(K, 1)
    k_path = os.path.join(workdir, "K.sc")
    with open(k_path, "w") as fh:
        fh.write(inputs.complex_to_text(K))
    vertices = K.simplices(0)
    cochains = []
    for i in range(knobs["pool"]):
        c = rng.randint(0, 1)
        a = frozenset()
        while not a:
            f = frozenset(v for v in vertices if rng.random() < 0.5)
            a = complexes.coboundary(K, f) ^ (g if c else frozenset())
        path = os.path.join(workdir, f"a{i}.cc")
        with open(path, "w") as fh:
            fh.write(inputs.cochain_text(a))
        cochains.append((path, a, c))
    out = []
    for i, (path, a, c) in enumerate(cochains):
        if i % 2 == 0:
            argv = ["sq", "--k", "1", "--complex", k_path, "--cocycle", path]
            out.append(SteenrodInput(argv, K, a, frozenset(), c))
        else:
            b_path, b, _ = cochains[i - 1]
            argv = ["cup", "--i", "1", "--complex", k_path, "--a", path, "--b", b_path]
            out.append(SteenrodInput(argv, K, a, b, c))
    return out


def steenrod_op(inp):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(inp.argv)
    return code, buf.getvalue()


def _read_cochain(text):
    return frozenset() if text.strip() == "0" else complexes.cochain_from_text(text)


def steenrod_verify(inp, out):
    code, text = out
    if code != 0:
        return False
    result = _read_cochain(text)
    K = inp.complex_
    if not inp.b:
        # the fundamental class detects H^2(RP^2; F2), and Sq^1 g != 0
        return all(len(f) == 3 for f in result) and len(result) % 2 == inp.c
    # delta(a cup_1 b) = a cup_0 b + b cup_0 a for cocycles a, b
    return (all(len(f) == 2 for f in result)
            and complexes.coboundary(K, result)
            == chains.cup_i(0, inp.a, inp.b, K) ^ chains.cup_i(0, inp.b, inp.a, K))


# ---------------------------------------------------------------------------
# evaluate: eval_term at exact points, naturality, realization action

@dataclass
class EvaluateInput:
    graph: object
    layers: list
    points: list          # P tuples of n points of the d-simplex
    coface: int
    codegeneracy: int
    nat_seed: int
    sset_: object
    realization: list     # realization points of sd(RP^2), (1,m) terms only


def evaluate_build(rng, knobs, workdir):
    V, d, P, pool = knobs["V"], knobs["d"], knobs["P"], knobs["pool"]
    sd = inputs.subdivide(complexes.rp2())
    ss = sset.from_complex(sd)
    triangles = [ss.nondegenerate(",".join(map(str, t))) for t in sd.simplices(2)]
    out = []
    for i in range(pool):
        n = 2 if i % 3 == 2 else 1  # same 2:1 mix as `act`, for the same reason
        g, layers = inputs.build_term(rng, n, V, max_width=EVAL_MAX_WIDTH)
        points = [tuple(simplex.random_point(rng, d) for _ in range(n)) for _ in range(P)]
        realization = []
        if n == 1:
            realization = [sset.RealizationPoint(rng.choice(triangles),
                                                 simplex.random_point(rng, 2))
                           for _ in range(2)]
        out.append(EvaluateInput(g, layers, points, rng.randint(0, d + 1),
                                 rng.randint(1, d + 1), rng.randrange(2 ** 32),
                                 ss, realization))
    return out


def evaluate_op(inp):
    d = len(inp.points[0][0].coords)
    values = [simplex.eval_term(inp.graph, pts) for pts in inp.points]
    rng = random.Random(inp.nat_seed)
    bad = (simplex.check_naturality(inp.graph, "delta", inp.coface, d, 1, rng)
           + simplex.check_naturality(inp.graph, "sigma", inp.codegeneracy, d, 1, rng))
    moved = [sset.realization_act(inp.sset_, inp.graph, rp) for rp in inp.realization]
    return values, bad, moved


def eval_layers(layers, points):
    """Evaluate a term along its construction, never reading its wiring."""
    pts = list(points)
    for step in layers:
        if step[0] == "perm":
            image = step[1]
            moved = [None] * len(pts)
            for j, p in enumerate(pts):
                moved[image[j] - 1] = p
            pts = moved
        else:
            _, kind, param, pos = step
            a = 2 if kind == "mu" else 1
            outs = simplex.eval_generator(kind, param, tuple(pts[pos:pos + a]))
            pts = pts[:pos] + list(outs) + pts[pos + a:]
    return tuple(pts)


def evaluate_verify(inp, out):
    values, bad, moved = out
    if bad or values != [eval_layers(inp.layers, pts) for pts in inp.points]:
        return False
    expected = [tuple(sset.canonicalize(inp.sset_, sset.RealizationPoint(rp.cell, q))
                      for q in eval_layers(inp.layers, (rp.point,)))
                for rp in inp.realization]
    return moved == expected


# ---------------------------------------------------------------------------

WORKLOADS = {
    "compose": Workload(
        "compose",
        {"r": 16, "moves": 16, "pool": 100},
        compose_build, compose_op, compose_verify, compose_replay),
    "act": Workload(
        "act",
        {"d": 4, "degree": 2, "pool": 100},
        act_build, act_op, act_verify),
    "steenrod": Workload(
        "steenrod",
        {"k": 2, "pool": 100},
        steenrod_build, steenrod_op, steenrod_verify),
    "evaluate": Workload(
        "evaluate",
        {"V": 40, "d": 4, "P": 4, "pool": 100},
        evaluate_build, evaluate_op, evaluate_verify),
}
