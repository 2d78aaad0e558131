"""Command-line front end.

Subcommands: parse, normalize, compose, eval, act, cup, sq, surface,
verify, export.  Exit code 1 flags a parse or validation problem, 2 an
internal invariant failure or a failed verification.  The default output
format can be set with the PROPCALC_FORMAT environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import chains, complexes, graphs, surfaces, verify
from .errors import InternalError, PropcalcError
from .simplex import eval_term, parse_point
from .surjections import WeightedSurjection, compose_weighted, normalize
from .terms import parse as parse_term


def _add_format(p, default=None):
    p.add_argument("--format", choices=["text", "json", "dot", "svg"],
                   default=default or os.environ.get("PROPCALC_FORMAT", "text"))


def build_parser():
    ap = argparse.ArgumentParser(prog="propcalc",
                                 description="calculator for finitely presented "
                                             "E-infinity props")
    ap.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a term, validate, print it")
    p.add_argument("term")
    _add_format(p)

    p = sub.add_parser("normalize", help="canonical weighted-surjection form")
    p.add_argument("term")
    _add_format(p)

    p = sub.add_parser("compose", help="compose two normal forms vertically")
    p.add_argument("top")
    p.add_argument("bottom")
    _add_format(p)

    p = sub.add_parser("eval", help="evaluate a term on simplex points")
    p.add_argument("--term", required=True)
    p.add_argument("--point", action="append", default=[],
                   help="comma-separated coordinates; repeat per input")
    p.add_argument("--d", type=int, default=None, help="ambient dimension")

    p = sub.add_parser("act", help="chain-level action on faces")
    p.add_argument("--term", required=True)
    p.add_argument("--face", action="append", default=[],
                   help="comma-separated vertices; repeat per tensor factor")

    p = sub.add_parser("cup", help="cup-i product of two cochains")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--complex", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = sub.add_parser("sq", help="Steenrod square of a cocycle")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--complex", required=True)
    p.add_argument("--cocycle", required=True)

    p = sub.add_parser("surface", help="arc surface of a term's normal form")
    p.add_argument("term")
    _add_format(p)

    p = sub.add_parser("verify", help="run the acceptance suites")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion numbers")
    p.add_argument("--seed", type=int, dest="seed",
                   default=argparse.SUPPRESS, help="suite seed")

    p = sub.add_parser("export", help="export a term (json or dot)")
    p.add_argument("term")
    _add_format(p, default="json")
    return ap


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PropcalcError(f"cannot read {path}: "
                            f"{getattr(exc, 'strerror', None) or exc}") from None


def _complex_from_file(path):
    return complexes.SimplicialComplex.from_text(_read(path))


def _cochain_from_file(path, complex_):
    """A cochain file whose faces must all be simplices of the complex."""
    cochain = complexes.cochain_from_text(_read(path))
    for face in cochain:
        if face not in complex_:
            raise PropcalcError(f"{path}: face {' '.join(map(str, face))} "
                                f"is not a simplex of the complex")
    return cochain


def _face(text):
    """A face given as comma-separated, nonnegative, strictly increasing vertices."""
    if not text.strip():
        raise PropcalcError("empty face")
    try:
        face = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise PropcalcError(f"face {text!r}: vertices must be integers") from None
    if face[0] < 0:
        raise PropcalcError(f"face {text!r}: vertices must be nonnegative")
    if any(u >= v for u, v in zip(face, face[1:])):
        raise PropcalcError(f"face {text!r}: vertices must be strictly increasing")
    return face


def _criteria(text):
    """Criterion numbers given as comma-separated integers, each naming a suite."""
    try:
        only = {int(tok) for tok in text.split(",")}
    except ValueError:
        raise PropcalcError(f"--only {text!r}: criterion numbers must be integers") from None
    unknown = sorted(only - set(range(1, len(verify.SUITES) + 1)))
    if unknown:
        raise PropcalcError(f"--only {text!r}: no criterion {unknown[0]}; "
                            f"criteria run from 1 to {len(verify.SUITES)}")
    return only


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except PropcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _print_ws(x: WeightedSurjection, fmt):
    if fmt == "json":
        print(x.to_json())
    else:
        print(x.text())


def _dispatch(args) -> int:
    cmd = args.command
    if cmd in ("parse", "export"):
        g = parse_term(args.term)
        graphs.require_valid(g)
        if args.format == "dot":
            print(graphs.to_dot(g))
        elif args.format == "json":
            print(graphs.to_json(g))
        else:
            print(f"valid term of biarity ({g.n},{g.m}) with "
                  f"{len(g.vertices)} vertices")
        return 0

    if cmd == "normalize":
        _print_ws(normalize(parse_term(args.term)), args.format)
        return 0

    if cmd == "compose":
        top = normalize(parse_term(args.top))
        bottom = normalize(parse_term(args.bottom))
        _print_ws(compose_weighted(top, bottom), args.format)
        return 0

    if cmd == "eval":
        g = parse_term(args.term)
        points = tuple(parse_point(text) for text in args.point)
        outs = eval_term(g, points, d=args.d)
        print(", ".join(str(p) for p in outs))
        return 0

    if cmd == "act":
        g = parse_term(args.term)
        x = chains.chain_eval(g)
        faces = tuple(_face(text) for text in args.face)
        result = chains.act(x, [faces])
        if not result:
            print("0")
        else:
            print(" + ".join(
                " (x) ".join("[" + ",".join(map(str, f)) + "]" for f in tensor)
                or "1"
                for tensor in sorted(result)))
        return 0

    if cmd == "cup":
        K = _complex_from_file(args.complex)
        a = _cochain_from_file(args.a, K)
        b = _cochain_from_file(args.b, K)
        result = chains.cup_i(args.i, a, b, K)
        print(complexes.cochain_to_text(result) if result else "0")
        return 0

    if cmd == "sq":
        K = _complex_from_file(args.complex)
        x = _cochain_from_file(args.cocycle, K)
        result = chains.steenrod_square(args.k, x, K)
        print(complexes.cochain_to_text(result) if result else "0")
        return 0

    if cmd == "surface":
        x = normalize(parse_term(args.term))
        if args.format == "svg":
            print(surfaces.svg_sketch(x))
        elif args.format == "dot":
            rg = surfaces.collapse_edges(surfaces.to_ribbon(x))
            print(surfaces.ribbon_to_dot(rg))
        elif args.format == "json":
            print(surfaces.surface_summary(x).to_json())
        else:
            s = surfaces.surface_summary(x)
            print(f"genus {s.genus}, boundary circles {s.boundary}, "
                  f"components {s.components}, chi {s.chi_surface}")
            for i, j, w in s.arcs:
                print(f"  arc {i} -> {j}  weight {w}")
        return 0

    if cmd == "verify":
        only = _criteria(args.only) if args.only else None
        results = verify.run_all(seed=args.seed, only=only)
        return 0 if all(r.passed for r in results) else 2

    raise PropcalcError(f"unknown command {cmd!r}")


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
