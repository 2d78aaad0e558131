"""Command-line front end.

Subcommands: parse, normalize, compose, eval, act, cup, sq, surface,
verify, export.  Exit code 1 flags a parse or validation problem, or a
computation too deep for the interpreter; 2 an internal invariant failure
or a failed verification.  `--format` selects one of the output formats a
subcommand renders; it defaults to text, and to json for `export`.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import chains, complexes, graphs, surfaces, verify
from .errors import InternalError, PropcalcError
from .simplex import eval_term, parse_point
from .surjections import WeightedSurjection, compose_weighted, normalize
from .terms import parse as parse_term


def build_parser():
    ap = argparse.ArgumentParser(prog="propcalc",
                                 description="calculator for finitely presented "
                                             "E-infinity props")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a term, validate, print it")
    p.add_argument("term")
    p.add_argument("--format", choices=["text", "json", "dot"], default="text")

    p = sub.add_parser("normalize", help="canonical weighted-surjection form")
    p.add_argument("term")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("compose", help="compose two normal forms vertically")
    p.add_argument("top")
    p.add_argument("bottom")
    p.add_argument("--format", choices=["text", "json"], default="text")

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
    p.add_argument("--format", choices=["text", "json", "dot", "svg"], default="text")

    p = sub.add_parser("verify", help="run the acceptance suites")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion numbers")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED,
                   help="suite seed")

    p = sub.add_parser("export", help="export a term (json or dot)")
    p.add_argument("term")
    p.add_argument("--format", choices=["json", "dot"], default="json")
    return ap


@functools.cache
def _parser():
    """The parser, built on first use and kept for the process."""
    return build_parser()


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
    # a face can only be a simplex of its own dimension
    lengths = set(map(len, cochain))
    stray = cochain.difference(*(complex_._faces(n - 1) for n in lengths))
    if stray:
        raise PropcalcError(f"{path}: face {' '.join(map(str, min(stray)))} "
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


# options whose values may begin with "-", which argparse would take for an option
_DASH_VALUE_OPTIONS = ("--face", "--point")


def _attach_dash_values(argv):
    """Write `--face -1,2` as `--face=-1,2`, so that the value reaches its own check."""
    out = []
    k = 0
    while k < len(argv):
        if (argv[k] in _DASH_VALUE_OPTIONS and k + 1 < len(argv)
                and argv[k + 1].startswith("-")):
            out.append(f"{argv[k]}={argv[k + 1]}")
            k += 2
        else:
            out.append(argv[k])
            k += 1
    return out


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parser().parse_args(_attach_dash_values(argv))
    try:
        if args.command == "verify":
            only = _criteria(args.only) if args.only is not None else None
            results = verify.run_all(seed=args.seed, only=only)
            return 0 if all(r.passed for r in results) else 2
        # the whole text is written out before any of it is printed
        print(_render(args))
        return 0
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except PropcalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: computation too deep for the interpreter", file=sys.stderr)
        return 1
    except ValueError as exc:
        # an exact result whose integers exceed the int-to-text conversion limit
        if "integer string conversion" not in str(exc):
            raise
        print("error: a result coordinate has too many digits to print", file=sys.stderr)
        return 1


def _ws_text(x: WeightedSurjection, fmt):
    return x.to_json() if fmt == "json" else x.text()


def _render(args) -> str:
    cmd = args.command
    if cmd in ("parse", "export"):
        g = parse_term(args.term)
        graphs.require_valid(g)
        if args.format == "dot":
            return graphs.to_dot(g)
        if args.format == "json":
            return graphs.to_json(g)
        return f"valid term of biarity ({g.n},{g.m}) with {len(g.vertices)} vertices"

    if cmd == "normalize":
        return _ws_text(normalize(parse_term(args.term)), args.format)

    if cmd == "compose":
        top = normalize(parse_term(args.top))
        bottom = normalize(parse_term(args.bottom))
        return _ws_text(compose_weighted(top, bottom), args.format)

    if cmd == "eval":
        g = parse_term(args.term)
        points = tuple(parse_point(text) for text in args.point)
        return ", ".join(str(p) for p in eval_term(g, points, d=args.d))

    if cmd == "act":
        g = parse_term(args.term)
        x = chains.chain_eval(g)
        faces = tuple(_face(text) for text in args.face)
        result = chains.act(x, [faces])
        if not result:
            return "0"
        return " + ".join(
            " (x) ".join("[" + ",".join(map(str, f)) + "]" for f in tensor) or "1"
            for tensor in sorted(result))

    if cmd == "cup":
        K = _complex_from_file(args.complex)
        a = _cochain_from_file(args.a, K)
        b = _cochain_from_file(args.b, K)
        result = chains.cup_i(args.i, a, b, K)
        return complexes.cochain_to_text(result)

    if cmd == "sq":
        K = _complex_from_file(args.complex)
        x = _cochain_from_file(args.cocycle, K)
        result = chains.steenrod_square(args.k, x, K)
        return complexes.cochain_to_text(result)

    if cmd == "surface":
        x = normalize(parse_term(args.term))
        if args.format == "svg":
            return surfaces.svg_sketch(x)
        if args.format == "dot":
            return surfaces.ribbon_to_dot(surfaces.collapse_edges(surfaces.to_ribbon(x)))
        s = surfaces.surface_summary(x)
        if args.format == "json":
            return s.to_json()
        return "\n".join([f"genus {s.genus}, boundary circles {s.boundary}, "
                          f"components {s.components}, chi {s.chi_surface}"]
                         + [f"  arc {i} -> {j}  weight {w}" for i, j, w in s.arcs])

    raise PropcalcError(f"unknown command {cmd!r}")


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
