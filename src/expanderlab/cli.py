"""Command-line front end.

Exit codes: 0 success, 1 validation error (bad arguments, malformed input,
impossible request), 2 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .bounds import TABLE_RANGES, delta_table, gap_bounds, lambda2_bound_chain
from .errors import ConvergenceError, ValidationError
from .expansion import boundary_size, expanding_constant_exact
from .graph_core import load_graph, save_graph
from .numtheory import PrimePlan
from .planner import STRATEGIES, certify, construct
from .ramanujan_base import K_MAX


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through the
    # validation path so the documented exit codes hold.
    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="expanderlab",
                     description="Construct and certify regular expander "
                                 "graphs from prime-gap plans.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct",
                       help="build a certified k-regular graph")
    c.add_argument("--k", type=int, required=True,
                   help=f"target regularity, from 3 to {K_MAX}")
    c.add_argument("--min-vertices", type=int, required=True,
                   help="smallest acceptable vertex count")
    c.add_argument("--strategy", choices=tuple(STRATEGIES),
                   default="matching",
                   help="increment strategy (default: matching)")
    c.add_argument("--graph-out", required=True,
                   help="path for the edge-list file")
    c.add_argument("--cert-out", required=True,
                   help="path for the certificate JSON")
    c.set_defaults(func=_cmd_construct)

    ce = sub.add_parser("certify",
                        help="certify an existing edge-list graph")
    ce.add_argument("--graph", required=True, help="edge-list file to read")
    ce.add_argument("--cert-out", required=True,
                    help="path for the certificate JSON")
    ce.set_defaults(func=_cmd_certify)

    d = sub.add_parser("delta-table",
                       help="worst normalized prime gap per range")
    d.add_argument("--ranges",
                   help="comma-separated lo:hi pairs "
                        "(default: the six built-in decades)")
    d.set_defaults(func=_cmd_delta_table)

    b = sub.add_parser("bounds",
                       help="evaluate bound models at a regularity")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--model", choices=["chain", "trudgian", "bhp", "rh"],
                   help="single model (default: all)")
    b.add_argument("--rh-constant", type=float, default=1.0,
                   help="constant C in the conditional gap model")
    b.set_defaults(func=_cmd_bounds)

    e = sub.add_parser("expansion",
                       help="exact expanding constant of a small graph")
    e.add_argument("--graph", required=True, help="edge-list file to read")
    e.set_defaults(func=_cmd_expansion)

    return parser


def _cmd_construct(args) -> int:
    x, cert = construct(args.k, args.min_vertices, args.strategy)
    theory = PrimePlan.for_target(args.k)
    save_graph(x, args.graph_out)
    cert.save(args.cert_out)
    steps = cert.provenance
    if steps[0]["step"] == "lps":
        base = f"base p*={steps[0]['p']}, {len(steps) - 1} increment(s)"
    else:
        base = "served from the named-graph library"
    print(f"k={cert.k} n={cert.n} strategy={args.strategy} ({base})")
    print(f"theoretical plan: p={theory.p}, p'={theory.p_next}, "
          f"delta={theory.delta:.6f}")
    print(f"lambda2={cert.lambda2:.9f} gap={cert.spectral_gap:.9f} "
          f"ramanujan={cert.ramanujan} bipartite={cert.bipartite}")
    print(f"graph -> {args.graph_out}")
    print(f"certificate -> {args.cert_out}")
    return 0


def _cmd_certify(args) -> int:
    x = load_graph(args.graph)
    cert = certify(x, provenance=({"step": "load", "path": args.graph},))
    cert.save(args.cert_out)
    print(f"k={cert.k} n={cert.n} lambda2={cert.lambda2:.9f} "
          f"gap={cert.spectral_gap:.9f} ramanujan={cert.ramanujan} "
          f"bipartite={cert.bipartite} method={cert.method}")
    print(f"certificate -> {args.cert_out}")
    return 0


def _parse_ranges(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for part in text.split(","):
        piece = part.strip()
        if not piece:
            continue
        bits = piece.split(":")
        if len(bits) != 2:
            raise ValidationError(f"bad range {piece!r}, expected lo:hi")
        try:
            lo, hi = int(bits[0]), int(bits[1])
        except ValueError as exc:
            raise ValidationError(f"bad range {piece!r}") from exc
        out.append((lo, hi))
    if not out:
        raise ValidationError("no ranges given")
    return tuple(out)


def _cmd_delta_table(args) -> int:
    ranges = _parse_ranges(args.ranges) if args.ranges else TABLE_RANGES
    rows = delta_table(ranges)
    print(f"{'range':>22}  {'max delta':>18}  {'ceil':>5}  {'witness k':>10}")
    for r in rows:
        span = f"[{r['lo']}, {r['hi']}]"
        print(f"{span:>22}  {r['max_delta']:>18.12f}  "
              f"{r['delta_ceil']:>5.2f}  {r['witness_k']:>10}")
    return 0


def _cmd_bounds(args) -> int:
    k = args.k
    which = args.model
    if which in (None, "chain"):
        intermediate, normalized = lambda2_bound_chain(k)
        p = PrimePlan.for_target(k).p
        print(f"chain      lambda2 <= {intermediate:.12g} "
              f"(= 2*sqrt({p}) + {k - p - 1}) <= {normalized:.12g}")
    if which == "chain":
        return 0
    for bound in gap_bounds(k, args.rh_constant):
        if which in (None, bound.name):
            tags = ["valid" if bound.valid else "not-valid-here"]
            if bound.conditional:
                tags.append("conditional")
            if bound.advisory:
                tags.append("advisory")
            print(f"{bound.name:<10} gap >= {bound.value():.12g} "
                  f"[{', '.join(tags)}]")
    return 0


def _cmd_expansion(args) -> int:
    x = load_graph(args.graph)
    h, witness = expanding_constant_exact(x)
    cut = boundary_size(x, witness)
    print(f"n={x.n} m={len(x.edges)}")
    print(f"h={h:.12g} witness={list(witness)} "
          f"(boundary {cut}, size {len(witness)})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
