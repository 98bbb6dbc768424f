"""Command-line entry point.

Subcommands: hurwitz, polyfit, bm, elsv, fock, curve, all.  Every run writes
a JSON (or CSV) report and exits 0 only if all checks passed, 1 on an
identity failure, 2 when a check was inconclusive.  Bad input
(an empty --mu or a part <= 0, --g < 0, an unstable (g, n), bm --x-order < 1,
--holdout < 1, a negative fock --kmax or --cutoff, a negative curve --order,
a malformed cache file or one that contradicts itself, a cache path that is
a directory or lies in a missing one) is a usage error: exit 2 before any
campaign runs.
``polyfit`` and ``elsv`` fit P_{g,n} in total degree 3g - 2 + n, one above
the theorem's bound, on the simplex of points that fixes such a polynomial,
and check it at --holdout further points.
A fit that misses a holdout point exits 1, with one line on stderr.
``hurwitz`` compares the character value with the cut-and-join counts, built
per degree as far in b as the query needs.  Routes that disagree exit 1.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .hurwitz import ConflictError, PolynomialityError
from .rationals import rational_to_str


def _parse_mu(text: str):
    mu = tuple(int(p) for p in text.split(",") if p.strip())
    if not mu or min(mu) <= 0:
        raise argparse.ArgumentTypeError(f"parts must be positive integers: {text!r}")
    return mu


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurwitzlab",
        description="Exact verifications around simple Hurwitz numbers",
    )
    parser.add_argument("--cache", default=None, help="Hurwitz cache file (JSON); "
                        "the HURWITZLAB_CACHE environment variable overrides this")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, help="report file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hurwitz", help="one connected Hurwitz number, with route checks")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mu", type=_parse_mu, required=True, metavar="a,b,c")

    p = sub.add_parser("polyfit", help="interpolate the scaled Hurwitz polynomial")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--holdout", type=int, default=2)

    p = sub.add_parser("bm", help="kernel-residue recursion checks")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x-order", type=int, default=6, dest="x_order")

    p = sub.add_parser("elsv", help="fitted coefficients vs Hodge integrals")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--holdout", type=int, default=2)

    p = sub.add_parser("fock", help="wedge-space operator checks")
    p.add_argument("--order", type=int, default=1,
                   help="u-order of the commutator comparison, raised to at least 2")
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--cutoff", type=int, default=7)

    p = sub.add_parser("curve", help="Lambert-curve series and kernel checks")
    p.add_argument("--order", type=int, default=12)

    sub.add_parser("all", help="the full acceptance suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "g", 0) < 0:
        parser.error(f"--g must be nonnegative, got {args.g}")
    if args.command in ("polyfit", "bm", "elsv") and (args.n < 1 or 2 * args.g - 2 + args.n <= 0):
        parser.error(f"(g, n) = ({args.g}, {args.n}) needs n >= 1 and 2g - 2 + n > 0")
    if args.command == "bm" and args.x_order < 1:
        parser.error(f"--x-order must be at least 1, got {args.x_order}")
    if args.command in ("polyfit", "elsv") and args.holdout < 1:
        parser.error(f"--holdout must be at least 1, got {args.holdout}")
    if args.command == "fock" and min(args.kmax, args.cutoff) < 0:
        parser.error(f"--kmax and --cutoff must be nonnegative, got {args.kmax}, {args.cutoff}")
    if args.command == "curve" and args.order < 0:
        parser.error(f"--order must be nonnegative, got {args.order}")
    cache_path = harness.resolve_cache_path(args.cache)
    try:
        table = harness.load_cache(cache_path)
    except ValueError as exc:
        parser.error(str(exc))
    params = {k: v for k, v in vars(args).items() if k not in ("command", "out", "format")}
    params = {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()}
    try:
        if args.command == "hurwitz":
            checks = harness.campaign_hurwitz(args.g, args.mu, table)
            value = table.get(args.g, tuple(sorted(args.mu, reverse=True)))
            print(rational_to_str(value), file=sys.stderr)
        elif args.command == "polyfit":
            checks = harness.campaign_polyfit(args.g, args.n, args.holdout)
        elif args.command == "bm":
            checks = harness.campaign_bm(args.g, args.n, args.x_order)
        elif args.command == "elsv":
            checks = harness.campaign_elsv(args.g, args.n, args.holdout)
        elif args.command == "fock":
            checks = harness.campaign_fock(args.order, args.kmax, args.cutoff)
        elif args.command == "curve":
            checks = harness.campaign_curve(args.order)
        elif args.command == "all":
            checks = harness.campaign_all()
        else:  # pragma: no cover
            raise SystemExit(2)
        save_cache_needed = args.command == "hurwitz"
        if save_cache_needed and cache_path:
            harness.save_cache(table, cache_path)
    except ConflictError as exc:
        print(f"conflict: {exc}", file=sys.stderr)
        return 1
    except PolynomialityError as exc:
        print(f"not polynomial: {exc}", file=sys.stderr)
        return 1
    report = harness.report_emit(args.command, params, checks)
    text = harness.format_report(report, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + ("\n" if not text.endswith("\n") else ""))
    else:
        print(text)
    return harness.report_status(report)


if __name__ == "__main__":
    raise SystemExit(main())
