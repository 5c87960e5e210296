"""Command-line interface.

Subcommands:
  summarize --spec SPEC | --file PATH     per-group summary as JSON
  suite SUITE_ID [--param k=v]...         run one verification suite
  scan --family NAME --max-order N        scan a built-in family
  scan --catalogue DIR                    scan an ingested catalogue
  gauss --limit N                         classical divisor-sum identity

Spec strings: cyclic:6, abelian:2,2,4, dihedral:6, quaternion:16,
semidihedral:16, modular:3,4, heisenberg:3, sdp:7,3,2, and
product:(cyclic:4)x(cyclic:9).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .catalogue import is_generators_file, load_catalogue, read_cayley_table, read_permutation_generators
from .errors import GroupError
from .groups import DEFAULT_MAX_ORDER, construct
from .reports import canonical_json, to_csv, write_report
from .verify import (
    SCAN_FAMILIES,
    SUITE_IDS,
    family_specs,
    run_scan,
    run_suite,
    summarize,
    verify_classical_gauss,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grouptotient",
        description="Totients and Gauss sums of finite groups over complete subgroup lattices.",
    )
    parser.add_argument(
        "--max-order",
        type=int,
        default=DEFAULT_MAX_ORDER,
        help="cap on constructed group orders (default %(default)s)",
    )
    parser.add_argument(
        "--max-subgroups",
        type=int,
        default=None,
        help="cap on enumerated subgroups per group (default: command-specific)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="parallel workers for scans (default 1)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="summarize one group")
    source = p_sum.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", help="group spec string, e.g. dihedral:6")
    source.add_argument("--file", help="path to a .gens generator file, or else a Cayley-table file")
    _add_output_options(p_sum)

    p_suite = sub.add_parser(
        "suite",
        help="run a verification suite",
        description="Run a verification suite. prop1's products and cor2's product: specs "
        "read lattices built from their coprime factors' lattices, so on them those checks "
        "hold by construction; tests/test_coprime_products.py checks the default corpora "
        "against enumeration of each product's own table.",
    )
    p_suite.add_argument("suite_id", choices=SUITE_IDS)
    p_suite.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="K=V",
        help="integer suite parameter, repeatable (e.g. --param n_max=40)",
    )
    _add_output_options(p_suite)

    p_scan = sub.add_parser("scan", help="scan a family or catalogue for class members")
    target = p_scan.add_mutually_exclusive_group(required=True)
    target.add_argument("--family", choices=SCAN_FAMILIES)
    target.add_argument("--catalogue", help="directory of .cayley/.gens files")
    p_scan.add_argument(
        "--scan-max-order",
        type=int,
        default=None,
        help="family order bound (defaults to --max-order)",
    )
    p_scan.add_argument("--csv", help="also write the per-group CSV summary to this path")
    _add_output_options(p_scan)

    p_gauss = sub.add_parser("gauss", help="check the classical divisor-sum identity")
    p_gauss.add_argument("--limit", type=int, default=1000)
    _add_output_options(p_gauss)
    return parser


def _add_output_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format for --out"
    )


def _emit(result, args, summary_id: str = "group") -> None:
    if args.out:
        write_report(result, args.out, format=args.format, summary_id=summary_id)
    elif args.format == "csv":
        sys.stdout.write(to_csv(result, summary_id=summary_id))
    else:
        sys.stdout.write(canonical_json(result))


def _parse_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise GroupError(f"malformed --param {pair!r}; expected K=V")
        try:
            params[key] = int(value)
        except ValueError:
            raise GroupError(f"suite parameters must be integers; got {pair!r}") from None
    return params


# built on the first call to main and reused: parsing leaves the parser unchanged
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (GroupError, OSError) as exc:  # OSError: an input or --out path that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    # an unset subgroup cap leaves each command its own default
    caps = {} if args.max_subgroups is None else {"max_subgroups": args.max_subgroups}
    if args.command == "summarize":
        if args.spec:
            group = construct(args.spec, max_order=args.max_order)
            summary_id = str(group.spec)
        else:
            read = read_permutation_generators if is_generators_file(args.file) else read_cayley_table
            group = read(args.file, max_order=args.max_order)
            summary_id = Path(args.file).stem
        _emit(summarize(group, **caps), args, summary_id=summary_id)
        return 0

    if args.command == "suite":
        result = run_suite(
            args.suite_id, _parse_params(args.param), max_order=args.max_order, **caps
        )
        _emit(result, args)
        return 0 if result.all_pass else 1

    if args.command == "gauss":
        result = verify_classical_gauss(args.limit)
        _emit(result, args)
        return 0 if result.all_pass else 1

    # scan
    if args.family:
        bound = args.scan_max_order if args.scan_max_order is not None else args.max_order
        corpus = family_specs(args.family, bound)
    else:
        corpus = load_catalogue(Path(args.catalogue), max_order=args.max_order)
    result = run_scan(corpus, max_order=args.max_order, jobs=args.jobs, **caps)
    _emit(result, args)
    if args.csv:
        write_report(result, args.csv, format="csv")
    for skip in result.skipped:
        print(f"skipped {skip['id']}: {skip['reason']}", file=sys.stderr)
    return 0 if result.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
