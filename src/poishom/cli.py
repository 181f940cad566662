"""Command line front end.

Exit codes: 0 success, 1 a mathematical check failed, 2 bad usage or input.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import CATALOG, get_entry
from .complexes import (
    _COEFFS,
    ShiftNotFound,
    cohomology_dims,
    dim_table_tsv,
    duality_report,
    homology_dims,
)
from .envelope import (
    ConfluenceFailure,
    GrMismatch,
    ModuleMismatch,
    RelationViolation,
    confluence_check,
    gr_dimension_check,
    nu_check,
)
from .polycore import format_poly
from .specfile import SpecDocument, SpecFileError
from .structure import JacobiViolation, NonHomogeneousError, log_canonical_matrix

__all__ = ["main"]

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

_CATALOG_SCHEME = "catalog:"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poishom",
        description="exact homology of graded polynomial Poisson algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def structure_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="structure document (JSON), or catalog:<id>")
        return p

    structure_command("check", "validate a structure document")

    structure_command("trace", "print generator traces and modular status")

    p = structure_command("homology", "print homology dimensions per weight")
    p.add_argument("--coeff", choices=_COEFFS, default="canonical")
    p.add_argument("--max-weight", type=int, default=8)
    p.add_argument("--tsv", action="store_true", help="machine-readable output")

    p = structure_command("cohomology", "print cohomology dimensions per weight")
    p.add_argument("--max-weight", type=int, default=8)
    p.add_argument("--tsv", action="store_true", help="machine-readable output")

    p = structure_command("duality", "compare twisted homology with cohomology")
    p.add_argument("--max-weight", type=int, default=8)
    p.add_argument("--tsv", action="store_true", help="machine-readable output")

    p = structure_command("pbw", "check the rewriting engine on this structure")
    p.add_argument("--samples", type=int, default=200,
                   help="random words per strategy comparison")
    p.add_argument("--max-weight", type=int, default=6,
                   help="weight bound for the graded dimension count")
    p.add_argument("--nu", action="store_true",
                   help="also check the log-canonical twist automorphism")

    p = sub.add_parser("catalog", help="list built-in structures or run on one")
    catalog_sub = p.add_subparsers(dest="catalog_command")
    catalog_sub.add_parser("list", help="list built-in structures")
    p_run = catalog_sub.add_parser("run", help="run a command on a built-in structure")
    p_run.add_argument("id", help="catalog entry id")
    p_run.add_argument("rest", nargs=argparse.REMAINDER,
                       help="command and flags to run")
    return parser


def _load_document(path: str) -> SpecDocument:
    if path.startswith(_CATALOG_SCHEME):
        return get_entry(path[len(_CATALOG_SCHEME):]).document
    return SpecDocument.load(path)


def _weight_range(lo: int, hi: int) -> "list[int]":
    return list(range(lo, hi + 1))


def _grid(table: "dict[tuple[int, int], int]", degrees: "list[int]",
          weights: "list[int]") -> str:
    rows = [["n\\w"] + [str(w) for w in weights]]
    for n in degrees:
        rows.append([str(n)] + [str(table.get((n, w), 0)) for w in weights])
    widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        for row in rows
    )


def _below(flag: str, value: int, least: int, why: str = "") -> bool:
    """Report an option below the least value that gives a non-empty window."""
    if value >= least:
        return False
    print(f"error: {flag} must be at least {least}{why}, got {value}",
          file=sys.stderr)
    return True


def _cmd_check(doc: SpecDocument, args, out) -> int:
    S = doc.to_structure()
    if doc.label:
        print(f"label: {doc.label}", file=out)
    pairs = ", ".join(
        f"{n} (weight {w})" for n, w in zip(S.vars.names, S.vars.weights)
    )
    print(f"variables: {pairs}", file=out)
    print(f"bracket entries: {len(S.entries)}", file=out)
    degree = S.homogeneity_degree
    print(f"homogeneity degree: {degree if degree is not None else 'none'}",
          file=out)
    print("jacobi: ok", file=out)
    modular = S.modular_data()
    print(f"unimodular: {'yes' if modular.unimodular else 'no'}", file=out)
    return EXIT_OK


def _cmd_trace(doc: SpecDocument, args, out) -> int:
    S = doc.to_structure()
    modular = S.modular_data()
    for name, t in zip(S.vars.names, modular.traces):
        print(f"trace {name}: {format_poly(t)}", file=out)
    print(f"unimodular: {'yes' if modular.unimodular else 'no'}", file=out)
    return EXIT_OK


def _cmd_homology(doc: SpecDocument, args, out) -> int:
    if _below("--max-weight", args.max_weight, 0):
        return EXIT_USAGE
    S = doc.to_structure()
    table = homology_dims(S, coeff=args.coeff, max_weight=args.max_weight)
    if args.tsv:
        print(dim_table_tsv(table), file=out)
        return EXIT_OK
    print(f"homology dimensions ({args.coeff}), weights 0..{args.max_weight}",
          file=out)
    print(_grid(table, list(range(len(S.vars) + 1)),
                _weight_range(0, args.max_weight)), file=out)
    return EXIT_OK


def _cmd_cohomology(doc: SpecDocument, args, out) -> int:
    S = doc.to_structure()
    low = -sum(S.vars.weights)
    if _below("--max-weight", args.max_weight, low,
              " (the lowest cochain weight)"):
        return EXIT_USAGE
    table = cohomology_dims(S, max_weight=args.max_weight)
    if args.tsv:
        print(dim_table_tsv(table), file=out)
        return EXIT_OK
    print(f"cohomology dimensions, weights {low}..{args.max_weight}", file=out)
    print(_grid(table, list(range(len(S.vars) + 1)),
                _weight_range(low, args.max_weight)), file=out)
    return EXIT_OK


def _cmd_duality(doc: SpecDocument, args, out) -> int:
    if _below("--max-weight", args.max_weight, 0):
        return EXIT_USAGE
    S = doc.to_structure()
    try:
        report = duality_report(S, max_weight=args.max_weight)
    except ShiftNotFound as exc:
        print(exc.report.render_tsv() if args.tsv else exc.report.render_text(),
              file=out)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    print(report.render_tsv() if args.tsv else report.render_text(), file=out)
    return EXIT_OK if report.passed else EXIT_MATH


def _cmd_pbw(doc: SpecDocument, args, out) -> int:
    if (_below("--samples", args.samples, 1)
            or _below("--max-weight", args.max_weight, 0)):
        return EXIT_USAGE
    S = doc.to_structure()
    if args.nu and log_canonical_matrix(S) is None:
        print("error: --nu needs a log-canonical structure", file=sys.stderr)
        return EXIT_USAGE
    try:
        words = confluence_check(S, samples=args.samples)
        print(f"confluence: ok ({words} words)", file=out)
        gr_dimension_check(S, max_weight=args.max_weight)
        print(f"graded dimensions: ok (filtration <= 3, "
              f"weight <= {args.max_weight})", file=out)
        if args.nu:
            report = nu_check(S)
            print(f"twist: ok ({report.relations_checked} relations, "
                  f"{report.module_samples} samples)", file=out)
    except (ConfluenceFailure, GrMismatch, RelationViolation,
            ModuleMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


_HANDLERS = {
    "check": _cmd_check,
    "trace": _cmd_trace,
    "homology": _cmd_homology,
    "cohomology": _cmd_cohomology,
    "duality": _cmd_duality,
    "pbw": _cmd_pbw,
}


def _cmd_catalog(parser: argparse.ArgumentParser, args, out) -> int:
    if args.catalog_command in (None, "list"):
        width = max(len(entry.id) for entry in CATALOG)
        for entry in CATALOG:
            print(f"{entry.id.ljust(width)}  {entry.description}", file=out)
        return EXIT_OK
    try:
        get_entry(args.id)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    rest = list(args.rest)
    if not rest or rest[0] not in _HANDLERS:
        expected = ", ".join(sorted(_HANDLERS))
        print(f"error: catalog run expects one of: {expected}", file=sys.stderr)
        return EXIT_USAGE
    inner = parser.parse_args([rest[0], _CATALOG_SCHEME + args.id] + rest[1:])
    return _dispatch(parser, inner, out)


def _dispatch(parser: argparse.ArgumentParser, args, out) -> int:
    if args.command == "catalog":
        return _cmd_catalog(parser, args, out)
    try:
        doc = _load_document(args.file)
    except (SpecFileError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](doc, args, out)
    except JacobiViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except NonHomogeneousError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return _dispatch(parser, args, sys.stdout)


if __name__ == "__main__":
    sys.exit(main())
