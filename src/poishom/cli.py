"""Command line front end.

Exit codes: 0 success, 1 a mathematical check failed, 2 bad usage or input.

There is one parser tree, but a subcommand's parser is built only when
argparse dispatches a command line to it (``_Command``), so a call builds
the parsers on its path, not all nine.  Building costs more than parsing,
and each call pays it anew: a command line runs in a new process, and the
benchmark imports the package afresh for each job.
"""

from __future__ import annotations

import argparse
import sys

from .catalog import CATALOG, get_entry
from .complexes import (
    _COEFFS,
    cohomology_dims,
    dim_table_tsv,
    duality_report,
    homology_dims,
)
from .envelope import (
    ConfluenceFailure,
    ModuleMismatch,
    RelationViolation,
    confluence_check,
    gr_dimension_check,
    nu_check,
)
from .polycore import format_poly
from .specfile import SpecDocument, SpecFileError
from .structure import JacobiViolation, NonHomogeneousError

__all__ = ["main"]

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2

_CATALOG_SCHEME = "catalog:"


class _Command(argparse.ArgumentParser):
    """A subcommand's parser, constructed when argparse first hands it a
    command line: ``_SubParsersAction`` calls no other method of a
    subparser.  ``build`` then adds its arguments."""

    def __init__(self, build, **kwargs):
        self._pending = build, kwargs

    def parse_known_args(self, args=None, namespace=None):
        if self._pending:
            (build, kwargs), self._pending = self._pending, None
            super().__init__(**kwargs)
            build(self)
        return super().parse_known_args(args, namespace)


def _arg(*args, **kwargs):
    """The arguments of one ``add_argument`` call."""
    return args, kwargs


def _add_command(sub, name: str, help_text: str, *arguments) -> None:
    """Add a subcommand whose parser, once built, takes ``arguments``."""
    def build(p: argparse.ArgumentParser) -> None:
        for args, kwargs in arguments:
            p.add_argument(*args, **kwargs)
    sub.add_parser(name, help=help_text, build=build)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poishom",
        description="exact homology of graded polynomial Poisson algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Command)
    file = _arg("file", help="structure document (JSON), or catalog:<id>")
    max_weight = _arg("--max-weight", type=int, default=8)
    tsv = _arg("--tsv", action="store_true", help="machine-readable output")

    _add_command(sub, "check", "validate a structure document", file)
    _add_command(sub, "trace", "print generator traces and modular status", file)
    _add_command(sub, "homology", "print homology dimensions per weight", file,
                 _arg("--coeff", choices=_COEFFS, default="canonical"),
                 max_weight, tsv)
    _add_command(sub, "cohomology", "print cohomology dimensions per weight",
                 file, max_weight, tsv)
    _add_command(sub, "duality", "compare twisted homology with cohomology",
                 file, max_weight, tsv)
    _add_command(sub, "pbw", "check the rewriting engine on this structure", file,
                 _arg("--samples", type=int, default=200,
                      help="random words per strategy comparison"),
                 _arg("--nu", action="store_true",
                      help="also check the modular twist automorphism"))

    def catalog(p: argparse.ArgumentParser) -> None:
        catalog_sub = p.add_subparsers(dest="catalog_command")
        _add_command(catalog_sub, "run", "run a command on a built-in structure",
                     _arg("id", help="catalog entry id"),
                     _arg("rest", nargs=argparse.REMAINDER,
                          help="command and flags to run"))

    sub.add_parser("catalog", help="list built-in structures or run on one",
                   build=catalog)
    return parser


def _load_document(path: str) -> SpecDocument:
    if path.startswith(_CATALOG_SCHEME):
        return get_entry(path[len(_CATALOG_SCHEME):]).document
    return SpecDocument.load(path)


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


def _cmd_dims(doc: SpecDocument, args, out) -> int:
    """``homology``, or ``cohomology`` from minus the sum of the weights."""
    cochains = args.command == "cohomology"
    low = -sum(doc.vars.weights) if cochains else 0
    if _below("--max-weight", args.max_weight, low,
              " (the lowest cochain weight)" if cochains else ""):
        return EXIT_USAGE
    S = doc.to_structure()
    if cochains:
        table = cohomology_dims(S, max_weight=args.max_weight)
        title = "cohomology dimensions"
    else:
        table = homology_dims(S, coeff=args.coeff, max_weight=args.max_weight)
        title = f"homology dimensions ({args.coeff})"
    if args.tsv:
        print(dim_table_tsv(table), file=out)
        return EXIT_OK
    print(f"{title}, weights {low}..{args.max_weight}", file=out)
    print(_grid(table, list(range(len(S.vars) + 1)),
                list(range(low, args.max_weight + 1))), file=out)
    return EXIT_OK


def _cmd_duality(doc: SpecDocument, args, out) -> int:
    if _below("--max-weight", args.max_weight, 0):
        return EXIT_USAGE
    report = duality_report(doc.to_structure(), max_weight=args.max_weight)
    print(report.render_tsv() if args.tsv else report.render_text(), file=out)
    if not report.fitting_shifts:
        print("error: no uniform weight shift aligns the twisted homology table "
              "with the cohomology table", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_MATH


def _cmd_pbw(doc: SpecDocument, args, out) -> int:
    if _below("--samples", args.samples, 1):
        return EXIT_USAGE
    S = doc.to_structure()
    try:
        words = confluence_check(S, samples=args.samples)
        print(f"confluence: ok ({words} words)", file=out)
        # the table's largest key is its pair of bounds
        filtration, weight = max(gr_dimension_check(S))
        print(f"graded dimensions: ok (filtration <= {filtration}, "
              f"weight <= {weight})", file=out)
        if args.nu:
            report = nu_check(S)
            print(f"twist: ok ({report.relations_checked} relations, "
                  f"{report.module_samples} samples)", file=out)
    except (ConfluenceFailure, RelationViolation, ModuleMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


_HANDLERS = {
    "check": _cmd_check,
    "trace": _cmd_trace,
    "homology": _cmd_dims,
    "cohomology": _cmd_dims,
    "duality": _cmd_duality,
    "pbw": _cmd_pbw,
}


def _cmd_catalog(parser: argparse.ArgumentParser, args, out) -> int:
    if args.catalog_command is None:
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
