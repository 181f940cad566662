"""Stdout digests of the table commands, of ``pbw`` and of ``check`` and
``trace``, for ``test_cli_stdout.py``, and their recorder.

Each table case runs ``homology`` (canonical and ``--coeff omega``),
``cohomology``, ``duality`` and ``duality --tsv`` at ``--max-weight 6`` on
every catalog entry and every shipped document under ``docs/``.  Each
``pbw`` case runs ``pbw --samples 60`` on the same documents, with and
without ``--nu``.  Each info case runs ``check`` and ``trace`` on the same
documents.  ``cli_stdout_digests.json``,
``cli_pbw_digests.json`` and ``cli_info_digests.json`` hold the sha256 of
each case's stdout and its exit code.  Record them only from a commit whose output is the reference,
from the repository root::

    PYTHONPATH=src python tests/cli_stdout.py [--check]

With ``--check`` it records nothing: it compares every case with the three
digest files, names each case that differs, and exits 1 if any does, 0 if
all match.

This module needs no pytest, so it runs on any supported interpreter.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from poishom import cli
from poishom.catalog import catalog_ids

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "cli_stdout_digests.json"
PBW_DIGESTS = HERE / "cli_pbw_digests.json"
INFO_DIGESTS = HERE / "cli_info_digests.json"
DOCS = HERE.parent / "docs"

COMMANDS = (
    ("homology", "--max-weight", "6"),
    ("homology", "--coeff", "omega", "--max-weight", "6"),
    ("cohomology", "--max-weight", "6"),
    ("duality", "--max-weight", "6"),
    ("duality", "--max-weight", "6", "--tsv"),
)

PBW = ("pbw", "--samples", "60")
PBW_NU = PBW + ("--nu",)

INFO = (("check",), ("trace",))

# (name, document argument); documents are named by their path under the
# repository root, so the digests do not depend on where it is checked out
SOURCES = (
    [(f"catalog:{entry}", f"catalog:{entry}") for entry in catalog_ids()]
    + [(f"docs/{path.name}", str(path)) for path in sorted(DOCS.glob("*.json"))]
)

CASES = tuple((name, document, command)
              for name, document in SOURCES for command in COMMANDS)


PBW_CASES = tuple((name, document, command)
                  for name, document in SOURCES for command in (PBW, PBW_NU))

INFO_CASES = tuple((name, document, command)
                   for name, document in SOURCES for command in INFO)


def key(name: str, command) -> str:
    return " ".join((command[0], name) + tuple(command[1:]))


def run(document: str, command) -> "tuple[int, str]":
    """(exit code, sha256 of stdout) of one command on one document."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main([command[0], document, *command[1:]])
        except SystemExit as exc:
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def record(cases, path: Path) -> None:
    recorded = {key(name, command): list(run(document, command))
                for name, document, command in cases}
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {path.name}", file=sys.stderr)


def check(cases, path: Path) -> int:
    """Compare each case with its recorded digest; 1 if any differs."""
    recorded = json.loads(path.read_text())
    keys = [key(name, command) for name, _, command in cases]
    differ = [key(name, command) for name, document, command in cases
              if list(run(document, command)) != recorded.get(key(name, command))]
    stale = sorted(set(recorded) - set(keys))
    for case in differ:
        print(f"differs: {case!r}")
    for case in stale:
        print(f"recorded, not a case: {case!r}")
    print(f"{path.name}: {len(cases) - len(differ)} of {len(cases)} cases match")
    return 1 if differ or stale else 0


if __name__ == "__main__":
    if "--check" in sys.argv[1:]:
        sys.exit(max(check(CASES, DIGESTS), check(PBW_CASES, PBW_DIGESTS),
                     check(INFO_CASES, INFO_DIGESTS)))
    record(CASES, DIGESTS)
    record(PBW_CASES, PBW_DIGESTS)
    record(INFO_CASES, INFO_DIGESTS)
