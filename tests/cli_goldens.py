"""Argument-parser cases for ``test_cli_parser.py``, and their recorder.

argparse may word its help differently from one Python version to the
next, so ``cli_parser_goldens.json`` holds one recording per major.minor
version, and may hold one for an exact version (``3.13.0``) where a patch
release prints differently from the others of its line.  To record the
running interpreter's goldens, run from the repository root::

    PYTHONPATH=src python tests/cli_goldens.py [--exact]

which records them under its major.minor version, or with ``--exact`` under
its exact version.  With ``--check`` it records nothing: it compares every
case with the running interpreter's goldens, names each case that differs,
and exits 1 if any does, 0 if all match.

This module needs no pytest, so it runs on any supported interpreter.
"""

from __future__ import annotations

import io
import json
import os
import platform
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from poishom import cli

GOLDENS = Path(__file__).resolve().parent / "cli_parser_goldens.json"

COMMANDS = ("check", "trace", "homology", "cohomology", "duality", "pbw",
            "catalog")

# (terminal width, argv); argparse wraps usage lines at the width.  At 75
# the top-level usage wraps the same way on every version; narrower, it
# wraps differently before and after Python 3.13.
CASES = (
    [(80, ("--help",)), (80, ("-h",)), (80, ())]
    + [(80, (command, "--help")) for command in COMMANDS]
    + [(80, ("nosuch",)),
       (80, ("duality",)),
       (80, ("duality", "x", "--bogus")),
       (80, ("pbw", "x", "extra")),
       (80, ("homology", "x", "--max-weight", "abc")),
       (80, ("homology", "x", "--coeff", "bad")),
       (40, ("duality", "--help")),
       (75, ("--help",)),
       (75, ("duality", "x", "--bogus"))]
)


def key(width: int, argv) -> str:
    return f"{width} {' '.join(argv)}"


def capture(call):
    """(exit code, stdout, stderr) of ``call()``, which may exit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run(width: int, argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` at a terminal width."""
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = str(width)
    try:
        return capture(lambda: cli.main(list(argv)))
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved


def versions() -> "tuple[str, str]":
    """The running interpreter's exact and major.minor versions."""
    exact = platform.python_version()
    return exact, ".".join(exact.split(".")[:2])


def recorded() -> "dict | None":
    """The goldens of the running interpreter: those of its exact version
    if there are any, else those of its major.minor version, else None."""
    recordings = json.loads(GOLDENS.read_text())
    exact, minor = versions()
    return recordings.get(exact, recordings.get(minor))


def check() -> int:
    """Compare every case with the recorded goldens; 1 if any differs."""
    goldens = recorded()
    exact = platform.python_version()
    if goldens is None:
        print(f"no goldens recorded for Python {exact}", file=sys.stderr)
        return 1
    differ = [key(width, argv) for width, argv in CASES
              if list(run(width, argv)) != goldens.get(key(width, argv))]
    for case in differ:
        print(f"differs: {case!r}")
    print(f"Python {exact}: {len(CASES) - len(differ)} of {len(CASES)} "
          "cases match the goldens")
    return 1 if differ else 0


if __name__ == "__main__":
    if "--check" in sys.argv[1:]:
        sys.exit(check())
    recordings = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    version = versions()[0 if "--exact" in sys.argv[1:] else 1]
    recordings[version] = {
        key(width, argv): list(run(width, argv)) for width, argv in CASES}
    GOLDENS.write_text(json.dumps(recordings, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} cases for Python {version}", file=sys.stderr)
