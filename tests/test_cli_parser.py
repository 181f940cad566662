"""The argument parser's help, usage lines and errors, byte for byte.

Each case is compared with the goldens recorded for this interpreter's
version (see ``cli_goldens.py``).
"""

import argparse
import platform

import pytest

import cli_goldens
from cli_goldens import CASES, capture, key, recorded, run
from poishom import cli

IDS = [key(*case) for case in CASES]


@pytest.mark.parametrize("width, argv", CASES, ids=IDS)
def test_parser_golden(width, argv):
    goldens = recorded()
    assert goldens is not None, (
        f"no goldens recorded for Python {platform.python_version()}: "
        "record them with tests/cli_goldens.py")
    assert list(run(width, argv)) == goldens[key(width, argv)]


@pytest.mark.parametrize("argv, parsers", [
    (("duality", "x", "--max-weight", "3"), 2),
    (("--help",), 1),
    (("nosuch",), 1),
])
def test_only_the_parsers_on_the_path_are_built(monkeypatch, argv, parsers):
    # the full tree has eight parsers; a subcommand's parser is constructed
    # only when argparse dispatches a command line to it
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    capture(lambda: cli._build_parser().parse_args(list(argv)))
    assert len(built) == parsers, built


def test_check_names_the_cases_that_differ(monkeypatch, capsys):
    assert cli_goldens.check() == 0
    assert capsys.readouterr().out.endswith(
        f"{len(CASES)} of {len(CASES)} cases match the goldens\n")
    width, argv = CASES[3]
    real = cli_goldens.run
    monkeypatch.setattr(cli_goldens, "run", lambda w, a: (
        (9, "", "") if (w, a) == (width, argv) else real(w, a)))
    assert cli_goldens.check() == 1
    out = capsys.readouterr().out
    assert out.startswith(f"differs: {key(width, argv)!r}\n")
    assert f"{len(CASES) - 1} of {len(CASES)} cases match" in out
