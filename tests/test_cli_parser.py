"""The argument parser's help, usage lines and errors, byte for byte.

Each case is compared with the goldens recorded for this interpreter's
version (see ``cli_goldens.py``).
"""

import platform

import pytest

from cli_goldens import CASES, key, recorded, run

IDS = [key(*case) for case in CASES]


@pytest.mark.parametrize("width, argv", CASES, ids=IDS)
def test_parser_golden(width, argv):
    goldens = recorded()
    assert goldens is not None, (
        f"no goldens recorded for Python {platform.python_version()}: "
        "record them with tests/cli_goldens.py")
    assert list(run(width, argv)) == goldens[key(width, argv)]
