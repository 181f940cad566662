"""The stdout of the table commands, pinned by digest (see ``cli_stdout.py``)."""

import json

import pytest

from cli_stdout import CASES, DIGESTS, key, run

RECORDED = json.loads(DIGESTS.read_text())


def test_every_case_is_recorded():
    assert len(CASES) == 60
    assert sorted(RECORDED) == sorted(key(name, command)
                                      for name, _, command in CASES)


@pytest.mark.parametrize("name, document, command", CASES,
                         ids=[key(name, command) for name, _, command in CASES])
def test_stdout_digest(name, document, command):
    assert list(run(document, command)) == RECORDED[key(name, command)]
