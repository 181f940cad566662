"""The stdout of the table commands and of ``pbw``, pinned by digest (see
``cli_stdout.py``)."""

import json

import pytest

from cli_stdout import CASES, DIGESTS, PBW_CASES, PBW_DIGESTS, key, run

RECORDED = json.loads(DIGESTS.read_text())
PBW_RECORDED = json.loads(PBW_DIGESTS.read_text())


def test_every_case_is_recorded():
    assert len(CASES) == 60
    assert sorted(RECORDED) == sorted(key(name, command)
                                      for name, _, command in CASES)


@pytest.mark.parametrize("name, document, command", CASES,
                         ids=[key(name, command) for name, _, command in CASES])
def test_stdout_digest(name, document, command):
    assert list(run(document, command)) == RECORDED[key(name, command)]


def test_every_pbw_case_is_recorded():
    assert len(PBW_CASES) == 16
    assert sorted(PBW_RECORDED) == sorted(key(name, command)
                                          for name, _, command in PBW_CASES)


@pytest.mark.parametrize("name, document, command", PBW_CASES,
                         ids=[key(name, command) for name, _, command in PBW_CASES])
def test_pbw_stdout_digest(name, document, command):
    assert list(run(document, command)) == PBW_RECORDED[key(name, command)]
