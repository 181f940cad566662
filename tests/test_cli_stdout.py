"""The stdout of the table commands, of ``pbw`` and of ``check`` and
``trace``, pinned by digest (see ``cli_stdout.py``)."""

import json

import pytest

from cli_stdout import (CASES, DIGESTS, INFO_CASES, INFO_DIGESTS, PBW_CASES,
                        PBW_DIGESTS, check, key, run)

RECORDED = json.loads(DIGESTS.read_text())
PBW_RECORDED = json.loads(PBW_DIGESTS.read_text())
INFO_RECORDED = json.loads(INFO_DIGESTS.read_text())


def test_every_case_is_recorded():
    assert len(CASES) == 65
    assert sorted(RECORDED) == sorted(key(name, command)
                                      for name, _, command in CASES)


@pytest.mark.parametrize("name, document, command", CASES,
                         ids=[key(name, command) for name, _, command in CASES])
def test_stdout_digest(name, document, command):
    assert list(run(document, command)) == RECORDED[key(name, command)]


def test_every_pbw_case_is_recorded():
    assert len(PBW_CASES) == 26
    assert sorted(PBW_RECORDED) == sorted(key(name, command)
                                          for name, _, command in PBW_CASES)


@pytest.mark.parametrize("name, document, command", PBW_CASES,
                         ids=[key(name, command) for name, _, command in PBW_CASES])
def test_pbw_stdout_digest(name, document, command):
    assert list(run(document, command)) == PBW_RECORDED[key(name, command)]


def test_every_info_case_is_recorded():
    assert len(INFO_CASES) == 26
    assert sorted(INFO_RECORDED) == sorted(key(name, command)
                                           for name, _, command in INFO_CASES)


@pytest.mark.parametrize("name, document, command", INFO_CASES,
                         ids=[key(name, command) for name, _, command in INFO_CASES])
def test_info_stdout_digest(name, document, command):
    assert list(run(document, command)) == INFO_RECORDED[key(name, command)]


def test_check_names_each_case_that_differs(tmp_path, capsys):
    name, document, command = PBW_CASES[0]
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({key(name, command): [0, "0" * 64], "gone": [0, ""]}))
    assert check(PBW_CASES[:1], path) == 1
    out = capsys.readouterr().out
    assert f"differs: {key(name, command)!r}" in out
    assert "recorded, not a case: 'gone'" in out
    path.write_text(json.dumps({key(name, command): list(run(document, command))}))
    assert check(PBW_CASES[:1], path) == 0
    assert "1 of 1 cases match" in capsys.readouterr().out
