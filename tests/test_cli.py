import json
import sys
import time
from pathlib import Path

import pytest

import poishom.cli as cli
from poishom.cli import main

from _oracles import scale_traces

DOCS = Path(__file__).resolve().parent.parent / "docs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_shipped_document(capsys):
    code, out, err = run(capsys, "check", str(DOCS / "potential-x2z.json"))
    assert code == 0
    assert "label: potential-x2z" in out
    assert "jacobi: ok" in out
    assert "unimodular: yes" in out
    assert err == ""


def test_trace_command(capsys):
    code, out, _ = run(capsys, "trace", str(DOCS / "log-canonical-3.json"))
    assert code == 0
    assert "trace x: 2*x" in out
    assert "trace y: 0" in out
    assert "trace z: -2*z" in out
    assert "unimodular: no" in out


def test_homology_grid(capsys):
    code, out, _ = run(capsys, "catalog", "run", "symplectic-plane",
                       "homology", "--max-weight", "3")
    assert code == 0
    assert "homology dimensions (canonical), weights 0..3" in out
    assert "n\\w" in out


def test_homology_tsv_golden(capsys):
    code, out, _ = run(capsys, "catalog", "run", "symplectic-plane",
                       "homology", "--max-weight", "2", "--tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\tw\tdim"
    assert "2\t2\t1" in lines
    assert all(len(line.split("\t")) == 3 for line in lines)


def test_cohomology_includes_negative_weights(capsys):
    code, out, _ = run(capsys, "catalog", "run", "symplectic-plane",
                       "cohomology", "--max-weight", "1", "--tsv")
    assert code == 0
    assert "0\t-2\t0" in out.splitlines()


def test_duality_pass(capsys):
    code, out, _ = run(capsys, "duality", str(DOCS / "weighted-line.json"),
                       "--max-weight", "5")
    assert code == 0
    assert "expected shift: 3" in out
    assert "result: PASS" in out


def test_duality_trivial_window_zero(capsys):
    code, out, _ = run(capsys, "catalog", "run", "trivial-1",
                       "duality", "--max-weight", "0")
    assert code == 0
    assert "fitting shifts: 1" in out
    assert "result: PASS" in out


@pytest.mark.parametrize("argv, flag", [
    (("homology", "--max-weight", "-1"), "--max-weight"),
    (("duality", "--max-weight", "-1"), "--max-weight"),
    (("cohomology", "--max-weight", "-4"), "--max-weight"),
    (("pbw", "--samples", "0"), "--samples"),
    (("pbw", "--samples", "-5"), "--samples"),
])
def test_empty_windows_refused(capsys, argv, flag):
    code, out, err = run(capsys, "catalog", "run", "so3", *argv)
    assert code == 2
    assert out == ""
    assert f"error: {flag} must be at least" in err


def test_cohomology_window_below_lowest_weight_refused(capsys):
    # so3 has three weight-1 variables, so cochains start at weight -3
    code, out, err = run(capsys, "catalog", "run", "so3",
                         "cohomology", "--max-weight", "-4")
    assert code == 2
    assert out == ""
    assert "--max-weight must be at least -3" in err
    code, out, _ = run(capsys, "catalog", "run", "so3",
                       "cohomology", "--max-weight", "-3", "--tsv")
    assert code == 0
    assert out.splitlines()[1:] == [f"{n}\t-3\t{int(n == 3)}" for n in range(4)]


def test_empty_cohomology_window_refused_before_the_jacobi_check(tmp_path, capsys):
    # the window is checked before the structure is built, as for homology
    path = tmp_path / "not-jacobi.json"
    path.write_text(json.dumps({"vars": ["x", "y", "z"],
                                "bracket": {"x,y": "y", "y,z": "z", "z,x": "x"}}))
    code, out, err = run(capsys, "cohomology", str(path), "--max-weight", "-4")
    assert (code, out) == (2, "")
    assert err == ("error: --max-weight must be at least -3 "
                   "(the lowest cochain weight), got -4\n")
    code, out, err = run(capsys, "cohomology", str(path), "--max-weight", "-3")
    assert (code, out) == (1, "")
    assert err.startswith("error: jacobi")


@pytest.mark.parametrize("command", ["cohomology", "duality"])
def test_huge_weight_refused(tmp_path, capsys, command):
    # cochains would start at weight -10^12 - 1: the sweep and the shift scan
    # grow with the sum of the weights, and would not end
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"vars": [{"name": "x", "weight": 10**12}, "y"],
                                "bracket": {}}))
    code, out, err = run(capsys, command, str(path), "--max-weight", "0")
    assert (code, out) == (2, "")
    assert err == "error: weight of 'x' exceeds the bound 1000\n"


def test_pbw_command(capsys):
    code, out, _ = run(capsys, "pbw", str(DOCS / "log-canonical-3.json"),
                       "--samples", "30", "--nu")
    assert code == 0
    assert "confluence: ok (30 words)" in out
    assert "graded dimensions: ok" in out
    assert "twist: ok" in out


def test_pbw_nu_runs_off_log_canonical(capsys):
    code, out, err = run(capsys, "pbw", str(DOCS / "potential-x2z.json"), "--nu")
    assert (code, err) == (0, "")
    assert out.endswith("twist: ok (9 relations, 20 samples)\n")


def test_pbw_nu_runs_on_a_bracket_with_two_terms(tmp_path, capsys):
    # {x, y} = x*y + x^2 is not a multiple of x*y, and not unimodular: the
    # twist is h(i) -> h(i) + tr(x_i) all the same
    path = tmp_path / "two-terms.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "bracket": {"x,y": "x*y + x^2"}}))
    code, out, err = run(capsys, "pbw", str(path), "--samples", "5", "--nu")
    assert (code, err) == (0, "")
    assert out.endswith("twist: ok (3 relations, 20 samples)\n")


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    ids = [line.split()[0] for line in out.splitlines()]
    assert "so3" in ids
    assert "potential-x2z" in ids
    # a bare ``catalog`` lists; there is no ``list`` subcommand
    with pytest.raises(SystemExit) as exc:
        main(["catalog", "list"])
    assert exc.value.code == 2
    assert "invalid choice: 'list'" in capsys.readouterr().err


def test_catalog_run_unknown_id(capsys):
    code, _, err = run(capsys, "catalog", "run", "nope", "check")
    assert code == 2
    assert "nope" in err


def test_catalog_run_unknown__command(capsys):
    code, _, err = run(capsys, "catalog", "run", "so3", "paint")
    assert code == 2
    assert "catalog run expects" in err


@pytest.mark.parametrize("command, flags", [
    ("homology", ("--max-weight", "3", "--coeff", "omega")),
    ("cohomology", ("--max-weight", "2", "--tsv")),
    ("duality", ("--max-weight", "3")),
    ("pbw", ("--samples", "5")),
])
def test_catalog_run_equals_the_catalog_scheme(capsys, command, flags):
    # catalog run re-parses its rest with the same parser
    code, out, _ = run(capsys, "catalog", "run", "so3", command, *flags)
    assert code == 0 and out
    assert (code, out) == run(capsys, command, "catalog:so3", *flags)[:2]


def test_missing_file(capsys):
    code, _, err = run(capsys, "check", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_malformed_document(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vars": ["x", "y"], "bracket": {"x,y": "q"}}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "unknown variable" in err


def test_float_matrix_entry_refused(tmp_path, capsys):
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "matrix": [[0, 0.5], [-0.5, 0]]}))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err == "error: matrix entry 0.5 is not a rational scalar\n"


# an int literal one digit longer than Python converts, where it has a limit
DIGITS = "1" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)
TOO_LONG = f"bracket value for 'x,y': integer literal of {len(DIGITS)} digits is too long"
NESTED = "bracket value for 'x,y': expression nested too deeply (at position "


@pytest.mark.parametrize("text, message", [
    ('{"vars": ["x", "y"], "bracket": {"x,y": "%s*x*y"}}' % DIGITS,
     f"{TOO_LONG} (at position 0)"),
    ('{"vars": ["x", "y"], "bracket": {"x,y": "x^%s"}}' % DIGITS,
     f"{TOO_LONG} (at position 2)"),
    ('{"vars": ["x", "y"], "bracket": {"x,y": "1/%s*x*y"}}' % DIGITS,
     f"{TOO_LONG} (at position 2)"),
    ('{"vars": [{"name": "x", "weight": %s}, "y"]}' % DIGITS,
     "invalid JSON: an integer has too many digits"),
    ('{"vars": ["x", "y"], "matrix": [[0, %s], [-1, 0]]}' % DIGITS,
     "invalid JSON: an integer has too many digits"),
    ('{"vars": ["x", "y"], "matrix": [[0, "%s"], [-1, 0]]}' % DIGITS,
     f"bad matrix entry: integer literal of {len(DIGITS)} digits is too long"),
], ids=["coefficient", "exponent", "denominator", "weight", "matrix-entry",
        "matrix-string"])
@pytest.mark.skipif(len(DIGITS) == 1, reason="this Python converts ints of any length")
def test_overlong_integer_refused(tmp_path, capsys, text, message):
    path = tmp_path / "long.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


LONG = "y" * 5000


@pytest.mark.parametrize("data, start", [
    ({"vars": ["x", "y"], "matrix": [[0, LONG], [-1, 0]]},
     "bad matrix entry 'yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy... (5000 characters): "
     "not a rational literal"),
    ({"vars": ["x", "y"], "bracket": {"x,y": "x*" + LONG}},
     "bracket value for 'x,y': unknown variable 'yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy... "
     "(5000 characters) (at position 2)"),
    ({"vars": ["x", "y"], "bracket": {"x,y": "x " + LONG}}, "bracket value for 'x,y': "),
    ({"vars": ["x", "y"], "bracket": {"x," + LONG: "1"}}, "bracket key 'x,yyy"),
    ({"vars": ["x", "y"], "bracket": {LONG: "1"}}, "bracket key 'yyy"),
    ({"vars": ["x", "9" + LONG]}, "invalid variable name '9yyy"),
    ({"vars": ["x", {"name": LONG, "weight": "2"}]}, "weight of 'yyy"),
    ({"vars": ["x", [LONG]]}, "bad variable entry ['yyy"),
    ({"vars": ["x"], LONG: 1}, "unknown keys: ['yyy"),
    ({"vars": ["x", "y"], "matrix": [[0, [LONG]], [-1, 0]]}, "matrix entry ['yyy"),
], ids=["matrix-string", "bracket-name", "bracket-token", "bracket-key-name",
        "bracket-key", "variable-name", "weight-name", "variable-entry",
        "document-key", "matrix-entry"])
def test_overlong_input_is_echoed_cut(tmp_path, capsys, data, start):
    # one short line, naming the input by its start and its length once
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {start}")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert err.count("characters)") == 1 + ("bracket key 'x," in start)


def test_normal_length_input_is_echoed_whole(tmp_path, capsys):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "matrix": [[0, "1/x"], ["-1/x", 0]]}))
    code, _, err = run(capsys, "check", str(path))
    assert (code, err) == (2, "error: bad matrix entry '1/x': "
                              "Invalid literal for Fraction: '1/x'\n")
    path.write_text(json.dumps({"vars": ["x", "y"], "bracket": {"x,y": "x*q"}}))
    code, _, err = run(capsys, "check", str(path))
    assert (code, err) == (2, "error: bracket value for 'x,y': unknown variable 'q' "
                              "(at position 2)\n")


def test_overlong_catalog_id_is_echoed_cut(capsys):
    code, _, err = run(capsys, "check", "catalog:" + LONG)
    assert (code, err) == (2, "error: no catalog entry named "
                              "'yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy... (5000 characters)\n")


@pytest.mark.parametrize("content, message", [
    # the position is where the recursion limit was hit, so it is not pinned
    (json.dumps({"vars": ["x", "y"], "bracket": {"x,y": "(" * 200 + "x*y" + ")" * 200}}),
     NESTED),
    (json.dumps({"vars": ["x", "y"], "bracket": {"x,y": "-" * 1000 + "x"}}), NESTED),
    ("[" * 100000 + "]" * 100000, "invalid JSON: nested too deeply\n"),
    ('{"vars": ["x"], "label": "caf\xe9"}'.encode("latin-1"),
     "document is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 "
     "in position 29: invalid continuation byte\n"),
], ids=["parentheses", "unary-minus", "document", "not-utf-8"])
def test_unreadable_document_refused(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_parse_blowup_refused(tmp_path, capsys):
    doc = {"vars": ["x", "y", "z", "t"], "bracket": {"x,y": "(x+y+z+t)^40"}}
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "total degree 40 exceeds the bound 16" in err


def test_parse_term_blowup_refused(tmp_path, capsys):
    # within the degree bound, but the power has 20349 terms
    doc = {"vars": ["a", "b", "c", "d", "e", "f"],
           "bracket": {"a,b": "(a+b+c+d+e+f)^16"}}
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "up to 20349 terms exceeds the bound 2000" in err


def test_jacobi_failure_exits_one(tmp_path, capsys):
    doc = {"vars": ["x", "y", "z"],
           "bracket": {"x,y": "y", "y,z": "z", "z,x": "x"}}
    path = tmp_path / "nojacobi.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert "jacobi" in err


def test_inhomogeneous_refused_for_homology(tmp_path, capsys):
    doc = {"vars": ["x", "y"], "bracket": {"x,y": "x + 1"}}
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "check", str(path))
    assert code == 0
    code, _, err = run(capsys, "homology", str(path))
    assert code == 2
    assert "homogeneous" in err


def test_output_is_deterministic(capsys):
    first = run(capsys, "catalog", "run", "log-canonical-3", "duality",
                "--max-weight", "4")
    second = run(capsys, "catalog", "run", "log-canonical-3", "duality",
                 "--max-weight", "4")
    assert first == second
    assert first[0] == 0


# log-canonical-3 with its traces doubled: the certificate fails, and from
# weight 3 on no shift aligns the swept cohomology with the twisted table
NO_SHIFT_REPORT = """\
duality window: 0 <= n <= 3, 0 <= w <= 3
expected shift: 3; fitting shifts: none
unimodular: no
  n   w  twisted  cohom  ok
  0   0        1      1  yes
  0   1        1      1  yes
  0   2        1      1  yes
  0   3        1      2  NO
  1   0        0      0  yes
  1   1        1      1  yes
  1   2        1      1  yes
  1   3        1      4  NO
  2   0        0      0  yes
  2   1        0      0  yes
  2   2        0      0  yes
  2   3        0      3  NO
  3   0        0      0  yes
  3   1        0      0  yes
  3   2        0      0  yes
  3   3        0      1  NO
certificate: FAIL (the omega boundary plans are not the coboundary's under m dx_I -> (m, I^c))
result: FAIL
"""


@pytest.mark.parametrize("tsv", [False, True], ids=["text", "tsv"])
def test_duality_with_no_fitting_shift(capsys, monkeypatch, tsv):
    real = cli.duality_report

    def doubled_traces(S, max_weight=8):
        scale_traces(S, 2)
        return real(S, max_weight=max_weight)

    monkeypatch.setattr(cli, "duality_report", doubled_traces)
    code, out, err = run(capsys, "catalog", "run", "log-canonical-3", "duality",
                         "--max-weight", "3", *(["--tsv"] if tsv else []))
    if tsv:
        cells = [line.split() for line in NO_SHIFT_REPORT.splitlines()[4:-2]]
        expected = "".join(f"{n}\t{w}\t{t}\t{c}\t{'ok' if ok == 'yes' else 'mismatch'}\n"
                           for n, w, t, c, ok in cells)
    else:
        expected = NO_SHIFT_REPORT
    assert out == expected
    assert err == ("error: no uniform weight shift aligns the twisted homology "
                   "table with the cohomology table\n")
    assert code == 1
