import json
from pathlib import Path

import pytest

from poishom.polycore import MAX_PARSE_WEIGHT, parse_poly
from poishom.specfile import SpecDocument, SpecFileError

from _oracles import document_dict

DOCS = Path(__file__).resolve().parent.parent / "docs"


def test_load_shipped_documents():
    for name in ("potential-x2z.json", "log-canonical-3.json", "weighted-line.json",
                 "jacobian-casimirs-4.json"):
        doc = SpecDocument.load(DOCS / name)
        S = doc.to_structure()
        assert S.homogeneity_degree is not None


def test_bare_names_get_unit_weights():
    doc = SpecDocument.from_dict({"vars": ["a", "b"], "bracket": {}})
    assert doc.vars.weights == (1, 1)
    assert doc.label is None


def test_weighted_vars():
    doc = SpecDocument.from_dict(
        {"vars": [{"name": "x", "weight": 1}, {"name": "y", "weight": 3}],
         "bracket": {}}
    )
    assert doc.vars.weights == (1, 3)


def test_weight_at_the_bound_is_accepted():
    doc = SpecDocument.from_dict(
        {"vars": [{"name": "x", "weight": MAX_PARSE_WEIGHT}, "y"], "bracket": {}})
    assert doc.vars.weights == (MAX_PARSE_WEIGHT, 1)


def test_bracket_keys_normalize_order():
    doc = SpecDocument.from_dict(
        {"vars": ["x", "y"], "bracket": {"y,x": "x"}}
    )
    S = doc.to_structure()
    assert S.entry(0, 1) == parse_poly("-x", S.vars)


def test_matrix_expansion():
    doc = SpecDocument.from_dict(
        {"vars": ["x", "y"], "matrix": [[0, "1/2"], ["-1/2", 0]]}
    )
    S = doc.to_structure()
    assert S.entry(0, 1) == parse_poly("1/2*x*y", S.vars)


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"vars": []},
        {"vars": "xy"},
        {"vars": ["x"], "bogus": 1},
        {"vars": ["x", "x"], "bracket": {}},
        {"vars": [{"name": "x", "weight": 0}], "bracket": {}},
        {"vars": [{"name": "x", "weight": "two"}], "bracket": {}},
        {"vars": ["x", "y"], "bracket": {"x": "1"}},
        {"vars": ["x", "y"], "bracket": {"x,x": "1"}},
        {"vars": ["x", "y"], "bracket": {"x,z": "1"}},
        {"vars": ["x", "y"], "bracket": {"x,y": "1", "y,x": "2"}},
        {"vars": ["x", "y"], "bracket": {"x,y": "q + 1"}},
        {"vars": ["x", "y"], "bracket": {"x,y": 5}},
        {"vars": ["x", "y"], "bracket": {}, "matrix": [[0, 0], [0, 0]]},
        {"vars": ["x", "y"], "matrix": [[0, 1]]},
        {"vars": ["x", "y"], "matrix": [[0, 1], [1, 0]]},
        {"vars": ["x", "y"], "matrix": [[1, 0], [0, 1]]},
        {"vars": ["x", "y"], "matrix": [[0, "x"], ["-x", 0]]},
        {"vars": ["x", "y"], "matrix": [[0, True], [False, 0]]},
        {"vars": ["x", "y"], "label": 7, "bracket": {}},
    ],
)
def test_malformed_documents(data):
    with pytest.raises(SpecFileError):
        SpecDocument.from_dict(data)


@pytest.mark.parametrize("data, message", [
    ({"vars": ["x", "y"], "matrix": [[0, 1.5], [-1.5, 0]]},
     "matrix entry 1.5 is not a rational scalar"),
    ({"vars": ["x", "y"], "matrix": [[0, None], [None, 0]]},
     "matrix entry None is not a rational scalar"),
    (["x", "y"], "document must be a JSON object"),
    ({"vars": [{"name": "x", "color": "red"}], "bracket": {}},
     "unknown variable keys: ['color']"),
    ({"vars": [{"name": 3}], "bracket": {}}, "variable 'name' must be a string"),
    ({"vars": ["x", 7], "bracket": {}}, "bad variable entry 7"),
    ({"vars": ["x", "y"], "bracket": ["x,y", "1"]}, "'bracket' must be an object"),
    ({"vars": ["x", "y"], "bracket": {"x,z": "1"}},
     "bracket key 'x,z': unknown variable 'z'"),
    ({"vars": ["x", "y"], "bracket": {"x,y": "x^\u00b2"}},
     "bracket value for 'x,y': unexpected character '\u00b2' (at position 2)"),
    ({"vars": ["x", "y"], "matrix": [[0, 1], [-1]]},
     "every matrix row must have 2 entries"),
    ({"vars": ["x", {"name": "y", "weight": MAX_PARSE_WEIGHT + 1}]},
     f"weight of 'y' exceeds the bound {MAX_PARSE_WEIGHT}"),
], ids=["float-entry", "null-entry", "not-an-object", "unknown-variable-key",
        "non-string-name", "bad-variable-entry", "bracket-not-an-object",
        "bracket-key-unknown-variable", "superscript-exponent",
        "short-matrix-row", "weight-above-bound"])
def test_refusal_messages(data, message):
    with pytest.raises(SpecFileError) as info:
        SpecDocument.from_dict(data)
    assert str(info.value) == message


def test_invalid_json_text():
    with pytest.raises(SpecFileError):
        SpecDocument.from_json("{not json")


def test_round_trip(tmp_path):
    # the printed brackets of a loaded document load back to the same one
    doc = SpecDocument.load(DOCS / "weighted-line.json")
    path = tmp_path / "copy.json"
    path.write_text(json.dumps(document_dict(doc)), encoding="utf-8")
    again = SpecDocument.load(path)
    assert again == doc
    assert again.label == "weighted-line"


def test_matrix_document_round_trips_as_bracket():
    doc = SpecDocument.load(DOCS / "log-canonical-3.json")
    data = document_dict(doc)
    assert "matrix" not in data
    again = SpecDocument.from_dict(data)
    assert again.to_structure() == doc.to_structure()
