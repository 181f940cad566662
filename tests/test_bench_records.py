"""The committed benchmark records at the repository root: each parses, says
what it measured and on what machine, and any gain it claims is on a
workload and an end-to-end metric that ``BENCHMARK.json`` declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_a_record_says_what_and_where_and_claims_a_declared_metric(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert isinstance(record.get("what"), str) and record["what"]
    assert isinstance(record.get("machine"), str) and record["machine"]
    claim = record.get("claim")
    if claim is not None:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert claim.get("workload") in {w["name"] for w in declared["workloads"]}
        assert claim.get("metric") in {m["name"] for m in declared["end_to_end"]}
