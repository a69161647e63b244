"""The committed performance records (root ``BENCH_*.json``) are complete:
both sides hold the same runs, every run is correct with no failed job, and
every untraced run carries each end-to-end metric that ``BENCHMARK.json``
names (traced runs carry the per-layer metrics instead)."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_is_complete(path):
    record = json.loads(path.read_text())
    parent, change = record["parent"], record["change"]
    assert parent.keys() == change.keys()
    assert any("-trace0-" in key for key in parent)
    for side in (parent, change):
        for key, run in side.items():
            result = run["result"]
            assert result["correct"] is True, key
            assert result["failed"] == 0, key
            if "-trace0-" in key:
                missing = [m for m in END_TO_END if m not in result["metrics"]]
                assert not missing, (key, missing)
