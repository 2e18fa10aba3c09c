"""The committed benchmark records (`BENCH_<n>.json` at the repository
root) parse, cover every workload of BENCHMARK.json on both sides of
their change, and hold only correct runs.

A record file holds `runs`, a list of entries with the `workload`,
`seed`, `side` ("parent" or "change") and `pair` of one
`perfbench/run.py --trace 0` invocation, its run record (`record`, the
second-to-last stdout line) and its result (`result`, the last)."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_a_bench_record_is_committed():
    assert ROOT / "BENCH_16.json" in RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_covers_every_workload_with_correct_runs(path):
    runs = json.loads(path.read_text())["runs"]
    spec = _benchmark()
    metrics = {m["name"] for m in spec["end_to_end"]}
    covered = {(run["workload"], run["side"]) for run in runs}
    assert covered == {(w["name"], side) for w in spec["workloads"]
                       for side in ("parent", "change")}
    for run in runs:
        record, result = run["record"], run["result"]
        assert record["workload"] == run["workload"]
        assert record["seed"] == run["seed"] and record["trace"] == 0
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == metrics
        assert len(record["samples"]["peak_rss_mb"]) == result["attempted"]
