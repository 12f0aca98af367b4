"""BENCHMARK.json stays in step with what the runs report."""

import json
import re
from pathlib import Path

import ledger
import run

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_are_the_reported_ones():
    doc = _doc()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == ledger.DECLARED
    assert all(m["unit"] == ledger.UNITS[m["name"]] for m in doc["per_layer"])
    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)


def test_shape_and_limits():
    doc = _doc()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
