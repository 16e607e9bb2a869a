"""Smoke test of the benchmark harness: every workload for a few steps,
untraced and traced, plus the correctness gate.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced(name):
    out = run.WorkloadRun(WORKLOADS[name], SEED, seconds=0, trace=False, steps=3).execute()
    result = out["result"]
    assert result["correct"], out["lines"]
    assert (result["attempted"], result["failed"]) == (run.MIN_REPS, 0)
    assert set(result["metrics"]) == {m for m, _ in run.END_TO_END}
    for metric in result["metrics"].values():
        assert metric["value"] > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced(name):
    out = run.WorkloadRun(WORKLOADS[name], SEED, seconds=0, trace=True, steps=4).execute()
    result = out["result"]
    assert result["correct"], out["lines"]
    assert result["failed"] == 0
    values = {m: v["value"] for m, v in result["metrics"].items()}
    assert set(values) == set(PER_LAYER_UNITS)
    assert abs(values["trace.accounted"] - 1.0) <= run.ACCOUNTING_TOL
    assert (values["engine.lane_change_calls"] > 0) == (name == "lanes-pipe2")
    assert values["engine.node_model_calls"] > 0
    assert values["engine.dump_rows"] > 0
    distributed = name != "grid-seq"
    assert (values["comm.frames"] == 2 * 4) == distributed
    assert (values["partition.overlap_links"] > 0) == distributed
    if name == "checker-tcp2":
        assert values["partition.overlap_links"] == 3045
        assert values["partition.slots"] == 15274 + 15332


def test_dump_mismatch_fails(monkeypatch):
    monkeypatch.setattr(run.WorkloadRun, "reference", lambda self, key: b"not the dump")
    out = run.WorkloadRun(WORKLOADS["grid-seq"], SEED, seconds=0, trace=False, steps=2).execute()
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
