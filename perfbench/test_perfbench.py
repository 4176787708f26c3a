"""Smoke tests: every workload's code path on a tiny scene.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

import run as bench

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny(workload: bench.Workload, tmp_path) -> bench.Workload:
    """The workload on a 24x24 copy of its scene, change block shrunk."""
    text = workload.scene.read_text()
    text = re.sub(r"(?m)^(width|height) = \d+", r"\1 = 24", text)
    text = re.sub(r"(?m)^change = (\d+) \d+ \d+ \d+ \d+", r"change = \1 16 8 8 8", text)
    path = tmp_path / workload.scene.name
    path.write_text(text)
    return dataclasses.replace(workload, scene=path)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_reports_every_metric_with_its_unit(name, trace, tmp_path):
    workload = tiny(bench.WORKLOADS[name], tmp_path)
    result = bench.run_benchmark(
        workload, seed=3, seconds=0, trace=trace, build=tmp_path / "build",
        setup_reps=1,
    )
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1 + trace
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace and workload.command == "sweep":
        grid = len(bench.EPS_GRID.split(","))
        calls = result["metrics"]["classifiers.eval_calls"]["value"]
        assert calls == grid * 28


def test_failed_output_check_fails_the_run(tmp_path, monkeypatch, capsys):
    def reject(*args):
        raise bench.CheckFailed("rejected")

    workload = tiny(bench.WORKLOADS["index-k2-run"], tmp_path)
    monkeypatch.setattr(bench, "check_output", reject)
    monkeypatch.setitem(bench.WORKLOADS, "index-k2-run", workload)
    monkeypatch.setattr(bench, "BUILD", tmp_path / "build")
    monkeypatch.setattr(bench, "SETUP_REPS", 1)
    argv = ["--workload", "index-k2-run", "--seed", "3", "--seconds", "0"]
    assert bench.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"] == {}


def test_missing_source_tree_exits_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path)
    argv = ["--workload", "gmm-k3-run", "--seed", "1", "--seconds", "1"]
    assert bench.main(argv) == 2
    assert capsys.readouterr().out == ""
