"""The benchmark's own tests: tiny-size runs of every workload driver.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import drivers  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_exactly_the_declared_metrics(workload: str, trace: int) -> None:
    out = run(
        "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace), "--size", "tiny"
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_metric_tables_match_benchmark_json() -> None:
    assert [m["name"] for m in BENCHMARK["per_layer"]] == layers.NAMES
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {n: layers.unit(n) for n in layers.NAMES}


def test_without_the_program_the_driver_fails_before_printing(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run("--workload", "breed_long", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_self_time_subtracts_children() -> None:
    batch = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    assert layers.self_times(batch) == {"a": (6.0, 1), "b": (3.0, 2), "c": (1.0, 1)}


def test_renamed_public_name_is_reported_missing(monkeypatch: pytest.MonkeyPatch) -> None:
    targets = tuple(
        (name, target + "_renamed" if name == "melissa.reservoir_draw" else target, opaque)
        for name, target, opaque in spans.TARGETS
    )
    monkeypatch.setattr(spans, "TARGETS", targets)
    recorder = spans.Recorder()
    recorder.install()
    try:
        rep = drivers.run_session("breed_long", 3, recorder, size="tiny")
    finally:
        recorder.uninstall()
    assert not rep.problems
    values, missing = layers.compute(
        recorder.spans(), recorder.counts, [], recorder.missing, rep.wall_s, rep.wall_s, 1, rep.val_mse
    )
    assert missing == ["melissa.reservoir_draw_s"]
    assert values["nn.train_steps"] == drivers.SIZES["breed_long"]["tiny"]["max_iterations"]
    assert values["trace.unattributed_s"] >= 0.0


def test_tracing_leaves_results_bit_identical() -> None:
    recorder = spans.Recorder()
    plain = drivers.run_session("paper_slice", 4, recorder, size="tiny")
    recorder.install()
    try:
        traced = drivers.run_session("paper_slice", 4, recorder, size="tiny")
    finally:
        recorder.uninstall()
    assert traced.fingerprint == plain.fingerprint
    assert recorder.names.count("validation.eval") >= 1
    # validation.eval is opaque: its forward passes are not training's nn.forward
    inside_eval = [
        name for name, parent in zip(recorder.names, recorder.parents) if parent >= 0
        and recorder.names[parent] == "validation.eval"
    ]
    assert inside_eval == []


def test_ledger_flags_a_run_that_disagrees_with_an_earlier_one(tmp_path: Path) -> None:
    import run

    ledger = tmp_path / "results.json"
    assert run.agrees_with_earlier_runs(ledger, "w/full/seed1/srcX", (0.125,))
    assert run.agrees_with_earlier_runs(ledger, "w/full/seed1/srcX", (0.125,))
    assert not run.agrees_with_earlier_runs(ledger, "w/full/seed1/srcX", (0.25,))
    assert run.agrees_with_earlier_runs(ledger, "w/full/seed1/srcY", (0.25,))
