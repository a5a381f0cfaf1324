"""Tests for the study-execution engine: specs, backends, checkpoint/resume."""

from __future__ import annotations

import json
import logging
import pickle

import pytest

from repro.workflow.executor import (
    _SHM_CRASH_ENV,
    JsonlCheckpoint,
    RunSpec,
    SerialExecutor,
    SharedMemoryExecutor,
    StudyInputCache,
    TIMING_METRICS,
    effective_worker_count,
    execute_spec,
    get_executor,
)
from repro.workflow.results import RunResult, StudyResults
from repro.workflow.shm import orphaned_segments
from repro.workflow.study import StudyRunner

#: a tiny one-factor-at-a-time grid (the fig3b shape) for backend comparisons
GRID = [
    {"_factor": "sigma", "_value": 1.0, "sigma": 1.0},
    {"_factor": "sigma", "_value": 25.0, "sigma": 25.0},
    {"_factor": "period", "_value": 5, "period": 5},
    {"_factor": "period", "_value": 20, "period": 20},
]


def _comparable_metrics(run: RunResult) -> dict:
    return {k: v for k, v in run.metrics.items() if k not in TIMING_METRICS}


class TestRunSpec:
    def test_build_config_applies_overrides(self, tiny_run_config):
        spec = RunSpec(
            name="s", config=tiny_run_config.to_dict(), overrides={"sigma": 3.0, "hidden_size": 4}
        )
        config = spec.build_config()
        assert config.breed.sigma == 3.0
        assert config.hidden_size == 4
        assert config.n_simulations == tiny_run_config.n_simulations

    def test_spec_is_picklable(self, tiny_run_config):
        spec = RunSpec(name="s", config=tiny_run_config.to_dict(), overrides={"_factor": "sigma"})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.build_config() == spec.build_config()


class TestStudyInputCache:
    def test_same_scenario_shares_inputs(self, tiny_run_config):
        cache = StudyInputCache()
        solver_a, validation_a = cache.inputs(tiny_run_config)
        solver_b, validation_b = cache.inputs(tiny_run_config)
        assert solver_a is solver_b
        assert validation_a is validation_b
        assert len(cache) == 1

    def test_different_validation_budget_is_a_different_entry(self, tiny_run_config):
        from dataclasses import replace

        cache = StudyInputCache()
        cache.inputs(tiny_run_config)
        cache.inputs(replace(tiny_run_config, n_validation_trajectories=5))
        assert len(cache) == 2

    def test_workload_change_is_a_different_entry(self, tiny_run_config):
        from dataclasses import replace

        from repro.sampling.bounds import HEAT1D_BOUNDS

        cache = StudyInputCache()
        cache.inputs(tiny_run_config)
        cache.inputs(replace(tiny_run_config, workload="heat1d", bounds=HEAT1D_BOUNDS))
        assert len(cache) == 2

    def test_validation_disabled(self, tiny_run_config):
        from dataclasses import replace

        cache = StudyInputCache()
        _, validation = cache.inputs(replace(tiny_run_config, n_validation_trajectories=0))
        assert validation is None


class TestExecutorBackends:
    def test_get_executor_names(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("process", max_workers=2), SharedMemoryExecutor)
        assert isinstance(get_executor("shm", max_workers=2), SharedMemoryExecutor)
        with pytest.raises(ValueError):
            get_executor("slurm")

    def test_serial_retains_full_results(self, tiny_run_config):
        executor = SerialExecutor()
        specs = [RunSpec(name="r0", config=tiny_run_config.to_dict(), overrides={})]
        records = executor.execute(specs)
        assert len(records) == 1
        assert set(executor.full_results) == {"r0"}
        assert executor.full_results["r0"].method in ("Breed", "Random")

    def test_default_worker_count_is_cpu_count_clamped_to_specs(self, monkeypatch, caplog):
        import repro.workflow.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 8)
        with caplog.at_level(logging.INFO, logger="repro.workflow"):
            assert effective_worker_count(None, 3) == 3
        logged = [r for r in caplog.records if "worker(s)" in r.getMessage()]
        assert len(logged) == 1
        assert "defaulted to CPU count" in logged[0].getMessage()

    def test_explicit_worker_count_clamped_to_at_least_one(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.workflow"):
            assert effective_worker_count(0, 5) == 1
            assert effective_worker_count(16, 5) == 5
        assert all("defaulted" not in r.getMessage() for r in caplog.records)

    def test_cpu_count_none_falls_back_to_one_worker(self, monkeypatch):
        import repro.workflow.executor as executor_module

        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: None)
        assert effective_worker_count(None, 4) == 1


@pytest.mark.slow  # spawns real shm worker pools
class TestSharedMemoryBackend:
    @pytest.fixture(autouse=True)
    def no_leaked_segments(self):
        yield
        assert orphaned_segments() == []

    def test_shm_backend_bit_identical_to_serial(self, tiny_run_config):
        serial = StudyRunner(base_config=tiny_run_config, study_name="det").run_all(GRID)
        shm = StudyRunner(
            base_config=tiny_run_config, study_name="det", backend="shm", max_workers=2
        ).run_all(GRID)
        assert [r.name for r in serial] == [r.name for r in shm]
        for serial_run, shm_run in zip(serial, shm):
            assert serial_run.series == shm_run.series
            assert _comparable_metrics(serial_run) == _comparable_metrics(shm_run)
            assert serial_run.workload == shm_run.workload
            assert serial_run.seed == shm_run.seed

    def test_all_backends_bit_identical_across_all_workloads(self, tiny_run_config):
        """serial ↔ shm parity on every built-in workload.

        One study whose runs each select a different workload (the
        cross-workload shape) — which also exercises the shm backend's
        multi-scenario input sharing, one shared validation set per workload.
        The list is pinned to the built-ins rather than ``workload_names()``
        because doctest runs register throwaway workloads whose factories do
        not survive outside their session.
        """
        from dataclasses import replace

        from repro.api.registry import workload_names

        builtins = (
            "advection1d",
            "advection2d",
            "analytic",
            "burgers",
            "fisher",
            "heat1d",
            "heat2d",
        )
        assert set(builtins) <= set(workload_names())
        config = replace(tiny_run_config, max_iterations=30)
        configurations = [
            {"_name": workload, "workload": workload} for workload in builtins
        ]
        per_backend = {
            backend: StudyRunner(
                base_config=config, study_name="par", backend=backend, max_workers=2
            ).run_all(configurations, name_key="_name")
            for backend in ("serial", "shm")
        }
        assert len(per_backend["serial"]) == len(configurations)
        for ref_run, run in zip(per_backend["serial"], per_backend["shm"]):
            assert ref_run.name == run.name
            assert ref_run.series == run.series, ref_run.name
            assert _comparable_metrics(ref_run) == _comparable_metrics(run), ref_run.name

    def test_completion_stream_and_spec_order(self, tiny_run_config):
        seen = []
        executor = SharedMemoryExecutor(max_workers=2)
        specs = StudyRunner(base_config=tiny_run_config, study_name="ord").build_specs(GRID)
        records = executor.execute(specs, on_record=lambda i, r: seen.append(r.name))
        assert [r.name for r in records] == [s.name for s in specs]
        assert sorted(seen) == sorted(s.name for s in specs)

    def test_empty_spec_list(self):
        assert SharedMemoryExecutor(max_workers=2).execute([]) == []

    def test_oversized_series_fall_back_to_pickling(self, tiny_run_config):
        serial = StudyRunner(base_config=tiny_run_config, study_name="of").run_all(GRID[:2])
        specs = StudyRunner(base_config=tiny_run_config, study_name="of").build_specs(GRID[:2])
        # A 4-float slot cannot hold any real series: every record must take
        # the pickle fallback — and still be bit-identical.
        records = SharedMemoryExecutor(max_workers=2, slot_floats=4).execute(specs)
        for serial_run, shm_run in zip(serial, records):
            assert serial_run.series == shm_run.series
            assert _comparable_metrics(serial_run) == _comparable_metrics(shm_run)

    def test_worker_crash_raises_and_leaks_nothing(self, tiny_run_config, monkeypatch):
        runner = StudyRunner(
            base_config=tiny_run_config, study_name="crash", backend="shm", max_workers=2
        )
        crash_name = runner.run_names(GRID)[1]
        monkeypatch.setenv(_SHM_CRASH_ENV, crash_name)
        with pytest.raises(RuntimeError, match="died"):
            runner.run_all(GRID)

    def test_crashed_study_resumes_to_completion(self, tiny_run_config, monkeypatch, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StudyRunner(
            base_config=tiny_run_config, study_name="crash", backend="shm", max_workers=2
        )
        monkeypatch.setenv(_SHM_CRASH_ENV, runner.run_names(GRID)[2])
        with pytest.raises(RuntimeError):
            runner.run_all(GRID, checkpoint=path)
        monkeypatch.delenv(_SHM_CRASH_ENV)
        results = StudyRunner(
            base_config=tiny_run_config, study_name="crash", backend="shm", max_workers=2
        ).run_all(GRID, resume=path)
        assert len(results) == len(GRID)
        reference = StudyRunner(base_config=tiny_run_config, study_name="crash").run_all(GRID)
        for resumed_run, reference_run in zip(results, reference):
            assert resumed_run.series == reference_run.series
            assert _comparable_metrics(resumed_run) == _comparable_metrics(reference_run)

    def test_failing_run_reports_worker_traceback(self, tiny_run_config):
        # An unknown activation passes config validation but fails inside the
        # worker when the surrogate is built — the error path proper.
        spec = RunSpec(
            name="bad",
            config=tiny_run_config.to_dict(),
            overrides={"activation": "no-such-activation"},
        )
        with pytest.raises(RuntimeError, match="bad"):
            SharedMemoryExecutor(max_workers=1).execute([spec])

    def test_resume_with_shm_backend(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID[:3], checkpoint=path)
        results = StudyRunner(
            base_config=tiny_run_config, study_name="res", backend="shm", max_workers=2
        ).run_all(GRID, resume=path)
        assert len(results) == len(GRID)


class TestRunNames:
    def test_duplicate_names_suffixed_with_index(self, tiny_run_config):
        runner = StudyRunner(base_config=tiny_run_config, study_name="dup")
        names = runner.run_names(
            [{"_name": "x"}, {"_name": "x"}, {"_name": "y"}], name_key="_name"
        )
        assert names == ["dup:x", "dup:x#1", "dup:y"]
        assert len(set(names)) == 3

    def test_factor_and_index_names(self, tiny_run_config):
        runner = StudyRunner(base_config=tiny_run_config, study_name="s")
        names = runner.run_names([{"_factor": "sigma", "_value": 1.0, "sigma": 1.0}, {}])
        assert names == ["s:sigma=1.0", "s:1"]


class TestCheckpointResume:
    def test_checkpoint_streams_jsonl(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StudyRunner(base_config=tiny_run_config, study_name="ck")
        results = runner.run_all(GRID[:2], checkpoint=path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [line["name"] for line in lines] == [r.name for r in results]
        assert all("metrics" in line and "series" in line for line in lines)

    def test_resume_skips_completed_runs(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        # A "killed" study: only the first two runs completed.
        interrupted = StudyRunner(base_config=tiny_run_config, study_name="res")
        interrupted.run_all(GRID[:2], checkpoint=path)

        executed = []
        resumed = StudyRunner(
            base_config=tiny_run_config, study_name="res", on_result=lambda r: executed.append(r.name)
        )
        results = resumed.run_all(GRID, resume=path)

        # Only the remaining configurations were executed...
        full_names = resumed.run_names(GRID)
        assert executed == full_names[2:]
        # ...and the final results cover the whole study, in order, identical
        # to an uninterrupted run.
        reference = StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID)
        assert [r.name for r in results] == [r.name for r in reference] == full_names
        for resumed_run, reference_run in zip(results, reference):
            assert resumed_run.series == reference_run.series
            assert _comparable_metrics(resumed_run) == _comparable_metrics(reference_run)
        # The checkpoint file now holds every run (resume appends to it).
        assert len(JsonlCheckpoint(path).load()) == len(GRID)

    def test_resume_with_process_backend(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID[:3], checkpoint=path)
        results = StudyRunner(
            base_config=tiny_run_config, study_name="res", backend="process", max_workers=2
        ).run_all(GRID, resume=path)
        assert len(results) == len(GRID)

    def test_truncated_checkpoint_line_tolerated(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StudyRunner(base_config=tiny_run_config, study_name="trunc")
        runner.run_all(GRID[:2], checkpoint=path)
        # Simulate a crash mid-write: chop the final line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        completed = JsonlCheckpoint(path).load()
        assert len(completed) == 1  # the intact line survives

    def test_append_after_truncated_line_starts_fresh_line(self, tmp_path):
        path = tmp_path / "study.jsonl"
        first, second, third = (
            RunResult(name=name, config={}, metrics={"final_train_loss": 0.5}) for name in "abc"
        )
        checkpoint = JsonlCheckpoint(path)
        checkpoint.append(first)
        checkpoint.append(second)
        # A crash mid-write of `second`: its line is cut, without a newline.
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        # The resumed study re-appends `second` and goes on to `third`; neither
        # may fuse with the fragment.
        checkpoint.append(second)
        checkpoint.append(third)
        assert set(checkpoint.load()) == {first.name, second.name, third.name}

    def test_missing_checkpoint_is_empty(self, tmp_path):
        assert JsonlCheckpoint(tmp_path / "absent.jsonl").load() == {}

    def test_resume_with_changed_base_config_reexecutes(self, tiny_run_config, tmp_path):
        from dataclasses import replace

        path = tmp_path / "study.jsonl"
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID[:1], checkpoint=path)
        # Same names, seed, workload, and overrides — but a different base
        # config (a key the overrides never mention). The fingerprint catches it.
        executed = []
        changed = StudyRunner(
            base_config=replace(tiny_run_config, max_iterations=tiny_run_config.max_iterations * 2),
            study_name="res",
            on_result=lambda r: executed.append(r.name),
        )
        changed.run_all(GRID[:1], resume=path)
        assert len(executed) == 1

    def test_legacy_record_without_digest_matches_on_fallback(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StudyRunner(base_config=tiny_run_config, study_name="res")
        runner.run_all(GRID[:1], checkpoint=path)
        # Strip the digest, simulating a checkpoint written before it existed.
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        for line in lines:
            line["digest"] = ""
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        executed = []
        StudyRunner(
            base_config=tiny_run_config, study_name="res", on_result=lambda r: executed.append(r.name)
        ).run_all(GRID[:1], resume=path)
        assert executed == []

    def test_resume_with_changed_seed_reexecutes(self, tiny_run_config, tmp_path):
        from dataclasses import replace

        path = tmp_path / "study.jsonl"
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID[:2], checkpoint=path)

        executed = []
        reseeded = StudyRunner(
            base_config=replace(tiny_run_config, seed=tiny_run_config.seed + 1),
            study_name="res",
            on_result=lambda r: executed.append(r.name),
        )
        results = reseeded.run_all(GRID[:2], resume=path)
        # Same names, but the checkpointed records carry the old seed — they
        # must not be relabeled as the new study's results.
        assert len(executed) == 2
        assert all(r.seed == tiny_run_config.seed + 1 for r in results)

    def test_resume_with_changed_overrides_reexecutes(self, tiny_run_config, tmp_path):
        path = tmp_path / "study.jsonl"
        runner = StudyRunner(base_config=tiny_run_config, study_name="res")
        runner.run_all([{"_name": "a", "sigma": 1.0}], name_key="_name", checkpoint=path)
        executed = []
        changed = StudyRunner(
            base_config=tiny_run_config, study_name="res", on_result=lambda r: executed.append(r.name)
        )
        changed.run_all([{"_name": "a", "sigma": 9.0}], name_key="_name", resume=path)
        assert executed == ["res:a"]

    def test_separate_checkpoint_seeded_with_resumed_records(self, tiny_run_config, tmp_path):
        old = tmp_path / "old.jsonl"
        new = tmp_path / "new.jsonl"
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(GRID[:2], checkpoint=old)
        StudyRunner(base_config=tiny_run_config, study_name="res").run_all(
            GRID, checkpoint=new, resume=old
        )
        # The new file stands alone: it holds the spliced-in old runs plus
        # the newly executed ones, so resuming from it skips everything.
        assert len(JsonlCheckpoint(new).load()) == len(GRID)
        executed = []
        StudyRunner(
            base_config=tiny_run_config, study_name="res", on_result=lambda r: executed.append(r.name)
        ).run_all(GRID, resume=new)
        assert executed == []


class TestExecuteSpec:
    def test_record_is_self_describing(self, tiny_run_config):
        spec = RunSpec(
            name="desc",
            config=tiny_run_config.to_dict(),
            overrides={"seed": 9},
        )
        record, result = execute_spec(spec)
        assert record.workload == "heat2d"
        assert record.seed == 9
        assert result.config.seed == 9

    def test_study_results_round_trip_preserves_engine_fields(self, tiny_run_config, tmp_path):
        results = StudyRunner(base_config=tiny_run_config, study_name="rt").run_all(GRID[:1])
        path = results.save_json(tmp_path / "rt.json")
        loaded = StudyResults.load_json(path)
        assert loaded.runs[0].workload == "heat2d"
        assert loaded.runs[0].seed == tiny_run_config.seed
