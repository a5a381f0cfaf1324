"""Crash tests of the durable-storage layer, at byte granularity.

A ``SIGKILL`` can stop an append after any byte of its record.  For each of
the three append logs (a study's run records, a campaign's manifest, a
service job's progress events) the file is cut at every byte offset inside
its last record, reopened as a restarted process would, and appended to:
every earlier record and the new one must load, with a dense ``seq`` where
the log stamps one.  ``atomic_write`` is interrupted between its temp write
and its rename: the old content must survive and no temp file may linger.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api.session import TrainingSession
from repro.campaign import CampaignManifest
from repro.checkpoint import latest_snapshot, save_session
from repro.experiments.base import base_config
from repro.melissa.run import OnlineTrainingConfig
from repro.service.schemas import validate_submission
from repro.service.store import JobStore
from repro.solvers.heat2d import Heat2DConfig
from repro.storage import AppendLog, atomic_write
from repro.workflow.executor import JsonlCheckpoint
from repro.workflow.results import RunResult

SRC = Path(__file__).resolve().parents[2] / "src"


def cuts_inside_last_record(path: Path):
    """Cut ``path`` at every byte offset inside its last record, in turn.

    Yields whether the cut record is still intact (only its newline lost).
    """
    data = path.read_bytes()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    for offset in range(start, len(data)):
        path.write_bytes(data[:offset])
        yield offset == len(data) - 1


def _run(name: str) -> RunResult:
    return RunResult(name=name, config={"hidden_size": 8}, metrics={"final_train_loss": 0.25})


def test_run_records_survive_a_cut_at_every_byte(tmp_path):
    path = tmp_path / "runs.jsonl"
    checkpoint = JsonlCheckpoint(path)
    for name in "abc":
        checkpoint.append(_run(name))
    for intact in cuts_inside_last_record(path):
        JsonlCheckpoint(path).append(_run("d"))
        loaded = JsonlCheckpoint(path).load()
        assert list(loaded) == ["a", "b"] + ["c"] * intact + ["d"]
        assert loaded["d"] == _run("d")


def test_manifest_survives_a_cut_at_every_byte(tmp_path):
    path = tmp_path / "manifest.jsonl"
    manifest = CampaignManifest(path)
    manifest.append("campaign_started", digest="abc")
    manifest.append("node_finished", node="first", runs=1)
    manifest.append("node_started", node="second", attempt=1)
    for intact in cuts_inside_last_record(path):
        CampaignManifest(path).append("node_finished", node="second", runs=1)
        events = CampaignManifest(path).load()
        assert [e["event"] for e in events] == (
            ["campaign_started", "node_finished"] + ["node_started"] * intact + ["node_finished"]
        )
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert CampaignManifest(path).completed_nodes() == {"first", "second"}


def test_manifest_with_sorted_keys_loads_and_continues(tmp_path):
    # earlier manifests were written with sorted keys; they stay readable
    path = tmp_path / "manifest.jsonl"
    path.write_text(
        '{"digest": "abc", "event": "campaign_started", "pid": 7, "seq": 0, "ts": 1.0}\n'
        '{"event": "node_finished", "node": "first", "pid": 7, "runs": 1, "seq": 1, "ts": 2.0}\n'
    )
    manifest = CampaignManifest(path)
    assert manifest.spec_digest() == "abc"
    manifest.append("node_finished", node="second", runs=1)
    assert [e["seq"] for e in manifest.load()] == [0, 1, 2]
    assert manifest.completed_nodes() == {"first", "second"}


def test_job_progress_survives_a_cut_at_every_byte(tmp_path):
    root = tmp_path / "svc"
    payload = {
        "study_name": "crash",
        "config": base_config("smoke").to_dict(),
        "configurations": [{"hidden_size": 8}],
    }
    record, _ = JobStore(root).submit(validate_submission(payload))
    JobStore(root).claim_next(timeout=0)
    path = JobStore(root).progress_path(record.id)
    for intact in cuts_inside_last_record(path):
        JobStore(root).append_event(record.id, "interrupted", reason="server restart")
        events = JobStore(root).events(record.id)
        assert [e["event"] for e in events] == ["queued"] + ["started"] * intact + ["interrupted"]
        assert [e["seq"] for e in events] == list(range(len(events)))


def test_append_log_counts_intact_records_and_skips_torn_ones(tmp_path, caplog):
    log = AppendLog(tmp_path / "log.jsonl")
    assert len(log) == 0 and list(log.records()) == []
    log.append({"n": 0})
    with log.path.open("a") as stream:
        stream.write('{"n": ')  # a kill mid-append
    log.append({"n": 1})
    assert len(log) == 2
    with caplog.at_level("WARNING", logger="repro.storage"):
        assert list(AppendLog(log.path).records()) == [{"n": 0}, {"n": 1}]
    assert str(log.path) in caplog.text
    assert len(AppendLog(log.path)) == 2


class TestAtomicWrite:
    def test_writes_text_and_bytes_creating_the_parent(self, tmp_path):
        target = tmp_path / "deep" / "dir" / "file.json"
        assert atomic_write(target, "{}") == target
        assert target.read_text() == "{}"
        atomic_write(target, b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"
        assert os.listdir(target.parent) == ["file.json"]

    def test_failed_rename_keeps_old_content_and_leaves_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "job.json"
        atomic_write(target, "old")

        def interrupted(src, dst):
            assert Path(src).read_text() == "new"  # the temp file was fully written
            raise OSError("interrupted before rename")

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(OSError, match="interrupted"):
            atomic_write(target, "new")
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["job.json"]

    def test_failed_sync_keeps_old_content_and_leaves_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "job.json"
        atomic_write(target, "old")
        def failing_sync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", failing_sync)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write(target, "new")
        assert target.read_text() == "old"
        assert os.listdir(tmp_path) == ["job.json"]


def test_killed_pointer_write_is_cleaned_by_next_pruning_save(tmp_path):
    """A writer SIGKILLed between temp write and rename leaves its temp file;
    the next ``save_session(..., keep=...)`` removes it."""
    config = OnlineTrainingConfig(
        method="random",
        heat=Heat2DConfig(grid_size=6, n_timesteps=5),
        n_simulations=8,
        hidden_size=8,
        n_hidden_layers=1,
        batch_size=8,
        reservoir_capacity=40,
        reservoir_watermark=8,
        max_iterations=20,
        n_validation_trajectories=2,
        seed=3,
    )
    session = TrainingSession(config)
    session.tick()
    save_session(session, tmp_path)
    killed_writer = (
        "import os, signal, sys\n"
        "from repro import storage\n"
        "storage.os.replace = lambda src, dst: os.kill(os.getpid(), signal.SIGKILL)\n"
        "storage.atomic_write(sys.argv[1], '{}')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    completed = subprocess.run(
        [sys.executable, "-c", killed_writer, str(tmp_path / "latest.json")], env=env
    )
    assert completed.returncode == -signal.SIGKILL
    leftovers = {p.name for p in tmp_path.iterdir()} - {"latest.json"}
    assert any(name.startswith("latest.json") for name in leftovers)
    session.tick()
    saved = save_session(session, tmp_path, keep=2)
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith("latest.json")) == [
        "latest.json"
    ]
    assert latest_snapshot(tmp_path) == saved
