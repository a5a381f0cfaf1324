"""Maintained bookkeeping counters equal an O(n) recount, tick after tick.

The launcher, the batch scheduler and the reservoir keep O(1) counters (the
running set, finished/queued/running counts, the unseen-entry count) so the
session loop never scans every simulation, job or buffer row per tick.  These
tests recount each quantity from the full ledgers after every tick of Breed
smoke sessions — including sessions restored mid-run with
``load_state_dict`` — and require exact agreement.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import TrainingSession
from repro.experiments.base import base_config
from repro.melissa.launcher import SimulationState
from repro.melissa.scheduler import BatchScheduler, JobState

#: the smoke preset, plus a variant whose tiny reservoir fills up, so
#: eviction and back-pressure are exercised too
VARIANTS = {
    "smoke": {},
    "tight_reservoir": {
        "reservoir_capacity": 48,
        "reservoir_watermark": 40,
        "job_limit": 8,
        "timesteps_per_tick": 3,
        "batch_size": 8,
        "train_iterations_per_tick": 1,
    },
}


def _config(variant: str, seed: int = 2):
    config = base_config("smoke", method="breed", seed=seed)
    overrides = dict(max_iterations=120, n_validation_trajectories=2)
    overrides.update(VARIANTS[variant])
    return dataclasses.replace(config, **overrides)


def assert_counters_match_recount(session: TrainingSession) -> None:
    launcher, scheduler, reservoir = session.launcher, session.scheduler, session.reservoir
    records = launcher.records

    # Launcher: running ids in id order, per-state counts, steerable tail.
    running = [sid for sid in sorted(records) if records[sid].state == SimulationState.RUNNING]
    assert [client.simulation_id for client in launcher.running_clients()] == running
    for state in SimulationState:
        assert launcher.count_state(state) == sum(1 for r in records.values() if r.state == state)
    finished = sum(1 for r in records.values() if r.state == SimulationState.FINISHED)
    assert launcher.all_finished == (finished == launcher.budget)
    threshold = launcher.highest_submitted_id + launcher.job_limit
    assert launcher.steerable_simulation_ids() == sorted(
        sid
        for sid, record in records.items()
        if record.state == SimulationState.PENDING and sid >= threshold
    )

    # Scheduler: queued/running counts.
    assert scheduler.n_queued == len(scheduler.jobs_in_state(JobState.QUEUED))
    assert scheduler.n_running == len(scheduler.jobs_in_state(JobState.RUNNING))

    # Reservoir: unseen entries.
    assert reservoir.n_unseen == int(np.count_nonzero(reservoir.seen_counts() == 0))
    assert reservoir.can_accept() == (
        not reservoir.is_full or reservoir.n_unseen < len(reservoir)
    )

    # Breed tracker: observed-simulation count.
    tracker = session.controller.sampler.tracker
    assert tracker.n_observed == len(tracker.observed_ids())


def _drive(session: TrainingSession, max_ticks: int = 10_000) -> int:
    """Tick with a recount after each tick; returns the back-pressured ticks
    (those that ended with messages the full reservoir could not take)."""
    ticks = blocked = 0
    while ticks < max_ticks and not session.should_stop():
        running = session.tick()
        assert_counters_match_recount(session)
        ticks += 1
        blocked += bool(session.pending_messages)
        if not running:
            break
    return blocked


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_counters_match_recount_after_every_tick(variant):
    session = TrainingSession(_config(variant))
    assert_counters_match_recount(session)
    blocked = _drive(session)
    assert session.server.iteration == session.config.max_iterations
    assert session.controller.records, "the session must steer at least once"
    if variant == "tight_reservoir":
        assert blocked > 0 and session.reservoir.n_evicted > 0


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("stop_after", [5, 40])
def test_counters_rebuilt_by_load_state_dict(variant, stop_after):
    config = _config(variant)
    source = TrainingSession(config)
    _drive(source, max_ticks=stop_after)
    restored = TrainingSession(config)
    restored.load_state_dict(source.state_dict())
    assert_counters_match_recount(restored)
    _drive(restored)
    assert restored.server.iteration == config.max_iterations


def test_scheduler_cancel_keeps_queue_counts():
    scheduler = BatchScheduler(job_limit=2, rng=np.random.default_rng(0), max_start_delay=3)
    for job_id in range(5):
        scheduler.submit(job_id)
    assert scheduler.cancel(3)
    assert not scheduler.cancel(3)
    for _ in range(6):
        scheduler.advance()
        assert scheduler.n_queued == len(scheduler.jobs_in_state(JobState.QUEUED))
        assert scheduler.n_running == len(scheduler.jobs_in_state(JobState.RUNNING))
        for job_id in scheduler.jobs_in_state(JobState.RUNNING)[:1]:
            scheduler.complete(job_id)
