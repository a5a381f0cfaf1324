"""Finiteness contract: a non-finite loss fails the run loudly, by name.

A NaN sample loss used to flow into the per-timestep running means and leave
those ``Q_j`` values NaN for good, while the run still reported success.  Now
the tracker rejects the batch (before touching any statistic), AMIS rejects
non-finite acquisition values, and the failure surfaces through the existing
failure handling of sessions and campaigns.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.api import TrainingSession
from repro.breed import (
    AdaptiveImportanceSampler,
    LossDeviationTracker,
    NonFiniteLossError,
    SampleLossObservation,
)
from repro.campaign import CampaignManifest, CampaignRunner, CampaignSpec
from repro.experiments.base import base_config
from repro.melissa.server import TrainingServer
from repro.sampling.bounds import HEAT2D_BOUNDS

POISONED_ITERATION = 12
NONFINITE_COUNTER = "repro_breed_nonfinite_total"


def _smoke_config(**overrides):
    config = base_config("smoke", method="breed", seed=3)
    fields = dict(max_iterations=30, n_validation_trajectories=2)
    fields.update(overrides)
    return dataclasses.replace(config, **fields)


@pytest.fixture
def poisoned_training(monkeypatch):
    """Make one sample loss of one training batch NaN; record whose it was."""
    poisoned_ids = []
    original = TrainingServer._optimize

    def optimize(self, batch):
        loss, per_sample = original(self, batch)
        if self.iteration + 1 == POISONED_ITERATION:
            per_sample = per_sample.copy()
            per_sample[3] = np.nan
            poisoned_ids.append(int(batch.simulation_ids[3]))
        return loss, per_sample

    monkeypatch.setattr(TrainingServer, "_optimize", optimize)
    return poisoned_ids


@pytest.fixture
def metrics_on():
    """A process-wide metrics registry for one test, then the no-op default."""
    telemetry.configure(metrics=True)
    yield telemetry.metrics()
    telemetry.disable()


class TestTracker:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch_with_non_finite_loss_raises_before_any_update(self, bad):
        tracker = LossDeviationTracker()
        for sid in range(4):
            tracker.register_parameters(sid, np.full(2, float(sid)))
        tracker.observe_batch(1, [0, 1, 2], [0, 0, 1], [0.1, 0.5, 0.9])
        before = tracker.state_dict()
        with pytest.raises(NonFiniteLossError) as info:
            tracker.observe_batch(2, [3, 1, 2, 1], [0, 1, 1, 2], [0.2, bad, 0.4, bad])
        assert info.value.iteration == 2
        assert info.value.simulation_ids == [1]
        assert "iteration 2" in str(info.value)
        after = tracker.state_dict()
        assert after["n_observations"] == before["n_observations"]
        assert after["update_counter"] == before["update_counter"]
        for got, want in zip(after["records"], before["records"]):
            np.testing.assert_array_equal(got["means"], want["means"])
            np.testing.assert_array_equal(got["counts"], want["counts"])
        assert all(np.isfinite(q) for q in tracker.all_q_values().values())

    def test_single_observation_raise_is_counted(self, metrics_on):
        tracker = LossDeviationTracker()
        observation = SampleLossObservation(
            simulation_id=0, timestep=0, iteration=5, sample_loss=np.nan, batch_mean=0.1, batch_std=0.2
        )
        with pytest.raises(NonFiniteLossError):
            tracker.observe(observation)
        assert metrics_on.counter_values()[NONFINITE_COUNTER] == 1.0


class TestAMIS:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_propose_rejects_non_finite_q_values(self, bad):
        sampler = AdaptiveImportanceSampler(HEAT2D_BOUNDS)
        locations = np.full((3, 5), 300.0)
        with pytest.raises(NonFiniteLossError, match=r"\[1\]"):
            sampler.propose(
                locations,
                np.array([0.5, bad, 0.2]),
                n_samples=4,
                concentrate_probability=0.5,
                rng=np.random.default_rng(0),
            )

    def test_propose_raise_is_counted(self, metrics_on):
        sampler = AdaptiveImportanceSampler(HEAT2D_BOUNDS)
        with pytest.raises(NonFiniteLossError):
            sampler.propose(
                np.full((2, 5), 300.0),
                np.array([np.inf, 0.2]),
                n_samples=4,
                concentrate_probability=0.5,
                rng=np.random.default_rng(0),
            )
        assert metrics_on.counter_values()[NONFINITE_COUNTER] == 1.0


class TestSessionAndStudy:
    def test_smoke_session_with_nan_loss_raises(self, poisoned_training):
        session = TrainingSession(_smoke_config())
        with pytest.raises(NonFiniteLossError) as info:
            session.run()
        assert info.value.iteration == POISONED_ITERATION
        assert info.value.simulation_ids == poisoned_training
        assert session.server.iteration == POISONED_ITERATION

    def test_smoke_session_counts_the_non_finite_batch(self, poisoned_training, metrics_on):
        session = TrainingSession(_smoke_config())
        with pytest.raises(NonFiniteLossError):
            session.run()
        assert metrics_on.counter_values()[NONFINITE_COUNTER] == 1.0

    def test_finite_session_leaves_counter_untouched(self, metrics_on):
        TrainingSession(_smoke_config()).run()
        assert NONFINITE_COUNTER not in metrics_on.counter_values()

    def test_campaign_records_the_run_as_failed(self, poisoned_training, tmp_path):
        spec = CampaignSpec.from_dict(
            {
                "name": "nonfinite",
                "config": _smoke_config().to_dict(),
                "nodes": [{"name": "only", "configurations": [{}]}],
            }
        )
        outcome = CampaignRunner(spec, tmp_path / "camp", backend="serial").run()
        assert not outcome.ok
        assert outcome.states == {"only": "failed"}
        events = CampaignManifest(tmp_path / "camp" / "manifest.jsonl").load()
        failed = [e for e in events if e["event"] == "node_failed"]
        assert failed and failed[-1]["error"].startswith("NonFiniteLossError")
