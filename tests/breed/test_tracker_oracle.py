"""Exact-equality oracle for the struct-of-arrays loss-deviation tracker.

The reference below is the original one-record-per-simulation tracker (one
``OnlineMean`` object per timestep, updated one sample at a time), frozen
verbatim.  Seeded random batch streams are replayed against both
implementations and every observable — ``state_dict()`` arrays byte for byte,
``window(N)``, ``all_q_values()`` and the observation counters — must be
*equal*, with no tolerance: the array layout is an implementation detail, the
floating-point results are part of the bit-identical resume contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.breed.acquisition import LossDeviationTracker, SampleLossObservation
from repro.utils.moving_average import OnlineMean

# ---------------------------------------------------------------------------
# Frozen reference implementation
# ---------------------------------------------------------------------------


@dataclass
class _SimulationRecord:
    """Incremental statistics for one parameter vector ``λ_j``."""

    parameters: np.ndarray
    per_timestep: Dict[int, OnlineMean] = field(default_factory=dict)
    last_update_order: int = -1
    n_observations: int = 0

    def q_value(self) -> float:
        """Eq. 5–6: average of the per-timestep mean deviations."""
        if not self.per_timestep:
            return 0.0
        return float(np.mean([m.mean for m in self.per_timestep.values()]))


class ReferenceTracker:
    """The dict-of-records tracker, frozen as the oracle (do not optimise)."""

    def __init__(self, epsilon: float = 1e-12) -> None:
        self._records: Dict[int, _SimulationRecord] = {}
        self._epsilon = epsilon
        self._update_counter = 0
        #: total number of per-sample observations ingested
        self.n_observations = 0

    # -------------------------------------------------------------- ingest
    def register_parameters(self, simulation_id: int, parameters: np.ndarray) -> None:
        """Associate a parameter vector with a simulation id (idempotent)."""
        if simulation_id not in self._records:
            self._records[simulation_id] = _SimulationRecord(
                parameters=np.asarray(parameters, dtype=np.float64).copy()
            )

    def reassign_parameters(self, simulation_id: int, parameters: np.ndarray) -> None:
        """Overwrite a simulation's parameter vector after a steering update.

        A steered simulation has, by construction, never been executed, so any
        previously accumulated statistics for the id belong to the *old*
        parameters and are discarded along with them.
        """
        record = self._records.get(simulation_id)
        params = np.asarray(parameters, dtype=np.float64).copy()
        if record is None:
            self._records[simulation_id] = _SimulationRecord(parameters=params)
            return
        self.n_observations -= record.n_observations
        self._records[simulation_id] = _SimulationRecord(parameters=params)

    def observe(self, observation: SampleLossObservation, parameters: Optional[np.ndarray] = None) -> float:
        """Ingest one observation; returns the deviation value δ (Eq. 4)."""
        record = self._records.get(observation.simulation_id)
        if record is None:
            if parameters is None:
                raise KeyError(
                    f"simulation {observation.simulation_id} unknown; "
                    "call register_parameters first or pass parameters"
                )
            self.register_parameters(observation.simulation_id, parameters)
            record = self._records[observation.simulation_id]
        deviation = observation.deviation(self._epsilon)
        tracker = record.per_timestep.get(observation.timestep)
        if tracker is None:
            tracker = OnlineMean()
            record.per_timestep[observation.timestep] = tracker
        tracker.update(deviation)
        self._update_counter += 1
        record.last_update_order = self._update_counter
        record.n_observations += 1
        self.n_observations += 1
        return deviation

    def observe_batch(
        self,
        iteration: int,
        simulation_ids: Sequence[int],
        timesteps: Sequence[int],
        sample_losses: Sequence[float],
        parameters: Optional[Sequence[np.ndarray]] = None,
    ) -> Tuple[float, float]:
        """Ingest a whole training batch at once.

        Returns the batch mean/std used for the deviations (convenient for
        logging and for the Fig. 6 correlation analysis).
        """
        losses = np.asarray(sample_losses, dtype=np.float64)
        if losses.size == 0:
            return 0.0, 0.0
        mean = float(losses.mean())
        std = float(losses.std())
        for index, (sim_id, timestep, loss) in enumerate(zip(simulation_ids, timesteps, losses)):
            params = None if parameters is None else parameters[index]
            self.observe(
                SampleLossObservation(
                    simulation_id=int(sim_id),
                    timestep=int(timestep),
                    iteration=int(iteration),
                    sample_loss=float(loss),
                    batch_mean=mean,
                    batch_std=std,
                ),
                parameters=params,
            )
        return mean, std

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Every per-simulation statistic, preserving both dict orders.

        Record order and per-timestep order are preserved exactly:
        :meth:`window` feeds ``q_value`` means into AMIS, and
        :meth:`_SimulationRecord.q_value` averages ``per_timestep`` values in
        insertion order — floating-point summation order is part of the
        bit-identical resume contract.
        """
        return {
            "update_counter": self._update_counter,
            "n_observations": self.n_observations,
            "records": [
                {
                    "simulation_id": sid,
                    "parameters": record.parameters.copy(),
                    "last_update_order": record.last_update_order,
                    "n_observations": record.n_observations,
                    "timesteps": np.array(list(record.per_timestep), dtype=np.int64),
                    "means": np.array([m.mean for m in record.per_timestep.values()], dtype=np.float64),
                    "counts": np.array([m.count for m in record.per_timestep.values()], dtype=np.int64),
                }
                for sid, record in self._records.items()
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        self._update_counter = int(state["update_counter"])
        self.n_observations = int(state["n_observations"])
        self._records = {}
        for payload in state["records"]:
            record = _SimulationRecord(
                parameters=np.asarray(payload["parameters"], dtype=np.float64).copy(),
                last_update_order=int(payload["last_update_order"]),
                n_observations=int(payload["n_observations"]),
            )
            for timestep, mean, count in zip(payload["timesteps"], payload["means"], payload["counts"]):
                tracker = OnlineMean()
                tracker.mean = float(mean)
                tracker.count = int(count)
                record.per_timestep[int(timestep)] = tracker
            self._records[int(payload["simulation_id"])] = record

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, simulation_id: int) -> bool:
        return simulation_id in self._records

    def q_value(self, simulation_id: int) -> float:
        record = self._records.get(simulation_id)
        return record.q_value() if record is not None else 0.0

    def parameters(self, simulation_id: int) -> np.ndarray:
        return self._records[simulation_id].parameters

    def observed_ids(self) -> List[int]:
        """Simulation ids with at least one ingested observation."""
        return [sid for sid, rec in self._records.items() if rec.n_observations > 0]

    def window(self, size: int) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """Return the last ``size`` observed simulations by update recency.

        Returns
        -------
        locations:
            Parameter vectors, shape ``(n, d)`` with ``n <= size``.
        q_values:
            Matching ``Q_j`` values, shape ``(n,)``.
        ids:
            Matching simulation ids.
        """
        if size <= 0:
            raise ValueError("window size must be positive")
        observed = [
            (rec.last_update_order, sid, rec) for sid, rec in self._records.items() if rec.n_observations > 0
        ]
        observed.sort(key=lambda item: item[0], reverse=True)
        selected = observed[:size]
        if not selected:
            return np.empty((0, 0)), np.empty((0,)), []
        ids = [sid for _, sid, _ in selected]
        locations = np.stack([rec.parameters for _, _, rec in selected], axis=0)
        q_values = np.array([rec.q_value() for _, _, rec in selected], dtype=np.float64)
        return locations, q_values, ids

    def all_q_values(self) -> Dict[int, float]:
        return {sid: rec.q_value() for sid, rec in self._records.items() if rec.n_observations > 0}

    def snapshot(self) -> Dict[str, float]:
        """Summary statistics for logging/monitoring."""
        q_values = list(self.all_q_values().values())
        if not q_values:
            return {"n_simulations": 0.0, "n_observations": float(self.n_observations)}
        arr = np.asarray(q_values)
        return {
            "n_simulations": float(len(q_values)),
            "n_observations": float(self.n_observations),
            "q_mean": float(arr.mean()),
            "q_std": float(arr.std()),
            "q_max": float(arr.max()),
        }


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def _assert_same_value(actual, expected, where: str) -> None:
    if isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), where
        assert actual.dtype == expected.dtype, where
        assert actual.shape == expected.shape, where
        assert actual.tobytes() == expected.tobytes(), where
    else:
        assert type(actual) is type(expected), where
        assert actual == expected, where


def assert_same_state(actual: dict, expected: dict) -> None:
    assert list(actual) == list(expected)
    _assert_same_value(actual["update_counter"], expected["update_counter"], "update_counter")
    _assert_same_value(actual["n_observations"], expected["n_observations"], "n_observations")
    assert len(actual["records"]) == len(expected["records"])
    for index, (got, want) in enumerate(zip(actual["records"], expected["records"])):
        assert list(got) == list(want)
        for key in want:
            _assert_same_value(got[key], want[key], f"records[{index}][{key!r}]")


def assert_equivalent(tracker: LossDeviationTracker, reference: ReferenceTracker) -> None:
    assert_same_state(tracker.state_dict(), reference.state_dict())
    assert tracker.n_observations == reference.n_observations
    assert tracker.n_observed == len(reference.observed_ids())
    assert tracker.observed_ids() == reference.observed_ids()
    assert len(tracker) == len(reference)
    got_q, want_q = tracker.all_q_values(), reference.all_q_values()
    assert list(got_q) == list(want_q)
    assert [np.float64(v).tobytes() for v in got_q.values()] == [
        np.float64(v).tobytes() for v in want_q.values()
    ]
    for size in (1, 3, 7, 1000):
        got, want = tracker.window(size), reference.window(size)
        assert got[2] == want[2]
        for got_array, want_array in zip(got[:2], want[:2]):
            _assert_same_value(got_array, want_array, f"window({size})")
    for sid in list(want_q)[:5]:
        assert np.float64(tracker.q_value(sid)).tobytes() == np.float64(reference.q_value(sid)).tobytes()


# ---------------------------------------------------------------------------
# Replays
# ---------------------------------------------------------------------------


def _replay(seed: int, n_sims: int, n_timesteps: int, batch: int, n_batches: int) -> None:
    """Drive both trackers through one seeded stream of every operation."""
    rng = np.random.default_rng(seed)
    dim = 3
    tracker, reference = LossDeviationTracker(), ReferenceTracker()
    for sid in range(n_sims):
        params = rng.random(dim)
        tracker.register_parameters(sid, params)
        reference.register_parameters(sid, params)
    next_new_id = n_sims
    # The timestep range widens over the stream, so later batches bring
    # timesteps no row has seen yet (and grow the dense arrays).
    for step in range(n_batches):
        horizon = max(1, min(n_timesteps, 1 + step * n_timesteps // max(1, n_batches // 2)))
        ids = rng.integers(0, n_sims, batch)
        steps = rng.integers(0, horizon, batch)
        losses = rng.exponential(1.0, batch)
        if step % 7 == 3:
            losses[: batch // 2] = losses[0]  # ties around the batch mean
        kind = step % 5
        if kind == 1:
            # Unknown ids registered through the ``parameters=`` path.
            ids[::3] = np.arange(next_new_id, next_new_id + len(ids[::3]))
            next_new_id += len(ids[::3])
            params = [rng.random(dim) for _ in range(batch)]
            got = tracker.observe_batch(step, ids, steps, losses, parameters=params)
            want = reference.observe_batch(step, ids, steps, losses, parameters=params)
        elif kind == 2:
            # Single-sample ingestion.
            for sid, t, loss in zip(ids[:4], steps[:4], losses[:4]):
                observation = SampleLossObservation(
                    simulation_id=int(sid),
                    timestep=int(t),
                    iteration=step,
                    sample_loss=float(loss),
                    batch_mean=0.9,
                    batch_std=0.4,
                )
                got = tracker.observe(observation)
                want = reference.observe(observation)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
            got = want = None
        else:
            got = tracker.observe_batch(step, ids, steps, losses)
            want = reference.observe_batch(step, ids, steps, losses)
        assert got == want
        if step % 6 == 5:
            # Steering rewrites pending simulations: observed, unobserved and
            # brand-new ids alike.
            for sid in (int(ids[0]), int(rng.integers(0, n_sims)), next_new_id):
                params = rng.random(dim)
                tracker.reassign_parameters(sid, params)
                reference.reassign_parameters(sid, params)
            next_new_id += 1
        if step % 9 == 8:
            # Restore both sides from the *reference* snapshot: the new
            # tracker must read the historical layout and continue identically.
            state = reference.state_dict()
            tracker = LossDeviationTracker()
            tracker.load_state_dict(state)
            reference = ReferenceTracker()
            reference.load_state_dict(state)
        if step % 9 == 4:
            state = tracker.state_dict()
            tracker = LossDeviationTracker()
            tracker.load_state_dict(state)
        assert_equivalent(tracker, reference)


@pytest.mark.parametrize("seed", range(6))
def test_random_streams_match_reference(seed):
    _replay(seed, n_sims=40, n_timesteps=12, batch=32, n_batches=60)


@pytest.mark.parametrize("seed", range(4))
def test_duplicate_keys_within_batches_match_reference(seed):
    # 3 simulations x 2 timesteps under a batch of 24: every batch repeats
    # (simulation, timestep) keys several times.
    _replay(100 + seed, n_sims=3, n_timesteps=2, batch=24, n_batches=40)


def test_session_shaped_stream_matches_reference():
    # Reservoir-like batches: unique (simulation, timestep) keys, paper-like
    # trajectory lengths and many simulations.
    _replay(7, n_sims=200, n_timesteps=30, batch=64, n_batches=45)


def test_empty_trackers_match():
    tracker, reference = LossDeviationTracker(), ReferenceTracker()
    assert_equivalent(tracker, reference)
    assert tracker.observe_batch(0, [], [], []) == reference.observe_batch(0, [], [], [])
    state = reference.state_dict()
    tracker.load_state_dict(state)
    assert_equivalent(tracker, reference)


def test_unknown_simulation_rejected_without_partial_update():
    tracker = LossDeviationTracker()
    tracker.register_parameters(0, np.zeros(2))
    before = tracker.state_dict()
    with pytest.raises(KeyError):
        tracker.observe_batch(1, [0, 5], [0, 0], [1.0, 2.0])
    assert_same_state(tracker.state_dict(), before)
