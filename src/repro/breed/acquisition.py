"""Loss-deviation based acquisition metric (Section 3.1, Eqs. 4–6).

Breed needs a per-parameter-vector informativeness score ``Q_j`` that can be
computed *only* from quantities already available during training (per-sample
losses of each batch), is comparable across NN iterations, and requires
O(1) memory per seen sample.  The paper's construction:

* for every sample ``x_{j,t}`` appearing in batch ``b_i`` with per-sample loss
  ``l^{(i)}_{jt}``, compute the positive normalised deviation from the batch
  statistics (Eq. 4)::

      δ^{(i)}_{jt} = max(l^{(i)}_{jt} − μ(l^{(i)}), 0) / σ(l^{(i)})

* average the deviations across the batches the sample appeared in (the set
  ``I_{jt}``) and then across time steps (Eqs. 5–6)::

      Q_j = (1/T) Σ_t (1/|I_{jt}|) Σ_{i∈I_{jt}} δ^{(i)}_{jt}

Both averages are maintained incrementally ("Not to store all the values, we
iteratively update the statistic upon the availability of new values").

Storage is struct-of-arrays.  Every simulation id owns one *row*, assigned in
registration order; :meth:`LossDeviationTracker.reassign_parameters` keeps
the row and zeroes it.  Per row the tracker holds the parameter vector, the
update-recency stamp and the observation count, and per ``(row, timestep)``
cell the running mean and count of the deviations (dense ``(rows, T)`` arrays,
grown by doubling).  A per-row list of timesteps in first-seen order records
the order the cells were created in.

Two orderings are part of the bit-identical resume contract and are kept
exactly as the original one-object-per-sample implementation had them:

* a batch is applied sample by sample in batch order: cells hit more than
  once in one batch are updated rank by rank (first occurrence, second, …)
  with the same ``mean += (δ − mean) / count`` expression, and
* ``Q_j`` averages its per-timestep means in first-seen order, so the
  floating-point summation order of ``np.mean`` does not change.

Non-finite sample losses raise :class:`NonFiniteLossError` instead of
silently poisoning ``Q_j`` (and with it every later steering decision).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["NonFiniteLossError", "SampleLossObservation", "LossDeviationTracker"]


class NonFiniteLossError(FloatingPointError):
    """A training loss (or a statistic derived from it) is NaN or infinite.

    Attributes
    ----------
    iteration:
        NN iteration of the offending batch (``None`` when not known).
    simulation_ids:
        Simulations whose samples carried the non-finite values.
    """

    def __init__(
        self, message: str, iteration: Optional[int] = None, simulation_ids: Sequence[int] = ()
    ) -> None:
        super().__init__(message)
        self.iteration = iteration
        self.simulation_ids = [int(sid) for sid in simulation_ids]


@dataclass(frozen=True)
class SampleLossObservation:
    """One per-sample loss observation from one training batch.

    Attributes
    ----------
    simulation_id:
        Parameter-vector index ``j``.
    timestep:
        Time step ``t`` of the sample within its trajectory.
    iteration:
        NN training iteration ``i`` of the batch.
    sample_loss:
        ``l^{(i)}_{jt}``.
    batch_mean, batch_std:
        ``μ(l^{(i)})`` and ``σ(l^{(i)})`` of the batch the sample belonged to.
    """

    simulation_id: int
    timestep: int
    iteration: int
    sample_loss: float
    batch_mean: float
    batch_std: float

    def deviation(self, epsilon: float = 1e-12) -> float:
        """Eq. 4: positive deviation normalised by the batch standard deviation."""
        sigma = self.batch_std if self.batch_std > epsilon else epsilon
        return max(self.sample_loss - self.batch_mean, 0.0) / sigma


def _occurrence_ranks(keys: np.ndarray) -> Optional[np.ndarray]:
    """Per element, how many equal keys precede it; ``None`` when all are unique."""
    ordered = np.sort(keys)
    if not (ordered[1:] == ordered[:-1]).any():
        return None
    order = np.argsort(keys, kind="stable")
    starts = np.r_[True, keys[order][1:] != keys[order][:-1]]
    positions = np.arange(keys.size)
    ranks = np.empty(keys.size, dtype=np.int64)
    ranks[order] = positions - np.maximum.accumulate(np.where(starts, positions, 0))
    return ranks


#: per-simulation arrays (leading axis: row) and per-(row, timestep) arrays
_ROW_ARRAYS = ("_parameters", "_last_update_order", "_row_observations", "_n_timesteps")
_CELL_ARRAYS = ("_timestep_order", "_means", "_counts")


class LossDeviationTracker:
    """Maintains ``Q_j`` for every parameter vector whose samples were trained on.

    The tracker also keeps the order in which simulations last received an
    update, which the AMIS step uses to select its *window* (the last ``N``
    simulations "in order of Q_j value updates", Section 3.2).
    """

    def __init__(self, epsilon: float = 1e-12) -> None:
        self._epsilon = epsilon
        self._update_counter = 0
        #: total number of per-sample observations ingested
        self.n_observations = 0
        #: number of simulations with at least one observation
        self.n_observed = 0
        self._ids: List[int] = []
        self._rows: Dict[int, int] = {}
        self._allocate(0, 0, None)

    # ------------------------------------------------------------- storage
    def _allocate(self, rows: int, columns: int, parameter_shape: Optional[Tuple[int, ...]]) -> None:
        self._parameter_shape = parameter_shape
        self._parameters = (
            None if parameter_shape is None else np.zeros((rows, *parameter_shape), dtype=np.float64)
        )
        self._last_update_order = np.full(rows, -1, dtype=np.int64)
        self._row_observations = np.zeros(rows, dtype=np.int64)
        self._n_timesteps = np.zeros(rows, dtype=np.int64)
        self._timestep_order = np.zeros((rows, columns), dtype=np.int64)
        self._means = np.zeros((rows, columns), dtype=np.float64)
        self._counts = np.zeros((rows, columns), dtype=np.int64)
        # Flat views: a (row, timestep) cell is ``row * columns + timestep``.
        self._means_flat = self._means.reshape(-1)
        self._counts_flat = self._counts.reshape(-1)

    def _grow(self, rows: int, columns: int) -> None:
        """Reallocate to at least ``rows`` x ``columns``, doubling each axis."""
        old_rows, old_columns = self._means.shape
        new_rows = max(rows, 2 * old_rows, 16) if rows > old_rows else old_rows
        new_columns = max(columns, 2 * old_columns, 8) if columns > old_columns else old_columns
        old = {name: getattr(self, name) for name in _ROW_ARRAYS + _CELL_ARRAYS}
        self._allocate(new_rows, new_columns, self._parameter_shape)
        for name in _ROW_ARRAYS:
            if old[name] is not None:
                getattr(self, name)[:old_rows] = old[name]
        for name in _CELL_ARRAYS:
            getattr(self, name)[:old_rows, :old_columns] = old[name]

    def _checked_parameters(self, parameters: np.ndarray) -> np.ndarray:
        vector = np.asarray(parameters, dtype=np.float64)
        if self._parameter_shape is None:
            self._parameter_shape = vector.shape
            self._parameters = np.zeros((self._means.shape[0], *vector.shape), dtype=np.float64)
        elif vector.shape != self._parameter_shape:
            raise ValueError(
                f"parameter vector shape {vector.shape} does not match the tracker's "
                f"{self._parameter_shape}"
            )
        return vector

    def _append_row(self, simulation_id: int, parameters: np.ndarray) -> int:
        vector = self._checked_parameters(parameters)
        row = len(self._ids)
        if row >= self._means.shape[0]:
            self._grow(row + 1, self._means.shape[1])
        assert self._parameters is not None
        self._parameters[row] = vector
        self._ids.append(int(simulation_id))
        self._rows[int(simulation_id)] = row
        return row

    # -------------------------------------------------------------- ingest
    def register_parameters(self, simulation_id: int, parameters: np.ndarray) -> None:
        """Associate a parameter vector with a simulation id (idempotent)."""
        if simulation_id not in self._rows:
            self._append_row(simulation_id, parameters)

    def reassign_parameters(self, simulation_id: int, parameters: np.ndarray) -> None:
        """Overwrite a simulation's parameter vector after a steering update.

        A steered simulation has, by construction, never been executed, so any
        previously accumulated statistics for the id belong to the *old*
        parameters and are discarded along with them.
        """
        row = self._rows.get(simulation_id)
        if row is None:
            self._append_row(simulation_id, parameters)
            return
        vector = self._checked_parameters(parameters)
        assert self._parameters is not None
        self._parameters[row] = vector
        observations = int(self._row_observations[row])
        if observations:
            # Only an observed row carries statistics (steering normally
            # rewrites pending, never-observed simulations: nothing to zero).
            self.n_observations -= observations
            self.n_observed -= 1
            self._last_update_order[row] = -1
            self._row_observations[row] = 0
            self._n_timesteps[row] = 0
            self._timestep_order[row] = 0
            self._means[row] = 0.0
            self._counts[row] = 0

    def observe(self, observation: SampleLossObservation, parameters: Optional[np.ndarray] = None) -> float:
        """Ingest one observation; returns the deviation value δ (Eq. 4)."""
        deviation = observation.deviation(self._epsilon)
        if not math.isfinite(deviation):
            raise NonFiniteLossError(
                f"non-finite loss deviation at iteration {observation.iteration} "
                f"for simulation {observation.simulation_id}",
                iteration=observation.iteration,
                simulation_ids=[observation.simulation_id],
            )
        self._ingest(
            [int(observation.simulation_id)],
            np.array([observation.timestep], dtype=np.int64),
            np.array([deviation], dtype=np.float64),
            None if parameters is None else [parameters],
        )
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
        logging and for the Fig. 6 correlation analysis).  Raises
        :class:`NonFiniteLossError` — before touching any statistic — when a
        sample loss is NaN or infinite.
        """
        losses = np.asarray(sample_losses, dtype=np.float64)
        n = losses.size
        if n == 0:
            return 0.0, 0.0
        ids = np.asarray(simulation_ids, dtype=np.int64).tolist()
        # μ and σ exactly as ndarray.mean()/std() compute them (pairwise sum,
        # divide, centre, square, pairwise sum, divide, sqrt), sharing the
        # centred losses with Eq. 4.
        mean = float(np.add.reduce(losses)) / n
        std = math.nan
        if math.isfinite(mean):
            centred = losses - mean
            std = math.sqrt(float(np.add.reduce(centred * centred)) / n)
        if not math.isfinite(std):
            bad = sorted({ids[index] for index in np.flatnonzero(~np.isfinite(losses)).tolist()})
            raise NonFiniteLossError(
                f"non-finite sample loss at iteration {iteration} for simulations {bad}",
                iteration=int(iteration),
                simulation_ids=bad,
            )
        sigma = std if std > self._epsilon else self._epsilon
        deviations = np.maximum(centred, 0.0) / sigma
        self._ingest(ids, np.asarray(timesteps, dtype=np.int64), deviations, parameters)
        return mean, std

    def _ingest(
        self,
        simulation_ids: List[int],
        timesteps: np.ndarray,
        deviations: np.ndarray,
        parameters: Optional[Sequence[np.ndarray]],
    ) -> None:
        """Apply per-sample deviations as if one at a time, in batch order."""
        if timesteps.min() < 0:
            raise ValueError("timesteps must be non-negative")
        lookup = self._rows
        rows_list = [lookup.get(sid, -1) for sid in simulation_ids]
        if -1 in rows_list:
            for index, sid in enumerate(simulation_ids):
                if rows_list[index] >= 0:
                    continue
                row = lookup.get(sid)
                if row is None:
                    if parameters is None:
                        raise KeyError(
                            f"simulation {sid} unknown; "
                            "call register_parameters first or pass parameters"
                        )
                    row = self._append_row(sid, parameters[index])
                rows_list[index] = row
        n = len(rows_list)
        rows = np.array(rows_list, dtype=np.int64)
        top = int(timesteps.max())
        if top >= self._means.shape[1]:
            self._grow(self._means.shape[0], top + 1)
        columns = self._means.shape[1]
        keys = rows * columns + timesteps

        # Eq. 5: running mean per (simulation, timestep) cell.  Cells hit
        # several times in one batch are updated rank by rank, so each cell
        # sees its deviations in batch order.
        ranks = _occurrence_ranks(keys)
        if ranks is None:
            self._update_cells(keys, deviations, rows, timesteps)
        else:
            for rank in range(int(ranks.max()) + 1):
                chosen = np.flatnonzero(ranks == rank)
                self._update_cells(keys[chosen], deviations[chosen], rows[chosen], timesteps[chosen])

        # Per-simulation observation counts and recency stamps: a row's stamp
        # is the counter value of its last sample in the batch (the stamps
        # increase along the batch, so the maximum is the last).
        np.add.at(self._row_observations, rows, 1)
        stamps = np.arange(self._update_counter + 1, self._update_counter + n + 1)
        np.maximum.at(self._last_update_order, rows, stamps)
        self._update_counter += n
        self.n_observations += n

    def _update_cells(
        self, cells: np.ndarray, values: np.ndarray, rows: np.ndarray, timesteps: np.ndarray
    ) -> None:
        """One ``mean += (δ − mean) / count`` step on distinct flat cells."""
        counts = self._counts_flat[cells] + 1
        self._counts_flat[cells] = counts
        current = self._means_flat[cells]
        self._means_flat[cells] = current + (values - current) / counts
        # Cells created now join their row's first-seen order, in batch order;
        # a row's first cell makes its simulation observed.
        fresh = counts == 1
        if fresh.any():
            order, lengths = self._timestep_order, self._n_timesteps
            for row, timestep in zip(rows[fresh].tolist(), timesteps[fresh].tolist()):
                length = lengths[row]
                if length == 0:
                    self.n_observed += 1
                order[row, length] = timestep
                lengths[row] = length + 1

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Every per-simulation statistic, preserving both orders.

        Record order (row order) and per-timestep order (first-seen order) are
        preserved exactly: :meth:`window` feeds ``q_value`` means into AMIS,
        and ``q_value`` averages per-timestep means in first-seen order —
        floating-point summation order is part of the bit-identical resume
        contract.
        """
        records = []
        for row, sid in enumerate(self._ids):
            assert self._parameters is not None
            steps = self._timestep_order[row, : self._n_timesteps[row]].copy()
            records.append(
                {
                    "simulation_id": sid,
                    "parameters": self._parameters[row].copy(),
                    "last_update_order": int(self._last_update_order[row]),
                    "n_observations": int(self._row_observations[row]),
                    "timesteps": steps,
                    "means": self._means[row, steps],
                    "counts": self._counts[row, steps],
                }
            )
        return {
            "update_counter": self._update_counter,
            "n_observations": self.n_observations,
            "records": records,
        }

    def load_state_dict(self, state: dict) -> None:
        payloads = list(state["records"])
        timesteps = [np.asarray(p["timesteps"], dtype=np.int64) for p in payloads]
        columns = max((int(steps.max()) + 1 for steps in timesteps if steps.size), default=0)
        shape = None
        if payloads:
            shape = np.asarray(payloads[0]["parameters"], dtype=np.float64).shape
        self._allocate(len(payloads), columns, shape)
        self._ids = []
        self._rows = {}
        for payload, steps in zip(payloads, timesteps):
            row = self._append_row(int(payload["simulation_id"]), payload["parameters"])
            self._last_update_order[row] = int(payload["last_update_order"])
            self._row_observations[row] = int(payload["n_observations"])
            self._n_timesteps[row] = steps.size
            self._timestep_order[row, : steps.size] = steps
            self._means[row, steps] = np.asarray(payload["means"], dtype=np.float64)
            self._counts[row, steps] = np.asarray(payload["counts"], dtype=np.int64)
        self._update_counter = int(state["update_counter"])
        self.n_observations = int(state["n_observations"])
        self.n_observed = int(np.count_nonzero(self._row_observations[: len(self._ids)] > 0))

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, simulation_id: int) -> bool:
        return simulation_id in self._rows

    def _q(self, row: int) -> float:
        """Eqs. 5–6: average of the per-timestep mean deviations of one row."""
        n = self._n_timesteps[row]
        if n == 0:
            return 0.0
        return float(np.mean(self._means[row, self._timestep_order[row, :n]]))

    def q_value(self, simulation_id: int) -> float:
        row = self._rows.get(simulation_id)
        return self._q(row) if row is not None else 0.0

    def parameters(self, simulation_id: int) -> np.ndarray:
        return self._parameters[self._rows[simulation_id]].copy()  # type: ignore[index]

    def _observed_rows(self) -> np.ndarray:
        return np.flatnonzero(self._row_observations[: len(self._ids)] > 0)

    def observed_ids(self) -> List[int]:
        """Simulation ids with at least one ingested observation."""
        return [self._ids[row] for row in self._observed_rows().tolist()]

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
        observed = self._observed_rows()
        if observed.size == 0:
            return np.empty((0, 0)), np.empty((0,)), []
        recency = np.argsort(-self._last_update_order[observed], kind="stable")
        selected = observed[recency[:size]].tolist()
        assert self._parameters is not None
        locations = self._parameters[selected]
        q_values = np.array([self._q(row) for row in selected], dtype=np.float64)
        return locations, q_values, [self._ids[row] for row in selected]

    def all_q_values(self) -> Dict[int, float]:
        return {self._ids[row]: self._q(row) for row in self._observed_rows().tolist()}

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
