"""The reservoir: the server's bounded training buffer (Appendix A).

Behaviour reproduced from the paper and [Meyer et al., SC'23]:

* newly received samples are stored in the buffer; once the buffer is full
  they replace *already-seen* entries chosen at random,
* if every buffered sample is still unseen (the trainer has not consumed them
  yet), incoming data is rejected and the client executions are paused
  temporarily — this is the back-pressure that prevents training data from
  being dropped before ever being used,
* training does not start before the buffer holds at least ``watermark``
  unique samples,
* training batches are drawn uniformly at random from the buffer, so each
  sample can be reused by several batches (the per-entry ``seen_count`` makes
  that reuse measurable).

Storage is struct-of-arrays: inputs, targets, ids, timesteps and seen-counts
live in preallocated contiguous arrays, so the per-batch hot path
(:meth:`Reservoir.sample_batch`) is a fancy-indexed gather plus one vectorised
seen-count increment instead of a Python loop over entry objects — measured
severalfold faster at paper-scale batch sizes (see ``docs/PERFORMANCE.md``)
and bit-identical: the RNG call sequence and every stored float are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import telemetry

__all__ = ["ReservoirEntry", "ReservoirBatch", "Reservoir"]


@dataclass
class ReservoirEntry:
    """One buffered training sample (already normalised for the NN)."""

    simulation_id: int
    timestep: int
    x: np.ndarray
    y: np.ndarray
    seen_count: int = 0

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.float64).reshape(-1)
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)


@dataclass
class ReservoirBatch:
    """A training batch assembled from reservoir entries."""

    inputs: np.ndarray
    targets: np.ndarray
    simulation_ids: np.ndarray
    timesteps: np.ndarray

    def __len__(self) -> int:
        return self.inputs.shape[0]


class Reservoir:
    """Bounded random-replacement buffer with a training watermark.

    Parameters
    ----------
    capacity:
        Maximum number of buffered samples (the bounded-memory guarantee).
    watermark:
        Training is gated until this many samples have been buffered.
    rng:
        Generator used for eviction victims and batch draws; shared with the
        session's ``"reservoir"`` stream so runs stay deterministic.
    """

    def __init__(self, capacity: int, watermark: int, rng: np.random.Generator) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if watermark < 1:
            raise ValueError("watermark must be >= 1")
        if watermark > capacity:
            raise ValueError("watermark cannot exceed capacity")
        self.capacity = capacity
        self.watermark = watermark
        self._rng = rng
        # Struct-of-arrays storage; the payload arrays are allocated lazily on
        # the first put() (their width is the workload's encoding dimension).
        self._n = 0
        self._xs: Optional[np.ndarray] = None
        self._ys: Optional[np.ndarray] = None
        self._simulation_ids = np.zeros(capacity, dtype=np.int64)
        self._timesteps = np.zeros(capacity, dtype=np.int64)
        self._seen = np.zeros(capacity, dtype=np.int64)
        #: number of buffered entries never drawn into a batch (seen count 0)
        self._n_unseen = 0
        # --- statistics
        self.n_received = 0
        self.n_rejected = 0
        self.n_evicted = 0
        self.n_batches = 0
        # --- telemetry mirrors (observation only; no-ops unless enabled)
        # put() runs once per sample, so the ingest/reject/evict mirrors are
        # synced as deltas of the canonical totals at draw time rather than
        # incremented inline (sync_metrics), keeping the per-sample path free
        # of telemetry calls entirely.
        registry = telemetry.metrics()
        self._m_ingest = registry.counter(
            "repro_reservoir_ingest_total", help="samples offered to the reservoir"
        )
        self._m_rejected = registry.counter(
            "repro_reservoir_rejected_total", help="samples rejected (back-pressure)"
        )
        self._m_evicted = registry.counter(
            "repro_reservoir_evicted_total", help="entries replaced by reservoir sampling"
        )
        self._synced_received = 0
        self._synced_rejected = 0
        self._synced_evicted = 0
        self._m_draws = registry.counter(
            "repro_reservoir_draws_total", help="training batches drawn"
        )
        self._m_drawn_samples = registry.counter(
            "repro_reservoir_drawn_samples_total", help="samples gathered into training batches"
        )

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return self._n

    @property
    def is_full(self) -> bool:
        return self._n >= self.capacity

    @property
    def ready_for_training(self) -> bool:
        """True once the watermark has been reached at least once."""
        return self._n >= self.watermark

    @property
    def n_unseen(self) -> int:
        return self._n_unseen

    def seen_counts(self) -> np.ndarray:
        """Per-entry consumption counts (copy, in buffer order)."""
        return self._seen[: self._n].copy()

    def entries(self) -> Sequence[ReservoirEntry]:
        """Read-only snapshot of the buffered entries (used by tests/analysis).

        Payloads are copied: a snapshot must stay internally consistent even
        when a later eviction overwrites the underlying buffer row.
        """
        return tuple(
            ReservoirEntry(
                simulation_id=int(self._simulation_ids[i]),
                timestep=int(self._timesteps[i]),
                x=self._xs[i].copy(),
                y=self._ys[i].copy(),
                seen_count=int(self._seen[i]),
            )
            for i in range(self._n)
        )

    def can_accept(self) -> bool:
        """Whether a new sample would be stored rather than rejected."""
        if not self.is_full:
            return True
        return self.n_unseen < self._n

    # ---------------------------------------------------------------- writes
    def _allocate(self, x_dim: int, y_dim: int) -> None:
        self._xs = np.empty((self.capacity, x_dim), dtype=np.float64)
        self._ys = np.empty((self.capacity, y_dim), dtype=np.float64)

    def _store(self, index: int, simulation_id: int, timestep: int, x: np.ndarray, y: np.ndarray) -> None:
        assert self._xs is not None and self._ys is not None
        if x.shape[0] != self._xs.shape[1] or y.shape[0] != self._ys.shape[1]:
            raise ValueError(
                f"sample dimensions ({x.shape[0]}, {y.shape[0]}) do not match the "
                f"buffer layout ({self._xs.shape[1]}, {self._ys.shape[1]})"
            )
        self._xs[index] = x
        self._ys[index] = y
        self._simulation_ids[index] = simulation_id
        self._timesteps[index] = timestep
        self._seen[index] = 0

    def put(
        self,
        simulation_id: int,
        timestep: int,
        x: np.ndarray,
        y: np.ndarray,
    ) -> bool:
        """Insert a sample; returns ``False`` when rejected (clients must pause)."""
        self.n_received += 1
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if self._xs is None:
            self._allocate(x.shape[0], y.shape[0])
        if not self.is_full:
            self._store(self._n, simulation_id, timestep, x, y)
            self._n += 1
            self._n_unseen += 1
            return True
        # Full: replace a random already-seen entry; reject if every entry is unseen.
        if self._n_unseen == self._n:
            self.n_rejected += 1
            return False
        seen_indices = np.flatnonzero(self._seen[: self._n] > 0)
        victim = int(self._rng.choice(seen_indices))
        self._store(victim, simulation_id, timestep, x, y)
        self._n_unseen += 1
        self.n_evicted += 1
        return True

    # ---------------------------------------------------------------- reads
    def sample_batch(self, batch_size: int) -> Optional[ReservoirBatch]:
        """Draw a uniform random batch (without replacement within the batch).

        Returns ``None`` while the watermark has not been reached or when the
        buffer is empty.  When the buffer holds fewer samples than
        ``batch_size`` the whole buffer is returned (shuffled).  The gather is
        a single fancy-indexing pass over the contiguous buffer arrays.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.ready_for_training or self._n == 0:
            return None
        n = self._n
        take = min(batch_size, n)
        indices = self._rng.choice(n, size=take, replace=False)
        assert self._xs is not None and self._ys is not None
        xs = self._xs[indices]
        ys = self._ys[indices]
        sim_ids = self._simulation_ids[indices]
        steps = self._timesteps[indices]
        # Indices are unique (replace=False), so a vectorised += is exact.
        self._n_unseen -= int(np.count_nonzero(self._seen[indices] == 0))
        self._seen[indices] += 1
        self.n_batches += 1
        self._m_draws.inc()
        self._m_drawn_samples.inc(take)
        self.sync_metrics()
        return ReservoirBatch(inputs=xs, targets=ys, simulation_ids=sim_ids, timesteps=steps)

    def sync_metrics(self) -> None:
        """Push the ingest/reject/evict totals into the telemetry mirrors.

        Called after every batch draw (and by the session on completion), so
        the registry converges on the canonical totals without a telemetry
        call in the per-sample ``put`` path.
        """
        if self.n_received != self._synced_received:
            self._m_ingest.inc(self.n_received - self._synced_received)
            self._synced_received = self.n_received
        if self.n_rejected != self._synced_rejected:
            self._m_rejected.inc(self.n_rejected - self._synced_rejected)
            self._synced_rejected = self.n_rejected
        if self.n_evicted != self._synced_evicted:
            self._m_evicted.inc(self.n_evicted - self._synced_evicted)
            self._synced_evicted = self.n_evicted

    # ---------------------------------------------------------------- state
    def state_dict(self) -> dict:
        """Full buffer content and counters (entries stacked into arrays)."""
        n = self._n
        state: dict = {
            "capacity": self.capacity,
            "watermark": self.watermark,
            "n_entries": n,
            "n_received": self.n_received,
            "n_rejected": self.n_rejected,
            "n_evicted": self.n_evicted,
            "n_batches": self.n_batches,
        }
        if n:
            assert self._xs is not None and self._ys is not None
            state["simulation_ids"] = self._simulation_ids[:n].copy()
            state["timesteps"] = self._timesteps[:n].copy()
            state["seen_counts"] = self.seen_counts()
            state["xs"] = self._xs[:n].copy()
            state["ys"] = self._ys[:n].copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore the buffer in entry order (eviction indices depend on it)."""
        if int(state["capacity"]) != self.capacity or int(state["watermark"]) != self.watermark:
            raise ValueError(
                "reservoir geometry mismatch: state has "
                f"capacity={state['capacity']}/watermark={state['watermark']}, "
                f"reservoir has {self.capacity}/{self.watermark}"
            )
        self.n_received = int(state["n_received"])
        self.n_rejected = int(state["n_rejected"])
        self.n_evicted = int(state["n_evicted"])
        self.n_batches = int(state["n_batches"])
        n = int(state["n_entries"])
        self._n = n
        self._n_unseen = 0
        if n == 0:
            return
        xs = np.array(state["xs"], dtype=np.float64, copy=True)
        ys = np.array(state["ys"], dtype=np.float64, copy=True)
        self._allocate(xs.shape[1], ys.shape[1])
        assert self._xs is not None and self._ys is not None
        self._xs[:n] = xs
        self._ys[:n] = ys
        self._simulation_ids[:n] = np.asarray(state["simulation_ids"], dtype=np.int64)
        self._timesteps[:n] = np.asarray(state["timesteps"], dtype=np.int64)
        self._seen[:n] = np.asarray(state["seen_counts"], dtype=np.int64)
        self._n_unseen = int(np.count_nonzero(self._seen[:n] == 0))

    # ------------------------------------------------------------- analysis
    def reuse_statistics(self) -> Tuple[float, int]:
        """Mean and maximum seen-count over the current buffer content."""
        if self._n == 0:
            return 0.0, 0
        counts = self._seen[: self._n]
        return float(counts.mean()), int(counts.max())

    def summary(self) -> dict[str, float]:
        mean_reuse, max_reuse = self.reuse_statistics()
        return {
            "size": float(self._n),
            "capacity": float(self.capacity),
            "received": float(self.n_received),
            "rejected": float(self.n_rejected),
            "evicted": float(self.n_evicted),
            "batches": float(self.n_batches),
            "mean_reuse": mean_reuse,
            "max_reuse": float(max_reuse),
        }
