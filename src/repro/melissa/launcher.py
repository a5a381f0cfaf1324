"""Launcher: owns the simulation budget and talks to the batch scheduler.

Responsibilities reproduced from the paper (Section 2.2, 3.3 and Appendix A):

* hold the full budget of ``S`` simulations and their input parameters,
* submit client jobs to the scheduler while respecting the job limit ``m``
  (only a subset of all clients is ever submitted at once),
* report which simulations are *steerable*: the server must only replace the
  parameters of simulations whose ids are at least ``k + m`` where ``k`` is
  the highest simulation id already observed by the launcher — anything
  closer may already have been handed to the scheduler and could start at any
  moment,
* apply :meth:`update_parameters` requests coming from the server's steering
  mechanism and remember the provenance of every parameter vector (needed by
  the Figure 4 analysis).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.breed.samplers import ParameterSource
from repro.melissa.client import ClientFactory, SolverClient
from repro.melissa.scheduler import BatchScheduler
from repro.utils.logging import EventLog

__all__ = ["SimulationState", "SimulationRecord", "Launcher"]


class SimulationState(enum.Enum):
    """Lifecycle of one simulation in the launcher's ledger."""

    PENDING = "pending"        # not yet submitted to the scheduler: steerable
    SUBMITTED = "submitted"    # handed to the scheduler, waiting to start
    RUNNING = "running"        # client job producing time steps
    FINISHED = "finished"      # full trajectory streamed


@dataclass
class SimulationRecord:
    """Ledger entry of one simulation of the budget."""

    simulation_id: int
    parameters: np.ndarray
    source: str = ParameterSource.INITIAL_UNIFORM
    state: SimulationState = SimulationState.PENDING
    client: Optional[SolverClient] = None
    #: number of times steering replaced this simulation's parameters
    n_updates: int = 0
    #: history of (source, parameters) overwrites, most recent last
    history: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.parameters = np.asarray(self.parameters, dtype=np.float64).copy()


class Launcher:
    """Simulation-budget manager bridging the server and the batch scheduler."""

    def __init__(
        self,
        initial_parameters: np.ndarray,
        client_factory: ClientFactory,
        scheduler: BatchScheduler,
        event_log: Optional[EventLog] = None,
    ) -> None:
        parameters = np.atleast_2d(np.asarray(initial_parameters, dtype=np.float64))
        if parameters.shape[0] == 0:
            raise ValueError("the simulation budget must contain at least one simulation")
        self.records: Dict[int, SimulationRecord] = {
            sim_id: SimulationRecord(simulation_id=sim_id, parameters=row)
            for sim_id, row in enumerate(parameters)
        }
        self.client_factory = client_factory
        self.scheduler = scheduler
        self.event_log = event_log
        #: highest simulation id ever submitted to the scheduler (-1 before any)
        self.highest_submitted_id = -1
        #: submission order is by increasing simulation id, as in Melissa
        self._next_to_submit = 0
        self._running: set[int] = set()
        self._n_finished = 0

    # ---------------------------------------------------------------- sizes
    @property
    def budget(self) -> int:
        """Total number of simulations ``S``."""
        return len(self.records)

    @property
    def job_limit(self) -> int:
        """Maximum number of simultaneously running clients ``m``."""
        return self.scheduler.job_limit

    def count_state(self, state: SimulationState) -> int:
        """Number of simulations in ``state``, from the maintained counters.

        Submission is in id order, so the pending simulations are exactly the
        ids from ``next_to_submit`` on.
        """
        if state == SimulationState.PENDING:
            return self.budget - self._next_to_submit
        if state == SimulationState.RUNNING:
            return len(self._running)
        if state == SimulationState.FINISHED:
            return self._n_finished
        return self._next_to_submit - len(self._running) - self._n_finished

    @property
    def all_finished(self) -> bool:
        return self._n_finished == self.budget

    # ------------------------------------------------------------ submission
    def submit_available(self) -> List[int]:
        """Submit pending simulations (in id order) while the scheduler queue
        plus running set stays within the job limit.

        Mirrors Melissa's behaviour of keeping the scheduler fed with at most
        ``m`` outstanding client jobs.
        """
        submitted: List[int] = []
        outstanding = self.scheduler.n_running + self.scheduler.n_queued
        while self._next_to_submit < self.budget and outstanding < self.job_limit:
            sim_id = self._next_to_submit
            record = self.records[sim_id]
            self.scheduler.submit(sim_id)
            record.state = SimulationState.SUBMITTED
            self.highest_submitted_id = max(self.highest_submitted_id, sim_id)
            submitted.append(sim_id)
            self._next_to_submit += 1
            outstanding += 1
            if self.event_log is not None:
                self.event_log.emit("launcher", "submitted", simulation_id=sim_id)
        return submitted

    def advance_scheduler(self) -> List[SolverClient]:
        """Advance the scheduler one tick; instantiate clients for started jobs."""
        started_clients: List[SolverClient] = []
        for sim_id in self.scheduler.advance():
            record = self.records[sim_id]
            record.state = SimulationState.RUNNING
            record.client = self.client_factory.create(sim_id, record.parameters)
            self._running.add(sim_id)
            started_clients.append(record.client)
            if self.event_log is not None:
                self.event_log.emit("launcher", "started", simulation_id=sim_id)
        return started_clients

    def mark_finished(self, simulation_id: int) -> None:
        record = self.records[simulation_id]
        if record.state != SimulationState.RUNNING:
            raise ValueError(
                f"simulation {simulation_id} cannot finish from state {record.state}"
            )
        record.state = SimulationState.FINISHED
        self._running.discard(simulation_id)
        self._n_finished += 1
        self.scheduler.complete(simulation_id)
        if self.event_log is not None:
            self.event_log.emit("launcher", "finished", simulation_id=simulation_id)

    def running_clients(self) -> List[SolverClient]:
        """Clients of the running simulations, in id order."""
        clients = (self.records[sim_id].client for sim_id in sorted(self._running))
        return [client for client in clients if client is not None]

    # -------------------------------------------------------------- steering
    def steerable_simulation_ids(self) -> List[int]:
        """Ids whose parameters may still be replaced (Section 3.3 rule).

        The server may only touch simulations at least ``m`` ids beyond the
        highest id it has observed from the launcher, i.e. ``id >= k + m``,
        *and* that are still pending.  Submission is in id order, so the
        pending ids are exactly the tail from ``next_to_submit`` on.
        """
        threshold = self.highest_submitted_id + self.job_limit
        return list(range(max(self._next_to_submit, threshold), self.budget))

    def update_parameters(self, simulation_id: int, parameters: np.ndarray, source: str) -> None:
        """Apply a steering request to a pending simulation."""
        record = self.records[simulation_id]
        if record.state != SimulationState.PENDING:
            raise ValueError(
                f"simulation {simulation_id} is {record.state.value}; only pending simulations are steerable"
            )
        record.parameters = np.asarray(parameters, dtype=np.float64).copy()
        record.source = source
        record.n_updates += 1
        record.history.append(source)
        if self.event_log is not None:
            self.event_log.emit(
                "launcher", "parameters_updated", simulation_id=simulation_id, origin=source
            )

    # ---------------------------------------------------------------- state
    def state_dict(self) -> Dict[str, object]:
        """Ledger of every simulation, including running clients' progress."""
        return {
            "highest_submitted_id": self.highest_submitted_id,
            "next_to_submit": self._next_to_submit,
            "factory_created": list(self.client_factory.created),
            "records": [
                {
                    "simulation_id": record.simulation_id,
                    "parameters": record.parameters.copy(),
                    "source": record.source,
                    "state": record.state.value,
                    "n_updates": record.n_updates,
                    "history": list(record.history),
                    "client": None if record.client is None else record.client.state_dict(),
                }
                for record in self.records.values()
            ],
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Rebuild the ledger; running clients are fast-forwarded in place."""
        records: Dict[int, SimulationRecord] = {}
        for payload in state["records"]:  # type: ignore[union-attr]
            record = SimulationRecord(
                simulation_id=int(payload["simulation_id"]),
                parameters=np.asarray(payload["parameters"], dtype=np.float64),
                source=str(payload["source"]),
                state=SimulationState(payload["state"]),
                n_updates=int(payload["n_updates"]),
                history=[str(item) for item in payload["history"]],
            )
            if payload["client"] is not None:
                client = self.client_factory.create(record.simulation_id, record.parameters)
                client.load_state_dict(payload["client"])
                record.client = client
            records[record.simulation_id] = record
        self.records = records
        self._running = {
            sid for sid, record in records.items() if record.state == SimulationState.RUNNING
        }
        self._n_finished = sum(
            1 for record in records.values() if record.state == SimulationState.FINISHED
        )
        self.highest_submitted_id = int(state["highest_submitted_id"])  # type: ignore[arg-type]
        self._next_to_submit = int(state["next_to_submit"])  # type: ignore[arg-type]
        # Rebuilding clients above appended to the factory log; restore it to
        # the snapshot's view so analysis counters stay faithful.
        self.client_factory.created = [int(i) for i in state["factory_created"]]  # type: ignore[union-attr]

    # -------------------------------------------------------------- analysis
    def executed_parameters(self) -> tuple[np.ndarray, List[str]]:
        """Parameters and provenance of every simulation, in id order.

        Includes pending simulations (their current parameters), which matches
        the paper's Figure 4 statistic of "800 input parameters" of a run.
        """
        ids = sorted(self.records)
        params = np.stack([self.records[i].parameters for i in ids], axis=0)
        sources = [self.records[i].source for i in ids]
        return params, sources

    def summary(self) -> Dict[str, int]:
        counts = {state.value: self.count_state(state) for state in SimulationState}
        counts["total"] = self.budget
        counts["overwrites"] = sum(rec.n_updates for rec in self.records.values())
        return counts
