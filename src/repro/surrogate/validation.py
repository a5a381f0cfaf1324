"""Fixed validation set and validation-loss evaluation.

Section 4 of the paper: "the pre-created fixed validation set has 200
full-trajectory simulations with parameters generated from a quasi-uniform
Halton sequence".  The validation loss reported on the figures is the MSE of
the surrogate over every ``(λ, t)`` pair of that set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor
from repro.sampling.bounds import ParameterBounds
from repro.sampling.halton import halton_in_bounds
from repro.solvers.base import Solver
from repro.surrogate.model import DirectSurrogate
from repro.surrogate.normalization import SurrogateScalers

if TYPE_CHECKING:  # pragma: no cover - typing only (repro.api imports us)
    from repro.api.workloads import Workload

__all__ = [
    "ValidationSet",
    "build_validation_set",
    "validation_set_for_workload",
    "validation_loss",
]


@dataclass
class ValidationSet:
    """Pre-computed normalised validation inputs/targets."""

    inputs: np.ndarray
    targets: np.ndarray
    parameters: np.ndarray
    n_trajectories: int
    n_timesteps: int

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        self.parameters = np.asarray(self.parameters, dtype=np.float64)
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must align")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def build_validation_set(
    solver: Solver,
    bounds: ParameterBounds,
    scalers: SurrogateScalers,
    n_trajectories: int,
    skip: int = 1,
    rng: Optional[np.random.Generator] = None,
    scramble: bool = False,
) -> ValidationSet:
    """Generate the fixed Halton-sequence validation set by running the solver.

    The targets are one preallocated ``(n_trajectories · (T+1), field_size)``
    array: each yielded field is encoded and copied into its row, so the
    build's peak memory is the set itself plus one field.
    """
    if n_trajectories <= 0:
        raise ValueError("n_trajectories must be positive")
    vectors = halton_in_bounds(n_trajectories, bounds, skip=skip, rng=rng, scramble=scramble)
    n_steps = solver.n_timesteps + 1
    targets = np.empty((n_trajectories * n_steps, solver.field_size), dtype=np.float64)
    for index, params in enumerate(vectors):
        offset = index * n_steps
        timestep = -1
        for timestep, field in enumerate(solver.steps(params)):
            if timestep == n_steps:
                break
            targets[offset + timestep] = scalers.encode_output(field)
        if timestep != n_steps - 1:
            raise ValueError(f"solver must yield n_timesteps + 1 = {n_steps} fields per trajectory")
    inputs = scalers.encode_input(
        np.repeat(vectors, n_steps, axis=0),
        np.tile(np.arange(n_steps), n_trajectories),
    )
    return ValidationSet(
        inputs=inputs,
        targets=targets,
        parameters=vectors,
        n_trajectories=n_trajectories,
        n_timesteps=solver.n_timesteps,
    )


def validation_set_for_workload(
    workload: "Workload",
    n_trajectories: int,
    solver: Optional[Solver] = None,
    skip: int = 1,
    rng: Optional[np.random.Generator] = None,
    scramble: bool = False,
) -> Optional[ValidationSet]:
    """Fixed validation set of a :class:`~repro.api.workloads.Workload`.

    Convenience wrapper over :func:`build_validation_set` that pulls the
    solver, parameter bounds and scalers from the workload — the single path
    the training session, the study-input cache and the experiment harness
    all use, so every consumer builds the *same* set for a given scenario.
    Returns ``None`` when ``n_trajectories <= 0`` (validation disabled).

    ``solver`` may be passed to reuse an already-factorised instance.
    """
    if n_trajectories <= 0:
        return None
    return build_validation_set(
        solver=solver if solver is not None else workload.build_solver(),
        bounds=workload.bounds,
        scalers=workload.build_scalers(),
        n_trajectories=n_trajectories,
        skip=skip,
        rng=rng,
        scramble=scramble,
    )


def validation_loss(
    model: DirectSurrogate,
    validation_set: ValidationSet,
    batch_size: int = 1024,
) -> float:
    """MSE of the surrogate over the whole validation set (normalised units)."""
    n_rows = len(validation_set)
    targets = validation_set.targets
    # One scratch buffer for every batch's squared error: the model output
    # is never written to, and no per-batch temporaries are allocated.
    scratch = np.empty((min(batch_size, n_rows),) + targets.shape[1:], dtype=np.float64)
    total = 0.0
    count = 0
    with nn.no_grad():
        for start in range(0, n_rows, batch_size):
            stop = min(start + batch_size, n_rows)
            prediction = model(Tensor(validation_set.inputs[start:stop]))
            diff = np.subtract(prediction.data, targets[start:stop], out=scratch[: stop - start])
            total += float(np.sum(np.multiply(diff, diff, out=diff)))
            count += diff.size
    return total / count if count else float("nan")
