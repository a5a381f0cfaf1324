"""Validation-set data path: byte-identical to the list-and-stack build, in place.

``build_validation_set`` encodes every solver field straight into its row of
one preallocated target array, and ``validation_loss`` reuses one scratch
buffer across batches.  These tests freeze the previous implementations
(append every encoded row to a list, then ``np.stack``; allocate
``diff`` and ``diff * diff`` per batch) as references and require the same
bytes and the same float, then bound the build's traced memory.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.api.registry import workload_names
from repro.experiments.base import base_config
from repro.nn.tensor import Tensor, no_grad
from repro.sampling.bounds import HEAT2D_BOUNDS
from repro.sampling.halton import halton_in_bounds
from repro.solvers.heat2d import Heat2DConfig, Heat2DImplicitSolver
from repro.surrogate.model import DirectSurrogate
from repro.surrogate.normalization import SurrogateScalers
from repro.surrogate.validation import build_validation_set, validation_loss


def reference_build(solver, bounds, scalers, n_trajectories):
    """The list-and-stack validation-set build, frozen verbatim."""
    vectors = halton_in_bounds(n_trajectories, bounds, skip=1)
    inputs = []
    targets = []
    for params in vectors:
        for timestep, field in enumerate(solver.steps(params)):
            inputs.append(scalers.encode_input(params, timestep))
            targets.append(scalers.encode_output(field))
    return np.stack(inputs, axis=0), np.stack(targets, axis=0), vectors


def reference_loss(model, validation_set, batch_size):
    """The per-batch-temporaries validation loss, frozen verbatim."""
    total = 0.0
    count = 0
    with no_grad():
        for start in range(0, len(validation_set), batch_size):
            stop = min(start + batch_size, len(validation_set))
            prediction = model(Tensor(validation_set.inputs[start:stop]))
            diff = prediction.data - validation_set.targets[start:stop]
            total += float(np.sum(diff * diff))
            count += diff.size
    return total / count if count else float("nan")


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", workload_names())
def test_build_is_byte_identical_to_list_and_stack(name):
    workload = base_config("smoke", workload=name).build_workload()
    solver, scalers = workload.build_solver(), workload.build_scalers()
    vset = build_validation_set(solver, workload.bounds, scalers, n_trajectories=4)
    inputs, targets, vectors = reference_build(solver, workload.bounds, scalers, 4)
    assert _same_bytes(vset.inputs, inputs)
    assert _same_bytes(vset.targets, targets)
    assert _same_bytes(vset.parameters, vectors)


@pytest.mark.parametrize("architecture", ["mlp", "residual", "conv2d"])
@pytest.mark.parametrize("batch_size", [7, 16, 1024])
def test_loss_equals_per_batch_temporaries(architecture, batch_size):
    workload = base_config("smoke", workload="heat2d").build_workload()
    vset = build_validation_set(
        workload.build_solver(), workload.bounds, workload.build_scalers(), n_trajectories=3
    )
    model = DirectSurrogate(
        workload.surrogate_config(4, 2, "relu", architecture=architecture),
        workload.build_scalers(),
        rng=np.random.default_rng(5),
    )
    outputs_before = model(Tensor(vset.inputs)).data.copy()
    assert validation_loss(model, vset, batch_size) == reference_loss(model, vset, batch_size)
    assert np.array_equal(model(Tensor(vset.inputs)).data, outputs_before)


def test_short_solver_is_rejected():
    class ShortSolver(Heat2DImplicitSolver):
        def steps(self, parameters):
            fields = super().steps(parameters)
            return (next(fields) for _ in range(self.n_timesteps))

    solver = ShortSolver(Heat2DConfig(grid_size=6, n_timesteps=4))
    scalers = SurrogateScalers.from_bounds(HEAT2D_BOUNDS, 4)
    with pytest.raises(ValueError, match="n_timesteps \\+ 1 = 5"):
        build_validation_set(solver, HEAT2D_BOUNDS, scalers, n_trajectories=2)


def test_build_peak_memory_is_one_target_array():
    """Traced peak ≤ 1.25 × the targets: no list of rows, no stacked copy."""
    solver = Heat2DImplicitSolver(Heat2DConfig(grid_size=16, n_timesteps=10))
    scalers = SurrogateScalers.from_bounds(HEAT2D_BOUNDS, 10)
    list(solver.steps(np.full(5, 300.0)))  # factorise and warm caches outside the trace
    tracemalloc.start()
    try:
        vset = build_validation_set(solver, HEAT2D_BOUNDS, scalers, n_trajectories=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vset.targets.shape == (40 * 11, 256)
    assert peak <= 1.25 * vset.targets.nbytes, (peak, vset.targets.nbytes)
