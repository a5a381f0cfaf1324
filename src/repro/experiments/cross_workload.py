"""Cross-workload study: Breed vs Random over every registered physics.

The paper's claim is that Breed steering is *workload-agnostic* — the sampler
only ever sees per-sample losses and a parameter box, never the PDE.  This
study puts the claim under test: the same training budget runs with both
steering methods against every registered workload (four physics families:
heat diffusion, advection–diffusion, viscous Burgers, Fisher–KPP) and
summarises, per workload, the final validation MSE of each method and the
Breed-vs-Random improvement.

Workload switching is nothing but a per-run ``{"workload": name}`` override:
each factory resolves its canonical parameter bounds, surrogate geometry and
CFL-checked discretisation from the shared scale knobs, so the study grid
stays a plain list of string overrides — picklable, checkpointable and
executable on any backend.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.config import OnlineTrainingConfig
from repro.api.registry import workload_names
from repro.experiments.base import base_config
from repro.workflow.results import StudyResults
from repro.workflow.study import StudyRunner

__all__ = ["CrossWorkloadResult", "cross_workload_configurations", "run_cross_workload"]

#: steering methods compared on every workload
METHODS: Tuple[str, ...] = ("breed", "random")

#: mean parameter-box width of the paper's heat2d study, the reference the
#: scale presets calibrate their (absolute) Breed proposal width against
_HEAT2D_WIDTH = 400.0


def _scaled_sigma(template: OnlineTrainingConfig, workload: str) -> float:
    """Breed proposal width matched to the workload's parameter box.

    ``BreedConfig.sigma`` is absolute (Kelvin for the heat workloads); a
    σ = 25 proposal is a gentle 6 % nudge on the 400-K heat box but pure
    boundary noise on the O(1) boxes of the transport workloads.  Scaling by
    the mean box width keeps the *relative* proposal identical across
    physics (and exactly the preset value for the heat workloads).
    """
    bounds = replace(template, workload=workload).build_workload().bounds
    return float(template.breed.sigma * np.mean(bounds.widths) / _HEAT2D_WIDTH)


@dataclass
class CrossWorkloadResult:
    """Per-workload Breed/Random validation losses of the cross study."""

    workloads: List[str]
    scale: str
    #: raw study records behind the summary (serializable via ``save_json``)
    study: Optional[StudyResults] = None

    def losses(self, workload: str) -> Dict[str, float]:
        """Final validation MSE per method for one workload."""
        if self.study is None:
            return {}
        out: Dict[str, float] = {}
        for run in self.study.filter(workload=workload):
            out[run.config["method"]] = run.metric("final_validation_loss")
        return out

    def breed_improvement(self, workload: str) -> float:
        """Relative validation-MSE improvement of Breed over Random.

        Positive values mean Breed ended with the lower validation loss;
        ``nan`` when either method's run is missing.
        """
        losses = self.losses(workload)
        if "breed" not in losses or "random" not in losses or losses["random"] == 0:
            return float("nan")
        return (losses["random"] - losses["breed"]) / losses["random"]

    def summary_rows(self) -> List[Tuple[str, str, float, float, float]]:
        """``(workload, method, train MSE, validation MSE, overfit gap)`` rows."""
        rows: List[Tuple[str, str, float, float, float]] = []
        if self.study is None:
            return rows
        for workload in self.workloads:
            for run in self.study.filter(workload=workload):
                rows.append(
                    (
                        workload,
                        run.config["method"],
                        run.metric("final_train_loss"),
                        run.metric("final_validation_loss"),
                        run.metric("overfit_gap"),
                    )
                )
        return rows

    def improvement_rows(self) -> List[Tuple[str, float]]:
        """``(workload, breed improvement)`` rows for the summary table."""
        return [(w, self.breed_improvement(w)) for w in self.workloads]


def cross_workload_configurations(
    workloads: Sequence[str],
    methods: Sequence[str] = METHODS,
    sigmas: Optional[Dict[str, float]] = None,
) -> List[Dict[str, object]]:
    """Expand the workload × method grid into study-override dicts.

    ``sigmas`` optionally carries a per-workload Breed proposal width (see
    :func:`_scaled_sigma`); the override rides on every run of the workload
    so both methods share one configuration fingerprint scheme.
    """
    configurations: List[Dict[str, object]] = []
    for workload in workloads:
        for method in methods:
            overrides: Dict[str, object] = {
                "_name": f"{workload}-{method}",
                "workload": workload,
                "method": method,
            }
            if sigmas is not None and workload in sigmas:
                overrides["sigma"] = sigmas[workload]
            configurations.append(overrides)
    return configurations


def run_cross_workload(
    scale: str = "smoke",
    workloads: Optional[Sequence[str]] = None,
    methods: Sequence[str] = METHODS,
    seed: int = 0,
    backend: str = "serial",
    max_workers: Optional[int] = None,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: Optional[Union[str, Path]] = None,
    checkpoint_every: Optional[int] = None,
    architecture: str = "mlp",
) -> CrossWorkloadResult:
    """Run the Breed-vs-Random comparison across workloads.

    Parameters
    ----------
    scale:
        Experiment scale preset (see :data:`repro.experiments.base.SCALES`).
    workloads:
        Workload registry keys to include; defaults to *every* registered
        workload (built-ins plus any user registrations).
    methods:
        Steering-method registry keys compared on each workload.
    backend, max_workers, checkpoint, resume, checkpoint_every:
        Study-engine knobs, identical to the other study experiments —
        the grid parallelises over the shm worker pool and checkpoints/resumes
        through JSONL files and per-run session snapshots.
    architecture:
        Surrogate-architecture registry key applied to every run.
    """
    names = list(workloads) if workloads is not None else workload_names()
    template = base_config(scale, method="breed", seed=seed, architecture=architecture)
    sigmas = {name: _scaled_sigma(template, name) for name in names}
    runner = StudyRunner(
        base_config=template, study_name="cross", backend=backend, max_workers=max_workers
    )
    study = runner.run_all(
        cross_workload_configurations(names, methods, sigmas=sigmas),
        name_key="_name",
        checkpoint=checkpoint,
        resume=resume,
        checkpoint_every=checkpoint_every,
    )
    return CrossWorkloadResult(workloads=names, scale=scale, study=study)
