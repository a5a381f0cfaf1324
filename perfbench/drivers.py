"""The benchmark's three closed-loop workloads, driven through the public API.

Each driver runs one repetition of its workload and returns a :class:`Rep`:
the end-to-end timings, the work done, the validation MSE, a determinism
fingerprint and the list of failed output checks.  Every size knob lives in
:data:`SIZES`; ``"tiny"`` exists only for the benchmark's own smoke tests.

A repetition sets its workload up ``setups`` times and reports the median
set-up time: one set-up is a few tens of milliseconds on ``breed_long`` and
``campaign_shm``, too short to time once.  Only the last set-up is run.
"""

from __future__ import annotations

import gc
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.api import OnlineTrainingConfig, TrainingSession
from repro.campaign import CampaignRunner, CampaignSpec
from repro.checkpoint import list_snapshots
from repro.experiments.base import base_config
from repro.workflow.executor import StudyInputCache

from spans import Recorder

#: per-workload sizes: ``full`` is the benchmark, ``tiny`` the smoke tests
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "paper_slice": {
        "full": {"scale": "paper", "max_iterations": 300, "setups": 1},
        "tiny": {"scale": "smoke", "max_iterations": 40, "setups": 2},
    },
    "breed_long": {
        "full": {"scale": "small", "n_simulations": 480, "max_iterations": 3000, "setups": 5},
        "tiny": {"scale": "smoke", "n_simulations": 48, "max_iterations": 90, "setups": 2},
    },
    "campaign_shm": {
        "full": {"scale": "small", "checkpoint_every": 100, "workers": 2, "setups": 5},
        "tiny": {"scale": "smoke", "max_iterations": 40, "checkpoint_every": 20, "workers": 2, "setups": 2},
    },
}

#: names wrapped even in untraced runs: the campaign's set-up ends inside
#: ``CampaignRunner.run`` with the parent's shared-input build, which only a
#: probe on that call can time (six calls per repetition)
PROBES: Dict[str, Tuple[str, ...]] = {"campaign_shm": ("workflow.input_build",)}


@dataclass
class Rep:
    """One repetition of a workload."""

    #: median of the repetition's set-ups
    setup_s: float
    #: from the last set-up's start to the result
    wall_s: float
    #: from the end of the last set-up to the result
    run_s: float
    #: Σ iterations × batch size over the repetition's runs
    samples: int
    val_mse: float
    #: compared bit for bit across repetitions of one seed
    fingerprint: Tuple[Any, ...]
    problems: List[str] = field(default_factory=list)


def _finite(values: Any) -> bool:
    return all(math.isfinite(float(v)) for v in values)


# ---------------------------------------------------------------------------
# Session workloads: paper_slice, breed_long
# ---------------------------------------------------------------------------


def session_config(workload: str, seed: int, size: str = "full") -> OnlineTrainingConfig:
    """The single-session configuration of ``paper_slice`` or ``breed_long``."""
    knobs = {k: v for k, v in SIZES[workload][size].items() if k not in ("scale", "setups")}
    config = base_config(SIZES[workload][size]["scale"], method="breed", seed=seed)
    return replace(config, **knobs)


def run_session(workload: str, seed: int, recorder: Recorder, size: str = "full") -> Rep:
    """Construct one :class:`TrainingSession`, run it, check its output."""
    config = session_config(workload, seed, size)
    setups = []
    for _ in range(SIZES[workload][size]["setups"] - 1):
        gc.collect()
        with recorder.paused():
            start = time.perf_counter()
            TrainingSession(config)
            setups.append(time.perf_counter() - start)
    gc.collect()
    start = time.perf_counter()
    with recorder.span("session.setup"):
        session = TrainingSession(config)
    ready = time.perf_counter()
    setups.append(ready - start)
    result = session.run()
    end = time.perf_counter()

    history = result.history
    iterations = history.train_iterations[-1] if history.train_iterations else 0
    problems = []
    if not (_finite(history.train_losses) and _finite(history.validation_losses)):
        problems.append("non-finite train or validation loss")
    if not history.validation_losses:
        problems.append("no validation loss recorded")
    if iterations != config.max_iterations:
        problems.append(f"iterations {iterations} != max_iterations {config.max_iterations}")
    if workload == "breed_long" and not result.steering_records:
        problems.append("Breed never steered")
    val_mse = result.final_validation_loss
    del session, result
    gc.collect()
    return Rep(
        setup_s=statistics.median(setups),
        wall_s=end - start,
        run_s=end - ready,
        samples=iterations * config.batch_size,
        val_mse=val_mse,
        fingerprint=(val_mse,),
        problems=problems,
    )


# ---------------------------------------------------------------------------
# campaign_shm
# ---------------------------------------------------------------------------


def campaign_document(seed: int, size: str = "full") -> Dict[str, Any]:
    """The 2-node campaign spec: a {breed, random} × 2-seed sweep, then top-1 refine."""
    knobs = SIZES["campaign_shm"][size]
    config = base_config(knobs["scale"], method="breed", seed=seed)
    if "max_iterations" in knobs:
        config = replace(config, max_iterations=knobs["max_iterations"])
    return {
        "name": "perfbench",
        "config": config.to_dict(),
        "nodes": [
            {
                "name": "sweep",
                "configurations": [
                    {"method": method, "seed": s} for s in (seed, seed + 1) for method in ("breed", "random")
                ],
            },
            {
                "name": "refine",
                "depends_on": ["sweep"],
                "select": {"type": "top_k", "node": "sweep", "metric": "final_validation_loss", "k": 1},
                "configurations": [{"seed": seed + 2}, {"seed": seed + 3}],
            },
        ],
    }


def snapshots_on_disk(root: Path) -> List[Path]:
    """Complete session snapshots left on disk under a campaign root."""
    return [snap for run in root.glob("nodes/*/runs.jsonl.snapshots/*") for snap in list_snapshots(run)]


def run_campaign(seed: int, root: Path, recorder: Recorder, size: str = "full") -> Rep:
    """Run the campaign in a fresh ``root`` with the shm backend; check its output."""
    knobs = SIZES["campaign_shm"][size]
    document = campaign_document(seed, size)
    shutil.rmtree(root, ignore_errors=True)

    def construct() -> CampaignRunner:
        spec = CampaignSpec.from_dict(document)
        return CampaignRunner(
            spec,
            root,
            backend="shm",
            max_workers=knobs["workers"],
            checkpoint_every=knobs["checkpoint_every"],
        )

    # Stand-alone set-ups repeat what the measured one does: parse, construct,
    # and build the parent's shared study inputs in a fresh cache.
    setups = []
    for _ in range(knobs["setups"] - 1):
        gc.collect()
        with recorder.paused():
            start = time.perf_counter()
            construct()
            StudyInputCache().inputs(OnlineTrainingConfig.from_dict(document["config"]))
            setups.append(time.perf_counter() - start)
    gc.collect()
    builds_before = recorder.total("workflow.input_build")
    start = time.perf_counter()
    with recorder.span("campaign.setup"):
        runner = construct()
    constructed = time.perf_counter()
    outcome = runner.run()
    end = time.perf_counter()
    # The measured set-up ends inside run(), with the parent's input build.
    setup = constructed - start + recorder.total("workflow.input_build") - builds_before
    setups.append(setup)

    base = OnlineTrainingConfig.from_dict(document["config"])
    runs = [run for results in outcome.results.values() for run in results.runs]
    expected_runs = 6  # 4 sweep runs, then 2 refine runs of the top-1 sweep configuration
    saves_per_run = base.max_iterations // knobs["checkpoint_every"]
    expected_snapshots = expected_runs * min(base.checkpoint_keep, saves_per_run)
    problems = []
    if not outcome.ok:
        problems.append(f"campaign not ok: {outcome.states}")
    if outcome.runs_executed != expected_runs or len(runs) != expected_runs:
        problems.append(f"runs_executed {outcome.runs_executed} != {expected_runs}")
    if outcome.cache_hits != 0:
        problems.append(f"cache_hits {outcome.cache_hits} != 0 on a fresh root")
    for run in runs:
        if run.metrics.get("iterations") != base.max_iterations:
            problems.append(f"{run.name}: iterations {run.metrics.get('iterations')}")
        losses = [run.metrics["final_train_loss"], run.metrics["final_validation_loss"]]
        losses += run.series.get("train_losses", []) + run.series.get("validation_losses", [])
        if not _finite(losses):
            problems.append(f"{run.name}: non-finite loss")
    snapshots = snapshots_on_disk(root)
    if len(snapshots) != expected_snapshots:
        problems.append(f"{len(snapshots)} snapshots on disk, expected {expected_snapshots}")
    recorder.counts["checkpoint.bytes"] += sum(
        path.stat().st_size for snap in snapshots for path in snap.rglob("*") if path.is_file()
    )
    refine = outcome.results.get("refine")
    val_mse = min(run.metrics["final_validation_loss"] for run in refine.runs) if refine else math.nan
    shutil.rmtree(root, ignore_errors=True)
    return Rep(
        setup_s=statistics.median(setups),
        wall_s=end - start,
        run_s=end - start - setup,
        samples=sum(int(run.metrics.get("iterations", 0)) * base.batch_size for run in runs),
        val_mse=val_mse,
        fingerprint=tuple(sorted((run.name, run.metrics["final_validation_loss"]) for run in runs)),
        problems=problems,
    )


def run(workload: str, seed: int, recorder: Recorder, work: Path, size: str = "full") -> Rep:
    """One repetition of ``workload``; the campaign's root goes under ``work``."""
    if workload == "campaign_shm":
        return run_campaign(seed, work / "campaign", recorder, size)
    return run_session(workload, seed, recorder, size)
