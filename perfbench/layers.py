"""Per-layer metrics computed from recorded spans and counters.

Every ``*_s`` metric is a summed *self time* (span duration minus the time
its child spans cover), except ``workflow.run_s_mean``, ``workflow.busy_s``,
``campaign.node_s`` and ``campaign.barrier_idle_s``, which are inclusive.  On the campaign
workload the worker processes' spans are included, so a layer's time there is
CPU-busy time summed over both workers, not a share of the driver's wall.
A layer that a workload does not exercise reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple

Span = Tuple[str, float, float, int]

#: metric → span whose summed self time it reports
SELF_TIME: Dict[str, str] = {
    "session.setup_s": "session.setup",
    "session.submit_s": "session.submit",
    "session.produce_s": "session.produce",
    "session.receive_s": "session.receive",
    "session.train_s": "session.train",
    "session.result_s": "session.result",
    "melissa.client_produce_s": "melissa.client_produce",
    "melissa.reservoir_put_s": "melissa.reservoir_put",
    "melissa.reservoir_draw_s": "melissa.reservoir_draw",
    "nn.forward_s": "nn.forward",
    "nn.backward_s": "nn.backward",
    "nn.optimizer_s": "nn.optimizer",
    "breed.observe_s": "breed.observe",
    "breed.steer_s": "breed.steer",
    "breed.resample_s": "breed.resample",
    "validation.build_s": "validation.build",
    "validation.eval_s": "validation.eval",
    "checkpoint.save_s": "checkpoint.save",
    "workflow.input_build_s": "workflow.input_build",
    "workflow.jsonl_append_s": "workflow.jsonl_append",
    "campaign.manifest_append_s": "campaign.manifest_append",
    "campaign.cache_put_s": "campaign.cache_put",
}

#: metric → span whose number of calls it reports
CALLS: Dict[str, str] = {
    "session.ticks": "session.train",
    "melissa.reservoir_puts": "melissa.reservoir_put",
    "nn.train_steps": "nn.optimizer",
    "validation.evals": "validation.eval",
    "checkpoint.saves": "checkpoint.save",
    "campaign.manifest_appends": "campaign.manifest_append",
}

#: metric → span it depends on; the value is the counter of the same name
COUNTERS: Dict[str, str] = {
    "session.starved_ticks": "session.train",
    "melissa.messages": "session.result",
    "melissa.transport_bytes": "session.result",
    "melissa.reservoir_rejects": "melissa.reservoir_put",
    "breed.observations": "breed.observe",
    "breed.steerings": "breed.steer",
    "checkpoint.bytes": "checkpoint.save",
}

#: metrics computed from several sources → the spans they need
DERIVED: Dict[str, Tuple[str, ...]] = {
    "melissa.reservoir_reuse_mean": ("session.result",),
    "breed.applied_frac": ("breed.steer",),
    "workflow.run_s_mean": ("workflow.run",),
    "workflow.busy_s": ("workflow.run",),
    "workflow.parallel_eff": ("workflow.run",),
    "campaign.node_s": ("campaign.node",),
    "campaign.barrier_idle_s": ("campaign.node", "workflow.run"),
}

#: how much of the traced repetition the driver's spans account for
TRACE = ("trace.wall_s", "trace.attributed_s", "trace.unattributed_s", "trace.overhead_frac")

#: the traced repetition's result, in the units the program reports it
RESULT = ("validation.final_mse",)

UNITS: Dict[str, str] = {
    "workflow.run_s_mean": "s",
    "melissa.transport_bytes": "bytes",
    "checkpoint.bytes": "bytes",
    "melissa.reservoir_reuse_mean": "count",
    "breed.applied_frac": "ratio",
    "workflow.parallel_eff": "ratio",
    "trace.overhead_frac": "ratio",
    "validation.final_mse": "mse",
}

NAMES: List[str] = [*SELF_TIME, *CALLS, *COUNTERS, *DERIVED, *TRACE, *RESULT]


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def self_times(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """Span name → (summed self time, number of spans) for one span batch."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for index, (name, start, end, _) in enumerate(spans):
        entry = totals[name]
        entry[0] += end - start - child_time[index]
        entry[1] += 1
    return {name: (value[0], int(value[1])) for name, value in totals.items()}


def _durations(batches: Iterable[Sequence[Span]], name: str) -> List[Tuple[float, float]]:
    return [(s, e) for spans in batches for n, s, e, _ in spans if n == name]


def compute(
    driver_spans: Sequence[Span],
    counts: Dict[str, float],
    worker_batches: Sequence[Dict[str, Any]],
    missing: Set[str],
    wall_s: float,
    untraced_wall_s: float,
    workers: int,
    val_mse: float,
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced repetition, and the names left missing."""
    batches = [driver_spans] + [batch["spans"] for batch in worker_batches]
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    merged_counts: Dict[str, float] = defaultdict(float, counts)
    for spans in batches:
        for name, (seconds, calls) in self_times(spans).items():
            totals[name][0] += seconds
            totals[name][1] += calls
    for batch in worker_batches:
        missing = missing | set(batch["missing"])
        for key, value in batch["counts"].items():
            merged_counts[key] += value

    def needs(*spans: str) -> bool:
        return not any(span in missing or f"{span}:counters" in missing for span in spans)

    metrics: Dict[str, float] = {}
    for metric, span in SELF_TIME.items():
        if needs(span):
            metrics[metric] = totals[span][0]
    for metric, span in CALLS.items():
        if needs(span):
            metrics[metric] = totals[span][1]
    for metric, span in COUNTERS.items():
        if needs(span):
            metrics[metric] = merged_counts[metric]

    results = merged_counts["session.results"]
    if needs("session.result"):
        metrics["melissa.reservoir_reuse_mean"] = (
            merged_counts["melissa.reservoir_reuse_sum"] / results if results else 0.0
        )
    if needs("breed.steer"):
        requested = merged_counts["breed.n_requested"]
        metrics["breed.applied_frac"] = merged_counts["breed.n_applied"] / requested if requested else 0.0
    runs = _durations(batches, "workflow.run")
    busy = sum(end - start for start, end in runs)
    nodes = _durations([driver_spans], "campaign.node")
    if needs("workflow.run"):
        metrics["workflow.run_s_mean"] = statistics.fmean(e - s for s, e in runs) if runs else 0.0
        metrics["workflow.busy_s"] = busy
        metrics["workflow.parallel_eff"] = busy / (wall_s * workers) if runs else 0.0
    if needs("campaign.node"):
        metrics["campaign.node_s"] = sum(end - start for start, end in nodes)
    if needs("campaign.node", "workflow.run"):
        idle = 0.0
        for node_start, node_end in nodes:
            node_busy = sum(
                min(end, node_end) - start for start, end in runs if node_start <= start < node_end
            )
            idle += (node_end - node_start) * workers - node_busy
        metrics["campaign.barrier_idle_s"] = idle

    attributed = sum(end - start for _, start, end, parent in driver_spans if parent < 0)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.attributed_s"] = attributed
    metrics["trace.unattributed_s"] = wall_s - attributed
    metrics["trace.overhead_frac"] = wall_s / untraced_wall_s - 1.0
    metrics["validation.final_mse"] = val_mse
    return metrics, [name for name in NAMES if name not in metrics]
