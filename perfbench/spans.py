"""Span recording around calls into the repro layers, from outside the package.

The benchmark never edits the program: it replaces public methods and
functions with thin wrappers that record a span (name, start, end, parent)
per call.  Spans are kept in memory and written out when the benchmark ends.
A layer's *self time* is a span's duration minus the time its child spans
cover, so the self times of every span plus the unattributed remainder add
up to the wall time of the traced run.

Two properties keep the numbers honest:

* **Opaque spans.**  ``validation.eval`` and ``validation.build`` record no
  child spans, so the forward passes validation makes count as validation,
  not as training-side ``nn.forward``.
* **Graceful degradation.**  A wrapped name that no longer exists (renamed
  or removed by a later commit) is listed in :attr:`Recorder.missing`; the
  metrics that depend on it are reported as missing instead of crashing.

Worker processes forked by the ``shm`` study backend inherit the wrappers.
After a fork the child's buffers are reset, and every time a run finishes in
the child (the ``workflow.run`` span closes) its spans are appended to a
per-pid file that :func:`load_worker_batches` merges.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

#: ``(span name, "module:Class.attr" or "module:function", opaque)`` for every
#: wrapped public name.  Module-level functions are replaced in every loaded
#: ``repro`` module that imported them by name.
TARGETS: Tuple[Tuple[str, str, bool], ...] = (
    ("session.submit", "repro.api.session:TrainingSession.submit", False),
    ("session.produce", "repro.api.session:TrainingSession.produce", False),
    ("session.receive", "repro.api.session:TrainingSession.receive", False),
    ("session.train", "repro.api.session:TrainingSession.train", False),
    ("session.result", "repro.api.session:TrainingSession.result", False),
    ("melissa.client_produce", "repro.melissa.client:SolverClient.produce", False),
    ("melissa.reservoir_put", "repro.melissa.reservoir:Reservoir.put", False),
    ("melissa.reservoir_draw", "repro.melissa.reservoir:Reservoir.sample_batch", False),
    ("nn.forward", "repro.surrogate.model:DirectSurrogate.forward", False),
    ("nn.backward", "repro.nn.tensor:Tensor.backward", False),
    ("nn.optimizer", "repro.nn.optim:Adam.step", False),
    ("breed.observe", "repro.breed.controller:BreedController.observe_batch", False),
    ("breed.steer", "repro.breed.controller:BreedController.maybe_steer", False),
    ("breed.resample", "repro.breed.samplers:BreedSampler.resample", False),
    ("validation.eval", "repro.surrogate.validation:validation_loss", True),
    ("validation.build", "repro.surrogate.validation:validation_set_for_workload", True),
    ("checkpoint.save", "repro.checkpoint.snapshot:save_session", False),
    ("workflow.run", "repro.workflow.executor:execute_spec", False),
    ("workflow.input_build", "repro.workflow.executor:StudyInputCache.inputs", False),
    ("workflow.jsonl_append", "repro.workflow.executor:JsonlCheckpoint.append", False),
    ("campaign.node", "repro.workflow.study:StudyRunner.run_all", False),
    ("campaign.manifest_append", "repro.campaign.manifest:CampaignManifest.append", False),
    ("campaign.cache_put", "repro.campaign.cache:ArtifactCache.put", False),
)

#: the span that ends one run inside a worker process (triggers its flush)
WORKER_ROOT = "workflow.run"

#: marks a wrapped attribute that the class inherited rather than defined
_INHERITED = object()


class Recorder:
    """In-memory span buffer plus per-name counters for one process."""

    def __init__(self, worker_dir: Optional[Path] = None) -> None:
        self.worker_dir = worker_dir
        self.enabled = False
        #: wrapped names (and ``<name>:counters``) that could not be measured
        self.missing: Set[str] = set()
        self._installed: List[Tuple[Any, str, Any]] = []
        self._parent_pid = os.getpid()
        self.clear()
        if worker_dir is not None:
            os.register_at_fork(after_in_child=self.clear)

    def clear(self) -> None:
        """Drop every buffered span and counter."""
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self._opaque = 0
        self.counts: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------- spans
    def _open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (no-op while not installed)."""
        if not self.enabled or self._opaque:
            yield
            return
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run untraced: for work the benchmark repeats outside the traced repetition."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def total(self, name: str) -> float:
        """Summed duration of the buffered spans called ``name``."""
        return sum(e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name)

    def spans(self) -> List[Tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    # ---------------------------------------------------------- wrapping
    def _wrap(self, fn: Callable, name: str, opaque: bool, after: Optional[Callable]) -> Callable:
        recorder = self
        counters = name + ":counters"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not recorder.enabled or recorder._opaque:
                return fn(*args, **kwargs)
            index = recorder._open(name)
            if opaque:
                recorder._opaque += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                if opaque:
                    recorder._opaque -= 1
                recorder._close(index)
            if after is not None and counters not in recorder.missing:
                try:
                    after(recorder.counts, out, args, kwargs)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # The call's result or arguments changed shape: the
                    # counters read from them are missing from now on.
                    recorder.missing.add(counters)
            if name == WORKER_ROOT and recorder.worker_dir is not None:
                if os.getpid() != recorder._parent_pid:
                    recorder.flush_worker()
            return out

        return wrapper

    def install(self, names: Optional[Sequence[str]] = None) -> None:
        """Wrap every target (or only ``names``); unknown targets go to :attr:`missing`."""
        for span, target, opaque in TARGETS:
            if names is not None and span not in names:
                continue
            module_name, _, qualname = target.partition(":")
            try:
                module = importlib.import_module(module_name)
                owner: Any = module
                parts = qualname.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, parts[-1])
            except (ImportError, AttributeError):
                self.missing.add(span)
                continue
            wrapped = self._wrap(original, span, opaque, AFTER.get(span))
            if len(parts) > 1:
                self._set(owner, parts[-1], wrapped)
            else:
                # A function is bound by name in every module that imported
                # it: replace each binding so every caller goes through it.
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and (
                        getattr(loaded, parts[-1], None) is original
                    ):
                        self._set(loaded, parts[-1], wrapped)
        self.enabled = True

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._installed.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._installed.clear()
        self.enabled = False

    # ------------------------------------------------------------ workers
    def flush_worker(self) -> None:
        """Append this worker's finished spans and counters to its pid file."""
        batch = {
            "pid": os.getpid(),
            "spans": self.spans(),
            "counts": dict(self.counts),
            "missing": sorted(self.missing),
        }
        with (Path(self.worker_dir) / f"spans-{os.getpid()}.jsonl").open("a") as stream:
            stream.write(json.dumps(batch) + "\n")
        self.clear()


def load_worker_batches(worker_dir: Path) -> List[Dict[str, Any]]:
    """Every span batch the forked workers flushed under ``worker_dir``."""
    batches: List[Dict[str, Any]] = []
    for path in sorted(worker_dir.glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            if line.strip():
                batches.append(json.loads(line))
    return batches


# ---------------------------------------------------------------------------
# Counters read from call results (no span timing involved)
# ---------------------------------------------------------------------------


def _arg(args: Sequence[Any], kwargs: Dict[str, Any], position: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[position]


def _after_put(counts: Dict[str, float], out: Any, args: Any, kwargs: Any) -> None:
    if out is False:
        counts["melissa.reservoir_rejects"] += 1


def _after_train(counts: Dict[str, float], out: Any, args: Any, kwargs: Any) -> None:
    if not out:
        counts["session.starved_ticks"] += 1


def _after_observe(counts: Dict[str, float], out: Any, args: Any, kwargs: Any) -> None:
    counts["breed.observations"] += len(_arg(args, kwargs, 2, "simulation_ids"))


def _after_steer(counts: Dict[str, float], out: Any, args: Any, kwargs: Any) -> None:
    if out is not None:
        counts["breed.steerings"] += 1
        counts["breed.n_applied"] += out.n_applied
        counts["breed.n_requested"] += out.n_requested


def _after_result(counts: Dict[str, float], out: Any, args: Any, kwargs: Any) -> None:
    session = args[0]
    counts["session.results"] += 1
    counts["melissa.messages"] += session.transport.total_messages()
    counts["melissa.transport_bytes"] += out.transport_bytes
    counts["melissa.reservoir_reuse_sum"] += session.reservoir.reuse_statistics()[0]


AFTER: Dict[str, Callable[[Dict[str, float], Any, Any, Any], None]] = {
    "melissa.reservoir_put": _after_put,
    "session.train": _after_train,
    "breed.observe": _after_observe,
    "breed.steer": _after_steer,
    "session.result": _after_result,
}
