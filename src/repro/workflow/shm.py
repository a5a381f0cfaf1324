"""Shared-memory plumbing for zero-copy parallel studies.

A parallel study would otherwise ship every study input and result across
process boundaries by pickling: workers would rebuild the (expensive)
per-scenario validation set from scratch, and every
:class:`~repro.workflow.results.RunResult` — metric *series* included —
would be serialized on its way back.  This module is the zero-copy transport
the ``"shm"`` backend builds on:

* :class:`SharedArrayPool` — named ``multiprocessing.shared_memory`` blocks
  behind a picklable manifest ``(key, block name, dtype, shape)`` with
  per-block refcounts and guaranteed, idempotent cleanup (``close`` /
  ``unlink`` / context manager).  Attached processes map the blocks
  zero-copy; nothing is ever duplicated.
* :class:`SharedStudyInputs` — each scenario's fixed validation set
  (inputs, targets, Halton parameters — the large read-only study inputs)
  placed into pool blocks *once* by the parent, so every worker attaches
  instead of re-running the solver over the validation trajectories.
* :class:`SharedResultRing` — a preallocated ``(n_slots, slot_floats)``
  float64 ring through which workers hand result series back *in place*:
  a worker claims a free slot, writes its series arrays, and returns only
  a tiny layout descriptor; the parent reads the slot and recycles it.
  Oversized series fall back to ordinary pickling (``try_write`` returns
  ``None``), so the ring is an optimization, never a correctness limit.

Attaching registers nothing with the ``multiprocessing`` resource tracker
(``track=False`` where available, explicit unregistration otherwise): the
creating process owns the lifetime of every block, which is what keeps
worker crashes from leaking — or worse, prematurely destroying — segments.
All block names carry :data:`SHM_NAME_PREFIX`, so tests can assert that
``/dev/shm`` holds zero orphaned segments after any pool lifecycle.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.surrogate.validation import ValidationSet

__all__ = [
    "SHM_NAME_PREFIX",
    "SharedArrayPool",
    "SharedArrayRef",
    "SharedResultRing",
    "SharedStudyInputs",
    "orphaned_segments",
]

#: prefix of every shared-memory block created by this module (leak checks
#: scan /dev/shm for it)
SHM_NAME_PREFIX = "repro_shm_"


def _new_block_name() -> str:
    """A unique, prefixed shared-memory block name."""
    return f"{SHM_NAME_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach an existing block without resource-tracker registration.

    The tracker assumes whoever registers a segment owns it; an attaching
    worker does not, and letting it register would make the tracker unlink
    the creator's live segment when the worker exits (bpo-39959).  Python
    3.13 grew ``track=False`` for exactly this; older versions need the
    registration suppressed during the attach — *suppressed*, not undone
    after the fact: forked workers share the parent's tracker process, so a
    register/unregister pair in a worker would erase the creator's own
    registration.
    """
    try:
        return shared_memory.SharedMemory(name=name, create=False, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def _skip_shared_memory(resource_name: str, rtype: str) -> None:
            if rtype != "shared_memory":  # pragma: no cover - other rtypes
                original(resource_name, rtype)

        resource_tracker.register = _skip_shared_memory
        try:
            return shared_memory.SharedMemory(name=name, create=False)
        finally:
            resource_tracker.register = original


def orphaned_segments() -> List[str]:
    """Names of leftover ``/dev/shm`` segments created by this module.

    Empty on platforms without ``/dev/shm``; tests assert this is empty
    after every pool lifecycle (including worker-crash paths).
    """
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-Linux
        return []
    return sorted(name for name in os.listdir(root) if name.startswith(SHM_NAME_PREFIX))


@dataclass(frozen=True)
class SharedArrayRef:
    """Picklable address of one array inside a :class:`SharedArrayPool`."""

    key: str
    block: str
    dtype: str
    shape: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        return int(np.dtype(self.dtype).itemsize * int(np.prod(self.shape, dtype=np.int64)))


class SharedArrayPool:
    """Named shared-memory blocks behind a picklable manifest.

    The *owner* (the process that called the constructor) ``put``\\ s arrays —
    one block per array, copied in once — and is the only process allowed to
    ``unlink``.  Workers rebuild a pool from :meth:`manifest` via
    :meth:`attach` and ``get`` zero-copy views.  ``close`` and ``unlink`` are
    idempotent (double-close is a no-op) and a pool is a context manager:
    owners unlink on exit, attachments merely unmap.
    """

    def __init__(self) -> None:
        self._refs: Dict[str, SharedArrayRef] = {}
        self._blocks: Dict[str, shared_memory.SharedMemory] = {}
        #: open handles per block in *this* process (manifest refcount)
        self._refcount: Dict[str, int] = {}
        self._owner = True
        self._closed = False
        self._unlinked = False

    # ----------------------------------------------------------------- owner
    def put(self, key: str, array: np.ndarray) -> SharedArrayRef:
        """Copy ``array`` into a fresh shared block registered under ``key``."""
        if not self._owner:
            raise RuntimeError("only the owning pool can put() arrays")
        if self._closed:
            raise RuntimeError("pool is closed")
        if key in self._refs:
            raise KeyError(f"key {key!r} already in pool")
        source = np.ascontiguousarray(array)
        block = shared_memory.SharedMemory(
            name=_new_block_name(), create=True, size=max(1, source.nbytes)
        )
        view = np.ndarray(source.shape, dtype=source.dtype, buffer=block.buf)
        view[...] = source
        ref = SharedArrayRef(
            key=key, block=block.name, dtype=source.dtype.str, shape=tuple(source.shape)
        )
        self._refs[key] = ref
        self._blocks[block.name] = block
        self._refcount[block.name] = 1
        return ref

    # ------------------------------------------------------------ attachment
    @classmethod
    def attach(cls, manifest: Dict[str, Any]) -> "SharedArrayPool":
        """Rebuild a (non-owning) pool from another process's manifest."""
        pool = cls()
        pool._owner = False
        for payload in manifest["arrays"]:
            ref = SharedArrayRef(
                key=payload["key"],
                block=payload["block"],
                dtype=payload["dtype"],
                shape=tuple(payload["shape"]),
            )
            pool._refs[ref.key] = ref
        return pool

    def manifest(self) -> Dict[str, Any]:
        """Picklable description of every array (name, dtype, shape, refcount)."""
        return {
            "arrays": [
                {
                    "key": ref.key,
                    "block": ref.block,
                    "dtype": ref.dtype,
                    "shape": list(ref.shape),
                    "refcount": self._refcount.get(ref.block, 0),
                }
                for ref in self._refs.values()
            ]
        }

    # ------------------------------------------------------------------ views
    def __contains__(self, key: str) -> bool:
        return key in self._refs

    def __len__(self) -> int:
        return len(self._refs)

    def refcount(self, key: str) -> int:
        """Open handles this process holds on ``key``'s block."""
        return self._refcount.get(self._refs[key].block, 0)

    def get(self, key: str, writable: bool = False) -> np.ndarray:
        """Zero-copy ndarray view of ``key`` (attaching the block on demand).

        Views are read-only unless ``writable`` — shared study inputs must
        never be mutated by a worker, while result rings are written in
        place by design.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        ref = self._refs[key]
        block = self._blocks.get(ref.block)
        if block is None:
            block = _attach_block(ref.block)
            self._blocks[ref.block] = block
            self._refcount[ref.block] = self._refcount.get(ref.block, 0) + 1
        view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=block.buf)
        view.flags.writeable = bool(writable)
        return view

    # ---------------------------------------------------------------- cleanup
    def close(self) -> None:
        """Unmap every open block handle (idempotent; views die with it)."""
        if self._closed:
            return
        self._closed = True
        for name, block in self._blocks.items():
            try:
                block.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            self._refcount[name] = 0

    def unlink(self) -> None:
        """Destroy the underlying segments (owner only; implies close)."""
        if not self._owner:
            raise RuntimeError("only the owning pool can unlink()")
        self.close()
        if self._unlinked:
            return
        self._unlinked = True
        for block in self._blocks.values():
            try:
                block.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedArrayPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._owner:
            self.unlink()
        else:
            self.close()


# ---------------------------------------------------------------------------
# Shared study inputs
# ---------------------------------------------------------------------------


class SharedStudyInputs:
    """Per-scenario validation sets placed in shared memory once.

    The parent builds each distinct scenario's validation set (the dominant
    study input: solver trajectories over the full Halton parameter set) and
    ``put``\\ s its three arrays into a :class:`SharedArrayPool`.  Workers
    :meth:`attach` and rebuild :class:`ValidationSet` objects whose arrays
    are read-only views into the shared blocks — zero copies, no matter how
    many workers or runs share the scenario.

    Scenario keys are the opaque hashable keys of
    :meth:`repro.workflow.executor.StudyInputCache.key`, so the executor's
    worker-side cache can look shared inputs up exactly where it would have
    rebuilt them.
    """

    def __init__(
        self,
        pool: SharedArrayPool,
        scenarios: Sequence[Tuple[Hashable, Optional[Dict[str, Any]]]],
    ) -> None:
        self.pool = pool
        self._scenarios: Dict[Hashable, Optional[Dict[str, Any]]] = dict(scenarios)
        self._cache: Dict[Hashable, Optional[ValidationSet]] = {}

    @classmethod
    def build(
        cls, entries: Iterable[Tuple[Hashable, Optional[ValidationSet]]]
    ) -> "SharedStudyInputs":
        """Owner-side constructor: share each scenario's validation arrays.

        ``entries`` yields ``(scenario key, validation set or None)`` pairs;
        a ``None`` validation set (validation disabled) is recorded so
        workers know not to rebuild one either.
        """
        pool = SharedArrayPool()
        scenarios: List[Tuple[Hashable, Optional[Dict[str, Any]]]] = []
        for index, (key, validation) in enumerate(entries):
            if validation is None:
                scenarios.append((key, None))
                continue
            prefix = f"scenario{index}"
            scenarios.append(
                (
                    key,
                    {
                        "inputs": pool.put(f"{prefix}/inputs", validation.inputs),
                        "targets": pool.put(f"{prefix}/targets", validation.targets),
                        "parameters": pool.put(f"{prefix}/parameters", validation.parameters),
                        "n_trajectories": int(validation.n_trajectories),
                        "n_timesteps": int(validation.n_timesteps),
                    },
                )
            )
        return cls(pool, scenarios)

    def manifest(self) -> Dict[str, Any]:
        return {
            "pool": self.pool.manifest(),
            "scenarios": [
                (key, None if entry is None else {
                    "inputs": entry["inputs"].key,
                    "targets": entry["targets"].key,
                    "parameters": entry["parameters"].key,
                    "n_trajectories": entry["n_trajectories"],
                    "n_timesteps": entry["n_timesteps"],
                })
                for key, entry in self._scenarios.items()
            ],
        }

    @classmethod
    def attach(cls, manifest: Dict[str, Any]) -> "SharedStudyInputs":
        pool = SharedArrayPool.attach(manifest["pool"])
        scenarios = []
        for key, entry in manifest["scenarios"]:
            # JSON-free transport (pickle) preserves tuple keys as-is.
            scenarios.append((key, entry))
        attached = cls.__new__(cls)
        attached.pool = pool
        attached._scenarios = dict(scenarios)
        attached._cache = {}
        return attached

    def __contains__(self, key: Hashable) -> bool:
        return key in self._scenarios

    def __len__(self) -> int:
        return len(self._scenarios)

    def validation_set(self, key: Hashable) -> Optional[ValidationSet]:
        """The shared validation set of scenario ``key`` (zero-copy views).

        Raises ``KeyError`` for unknown scenarios — callers distinguish
        "validation disabled" (``None``) from "not shared" via ``in``.
        """
        if key not in self._scenarios:
            raise KeyError(f"scenario {key!r} not in shared study inputs")
        if key not in self._cache:
            entry = self._scenarios[key]
            if entry is None:
                self._cache[key] = None
            else:
                name = lambda field: (  # noqa: E731 - owner refs vs attached keys
                    entry[field].key if isinstance(entry[field], SharedArrayRef) else entry[field]
                )
                self._cache[key] = ValidationSet(
                    inputs=self.pool.get(name("inputs")),
                    targets=self.pool.get(name("targets")),
                    parameters=self.pool.get(name("parameters")),
                    n_trajectories=int(entry["n_trajectories"]),
                    n_timesteps=int(entry["n_timesteps"]),
                )
        return self._cache[key]

    def close(self) -> None:
        self._cache.clear()
        self.pool.close()

    def unlink(self) -> None:
        self._cache.clear()
        self.pool.unlink()


# ---------------------------------------------------------------------------
# Shared result ring
# ---------------------------------------------------------------------------


class SharedResultRing:
    """Preallocated float64 slots through which workers return result series.

    One shared block of shape ``(n_slots, slot_floats)``.  A worker that owns
    a free slot packs its series arrays back-to-back into the slot row with
    :meth:`try_write` and sends only the returned layout — a ``key ->
    (offset, length)`` dict — to the parent, which :meth:`read`\\ s the values
    out and recycles the slot.  Slot ownership/recycling is coordinated by
    the executor (a queue of free slot indices); the ring itself is just the
    memory and the packing rule.

    ``try_write`` returns ``None`` when the series do not fit, signalling the
    caller to fall back to pickling the series — correctness never depends
    on the capacity estimate.
    """

    def __init__(self, n_slots: int, slot_floats: int, _attach: Optional[Dict[str, Any]] = None) -> None:
        if _attach is not None:
            self.pool = SharedArrayPool.attach(_attach)
        else:
            if n_slots < 1 or slot_floats < 1:
                raise ValueError("n_slots and slot_floats must be >= 1")
            self.pool = SharedArrayPool()
            self.pool.put("ring", np.zeros((n_slots, slot_floats), dtype=np.float64))
        self.n_slots = int(n_slots)
        self.slot_floats = int(slot_floats)

    def manifest(self) -> Dict[str, Any]:
        return {
            "pool": self.pool.manifest(),
            "n_slots": self.n_slots,
            "slot_floats": self.slot_floats,
        }

    @classmethod
    def attach(cls, manifest: Dict[str, Any]) -> "SharedResultRing":
        return cls(
            n_slots=int(manifest["n_slots"]),
            slot_floats=int(manifest["slot_floats"]),
            _attach=manifest["pool"],
        )

    def _slot(self, slot: int, writable: bool) -> np.ndarray:
        if not 0 <= slot < self.n_slots:
            raise IndexError(f"slot {slot} out of range [0, {self.n_slots})")
        return self.pool.get("ring", writable=writable)[slot]

    def try_write(
        self, slot: int, series: Dict[str, np.ndarray]
    ) -> Optional[Dict[str, Tuple[int, int]]]:
        """Pack ``series`` into ``slot``; layout on success, None on overflow."""
        total = sum(int(np.asarray(values).size) for values in series.values())
        if total > self.slot_floats:
            return None
        row = self._slot(slot, writable=True)
        layout: Dict[str, Tuple[int, int]] = {}
        offset = 0
        for key, values in series.items():
            data = np.asarray(values, dtype=np.float64).reshape(-1)
            row[offset : offset + data.size] = data
            layout[key] = (offset, int(data.size))
            offset += data.size
        return layout

    def read(self, slot: int, layout: Dict[str, Tuple[int, int]]) -> Dict[str, List[float]]:
        """Series lists packed into ``slot`` (the RunResult series shape)."""
        row = self._slot(slot, writable=False)
        return {
            key: row[offset : offset + length].tolist()
            for key, (offset, length) in layout.items()
        }

    def close(self) -> None:
        self.pool.close()

    def unlink(self) -> None:
        self.pool.unlink()

    def __enter__(self) -> "SharedResultRing":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self.pool._owner:
            self.unlink()
        else:
            self.close()
