"""Benchmark driver: one workload, one seed, timed end to end or traced by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload breed_long --seed 7 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, as medians over repetitions of the
workload with the same seed; with ``--trace 1`` they are the per-layer ones
of a traced repetition, each paired with an untraced repetition that gives
the tracing overhead.  The line before it lists the environment fingerprint.
A full report (every repetition, the environment, the spans of the traced
repetitions) is written under ``.perfbench-out/`` in the checkout.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the driver exits with status 3 before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_slice", "breed_long", "campaign_shm")
#: repetitions of one seed in every run, for medians and the determinism
#: check; one ``paper_slice`` repetition takes 25-60 s, so one is the minimum
#: that keeps a full benchmark set inside its time budget
MIN_REPS = {"paper_slice": 1}
#: guard against a run that outlasts its 180 s budget on a slow machine
MAX_RUN_S = 150.0
#: BLAS threading variables, recorded as found and never set
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> Dict[str, Any]:
    """What the numbers depend on besides the code: recorded, never changed."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def peak_rss_mb(workload: str) -> float:
    """Peak resident memory of the driver (plus its largest worker for campaigns)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "campaign_shm":
        # getrusage reports only the largest waited-for descendant
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


def stop_resource_tracker() -> None:
    """End the helper process shared memory starts, so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def source_digest() -> str:
    """Fingerprint of the program's source: results are compared per version."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def agrees_with_earlier_runs(ledger: Path, key: str, fingerprint: Any) -> bool:
    """Record this run's result under ``key``; False if an earlier run differed.

    Runs of one seed on one source version, traced or not, in this checkout
    must agree bit for bit.  JSON keeps every digit of a float.
    """
    seen = json.loads(ledger.read_text()) if ledger.exists() else {}
    value = json.dumps(fingerprint)
    if seen.setdefault(key, value) != value:
        return False
    tmp = ledger.with_name(f".{ledger.name}.{os.getpid()}")
    tmp.write_text(json.dumps(seen, indent=1))
    os.replace(tmp, ledger)
    return True


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 3
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import drivers
    import layers
    from spans import Recorder, load_worker_batches

    out = ROOT / ".perfbench-out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = out / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    recorder = Recorder(worker_dir=work if args.trace else None)
    probes = drivers.PROBES.get(args.workload, ())
    # Lazy imports and first-use allocations land in an untimed tiny
    # repetition, not in the first measured one.  A failure here shows again
    # in the measured repetitions, which count it.
    try:
        drivers.run(args.workload, args.seed, recorder, work, "tiny")
    except Exception:  # noqa: BLE001
        traceback.print_exc()
    reps: List[Dict[str, Any]] = []
    attempted = failed = 0
    began = time.perf_counter()
    try:
        while True:
            is_traced = bool(args.trace) and attempted % 2 == 1
            attempted += 1
            for stale in work.glob("spans-*.jsonl"):
                stale.unlink()
            recorder.clear()
            recorder.install(None if is_traced else probes)
            try:
                rep = drivers.run(args.workload, args.seed, recorder, work, args.size)
            except Exception:  # noqa: BLE001 - a failed repetition is counted, not fatal
                traceback.print_exc()
                failed += 1
                rep = None
            finally:
                recorder.uninstall()
            if rep is not None:
                if rep.problems:
                    print(f"rep {attempted}: failed checks: {rep.problems}", file=sys.stderr)
                    failed += 1
                record = {"traced": is_traced, **rep.__dict__}
                if is_traced:
                    record["trace"] = {
                        "spans": recorder.spans(),
                        "counts": dict(recorder.counts),
                        "workers": load_worker_batches(work),
                        "missing": set(recorder.missing),
                    }
                reps.append(record)
            elapsed = time.perf_counter() - began
            durations = [r["wall_s"] for r in reps] or [elapsed / attempted]
            next_end = elapsed + statistics.median(durations) * (2 if args.trace else 1)
            if args.trace and attempted % 2:
                continue  # finish the untraced/traced pair
            min_reps = MIN_REPS.get(args.workload, 2)
            if elapsed > MAX_RUN_S or (attempted >= min_reps and next_end > min(args.seconds, MAX_RUN_S)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        stop_resource_tracker()

    good = [r for r in reps if not r["problems"]]
    # Determinism: every repetition of one seed must agree bit for bit, with
    # each other and with earlier runs of the seed on the same source.
    out.mkdir(parents=True, exist_ok=True)
    key = f"{args.workload}/{args.size}/seed{args.seed}/src{source_digest()}"
    for record in good:
        if record["fingerprint"] != good[0]["fingerprint"]:
            record["problems"].append("result differs from the first repetition of this seed")
            failed += 1
    if good and not agrees_with_earlier_runs(out / "results.json", key, good[0]["fingerprint"]):
        good[0]["problems"].append(f"result differs from an earlier run of {key}")
        failed += 1
    good = [r for r in good if not r["problems"]]
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]

    metrics: Dict[str, Dict[str, Any]] = {}
    missing: List[str] = []
    if args.trace and traced and untraced:
        baseline = statistics.median(r["wall_s"] for r in untraced)
        workers = drivers.SIZES[args.workload][args.size].get("workers", 1)
        per_rep = []
        for record in traced:
            trace = record["trace"]
            values, missing = layers.compute(
                trace["spans"],
                trace["counts"],
                trace["workers"],
                trace["missing"],
                record["wall_s"],
                baseline,
                workers,
                record["val_mse"],
            )
            per_rep.append(values)
        for name in layers.NAMES:
            if name in per_rep[0]:
                value = statistics.median(values[name] for values in per_rep)
                metrics[name] = {"value": value, "unit": layers.unit(name)}
    elif not args.trace and untraced:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in untraced), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in untraced), "unit": "s"},
            "train_samples_per_s": {
                "value": statistics.median(r["samples"] / r["run_s"] for r in untraced),
                "unit": "1/s",
            },
            "val_psnr_db": {"value": -10.0 * math.log10(untraced[0]["val_mse"]), "unit": "dB"},
            "peak_rss_mb": {"value": peak_rss_mb(args.workload), "unit": "MB"},
        }
    if not args.trace:
        metrics["success_rate"] = {"value": 1.0 - failed / attempted, "unit": "ratio"}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "env": env,
        "reps": [{k: v for k, v in r.items() if k not in ("fingerprint", "trace")} for r in reps],
        "metrics": metrics,
        "missing": missing,
    }
    (out / f"{tag}.json").write_text(json.dumps(report, indent=2))
    if args.trace:
        with (out / f"{tag}.spans.jsonl").open("w") as stream:
            for record in (r for r in reps if r["traced"]):
                trace = record["trace"]
                for batch in [{"pid": os.getpid(), "spans": trace["spans"]}, *trace["workers"]]:
                    stream.write(json.dumps({"pid": batch["pid"], "spans": batch["spans"]}) + "\n")
    if missing:
        print("missing " + json.dumps(missing), flush=True)
    result = {
        "correct": bool(reps) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
