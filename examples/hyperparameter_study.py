#!/usr/bin/env python
"""Reproduce a slice of the paper's hyper-parameter study (Figure 3b) with the
workflow orchestrator.

The paper drives its studies with Snakemake; the equivalent here is
:class:`repro.workflow.StudyRunner` plus :func:`one_factor_at_a_time`: a base
configuration (Table 1, study 2/3 values) and a set of one-factor-at-a-time
variations, each executed as an independent Melissa run sharing the same fixed
validation set.

The runs are independent, so ``--jobs N`` fans them out over the shared-memory
worker pool (bit-identical results, any completion order), and ``--checkpoint FILE``
streams finished runs to a JSONL file that a re-invocation resumes from —
kill the study mid-way, run the same command again, and only the remaining
configurations execute.

Run with::

    python examples/hyperparameter_study.py [--factor sigma|period|window|r_start]
    python examples/hyperparameter_study.py --jobs 4 --checkpoint study.jsonl
"""

from __future__ import annotations

import argparse

from repro.experiments.base import base_config
from repro.workflow.grid import one_factor_at_a_time
from repro.workflow.study import StudyRunner

#: value grids per factor (reduced versions of the paper's Section 4.1 lists)
FACTOR_VALUES = {
    "sigma": [1.0, 10.0, 25.0],
    "period": [10, 30, 60],
    "window": [20, 60, 120],
    "r_start": [0.1, 0.5, 1.0],
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--factor", default="sigma", choices=sorted(FACTOR_VALUES))
    parser.add_argument("--scale", default="smoke", choices=["smoke", "small"])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker count; >1 runs the study on the shm executor backend")
    parser.add_argument("--checkpoint", default=None, metavar="JSONL",
                        help="stream finished runs to this JSONL file and resume from it")
    args = parser.parse_args()

    template = base_config(args.scale, method="breed", seed=args.seed)
    base_values = {
        "hidden_size": 16,
        "n_hidden_layers": 1,
        "sigma": template.breed.sigma,
        "period": template.breed.period,
        "window": template.breed.window,
        "r_start": template.breed.r_start,
    }
    configurations = one_factor_at_a_time(base_values, {args.factor: FACTOR_VALUES[args.factor]})

    backend = "shm" if args.jobs > 1 else "serial"
    runner = StudyRunner(
        base_config=template,
        study_name=f"fig3b-{args.factor}",
        backend=backend,
        max_workers=args.jobs,
    )
    print(f"Running {len(configurations)} Breed runs varying {args.factor!r} "
          f"(scale={args.scale}, backend={backend})...")
    results = runner.run_all(configurations, resume=args.checkpoint)

    print()
    print(results.table(
        columns=["_factor", "_value"],
        metric_columns=["final_train_loss", "final_validation_loss", "overfit_gap",
                        "steering_events", "elapsed_seconds"],
    ))
    best = results.best("final_validation_loss")
    if best is not None:
        print(f"\nbest {args.factor}: {best.config['_value']} "
              f"(validation MSE {best.metric('final_validation_loss'):.5f})")


if __name__ == "__main__":
    main()
