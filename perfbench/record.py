"""Regenerate ``perfbench/reference.json``: the reference digests.

Run from the root of a source checkout after a change that is meant to
alter simulated results (a model change)::

    python3 perfbench/record.py

Every point of every workload is simulated once per recorded seed and
its summary digest stored; for the default and the held-out seed the
key simulated outputs are stored too, and checked exactly by the
benchmark.  In-process workloads fan out over ``nproc`` spawned
workers; the sweep-pool points run through ``run_sweep(workers=1)``,
which the sweep engine guarantees byte-identical to any worker count.
"""

from __future__ import annotations

import concurrent.futures
import json
import multiprocessing
import os
import sys

from run import HERE, import_repro

DEFAULT_SEED = 1
HELD_OUT_SEED = 97
SEEDS = tuple(range(0, 21)) + (HELD_OUT_SEED,)


def record(name: str, seed: int) -> dict:
    """Digests (and key outputs for the featured seeds) of one seed."""
    import_repro()
    from workloads import (
        KEY_OUTPUTS, WORKLOADS, InProcessWorkload, digest,
    )
    from repro.sim import run_sweep

    wl = WORKLOADS[name]
    if isinstance(wl, InProcessWorkload):
        summaries = {
            f"{app}/{label}": wl.run_point(app, label, seed)["summary"]
            for app, label in wl.points
        }
    else:
        data = run_sweep(wl.grid(seed), workers=1, cache=False,
                         ledger=False).data
        summaries = {f"{app}/{label}": data[app][label]
                     for app, label in wl.points}
    out = {"digests": {p: digest(s) for p, s in summaries.items()}}
    if seed in (DEFAULT_SEED, HELD_OUT_SEED):
        out["key_outputs"] = {
            p: {key: s[key] for key, _unit in KEY_OUTPUTS}
            for p, s in summaries.items()
        }
    return out


def main() -> int:
    import_repro()
    from workloads import WORKLOADS, nproc

    tasks = [(name, seed) for name in WORKLOADS for seed in SEEDS]
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=nproc(), mp_context=ctx) as pool:
        futures = {pool.submit(record, *task): task for task in tasks}
        done = {futures[f]: f.result()
                for f in concurrent.futures.as_completed(futures)}
    reference = {
        "digest": "sha256 of SimulationResult.to_dict() as canonical "
                  "JSON (sorted keys, compact separators), first 16 hex",
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {
            name: {str(seed): done[(name, seed)] for seed in SEEDS}
            for name in WORKLOADS
        },
    }
    path = os.path.join(HERE, "reference.json")
    with open(path, "w", encoding="ascii") as fp:
        json.dump(reference, fp, indent=1, sort_keys=True)
        fp.write("\n")
    print(f"wrote {path}: {len(tasks)} (workload, seed) entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
