"""Self-check of the benchmark itself (about half a minute).

Run from the root of a source checkout::

    python3 perfbench/selfcheck.py

For every workload, a reduced run (two points, or one sweep pass) must
emit exactly the end-to-end metrics named in ``BENCHMARK.json`` with no
failed point, and a reduced traced run exactly the per-layer metrics.
Layer metrics must be zero where the layer does not run: estimators on
``paper-read-heavy``, the process pool outside ``sweep-pool``.  Finally a
reduced run against a reference with one corrupted digest must count
that point, and only that point, as failed.  Exits 1 on any violation.
"""

from __future__ import annotations

import copy
import json
import os
import sys

from run import ROOT, import_repro, load_references, run_workload

SEED = 1


def main() -> int:
    import_repro()
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fp:
        spec = json.load(fp)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for name in WORKLOADS:
        references = load_references(name)
        expect(str(SEED) in references,
               f"{name}: reference for seed {SEED}")
        line = run_workload(name, SEED, 1.0, False, references,
                            max_points=2)
        expect(set(line["metrics"]) == end_to_end and line["correct"]
               and line["failed"] == 0,
               f"{name}: reduced run emits every end-to-end metric, "
               f"no failures")

        line = run_workload(name, SEED, 1.0, True, references,
                            max_points=2)
        got = line["metrics"]
        expect(set(got) == per_layer and line["correct"],
               f"{name}: reduced traced run emits every per-layer metric "
               f"with unchanged results")
        estimators = [v["value"] for k, v in got.items()
                      if k.startswith("core.estimators.")]
        if name == "paper-read-heavy":
            expect(not any(estimators),
                   f"{name}: core.estimators.* are zero")
        pooled = got.get("sim.parallel.utilization", {}).get("value", 0.0)
        expect((pooled > 0) == (name == "sweep-pool"),
               f"{name}: sim.parallel.* non-zero only on sweep-pool")

        corrupted = copy.deepcopy(references)
        point = "/".join(WORKLOADS[name].points[0])
        corrupted[str(SEED)]["digests"][point] = "0" * 16
        line = run_workload(name, SEED, 1.0, False, corrupted,
                            max_points=2)
        expect(line["failed"] == 1 and not line["correct"],
               f"{name}: corrupted digest of {point} is one counted "
               f"failure")

    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
