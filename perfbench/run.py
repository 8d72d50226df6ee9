"""Benchmark driver: one workload, one seed, one time budget.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload paper-write-heavy --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

It imports ``repro`` from the checkout's ``src/`` (never an installed
copy), prints every point's key simulated outputs and every metric by
name with its unit, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs each point (or sweep pass)
untraced and then traced, reports the per-layer metrics and the
tracing overhead, and writes the trace records to ``.perfbench_out/``.
Exits 2 without a result when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_repro():
    """Import ``repro`` from ``<checkout>/src`` or exit 2."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        print(f"perfbench: no repro sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not {SRC}", file=sys.stderr)
        sys.exit(2)
    return repro


def load_references(workload: str):
    """The workload's recorded references, keyed by seed."""
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="ascii") as fp:
        reference = json.load(fp)
    return reference["workloads"].get(workload, {})


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 references=None, max_points=None):
    """Run one workload; print its points and metrics; return its
    result object (the JSON line's content)."""
    from workloads import KEY_OUTPUTS, WORKLOADS, Checker

    checker = Checker(references)
    report = WORKLOADS[name].run(seed, seconds, checker, trace=trace,
                                 max_points=max_points)
    print(f"== {name} seed={seed}: every point checked against its "
          f"recorded reference digest where one exists, and against its "
          f"first run in this run")
    print("   simulated outputs are model outputs, unvalidated against "
          "hardware: no error figure is given")
    for point, outputs in checker.outputs.items():
        shown = " ".join(f"{key}={outputs[key]!r} {unit}"
                         for key, unit in KEY_OUTPUTS)
        print(f"   {point}: {shown} [{outputs['checked by']}]")
    if report.factors:
        factor = statistics.median(report.factors)
        print(f"   host factor: median {factor:.4f} over "
              f"{len(report.factors)} points or passes; host times are in "
              f"reference-host units, uncalibrated values in brackets")
    for metric, (value, unit) in report.metrics.items():
        raw = report.raw.get(metric)
        shown = f" [raw {raw:.6g}]" if raw is not None else ""
        print(f"   {metric} = {value:.6g} {unit}{shown}")
    if trace:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
        with open(path, "w", encoding="ascii") as fp:
            json.dump(report.trace, fp)
    return {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in report.metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_repro()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)} or all")
    results = {
        name: run_workload(name, args.seed, args.seconds,
                           bool(args.trace),
                           load_references(name))
        for name in names
    }
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
