"""The benchmark's workloads, their runners and the result checks.

Two workloads run paper-scale points in-process through the public API
(``make_config``, ``with_write_buffer``, ``homogeneous``,
``CMPSimulator(...).run``); the third runs a short-point grid through
``run_sweep`` on a process pool.  Every point's summary
(``SimulationResult.to_dict()``) is hashed and checked: against the
recorded reference when ``reference.json`` holds one for the seed, and
always against the first run of the same point within the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim import (
    CMPSimulator, Scheme, SweepGrid, SweepRunStats, make_config,
    reset_state, run_sweep, with_write_buffer,
)
import repro.sim.parallel as parallel
from repro.workloads import homogeneous

from tracer import LayerTracer, layer_metrics

_perf = time.perf_counter

#: Figure-suite scale and window (benchmarks/common.py)
PAPER_SHAPE = {"mesh_width": 8, "capacity_scale": 1 / 16}
PAPER_WARMUP, PAPER_CYCLES = 1000, 2500
#: CI sweep-smoke scale and window
POOL_SHAPE = {"mesh_width": 4, "capacity_scale": 1 / 64}
POOL_WARMUP, POOL_CYCLES = 400, 1200

#: sweep-pool passes rotate through this many grid seeds
GRID_SEEDS = 4

#: BUFF-20 comparator: MRAM-64TSB plus a 20-entry write buffer per bank
BUFF20 = "MRAM-64TSB+BUFF-20"

KEY_OUTPUTS = (
    ("instruction_throughput", "instr/cycle"),
    ("avg_packet_latency", "cycles"),
    ("avg_bank_queue_wait", "cycles"),
)


def digest(summary: Dict) -> str:
    """Canonical-JSON SHA-256 of one point summary (first 16 hex)."""
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()[:16]


def interleave(apps: Sequence[str], labels: Sequence[str]
               ) -> List[Tuple[str, str]]:
    """Every (app, label) pair once, ordered so that any
    ``len(labels)`` consecutive points have every label and the apps
    rotate: a run cut part-way through a pass keeps a balanced mix."""
    n_apps, n_labels = len(apps), len(labels)
    block = math.lcm(n_apps, n_labels)
    order = [
        (apps[(k + k // block) % n_apps], labels[k % n_labels])
        for k in range(n_apps * n_labels)
    ]
    if len(set(order)) != len(order):
        raise ValueError("apps x labels do not interleave")
    return order


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped
    child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------------
# Host-speed calibration
# ----------------------------------------------------------------------

#: Geometric mean of ``HostProbe``'s two loop times on the reference
#: host (2 vCPUs at 2.0 GHz, CPython 3.11).  It only fixes the unit of
#: the calibrated host times ("reference-host seconds"): never change it.
REFERENCE_SAMPLE_S = 0.0110


class _Cell:
    __slots__ = ("key", "total", "recent")

    def __init__(self, key: int):
        self.key = key
        self.total = 0
        self.recent: List[int] = []

    def step(self, t: int) -> int:
        if self.key & 1:
            self.total += t
        recent = self.recent
        recent.append(t)
        if len(recent) > 4:
            recent.pop(0)
        return self.total


class HostProbe:
    """Fixed pure-Python loops that measure how fast the host is now.

    The shared host's speed swings by up to 2x within seconds and drifts
    by ~25% within minutes, moving every wall time the benchmark takes.
    Samples taken around a point or a sweep pass, divided by
    ``REFERENCE_SAMPLE_S``, give its host factor; its host times are
    divided by that.  The loops never touch ``repro``, so no change to
    the program can move them.  A sample is the geometric mean of two
    loops, because the simulator is hit by both kinds of interference:
    a cache-resident loop of method calls and dict updates, and a random
    walk over ~8 MB of lists and dicts.
    """

    def __init__(self):
        rng = random.Random(5)
        self._cells = [_Cell(i) for i in range(512)]
        self._values = [rng.random() for _ in range(120_000)]
        self._order = list(range(len(self._values)))
        rng.shuffle(self._order)
        self._table = {i * 7919: i for i in range(80_000)}
        self._keys = [rng.randrange(80_000) * 7919 for _ in range(10_000)]

    def _hot(self) -> float:
        counts: Dict[int, int] = {}
        total = 0
        start = _perf()
        for t in range(60):
            for cell in self._cells:
                total += cell.step(t)
                key = (cell.key * 31 + t) & 4095
                counts[key] = counts.get(key, 0) + 1
        return _perf() - start

    def _walk(self) -> float:
        values, order, table = self._values, self._order, self._table
        total = 0.0
        start = _perf()
        for j, key in enumerate(self._keys):
            total += values[order[j * 7]] + table.get(key, 0)
        return _perf() - start

    def factor(self) -> float:
        """This moment's host factor (> 1: slower than the reference)."""
        return math.sqrt(self._hot() * self._walk()) / REFERENCE_SAMPLE_S


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


class Checker:
    """Counts points and failures; checks every summary it is shown."""

    def __init__(self, references: Optional[Dict[str, Dict]]):
        #: seed -> {"digests": {point: hex}, "key_outputs": {point: {...}}}
        self.references = references or {}
        self.first: Dict[str, str] = {}
        #: "<point> seed=<n>" -> key outputs and what they were checked by
        self.outputs: Dict[str, Dict] = {}
        self.attempted = 0
        self.failed = 0

    def fail(self, point: str, why: str) -> None:
        self.failed += 1
        print(f"FAIL {point}: {why}", file=sys.stderr)

    def check(self, point: str, seed: int, summary: Optional[Dict]) -> bool:
        self.attempted += 1
        name = f"{point} seed={seed}"
        if summary is None:
            self.fail(name, "raised")
            return False
        reference = self.references.get(str(seed), {})
        got = digest(summary)
        want = reference.get("digests", {}).get(point)
        if want is not None and got != want:
            self.fail(name, f"digest {got} != reference {want}")
            return False
        first = self.first.setdefault(name, got)
        if got != first:
            self.fail(name, f"digest {got} != first run {first}")
            return False
        keys = reference.get("key_outputs", {}).get(point)
        if keys is not None:
            for key, _unit in KEY_OUTPUTS:
                if summary[key] != keys[key]:
                    self.fail(name, f"{key} {summary[key]!r} != "
                                    f"reference {keys[key]!r}")
                    return False
        if name not in self.outputs:
            self.outputs[name] = {
                key: summary[key] for key, _unit in KEY_OUTPUTS}
            self.outputs[name]["checked by"] = (
                "digest+key outputs" if keys is not None
                else "digest" if want is not None
                else "self-consistency")
        return True


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass
class Report:
    """What one run of one workload measured."""

    #: name -> (value, unit); host times in reference-host units
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: the end-to-end metrics from uncalibrated host times
    raw: Dict[str, float] = field(default_factory=dict)
    #: host factor of every measured point or pass
    factors: List[float] = field(default_factory=list)
    #: tracer records of every traced point (traced runs only)
    trace: List[Dict] = field(default_factory=list)

    def set_metrics(self, values: Dict[str, float]) -> None:
        self.metrics = {k: (v, UNITS[k]) for k, v in values.items()}


def _calibrate(record: Dict, factor: float) -> Dict:
    """A tracer record with its self times in reference-host seconds."""
    for row in record["methods"].values():
        row[0] /= factor
    return record


def _build_config(label: str, shape: Dict):
    if label == BUFF20:
        return with_write_buffer(
            make_config(Scheme.STTRAM_64TSB, **shape))
    return make_config(Scheme(label), **shape)


@dataclass
class InProcessWorkload:
    """Paper-scale points run one by one in this process."""

    name: str
    apps: Tuple[str, ...]
    labels: Tuple[str, ...]

    @property
    def points(self) -> List[Tuple[str, str]]:
        return interleave(self.apps, self.labels)

    def run_point(self, app: str, label: str, seed: int) -> Dict:
        """One point; returns its summary and host-time breakdown."""
        reset_state()
        t0 = _perf()
        config = _build_config(label, PAPER_SHAPE)
        workload = homogeneous(app, config, seed=seed)
        sim = CMPSimulator(config, workload)
        t1 = _perf()
        result = sim.run(PAPER_CYCLES, warmup=PAPER_WARMUP)
        t2 = _perf()
        summary = result.to_dict()
        return {
            "summary": summary,
            "setup_s": t1 - t0,
            "simulate_s": t2 - t1,
            "wall_s": _perf() - t0,
            "committed": sum(c.stats.committed for c in sim.cores),
        }

    def _attempt(self, checker: Checker, app: str, label: str,
                 seed: int) -> Optional[Dict]:
        point = f"{app}/{label}"
        try:
            row = self.run_point(app, label, seed)
        except Exception:
            traceback.print_exc()
            checker.check(point, seed, None)
            return None
        return row if checker.check(point, seed, row["summary"]) else None

    def run(self, seed: int, seconds: float, checker: Checker,
            trace: bool = False, max_points: Optional[int] = None
            ) -> Report:
        """Cycle through the points until ``seconds`` have passed (at
        least one full pass, or ``max_points`` points when given)."""
        points = self.points
        at_least = len(self.labels) if trace else len(points)
        report = Report()
        probe = HostProbe()
        rows: List[Dict] = []
        untraced_s = traced_s = 0.0
        tracer = LayerTracer() if trace else None
        start = _perf()
        # Each point's host factor is the mean of the probes just before
        # and just after it.
        before = probe.factor()
        i = 0
        while True:
            app, label = points[i % len(points)]
            row = self._attempt(checker, app, label, seed)
            after = probe.factor()
            if row is not None:
                row["point"] = f"{app}/{label}"
                row["factor"] = (before + after) / 2
                rows.append(row)
                report.factors.append(row["factor"])
            before = after
            if tracer is not None:
                # The same point again under the tracer: its result must
                # not change, and the pair gives the tracing overhead.
                tracer.end_point()
                tracer.install()
                try:
                    traced = self._attempt(checker, app, label, seed)
                finally:
                    tracer.uninstall()
                record = tracer.end_point()
                after = probe.factor()
                if row is not None and traced is not None:
                    untraced_s += row["wall_s"]
                    traced_s += traced["wall_s"]
                    record["point"] = f"{app}/{label}"
                    report.trace.append(
                        _calibrate(record, (before + after) / 2))
                before = after
            i += 1
            if max_points is not None:
                if i >= max_points:
                    break
            elif i >= at_least and _perf() - start >= seconds:
                break
        if tracer is not None:
            metrics = layer_metrics(report.trace)
            metrics["sim.parallel.utilization"] = 0.0
            metrics["sim.parallel.overhead_share"] = 0.0
            metrics["trace.overhead_ratio"] = (
                traced_s / untraced_s if untraced_s else 0.0)
            report.set_metrics(metrics)
            return report
        report.set_metrics(self._metrics(rows, calibrated=True))
        report.raw = self._metrics(rows, calibrated=False)
        return report

    @staticmethod
    def _metrics(rows: List[Dict], calibrated: bool) -> Dict[str, float]:
        """Throughput of one full pass, from the mean of every point's
        runs: a run that ends part-way through a pass, or a seed that
        fits more fast points in, does not change the mix."""
        def host(row: Dict, key: str) -> float:
            return row[key] / row["factor"] if calibrated else row[key]

        if not rows:
            return dict.fromkeys(("points_per_s", "sim_kips", "setup_s",
                                  "peak_rss_mb"), 0.0)
        by_point: Dict[str, List[Dict]] = {}
        for row in rows:
            by_point.setdefault(row["point"], []).append(row)

        def per_pass(value: Callable[[Dict], float]) -> float:
            return sum(statistics.fmean(value(r) for r in runs)
                       for runs in by_point.values())

        return {
            "points_per_s": len(by_point) / per_pass(
                lambda r: host(r, "wall_s")),
            "sim_kips": per_pass(lambda r: r["committed"]) / per_pass(
                lambda r: host(r, "simulate_s")) / 1e3,
            "setup_s": statistics.median(host(r, "setup_s") for r in rows),
            "peak_rss_mb": peak_rss_mb(),
        }


@dataclass
class SweepPoolWorkload:
    """A short-point grid through ``run_sweep`` on ``nproc`` workers."""

    name: str
    apps: Tuple[str, ...]
    labels: Tuple[str, ...]

    @property
    def points(self) -> List[Tuple[str, str]]:
        return [(a, s) for a in self.apps for s in self.labels]

    def grid(self, seed: int) -> SweepGrid:
        return SweepGrid(
            apps=list(self.apps),
            schemes=[Scheme(label) for label in self.labels],
            cycles=POOL_CYCLES, warmup=POOL_WARMUP, seed=seed,
            overrides=dict(POOL_SHAPE),
        )

    def run_pass(self, seed: int, checker: Checker, probe: HostProbe,
                 on_result: Optional[Callable[[], None]] = None) -> Dict:
        """One cold-cache sweep of the grid; returns its timings."""
        stats = SweepRunStats()
        first: List[float] = []

        def progress(app, scheme) -> None:
            if not first:
                first.append(_perf())
            if on_result is not None:
                on_result()

        before = probe.factor()
        t0 = _perf()
        try:
            results = run_sweep(
                self.grid(seed), progress, workers=nproc(), cache=False,
                ledger=False, stats=stats,
            )
            wall = _perf() - t0
        except Exception:
            traceback.print_exc()
            for app, label in self.points:
                checker.check(f"{app}/{label}", seed, None)
            return {}
        finally:
            # run_sweep leaves its pool shutting down; reap every worker
            # so passes do not overlap and none outlives the benchmark.
            for child in multiprocessing.active_children():
                child.join()
        instructions = 0
        for app, label in self.points:
            summary = results.data[app][label]
            if checker.check(f"{app}/{label}", seed, summary):
                instructions += summary["instructions"]
        return {
            # probed while the pool's workers are not running
            "factor": (before + probe.factor()) / 2,
            "wall_s": wall,
            "setup_s": first[0] - t0,
            "busy_s": stats.busy_seconds,
            "utilization": stats.utilization,
            "instructions": instructions,
            "points": stats.points,
        }

    def run(self, seed: int, seconds: float, checker: Checker,
            trace: bool = False, max_points: Optional[int] = None
            ) -> Report:
        """Whole cold-cache passes until ``seconds`` have passed (at
        least one; ``max_points`` caps the passes at one).

        Pass ``k`` uses grid seed ``seed + k % GRID_SEEDS``: at 4x4 the
        instructions a point commits vary by ~10% between seeds, so one
        seed per run would make ``sim_kips`` a property of the seed.
        """
        report = Report()
        probe = HostProbe()
        passes: List[Dict] = []
        untraced_s = traced_s = 0.0
        start = _perf()
        k = 0
        while True:
            grid_seed = seed + k % GRID_SEEDS
            k += 1
            row = self.run_pass(grid_seed, checker, probe)
            if row:
                passes.append(row)
                report.factors.append(row["factor"])
            if trace:
                traced = self._traced_pass(grid_seed, checker, probe,
                                           report.trace)
                if row and traced:
                    untraced_s += row["wall_s"]
                    traced_s += traced["wall_s"]
            if max_points is not None or _perf() - start >= seconds:
                break
        if trace:
            metrics = layer_metrics(report.trace)
            utilization = statistics.median(
                p["utilization"] for p in passes) if passes else 0.0
            metrics["sim.parallel.utilization"] = utilization
            metrics["sim.parallel.overhead_share"] = 1.0 - utilization
            metrics["trace.overhead_ratio"] = (
                traced_s / untraced_s if untraced_s else 0.0)
            report.set_metrics(metrics)
            return report
        report.set_metrics(self._metrics(passes, calibrated=True))
        report.raw = self._metrics(passes, calibrated=False)
        return report

    @staticmethod
    def _metrics(passes: List[Dict], calibrated: bool) -> Dict[str, float]:
        def host(row: Dict, key: str) -> float:
            return row[key] / row["factor"] if calibrated else row[key]

        if not passes:
            return dict.fromkeys(("points_per_s", "sim_kips", "setup_s",
                                  "peak_rss_mb"), 0.0)
        return {
            "points_per_s": statistics.median(
                p["points"] / host(p, "wall_s") for p in passes),
            "sim_kips": sum(p["instructions"] for p in passes) / sum(
                host(p, "busy_s") for p in passes) / 1e3,
            "setup_s": statistics.median(host(p, "setup_s")
                                         for p in passes),
            "peak_rss_mb": peak_rss_mb(),
        }

    def _traced_pass(self, seed: int, checker: Checker, probe: HostProbe,
                     records: List[Dict]) -> Dict:
        """One pass with the tracer installed in the pool's workers.

        The pool forks after installation, so each worker inherits the
        wrapped classes; a wrapper around ``simulate_point`` ships each
        point's totals back through a pipe, drained as results arrive.
        """
        tracer = LayerTracer()
        channel = multiprocessing.get_context("fork").SimpleQueue()
        original = parallel.simulate_point
        shipped: List[Dict] = []

        def traced_point(spec, recorder=None):
            tracer.end_point()
            result = original(spec, recorder)
            record = tracer.end_point()
            record["point"] = f"{spec.app}/{spec.scheme.value}"
            channel.put(record)
            return result

        def drain() -> None:
            while not channel.empty():
                shipped.append(channel.get())

        tracer.install()
        parallel.simulate_point = traced_point
        try:
            row = self.run_pass(seed, checker, probe, on_result=drain)
        finally:
            parallel.simulate_point = original
            tracer.uninstall()
            drain()
            channel.close()
        if row:
            records.extend(_calibrate(r, row["factor"]) for r in shipped)
        return row


WORKLOADS = {
    wl.name: wl for wl in (
        InProcessWorkload(
            "paper-write-heavy", ("tpcc", "sjas", "lbm"),
            ("MRAM-4TSB", "MRAM-4TSB-SS", "MRAM-4TSB-RCA", "MRAM-4TSB-WB",
             BUFF20)),
        InProcessWorkload(
            "paper-read-heavy", ("mcf", "libquantum", "x264", "canneal"),
            ("SRAM-64TSB", "MRAM-64TSB")),
        SweepPoolWorkload(
            "sweep-pool", ("tpcc", "sjas", "lbm", "mcf", "libquantum",
                           "x264"),
            tuple(s.value for s in Scheme)),
    )
}

UNITS = {
    "points_per_s": "1/s",
    "sim_kips": "kinstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "noc.network.self_s": "s",
    "noc.network.us_per_flit": "us",
    "noc.network.inject_calls": "count",
    "core.arbitration.self_s": "s",
    "core.arbitration.calls": "count",
    "core.arbitration.empty_share": "ratio",
    "core.estimators.self_s": "s",
    "core.estimators.tick_calls": "count",
    "core.estimators.us_per_tick": "us",
    "core.estimators.ack_calls": "count",
    "cache.bank.self_s": "s",
    "cache.bank.calls": "count",
    "cache.bank.reject_share": "ratio",
    "cache.write_buffer.calls": "count",
    "cache.memory.self_s": "s",
    "cache.memory.calls": "count",
    "cpu.core.self_s": "s",
    "cpu.core.step_calls": "count",
    "cpu.core.stall_step_share": "ratio",
    "workloads.synthetic.self_s": "s",
    "workloads.synthetic.next_access_calls": "count",
    "sim.simulator.sched_self_s": "s",
    "sim.simulator.executed_share": "ratio",
    "sim.simulator.prewarm_s": "s",
    "workloads.build_s": "s",
    "cache.arrays.fill_calls": "count",
    "sim.parallel.utilization": "ratio",
    "sim.parallel.overhead_share": "ratio",
    "sim.results.collect_s": "s",
    "trace.overhead_ratio": "ratio",
}
