"""Shared infrastructure for the per-figure benchmark harness.

Every benchmark regenerates one table or figure of the paper at the
paper's full 8x8x2 mesh, with the L2 capacity (and the synthetic working
sets with it) scaled by ``CAPACITY_SCALE`` and a measurement window of
``CYCLES`` cycles after ``WARMUP`` -- a pure-Python cycle simulator
cannot run 50M instructions per core (see DESIGN.md, "Substitutions").

The scheme x workload grids run as sweep points through
:func:`repro.sim.parallel.run_points`: one worker per CPU, and every
summary (:meth:`SimulationResult.to_dict`) is kept in the
content-addressed result cache (``REPRO_SWEEP_CACHE_DIR``, see
:func:`repro.sim.parallel.default_cache_dir`).  Figures that share
points (6, 7, 8) therefore simulate them once, and a re-run with
unchanged sources simulates nothing.  Reads of fields a summary does
not carry go through :func:`simulate`, which builds the simulator
directly.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping

from repro.sim.config import Scheme, make_config
from repro.sim.parallel import SweepPoint, run_points
from repro.sim.results import SimulationResult
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous

MESH_WIDTH = 8
CAPACITY_SCALE = 1 / 16
CYCLES = 2500
WARMUP = 1000
SEED = 1

#: Application subsets used for the figure reproductions (the paper
#: plots more columns of the same suites; these span the read/write and
#: bursty/calm corners).
SERVER_APPS = ("tpcc", "sjas", "sap", "sjbb")
PARSEC_APPS = ("sclust", "ferret", "canneal", "x264")
SPEC_APPS = ("lbm", "hmmer", "mcf", "libquantum")


def point(scheme: Scheme, app: str, seed: int = SEED,
          **overrides) -> SweepPoint:
    """One figure point at paper scale; ``app`` may be a "+"-joined
    mix of applications."""
    params = dict(mesh_width=MESH_WIDTH, capacity_scale=CAPACITY_SCALE)
    params.update(overrides)
    return SweepPoint.build(app, scheme, CYCLES, WARMUP, seed, params)


def run(points: Mapping[Hashable, SweepPoint]) -> Dict[Hashable, dict]:
    """Summaries of a figure's points, keyed like ``points``."""
    resolved = run_points(list(points.values()), workers=0, cache=True)
    return {name: resolved[spec.key()] for name, spec in points.items()}


def simulate(scheme: Scheme, app: str, **overrides) -> SimulationResult:
    """Run one homogeneous figure point directly, for the result fields
    a summary does not carry."""
    config = make_config(scheme, mesh_width=MESH_WIDTH,
                         capacity_scale=CAPACITY_SCALE, **overrides)
    sim = CMPSimulator(config, homogeneous(app, config, seed=SEED))
    return sim.run(CYCLES, warmup=WARMUP)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
