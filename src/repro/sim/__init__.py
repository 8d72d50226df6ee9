"""Simulator assembly, configuration, metrics and experiments."""

from repro.sim.config import (
    ALL_SCHEMES, CacheTechnology, Estimator, Scheme, SystemConfig,
    TSBPlacement, WriteBufferConfig, make_config, parse_scheme,
    with_extra_vc, with_write_buffer,
)
from repro.sim.guard import GuardConfig, InvariantGuard
from repro.sim.experiment import (
    SchemeComparison, app_factory, compare_schemes, run_scheme,
    run_workload,
)
from repro.sim.metrics import (
    instruction_throughput, max_slowdown, slowdowns, weighted_speedup,
)
from repro.sim.parallel import (
    SweepCache, SweepCheckpoint, SweepPoint, SweepRunStats,
    code_version, default_cache_dir, run_points,
)
from repro.sim.results import SimulationResult
from repro.sim.simulator import CMPSimulator
from repro.sim.sweep import SweepGrid, SweepResults, run_sweep


def reset_state() -> None:
    """No-op, kept for callers written before the simulator was hermetic.

    The simulator keeps no process-global state: each
    :class:`~repro.noc.network.Network` numbers its own packets from 0,
    so a seeded run is bit-identical whatever ran before it in the
    process, and there is nothing left to reset.
    """


__all__ = [
    "SystemConfig", "Scheme", "ALL_SCHEMES", "CacheTechnology",
    "Estimator", "TSBPlacement", "WriteBufferConfig", "make_config",
    "parse_scheme", "with_write_buffer", "with_extra_vc",
    "CMPSimulator", "GuardConfig", "InvariantGuard",
    "SimulationResult", "SchemeComparison", "compare_schemes",
    "run_scheme", "run_workload", "app_factory",
    "instruction_throughput", "weighted_speedup", "max_slowdown",
    "slowdowns", "SweepGrid", "SweepResults", "run_sweep",
    "SweepPoint", "SweepCache", "SweepCheckpoint", "SweepRunStats",
    "run_points", "code_version", "default_cache_dir", "reset_state",
]
