"""Dense vs event-driven scheduler equivalence (seeded property tests).

The event scheduler (`scheduler="event"`, the default) must be an
*observationally identical* reimplementation of the dense reference loop
(`scheduler="dense"`): same arbitration decisions, same per-packet
latencies, same bank service timeline.  These tests run both schedulers
on identical seeded workloads over a small 16-node mesh and compare

* the full per-packet latency *histogram* (not just the mean -- a pair
  of compensating per-packet errors would survive an average),
* per-bank busy-cycle counts (the bank service timeline),
* the entire ``SimulationResult``.
"""

import pytest

from repro.sim.config import Scheme
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous, mix
from tests.conftest import small_config


def _run(config, make_workload, scheduler, cycles=600, warmup=120):
    sim = CMPSimulator(config, make_workload(config), scheduler=scheduler)
    result = sim.run(cycles, warmup=warmup)
    return sim, result


def _assert_equivalent(config, make_workload, cycles=600, warmup=120):
    dense_sim, dense_result = _run(
        config, make_workload, "dense", cycles, warmup)
    event_sim, event_result = _run(
        config, make_workload, "event", cycles, warmup)

    dense_hist = dense_sim.network.stats.latency_hist
    event_hist = event_sim.network.stats.latency_hist
    assert dense_hist == event_hist, "per-packet latency drift"

    dense_busy = [bank.stats.busy_cycles for bank in dense_sim.banks]
    event_busy = [bank.stats.busy_cycles for bank in event_sim.banks]
    assert dense_busy == event_busy, "bank busy-cycle drift"

    diffs = [
        key for key in dense_result.__dict__
        if dense_result.__dict__[key] != event_result.__dict__[key]
    ]
    assert not diffs, f"SimulationResult drift in {diffs}"
    # The comparison must not be vacuous.
    assert event_result.packets_delivered > 0


SCHEMES = [
    Scheme.SRAM_64TSB,
    Scheme.STTRAM_64TSB,
    Scheme.STTRAM_4TSB,
    Scheme.STTRAM_4TSB_WB,
    Scheme.STTRAM_4TSB_RCA,
    Scheme.STTRAM_4TSB_SS,
]


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    @pytest.mark.parametrize("seed", [1, 7])
    def test_homogeneous_sclust(self, scheme, seed):
        cfg = small_config(scheme)
        _assert_equivalent(
            cfg, lambda c: homogeneous("sclust", c, seed=seed))

    @pytest.mark.parametrize("seed", [3])
    def test_mixed_apps_on_wb(self, seed):
        cfg = small_config(Scheme.STTRAM_4TSB_WB)
        apps = ["tpcc", "sclust", "x264", "canneal"] * (cfg.n_cores // 4)
        _assert_equivalent(cfg, lambda c: mix(apps, c, seed=seed))

    def test_event_scheduler_skips_cycles_on_idle_workload(self):
        """The fast path actually engages: fewer executed than simulated
        cycles on a workload with long compute gaps."""
        from repro.cpu.trace import ScriptedStream, IdleStream
        from repro.workloads.mixes import Workload

        cfg = small_config(Scheme.STTRAM_4TSB_WB)

        def make_workload(config):
            from repro.cpu.trace import bank_block
            accesses = [(0, bank_block(2, 9, config.n_banks), True),
                        (5_000, bank_block(3, 11, config.n_banks), False)]
            streams = [ScriptedStream(accesses)]
            streams += [IdleStream() for _ in range(config.n_cores - 1)]
            return Workload(streams, ["s"] * config.n_cores, "s")

        sim = CMPSimulator(cfg, make_workload(cfg), scheduler="event",
                           prewarm=False)
        sim.run(4_000, warmup=0)
        assert sim.executed_cycles < sim.cycle // 2
