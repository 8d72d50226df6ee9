"""RCA tick against its executable reference.

``DictRCAReference`` is the dict-based formulation of the RCA update:
it recomputes each router's residual link-busy time from the per-port
``out_busy_until`` times, keeps ``local``/``agg`` in node-keyed dicts
and copies the previous aggregates every tick.  The production tick
(flat lists, a per-router ``link_busy`` horizon, double-buffered
aggregates, a degree-grouped neighbour plan) must publish exactly the
same values -- compared with ``==``, never a tolerance -- after every
tick, and parents must read the same congestion estimates from them.
"""

from __future__ import annotations

import pytest

from repro.core.estimators import RegionalCongestionEstimator
from repro.noc.packet import reset_packet_ids
from repro.noc.topology import LOCAL, N_PORTS
from repro.resilience import FaultConfig
from repro.sim.config import Scheme, make_config
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous


class DictRCAReference:
    """Dict-based RCA update: the formula the estimator reproduces."""

    max_value = 255

    def __init__(self, network, update_period: int):
        self.network = network
        self.update_period = update_period
        self.local = {}
        self.agg = {}

    def tick(self, now: int) -> None:
        if now % self.update_period:
            return
        local = self.local
        max_value = self.max_value
        for router in self.network.routers:
            residual = 0
            busy = router.out_busy_until
            for port in range(N_PORTS):
                if port == LOCAL:
                    continue
                left = busy[port] - now
                if left > residual:
                    residual = left
            local[router.node] = min(max_value, router.n_flits + residual)
        prev = dict(self.agg) if self.agg else local
        agg = self.agg
        neighbors_of = self.network.neighbors_of
        for node in range(self.network.topo.n_nodes):
            neigh = neighbors_of[node]
            total = 0.0
            for n in neigh:
                total += prev.get(n, 0.0)
            downstream = total / len(neigh)
            agg[node] = min(
                max_value, 0.5 * local.get(node, 0.0) + 0.5 * downstream
            )

    def congestion_estimate(self, path_nodes) -> int:
        total = 0.0
        for n in path_nodes:
            total += self.agg.get(n, 0.0)
        return int(min(self.max_value, total / 2.0))


class Shadow:
    """Runs the reference beside an estimator's every tick and checks
    the published values and the parents' estimates against it."""

    def __init__(self, sim, estimator=None):
        self.sim = sim
        self.est = estimator if estimator is not None else sim.estimator
        self.ref = DictRCAReference(sim.network, self.est.update_period)
        self.ticks = 0
        self.nonzero_ticks = 0
        self.first_local = None

    def install(self) -> "Shadow":
        """Wrap the simulator's own estimator tick (the network calls
        it through the instance attribute)."""
        real_tick = self.est.tick

        def tick(now):
            real_tick(now)
            self.check(now)

        self.est.tick = tick
        return self

    def tick(self, now: int) -> None:
        """Tick a free-standing estimator and check it."""
        self.est.tick(now)
        self.check(now)

    def check(self, now: int) -> None:
        est, ref = self.est, self.ref
        ref.tick(now)
        if now % est.update_period:
            return
        n_nodes = self.sim.topo.n_nodes
        if self.first_local is None:
            self.first_local = list(est.local)
        assert est.local == [ref.local[n] for n in range(n_nodes)], now
        assert est.agg == [ref.agg[n] for n in range(n_nodes)], now
        rm = self.sim.region_map
        for parent in rm.parent_nodes():
            for child in rm.children_of[parent]:
                path = est._path_nodes(parent, child)
                assert (est.congestion_estimate(parent, child, now)
                        == ref.congestion_estimate(path)), (now, parent)
        self.ticks += 1
        if any(est.agg):
            self.nonzero_ticks += 1


def _sim(width, seed, period=1, faults=None, scheduler="dense"):
    reset_packet_ids()
    cfg = make_config(Scheme.STTRAM_4TSB_RCA, mesh_width=width,
                      capacity_scale=1 / 64, rca_update_period=period)
    return CMPSimulator(cfg, homogeneous("tpcc", cfg, seed=seed),
                        scheduler=scheduler, faults=faults)


CYCLES = {4: 700, 8: 400}


@pytest.mark.parametrize("period", [1, 3, 64])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("width", [4, 8])
def test_tick_matches_reference(width, seed, period):
    sim = _sim(width, seed, period)
    shadow = Shadow(sim).install()
    for _ in range(CYCLES[width]):
        sim.step()
    assert shadow.ticks == -(-CYCLES[width] // period)
    assert shadow.nonzero_ticks > 0


def test_event_scheduler_run_matches_reference():
    sim = _sim(4, 1, period=3, scheduler="event")
    shadow = Shadow(sim).install()
    sim.run(600, warmup=200)
    assert shadow.ticks >= 800 // 3
    assert shadow.nonzero_ticks > 0


def test_first_tick_averages_integer_local_values():
    """The first tick has no previous aggregates: it averages the
    (integer) local values themselves.  Binding a fresh estimator to a
    loaded network makes that first tick see real traffic."""
    sim = _sim(4, 1)
    for _ in range(300):
        sim.step()
    fresh = RegionalCongestionEstimator(sim.config)
    fresh.bind(sim.network)
    shadow = Shadow(sim, fresh)
    shadow.tick(sim.cycle)
    assert all(type(v) is int for v in shadow.first_local)
    assert any(shadow.first_local), "the first tick saw no traffic"
    for _ in range(50):
        sim.step()
        shadow.tick(sim.cycle)
    assert shadow.ticks == 51


def test_tsb_stuck_at_remap_matches_reference():
    faults = FaultConfig(seed=7, tsb_failures=((0, 250),))
    sim = _sim(4, 1, faults=faults)
    shadow = Shadow(sim).install()
    for _ in range(700):
        sim.step()
    assert sim.fault_plane.report()["tsb_remapped"]
    assert shadow.ticks == 700
    assert shadow.nonzero_ticks > 0
