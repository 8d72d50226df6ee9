"""Field-level identity of the event scheduler against the dense one.

The event scheduler (active-set route loop, wake hints, blocked-router
sleeping, lazily-accrued core counters) is certified against summary
byte-identity elsewhere; these tests assert the stronger property its
wake-hint discipline is built to preserve: the *internal*
instrumentation -- every ``CoreStats`` field of every core, every
core's L1 hit, miss and store-hit counts, every core's MSHR
``full_stalls`` and every bank's ``service_intervals`` schedule --
equals the dense reference run (every component stepped
every cycle, dense reference route loop) field by field.  The matrix
covers the four paper schemes plus RCA, randomized seeds and windows,
and a one-entry bank queue that keeps ejection flow control refusing,
so routers spend much of the run asleep on a full bank.
"""

import random

import pytest

from repro.cache.bank import BankStats
from repro.cpu.core import CoreStats
from repro.sim import reset_state
from repro.sim.config import Scheme, make_config
from repro.sim.experiment import app_factory
from repro.sim.simulator import CMPSimulator

FAST = {"mesh_width": 4, "capacity_scale": 1 / 64}
SCHEMES = (Scheme.SRAM_64TSB, Scheme.STTRAM_4TSB,
           Scheme.STTRAM_4TSB_SS, Scheme.STTRAM_4TSB_RCA,
           Scheme.STTRAM_4TSB_WB)

CORE_FIELDS = CoreStats.__slots__
BANK_FIELDS = BankStats.__slots__


def _count_store_hits(core):
    """Count the core's L1 store hits: ``Core.step`` marks a line dirty
    exactly when a store hits the L1."""
    core.store_hits = 0
    mark_dirty = core.l1.mark_dirty

    def counted(block):
        core.store_hits += 1
        mark_dirty(block)

    core.l1.mark_dirty = counted


def _run(scheme, scheduler, cycles, warmup, seed, overrides):
    reset_state()
    config = make_config(scheme, **FAST, **overrides)
    workload = app_factory("tpcc", seed=seed)(config)
    sim = CMPSimulator(config, workload, scheduler=scheduler)
    for core in sim.cores:
        _count_store_hits(core)
    return sim, sim.run(cycles, warmup=warmup).to_dict()


def _assert_stats_equal(event_sim, dense_sim, label):
    for cid, (ec, dc) in enumerate(zip(event_sim.cores, dense_sim.cores)):
        for name in CORE_FIELDS:
            assert getattr(ec.stats, name) == getattr(dc.stats, name), (
                f"{label}: core {cid} CoreStats.{name} diverged"
            )
        assert ec.mshrs.full_stalls == dc.mshrs.full_stalls, (
            f"{label}: core {cid} MSHR full_stalls diverged"
        )
        l1_counts = [(c.l1.hits, c.l1.misses, c.store_hits)
                     for c in (ec, dc)]
        assert l1_counts[0] == l1_counts[1], (
            f"{label}: core {cid} L1 hit/miss/store-hit counts diverged"
        )
    for b, (eb, db) in enumerate(zip(event_sim.banks, dense_sim.banks)):
        for name in BANK_FIELDS:
            assert getattr(eb.stats, name) == getattr(db.stats, name), (
                f"{label}: bank {b} BankStats.{name} diverged"
            )


@pytest.mark.parametrize("queue", [None, 1], ids=["queue-default",
                                                  "queue-1"])
@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("seed", [3, 11])
def test_event_matches_dense_field_by_field(seed, scheme, queue):
    rng = random.Random(seed * 1000 + SCHEMES.index(scheme))
    cycles = rng.randrange(150, 300)
    warmup = 2 * rng.randrange(25, 50) + 1  # odd warm-up
    overrides = {} if queue is None else {"bank_queue_entries": queue}

    event_sim, event = _run(scheme, "event", cycles, warmup, seed,
                            overrides)
    dense_sim, dense = _run(scheme, "dense", cycles, warmup, seed,
                            overrides)

    assert event == dense
    # non-vacuous comparison: traffic, L1 hits and store hits all occur
    assert dense["packets_delivered"] > 0
    assert sum(core.store_hits for core in dense_sim.cores) > 0
    _assert_stats_equal(event_sim, dense_sim,
                        f"seed{seed} {scheme.value} queue={queue}")


@pytest.mark.parametrize("scheme", [Scheme.STTRAM_4TSB,
                                    Scheme.STTRAM_4TSB_WB],
                         ids=lambda s: s.value)
def test_full_bank_queues_put_routers_to_sleep(scheme):
    """With one-entry bank queues, refused routers must actually sleep
    (the identity above would hold vacuously if none ever did)."""
    reset_state()
    config = make_config(scheme, bank_queue_entries=1, **FAST)
    sim = CMPSimulator(config, app_factory("tpcc", seed=3)(config))
    slept = 0
    for _ in range(400):
        sim._event_step(sim.cycle)
        slept += sum(1 for r in sim.network.routers if r.blocked)
        sim.cycle += 1
    assert slept > 0
