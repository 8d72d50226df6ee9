"""Dense/event identity on the phased write-burst workload.

The burst workload (:mod:`tests.burst_workload`) is the regime the event
scheduler is built for: barrier-like memory waves that saturate the
banks, then ~20k-cycle compute phases in which the whole chip is quiet
and the event loop skips cycles outright.  On the paper's 8x8 mesh,
under the SRAM baseline, the 4-TSB STT-RAM write-buffer scheme and its
16-TSB staggered placement, both schedulers must produce the same
``SimulationResult``, field for field.

The window spans three waves, about 10k cycles apart, so the identity covers both the skip across a quiet stretch and
the re-wake into a saturated one.  Two guards keep it from holding
vacuously: deliveries must fall on both sides of a quiet stretch, and
the event scheduler must actually skip cycles.
"""

import pytest

from repro.noc.stats import NetworkStats
from repro.sim import reset_state
from repro.sim.config import Scheme, TSBPlacement, make_config
from repro.sim.simulator import CMPSimulator
from tests.burst_workload import burst_workload

CYCLES = 22_000
WARMUP = 1_000
#: A delivery gap longer than this separates two waves: gaps inside a
#: wave stay within a few hundred cycles, while a compute phase (20k
#: instructions) keeps the mesh quiet for about 8k cycles.
QUIET = 4_000

_ON_DELIVER = NetworkStats.on_deliver

CONFIGS = (
    ("SRAM-64TSB", Scheme.SRAM_64TSB, {}),
    ("MRAM-4TSB-WB", Scheme.STTRAM_4TSB_WB, {}),
    ("MRAM-4TSB-WB-16TSB-stagger", Scheme.STTRAM_4TSB_WB,
     dict(n_region_tsbs=16, tsb_placement=TSBPlacement.STAGGER)),
)


def _run(scheme, overrides, scheduler, monkeypatch):
    """One seeded run; returns the simulator, its result and the cycle
    of every delivered packet (warmup included)."""
    delivered = []

    def recording(stats, pkt, now):
        delivered.append(now)
        _ON_DELIVER(stats, pkt, now)

    monkeypatch.setattr(NetworkStats, "on_deliver", recording)
    reset_state()
    config = make_config(scheme, mesh_width=8, capacity_scale=1 / 16,
                         **overrides)
    sim = CMPSimulator(config, burst_workload(config, seed=1),
                       scheduler=scheduler)
    result = sim.run(CYCLES, warmup=WARMUP)
    return sim, result, delivered


@pytest.mark.parametrize("scheme,overrides",
                         [c[1:] for c in CONFIGS],
                         ids=[c[0] for c in CONFIGS])
def test_event_matches_dense_on_burst_waves(scheme, overrides,
                                             monkeypatch):
    _, dense, dense_delivered = _run(scheme, overrides, "dense",
                                             monkeypatch)
    event_sim, event, event_delivered = _run(scheme, overrides, "event",
                                             monkeypatch)

    diffs = [k for k in dense.__dict__
             if dense.__dict__[k] != event.__dict__[k]]
    assert not diffs, f"dense/event SimulationResult drift in {diffs}"
    assert event_delivered == dense_delivered

    # More than one wave: some delivery follows a quiet stretch.
    assert event.packets_delivered > 0
    waves = 1 + sum(b - a > QUIET
                    for a, b in zip(event_delivered, event_delivered[1:]))
    assert waves > 1
    # The event scheduler skipped the quiet stretches.
    assert event_sim.executed_cycles < CYCLES + WARMUP
