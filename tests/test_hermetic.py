"""The simulator keeps no process-global state.

Each network numbers its own packets from 0, so two simulators stepped
in lockstep in one process must each emit exactly the event stream --
packet ids included -- that it emits when run alone.
"""

from repro.obs import EV_PKT_INJECT, InMemorySink, Observability
from repro.sim.config import Scheme
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous

from tests.conftest import small_config

CYCLES = 300
POINTS = (
    (Scheme.STTRAM_4TSB_WB, "tpcc", 3),
    (Scheme.SRAM_64TSB, "mcf", 5),
)


def _traced(scheme, app, seed):
    config = small_config(scheme)
    sim = CMPSimulator(config, homogeneous(app, config, seed=seed),
                       scheduler="dense")
    sink = InMemorySink()
    obs = Observability()
    obs.add_sink(sink)
    obs.attach(sim)
    return sim, sink


def _stream(sink):
    return [event.as_dict() for event in sink.events]


def test_interleaved_simulators_emit_their_solo_streams():
    solo = []
    for point in POINTS:
        sim, sink = _traced(*point)
        for _ in range(CYCLES):
            sim.step()
        solo.append(_stream(sink))

    pair = [_traced(*point) for point in POINTS]
    for _ in range(CYCLES):
        for sim, _sink in pair:
            sim.step()

    for (_sim, sink), alone in zip(pair, solo):
        together = _stream(sink)
        pids = [row["pid"] for row in together
                if row["kind"] == EV_PKT_INJECT]
        assert len(pids) > 100
        assert pids == list(range(len(pids)))
        assert together == alone
