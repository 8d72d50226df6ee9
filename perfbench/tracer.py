"""Outside-in layer tracer for the benchmark's traced runs.

The simulator carries no tracing of its own for this purpose: the
tracer replaces each layer's public entry points on the classes with
timing wrappers, and puts the originals back on ``uninstall``.  It must
be installed before a simulator is constructed, because the network and
the arbiters capture bound methods (``choose_at``, ``forward_hook_at``)
at construction time.

Each wrapper opens a frame on a per-process stack.  When it returns, its
duration is charged to its parent frame as child time, and the method's
self time (duration minus child time) is added to the method's total.
A call that enters the layer already on top of the stack (a subclass
delegating to its base class) runs inside the open frame, so delegation
is counted once.  Totals and counters stay in memory; ``end_point``
hands back one point's figures and resets them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter


def _is_none(result) -> bool:
    return result is None


def _is_false(result) -> bool:
    return result is False


def _entry_points():
    """(class, method, layer, classify) rows for every traced entry.

    ``classify`` (or None) inspects the return value; a true result
    bumps the method's flagged-call count (arbitration idling, a bank
    refusing a packet, a core stalling).
    """
    from repro.cache.arrays import CacheArray
    from repro.cache.bank import BankController
    from repro.cache.memory import MemoryController
    from repro.cache.write_buffer import WriteBuffer
    from repro.core.arbitration import BankAwareArbiter, RoundRobinArbiter
    from repro.core.estimators import (
        CongestionEstimator, RegionalCongestionEstimator,
        SimplisticEstimator, WindowEstimator,
    )
    from repro.cpu.core import (
        CORE_STALL_MSHR, CORE_STALL_NI, CORE_STALL_WINDOW, Core,
    )
    from repro.noc.network import Network
    from repro.sim.results import SimulationResult
    from repro.sim.simulator import CMPSimulator
    from repro.workloads.synthetic import SyntheticStream

    stalls = (CORE_STALL_WINDOW, CORE_STALL_NI, CORE_STALL_MSHR)

    def _is_stall(result) -> bool:
        return result in stalls

    arb = ("choose", "_choose_parent", "on_forward", "release_hint",
           "accrue_parked")
    est = ("congestion_estimate", "on_forward", "on_ack", "tick")
    rows = [
        (Network, "step", "noc.network", None),
        (Network, "inject", "noc.network", None),
        (Core, "step", "cpu.core", _is_stall),
        (Core, "on_packet", "cpu.core", None),
        (SyntheticStream, "next_access", "workloads.synthetic", None),
        (SyntheticStream, "__init__", "workloads.build", None),
        (BankController, "can_accept", "cache.bank", _is_false),
        (BankController, "on_packet", "cache.bank", None),
        (BankController, "step", "cache.bank", None),
        (MemoryController, "on_packet", "cache.memory", None),
        (MemoryController, "step", "cache.memory", None),
        (CacheArray, "fill", "cache.arrays", None),
        (CMPSimulator, "__init__", "sim.simulator", None),
        (CMPSimulator, "run", "sim.simulator", None),
        (CMPSimulator, "prewarm", "sim.prewarm", None),
        (SimulationResult, "collect", "sim.results", None),
        (SimulationResult, "to_dict", "sim.results", None),
    ]
    for name in ("absorb", "probe", "start_drain", "finish_drain",
                 "preempt_drain"):
        rows.append((WriteBuffer, name, "cache.write_buffer", None))
    for cls in (RoundRobinArbiter, BankAwareArbiter):
        for name in arb:
            classify = _is_none if "choose" in name else None
            rows.append((cls, name, "core.arbitration", classify))
    for cls in (CongestionEstimator, SimplisticEstimator,
                RegionalCongestionEstimator, WindowEstimator):
        for name in est:
            rows.append((cls, name, "core.estimators", None))
    # Only methods a class defines itself are wrapped; inherited ones
    # are reached through the base class's wrapper.
    return [row for row in rows if row[1] in row[0].__dict__]


class LayerTracer:
    """Per-process self-time and call accounting by layer and method."""

    def __init__(self):
        #: "<layer>.<method>" -> [self seconds, calls, flagged calls]
        self.totals: Dict[str, List[float]] = defaultdict(
            lambda: [0.0, 0, 0])
        #: simulator-level facts gathered as runs end
        self.facts: Dict[str, float] = defaultdict(float)
        #: coarse spans of the current point: (name, start, end, depth)
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[list] = []
        self._saved: List[Tuple[type, str, object]] = []
        self._net_stats: List = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        from repro.noc.stats import NetworkStats

        for cls, name, layer, classify in _entry_points():
            original = cls.__dict__[name]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(
                    original.__func__, layer, name, classify))
            else:
                wrapped = self._wrap(original, layer, name, classify)
            self._saved.append((cls, name, original))
            setattr(cls, name, wrapped)
        # Every NetworkStats a simulator creates (one at construction,
        # one at the measurement boundary) is kept, so flits forwarded
        # cover warm-up and measurement alike.
        stats_init = NetworkStats.__dict__["__init__"]
        registry = self._net_stats

        def init(stats, *args, **kwargs):
            stats_init(stats, *args, **kwargs)
            registry.append(stats)

        self._saved.append((NetworkStats, "__init__", stats_init))
        NetworkStats.__init__ = init

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved = []

    # -- accounting -------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, method: str,
              classify: Optional[Callable]) -> Callable:
        stack = self._stack
        spans = self.spans
        acc = self.totals[f"{layer}.{method}"]
        facts = self.facts
        coarse = layer.startswith("sim.")
        is_run = layer == "sim.simulator" and method == "run"

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                acc[0] += elapsed - frame[1]
                acc[1] += 1
                if coarse:
                    spans.append((f"{layer}.{method}", start, end,
                                  len(stack)))
            if classify is not None and classify(result):
                acc[2] += 1
            if is_run:
                sim = args[0]
                facts["executed_cycles"] += sim.executed_cycles
                facts["cycles"] += sim.cycle
            return result

        wrapper.__name__ = getattr(fn, "__name__", method)
        return wrapper

    def end_point(self) -> Dict:
        """One point's totals (then reset): picklable, JSON-ready."""
        flits = sum(s.flits_forwarded for s in self._net_stats)
        out = {
            "methods": {k: list(v) for k, v in self.totals.items()
                        if v[1]},
            "facts": dict(self.facts, flits_forwarded=flits),
            "spans": list(self.spans),
        }
        for v in self.totals.values():
            v[0] = 0.0
            v[1] = 0
            v[2] = 0
        self.facts.clear()
        self.spans.clear()
        self._net_stats.clear()
        return out


def layer_metrics(points: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics, as means per traced point, from ``end_point``
    records.  ``*.self_s``/``*_s`` are seconds as the records carry
    them, ``*_calls`` and ``*.calls`` are call counts, ``*_share`` are
    fractions over all the records."""
    n = max(1, len(points))
    methods: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0, 0])
    facts: Dict[str, float] = defaultdict(float)
    for point in points:
        for key, (self_s, calls, flagged) in point["methods"].items():
            row = methods[key]
            row[0] += self_s
            row[1] += calls
            row[2] += flagged
        for key, value in point["facts"].items():
            facts[key] += value

    def layer(prefix: str, index: int = 0, only=None) -> float:
        return sum(row[index] for key, row in methods.items()
                   if key.rsplit(".", 1)[0] == prefix
                   and (only is None or key.rsplit(".", 1)[1] in only))

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    net_s = layer("noc.network")
    tick = methods.get("core.estimators.tick", [0.0, 0, 0])
    choose = ("choose", "_choose_parent")
    return {
        "noc.network.self_s": net_s / n,
        "noc.network.us_per_flit": share(net_s * 1e6,
                                         facts["flits_forwarded"]),
        "noc.network.inject_calls": layer("noc.network", 1,
                                          ("inject",)) / n,
        "core.arbitration.self_s": layer("core.arbitration") / n,
        "core.arbitration.calls": layer("core.arbitration", 1) / n,
        "core.arbitration.empty_share": share(
            layer("core.arbitration", 2, choose),
            layer("core.arbitration", 1, choose)),
        "core.estimators.self_s": layer("core.estimators") / n,
        "core.estimators.tick_calls": tick[1] / n,
        "core.estimators.us_per_tick": share(tick[0] * 1e6, tick[1]),
        "core.estimators.ack_calls": layer("core.estimators", 1,
                                           ("on_ack",)) / n,
        "cache.bank.self_s": layer("cache.bank") / n,
        "cache.bank.calls": layer("cache.bank", 1) / n,
        "cache.bank.reject_share": share(
            layer("cache.bank", 2, ("can_accept",)),
            layer("cache.bank", 1, ("can_accept",))),
        "cache.write_buffer.calls": layer("cache.write_buffer", 1) / n,
        "cache.memory.self_s": layer("cache.memory") / n,
        "cache.memory.calls": layer("cache.memory", 1) / n,
        "cpu.core.self_s": layer("cpu.core") / n,
        "cpu.core.step_calls": layer("cpu.core", 1, ("step",)) / n,
        "cpu.core.stall_step_share": share(
            layer("cpu.core", 2, ("step",)),
            layer("cpu.core", 1, ("step",))),
        "workloads.synthetic.self_s": layer("workloads.synthetic") / n,
        "workloads.synthetic.next_access_calls": layer(
            "workloads.synthetic", 1) / n,
        "sim.simulator.sched_self_s": layer("sim.simulator", 0,
                                            ("run",)) / n,
        "sim.simulator.executed_share": share(facts["executed_cycles"],
                                              facts["cycles"]),
        "sim.simulator.prewarm_s": layer("sim.prewarm") / n,
        "workloads.build_s": layer("workloads.build") / n,
        "cache.arrays.fill_calls": layer("cache.arrays", 1) / n,
        "sim.results.collect_s": layer("sim.results") / n,
    }
