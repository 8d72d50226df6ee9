"""Top-level CMP simulator: cores + L1s, NoC, L2 banks, directories, MCs.

Wires every substrate together for one design scenario and advances them
cycle by cycle:

1. the network moves packets and delivers them to endpoint sinks,
2. memory controllers issue DRAM accesses and return fills,
3. bank controllers service their request queues,
4. cores commit instructions and issue L1 misses into the network.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

from repro.cache.bank import BankController
from repro.cache.memory import (
    MemoryController, mc_for_block, place_memory_controllers,
)
from repro.cache.messages import AckMsg, MemMsg
from repro.core.arbitration import BankAwareArbiter, RoundRobinArbiter
from repro.core.busy import BankBusyTracker
from repro.core.estimators import WindowEstimator, make_estimator
from repro.core.regions import build_region_map
from repro.cpu.core import (
    CORE_GAP, CORE_RUN, CORE_STALL_MSHR, CORE_STALL_NI,
    CORE_STALL_WINDOW, Core,
)
from repro.noc.network import Network
from repro.noc.router import NEVER
from repro.noc.packet import Packet, PacketClass
from repro.noc.routing import RoutingPolicy
from repro.noc.topology import Mesh3D
from repro.obs.events import EV_SCHED_SKIP
from repro.sim.config import Estimator, SystemConfig
from repro.sim.results import SimulationResult
from repro.workloads.mixes import Workload


class CMPSimulator:
    """One simulated CMP instance running one workload."""

    def __init__(self, config: SystemConfig, workload: Workload,
                 log_bank_accesses: bool = False, prewarm: bool = True,
                 scheduler: str = "event", guard=None, faults=None):
        config.validate()
        if scheduler not in ("event", "dense"):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        self.scheduler = scheduler
        if workload.n_cores != config.n_cores:
            raise ValueError(
                f"workload has {workload.n_cores} streams, config needs "
                f"{config.n_cores}"
            )
        self.config = config
        self.workload = workload
        self.cycle = 0
        #: cached for bank_for_block (hot in every bank-bound send)
        self._n_banks = config.n_banks
        #: attached Observability session (repro.obs), or None -- the
        #: simulator never reads it except at scheduling/run boundaries
        self._obs = None

        self.topo = Mesh3D(config.mesh_width)
        self.region_map = build_region_map(config, self.topo)
        self.routing = RoutingPolicy(self.topo, self.region_map)
        self.estimator = make_estimator(config)
        self.tracker: Optional[BankBusyTracker] = None
        if self.estimator is not None and self.region_map is not None:
            self.tracker = BankBusyTracker(config)
            self.arbiter = BankAwareArbiter(
                config, self.region_map, self.tracker, self.estimator,
            )
        else:
            self.arbiter = RoundRobinArbiter()
        self.network = Network(
            config, self.topo, self.routing, self.arbiter, self.estimator,
        )
        if scheduler == "dense":
            self.network.use_reference_loop = True

        n = config.n_cores

        # Event-scheduler bookkeeping (harmless in dense mode).  Banks,
        # MCs and cores deregister from their active set when provably
        # idle and re-register on wake events (packet delivery, NI
        # drain, gap/window timers); sleeping cores lazily accrue their
        # per-cycle counters when woken or flushed.
        self._active_banks = set(range(config.n_banks))
        self._active_mcs = set()
        self._active_cores = set(range(n))
        #: core_id -> [CORE_* status, last stepped cycle, wake-at cycle]
        self._core_sleep: Dict[int, list] = {}
        #: min-heap of (wake_at, core_id) for timed (gap) sleepers;
        #: entries go stale when a core is woken early -- validated
        #: lazily against ``_core_sleep`` when popped.
        self._wake_heap: List[tuple] = []
        #: diagnostic: cycles actually executed (vs skipped) by the
        #: event scheduler; equals ``self.cycle`` advancement in dense.
        self.executed_cycles = 0
        self._core_at_node = {
            self.topo.core_node(i): i for i in range(n)
        }
        self.network.on_source_drain = self._on_source_drain

        self.cores: List[Core] = [
            Core(i, self.topo.core_node(i), config, workload.streams[i],
                 self._send, self._bank_node_for_block,
                 ni_queue=self.network.source_queues[self.topo.core_node(i)],
                 ni_limit=config.ni_queue_entries)
            for i in range(n)
        ]
        self.banks: List[BankController] = [
            BankController(
                b, self.topo.bank_node(b), config, self._send,
                self._mc_node_for_block, self.topo.core_node,
                log_accesses=log_bank_accesses,
            )
            for b in range(config.n_banks)
        ]
        self.mc_nodes = place_memory_controllers(config, self.topo)
        self.mcs: List[MemoryController] = []
        self._mc_at_node: Dict[int, MemoryController] = {}
        for i, node in enumerate(self.mc_nodes):
            mc = MemoryController(i, node, config)
            mc.send_response = self._send_memory_response
            self.mcs.append(mc)
            self._mc_at_node[node] = mc

        for i in range(n):
            node = self.topo.core_node(i)
            self.network.register_sink(node, self._make_core_sink(i))
        for b in range(config.n_banks):
            node = self.topo.bank_node(b)
            self.network.register_sink(
                node, self._make_bank_sink(b),
                flow_control=self._make_bank_flow_control(b),
            )
            # The bank flow control refuses only on a full bank queue.
            self.banks[b].on_dequeue = self.network.dequeue_hook(node)

        if prewarm:
            self.prewarm()

        #: resilience layer: fault plane and invariant guard, both None
        #: on plain runs (one ``is None`` test per executed cycle each).
        #: ``guard`` accepts True, a GuardConfig or an InvariantGuard;
        #: ``faults`` accepts a repro.resilience.FaultConfig.
        self.fault_plane = None
        if faults is not None and faults.any_faults():
            from repro.resilience.faults import FaultPlane

            self.fault_plane = FaultPlane(self, faults)
        self.guard = None
        if guard:
            from repro.sim.guard import GuardConfig, InvariantGuard

            if isinstance(guard, InvariantGuard):
                self.guard = guard
            elif isinstance(guard, GuardConfig):
                self.guard = InvariantGuard(guard)
            else:
                self.guard = InvariantGuard()
            self.guard.bind(self)

    # ------------------------------------------------------------------
    # Cache pre-warming
    # ------------------------------------------------------------------

    def prewarm(self) -> None:
        """Install steady-state cache contents analytically.

        Synthetic streams expose their reuse pools and hot sets; filling
        them into the L2 arrays (and the hot sets into the L1s, with
        directory sharers recorded) lets short measurement windows
        behave like the tail of a long warm-up.  Streams without the
        protocol (scripted tests) are left untouched.

        L2 installs are gathered into one list per home bank, in global
        order, and filled with one ``fill_many`` per bank: bank arrays
        are independent, so only the order within a bank matters, and
        the result equals one ``_install_l2`` per block.
        """
        n_banks = self._n_banks
        by_bank: List[List[int]] = [[] for _ in range(n_banks)]
        shared_done = False
        for core in self.cores:
            stream = core.stream
            pool_blocks = getattr(stream, "prewarm_blocks", None)
            if pool_blocks is None:
                continue
            for block in pool_blocks():
                by_bank[block % n_banks].append(block)
            for block in getattr(stream, "hot_blocks", list)():
                bank = block % n_banks
                by_bank[bank].append(block)
                core.l1.fill(block)
                self.banks[bank].directory.on_request(
                    core.core_id, block, False)
            if not shared_done:
                shared = getattr(stream, "shared_blocks", None)
                if shared is not None:
                    for block in shared():
                        by_bank[block % n_banks].append(block)
                    shared_done = True
        for bank, blocks in zip(self.banks, by_bank):
            bank.array.fill_many(blocks)

    def _install_l2(self, block: int) -> None:
        bank = self.banks[self.bank_for_block(block)]
        bank.array.fill(block)

    # ------------------------------------------------------------------
    # Address mapping
    # ------------------------------------------------------------------

    def bank_for_block(self, block: int) -> int:
        return block % self._n_banks

    def _bank_node_for_block(self, block: int) -> int:
        return self.topo.bank_node(self.bank_for_block(block))

    def _mc_node_for_block(self, block: int) -> int:
        mc = mc_for_block(block, len(self.mc_nodes))
        return self.mc_nodes[mc]

    # ------------------------------------------------------------------
    # Packet plumbing
    # ------------------------------------------------------------------

    def _send(self, klass: PacketClass, src: int, dst: int, flits: int,
              is_write: bool, bank: Optional[int], payload,
              now: int) -> None:
        if bank is None and klass is PacketClass.REQUEST:
            bank = self.topo.bank_of_node(dst)
        pkt = Packet(
            klass, src, dst, flits, inject_cycle=now,
            is_write=is_write, bank=bank, payload=payload,
        )
        self.network.inject(pkt, now)

    def _send_memory_response(self, msg: MemMsg, now: int) -> None:
        response = MemMsg(
            block=msg.block, is_write=False, bank=msg.bank,
            response=True, txn=msg.txn,
        )
        dst = self.topo.bank_node(msg.bank)
        src = self._mc_node_for_block(msg.block)
        pkt = Packet(
            PacketClass.MEMORY, src, dst,
            self.config.data_packet_flits, inject_cycle=now,
            is_write=False, payload=response,
        )
        self.network.inject(pkt, now)

    # ------------------------------------------------------------------
    # Sinks
    # ------------------------------------------------------------------

    def _make_core_sink(self, core_id: int) -> Callable[[Packet, int], None]:
        core = self.cores[core_id]

        def sink(pkt: Packet, now: int) -> None:
            if pkt.klass is PacketClass.ACK:
                self._handle_wb_ack(pkt, now)
            else:
                core.on_packet(pkt, now)
                # Fills clear MSHR/window stalls; any delivery may end a
                # sleep, so wake the core for its next step.
                self._wake_core(core_id, now)

        return sink

    def _make_bank_sink(self, bank_id: int) -> Callable[[Packet, int], None]:
        bank = self.banks[bank_id]
        node = self.topo.bank_node(bank_id)
        mc = self._mc_at_node.get(node)

        def sink(pkt: Packet, now: int) -> None:
            if pkt.klass is PacketClass.ACK:
                self._handle_wb_ack(pkt, now)
                return
            if pkt.klass is PacketClass.MEMORY:
                msg = pkt.payload
                if getattr(msg, "response", False):
                    bank.on_packet(pkt, now)
                    self._active_banks.add(bank_id)
                elif mc is not None:
                    mc.on_packet(pkt, now)
                    self._active_mcs.add(mc.index)
                else:  # pragma: no cover - misrouted packet
                    raise RuntimeError(
                        f"memory request at non-MC node {node}"
                    )
                return
            if (
                pkt.klass is PacketClass.REQUEST
                and pkt.wb_timestamp is not None
            ):
                self._send_wb_ack(pkt, bank_id, now)
            bank.on_packet(pkt, now)
            self._active_banks.add(bank_id)

        return sink

    def _make_bank_flow_control(self, bank_id: int):
        bank = self.banks[bank_id]
        node = self.topo.bank_node(bank_id)
        mc = self._mc_at_node.get(node)

        def flow_control(pkt: Packet) -> bool:
            if pkt.klass is PacketClass.MEMORY and mc is not None:
                msg = pkt.payload
                if not msg.response:
                    return True  # MC requests bypass the bank queue
            if pkt.klass is PacketClass.ACK:
                return True
            return bank.can_accept(pkt)

        return flow_control

    def _send_wb_ack(self, pkt: Packet, bank_id: int, now: int) -> None:
        if self.region_map is None:
            return
        parent = self.region_map.parent_of_bank[bank_id]
        ack = AckMsg(bank=bank_id, timestamp=pkt.wb_timestamp)
        self._send(
            PacketClass.ACK, self.topo.bank_node(bank_id), parent,
            self.config.addr_packet_flits, False, None, ack, now,
        )

    def _handle_wb_ack(self, pkt: Packet, now: int) -> None:
        if not isinstance(self.estimator, WindowEstimator):
            return
        msg: AckMsg = pkt.payload
        elapsed = now - msg.timestamp
        self.estimator.on_ack(pkt.dst, msg.bank, elapsed, now)

    # ------------------------------------------------------------------
    # Simulation loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance every component one cycle (dense semantics).

        This is the reference schedule; the event-driven path below
        reproduces it bit-for-bit while stepping only active components
        and skipping provably-idle cycles.
        """
        now = self.cycle
        obs = self._obs
        if obs is not None:
            obs.on_cycle(now)
        faults = self.fault_plane
        if faults is not None:
            faults.on_cycle(now)
        self.network.step(now)
        for mc in self.mcs:
            mc.step(now)
        for bank in self.banks:
            bank.step(now)
        for core in self.cores:
            core.step(now)
        guard = self.guard
        if guard is not None:
            guard.on_executed_cycle(now)
        self.cycle += 1

    # -- event-driven scheduling ---------------------------------------

    def _on_source_drain(self, node: int, now: int) -> None:
        """NI queue space opened at ``node``: wake an NI-stalled core."""
        core_id = self._core_at_node.get(node)
        if core_id is not None:
            self._wake_core(core_id, now)

    def _wake_core(self, core_id: int, now: int) -> None:
        state = self._core_sleep.pop(core_id, None)
        if state is None:
            return
        skipped = now - 1 - state[1]
        if skipped > 0:
            self._accrue_core(core_id, state[0], skipped)
        self._active_cores.add(core_id)

    def _accrue_core(self, core_id: int, status: int, k: int) -> None:
        """Replay ``k`` skipped cycles of a sleeping core's counters.

        While asleep, every cycle is provably identical: a pure stall
        bumps one stall counter (the L1 lookup/compensation nets to
        zero), a pure gap cycle commits ``commit_width`` instructions.
        """
        core = self.cores[core_id]
        if status == CORE_GAP:
            n = k * core.config.commit_width
            core.stats.committed += n
            core._gap_remaining -= n
        elif status == CORE_STALL_WINDOW:
            core.stats.stall_cycles += k
        elif status == CORE_STALL_NI:
            core.stats.ni_stall_cycles += k
        else:  # CORE_STALL_MSHR
            core.stats.mshr_stall_cycles += k
            core.mshrs.full_stalls += k

    def _event_step(self, now: int) -> None:
        """One executed cycle in dense component order, active sets only."""
        faults = self.fault_plane
        if faults is not None:
            faults.on_cycle(now)
        self.network.step(now)
        heap = self._wake_heap
        sleep = self._core_sleep
        while heap and heap[0][0] <= now:
            wake, cid = heapq.heappop(heap)
            state = sleep.get(cid)
            if state is not None and state[2] == wake:
                self._wake_core(cid, now)
        if self._active_mcs:
            for i in sorted(self._active_mcs):
                mc = self.mcs[i]
                mc.step(now)
                if mc.idle():
                    self._active_mcs.discard(i)
        banks = self.banks
        for b in sorted(self._active_banks):
            bank = banks[b]
            if bank.busy_until > now:
                continue  # dense step would return immediately
            bank.step(now)
            if bank.next_event_cycle(now) == NEVER:
                self._active_banks.discard(b)
        cores = self.cores
        for cid in sorted(self._active_cores):
            core = cores[cid]
            status = core.step(now)
            if status == CORE_RUN:
                continue
            if status == CORE_GAP:
                horizon = core.pure_gap_cycles()
                if horizon <= 0:
                    continue
                wake = now + horizon + 1
                if wake < NEVER:
                    heapq.heappush(heap, (wake, cid))
            else:
                wake = NEVER  # woken by delivery / NI drain
            self._active_cores.discard(cid)
            sleep[cid] = [status, now, wake]
        guard = self.guard
        if guard is not None:
            guard.on_executed_cycle(now)

    def _next_event(self, now: int) -> int:
        """Lower bound (> ``now``) on the next cycle anything can act."""
        if self._active_cores:
            return now + 1
        nxt = self.network.next_event_cycle(now)
        for b in self._active_banks:
            t = self.banks[b].next_event_cycle(now)
            if t < nxt:
                nxt = t
        for i in self._active_mcs:
            t = self.mcs[i].next_event_cycle(now)
            if t < nxt:
                nxt = t
        heap = self._wake_heap
        sleep = self._core_sleep
        while heap:
            wake, cid = heap[0]
            state = sleep.get(cid)
            if state is not None and state[2] == wake:
                if wake < nxt:
                    nxt = wake
                break
            heapq.heappop(heap)  # stale: core woken early
        faults = self.fault_plane
        if faults is not None:
            t = faults.next_scheduled(now)
            if t < nxt:
                nxt = t
        guard = self.guard
        if guard is not None:
            # Execute the watchdog deadline cycle instead of skipping
            # past it; a spurious wake is a provable no-op for simulated
            # state, so fingerprints are unaffected.
            t = guard.wake_bound(now)
            if t < nxt:
                nxt = t
        return nxt if nxt > now else now + 1

    def _flush_lazy(self) -> None:
        """Accrue all lazily-deferred counters up to ``self.cycle``.

        Called at warm-up/measurement/run boundaries so sleeping cores'
        commit/stall counters and parked packets' delay accrual match
        the dense schedule exactly at the observation point.
        """
        boundary = self.cycle
        for cid, state in self._core_sleep.items():
            skipped = boundary - 1 - state[1]
            if skipped > 0:
                self._accrue_core(cid, state[0], skipped)
                state[1] = boundary - 1
        self.network.flush_parked(boundary)

    def _run_event(self, n_cycles: int) -> None:
        if n_cycles <= 0:
            return
        limit = self.cycle + n_cycles
        obs = self._obs
        while self.cycle < limit:
            now = self.cycle
            if obs is not None:
                obs.on_executed_cycle(now)
            self._event_step(now)
            self.executed_cycles += 1
            nxt = self._next_event(now)
            self.cycle = nxt if nxt < limit else limit
            if obs is not None and self.cycle > now + 1:
                obs.emit(now, EV_SCHED_SKIP, {
                    "start": now + 1, "span": self.cycle - now - 1,
                })
        self._flush_lazy()

    # -- measurement ----------------------------------------------------

    def run(self, cycles: int, warmup: int = 0) -> SimulationResult:
        """Advance the simulation and collect a measurement window.

        Warm-up cycles populate caches and network state; statistics are
        measured over the following ``cycles`` cycles.
        """
        if self.scheduler == "event":
            self._run_event(warmup)
            committed_at_start = [c.stats.committed for c in self.cores]
            start_cycle = self.cycle
            self._reset_measurement_stats()
            self._run_event(cycles)
            if self.guard is not None:
                self.guard.on_run_end(self.cycle)
            if self._obs is not None:
                self._obs.on_run_end(self)
            return SimulationResult.collect(
                self, start_cycle, committed_at_start,
            )
        for _ in range(warmup):
            self.step()
        self._flush_lazy()
        committed_at_start = [c.stats.committed for c in self.cores]
        start_cycle = self.cycle
        self._reset_measurement_stats()
        for _ in range(cycles):
            self.step()
        # No-op under the pure dense schedule (no sleeping cores, no
        # parked entries), but it lets the active-set route loop run
        # under dense stepping (use_reference_loop=False) with its
        # parked-delay accrual flushed at the same boundary.
        self._flush_lazy()
        if self.guard is not None:
            self.guard.on_run_end(self.cycle)
        if self._obs is not None:
            self._obs.on_run_end(self)
        return SimulationResult.collect(
            self, start_cycle, committed_at_start,
        )

    def _reset_measurement_stats(self) -> None:
        from repro.noc.stats import NetworkStats
        from repro.cache.bank import BankStats

        self.network.stats = NetworkStats()
        for bank in self.banks:
            bank.stats = BankStats()
            if bank.log_accesses:
                bank.access_log = []
        if self.tracker is not None:
            # Predictions resolve against the (freshly reset) bank
            # service-interval logs: drop warm-up-era rows so the
            # accuracy summary covers the measurement window only.
            self.tracker.predictions = []
        if self._obs is not None:
            self._obs.on_measurement_start(self)

    # ------------------------------------------------------------------

    def drain(self, max_cycles: int = 100_000, min_cycles: int = 4) -> bool:
        """Run until all in-flight traffic completes (tests/examples).

        Steps at least ``min_cycles`` so freshly constructed cores get to
        issue before the quiesce check; infinite synthetic streams never
        drain -- this is for scripted/finite workloads.
        """
        if self.scheduler == "event":
            return self._drain_event(max_cycles, min_cycles)
        for cycle in range(max_cycles):
            self.step()
            if cycle < min_cycles:
                continue
            if (
                self.network.quiesced()
                and all(b.idle(self.cycle) for b in self.banks)
                and all(mc.idle() for mc in self.mcs)
                and all(c.quiesced() for c in self.cores)
            ):
                return True
        return False

    def _drain_event(self, max_cycles: int, min_cycles: int) -> bool:
        end = self.cycle + max_cycles
        executed = 0
        obs = self._obs
        while self.cycle < end:
            now = self.cycle
            if obs is not None:
                obs.on_executed_cycle(now)
            self._event_step(now)
            executed += 1
            self.cycle = now + 1
            # Quiescence can only change at executed cycles; skipped
            # cycles are provably no-ops, so one check per step suffices.
            if executed > min_cycles:
                if self._quiesced():
                    self._flush_lazy()
                    return True
                nxt = self._next_event(now)
                if nxt > self.cycle:
                    self.cycle = nxt if nxt < end else end
                    if obs is not None and self.cycle > now + 1:
                        obs.emit(now, EV_SCHED_SKIP, {
                            "start": now + 1,
                            "span": self.cycle - now - 1,
                        })
        self._flush_lazy()
        return False

    def _quiesced(self) -> bool:
        if not self.network.quiesced():
            return False
        now = self.cycle
        # Deactivated banks/MCs are idle by construction.
        return (
            all(self.banks[b].idle(now) for b in self._active_banks)
            and all(self.mcs[i].idle() for i in self._active_mcs)
            and all(c.quiesced() for c in self.cores)
        )
