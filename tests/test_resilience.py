"""Deterministic fault injection: CRC/retransmit, TSB degradation,
bank-port redirect, fault-config validation and fault-event schemas.

The determinism contract under test: a fixed ``FaultConfig.seed`` plus
a fixed workload seed makes a fault run byte-identical across repeats
*and* across the dense/event schedulers (corruption draws happen once
per link traversal in simulation order, which is itself bit-identical).
"""

from __future__ import annotations

import pytest

from repro.errors import FaultConfigError
from repro.noc.packet import Packet, PacketClass
from repro.obs import (
    EV_FAULT_BANK, EV_FAULT_CRC, EV_FAULT_REDIRECT, EV_FAULT_RETRANSMIT,
    EV_FAULT_TSB, InMemorySink, Observability, validate_event,
)
from repro.resilience import FaultConfig, FaultPlane, crc16, packet_crc
from repro.sim.config import Scheme, make_config
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous
from tests.conftest import small_config


def _run(faults, scheduler="event", scheme=Scheme.STTRAM_4TSB,
         cycles=600, warmup=200, obs=None):
    cfg = small_config(scheme)
    sim = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=5),
                       scheduler=scheduler, guard=True, faults=faults)
    if obs is not None:
        obs.attach(sim)
    result = sim.run(cycles, warmup=warmup)
    return sim, result


def _assert_identical(a, b, context):
    diffs = [k for k in a.__dict__ if a.__dict__[k] != b.__dict__[k]]
    assert not diffs, f"{context}: drift in {diffs}"


class TestCRCFaults:
    FAULTS = FaultConfig(seed=7, crc_rate=0.01)

    def test_detects_and_retransmits(self):
        sim, result = _run(self.FAULTS)
        report = sim.fault_plane.report()
        assert report["crc_detected"] > 0
        assert report["retransmits"] == report["crc_detected"]
        assert result.packets_delivered > 0
        # guards stayed green through every drop/retransmit
        assert sim.guard.violations == 0

    def test_two_runs_byte_identical(self):
        _, first = _run(self.FAULTS)
        _, second = _run(self.FAULTS)
        _assert_identical(first, second, "same fault seed")

    def test_dense_event_identical(self):
        _, event = _run(self.FAULTS, scheduler="event")
        _, dense = _run(self.FAULTS, scheduler="dense")
        _assert_identical(event, dense, "crc faults dense vs event")

    def test_different_seed_differs(self):
        sim_a, _ = _run(FaultConfig(seed=7, crc_rate=0.01))
        sim_b, _ = _run(FaultConfig(seed=8, crc_rate=0.01))
        # Not a hard guarantee per-field, but the draw sequences differ;
        # at this rate the corruption counts essentially never coincide
        # with identical victims.  Compare the full attempt maps.
        assert (
            sim_a.fault_plane.attempts != sim_b.fault_plane.attempts
            or sim_a.fault_plane.crc_detected
            != sim_b.fault_plane.crc_detected
        )

    def test_crc_events_validate(self):
        obs = Observability()
        sink = InMemorySink()
        obs.add_sink(sink)
        _run(self.FAULTS, obs=obs)
        crcs = sink.by_kind(EV_FAULT_CRC)
        rets = sink.by_kind(EV_FAULT_RETRANSMIT)
        assert crcs and len(rets) == len(crcs)
        for ev in crcs + rets:
            errors = validate_event(
                {"cycle": ev.cycle, "kind": ev.kind, **ev.data})
            assert not errors, errors

    def test_absurd_rate_trips_safety_valve(self):
        from repro.errors import FaultError

        faults = FaultConfig(seed=7, crc_rate=0.9, max_retransmits=3)
        with pytest.raises(FaultError):
            _run(faults, cycles=2_000, warmup=0)


class TestCRCPrimitives:
    def test_crc16_known_vector(self):
        # CRC-16/CCITT-FALSE("123456789") == 0x29B1
        assert crc16(b"123456789") == 0x29B1

    def test_packet_crc_covers_header_fields(self):
        a = Packet(PacketClass.REQUEST, 0, 17, 1, inject_cycle=0, bank=3)
        b = Packet(PacketClass.REQUEST, 0, 17, 1, inject_cycle=0, bank=4)
        assert packet_crc(a) != packet_crc(b)
        assert packet_crc(a) == packet_crc(a)


class TestTSBFailure:
    FAULTS = FaultConfig(seed=7, tsb_failures=((0, 250),))

    def test_region_degrades_onto_donor(self):
        sim, result = _run(self.FAULTS)
        report = sim.fault_plane.report()
        assert report["tsb_remapped"], "region 0 must be remapped"
        donor = report["tsb_remapped"][0]
        region_map = sim.region_map
        assert region_map.failed_regions == {0: donor}
        # every request via for region-0 banks now targets the donor TSB
        region = region_map.regions[0]
        donor_region = region_map.regions[donor]
        assert region.tsb_core_node == donor_region.tsb_core_node
        for bank in region.banks:
            assert region_map.request_via(bank) == \
                donor_region.tsb_core_node
        assert result.packets_delivered > 0
        assert sim.guard.violations == 0

    def test_inflight_requests_rerouted(self):
        sim, _ = _run(self.FAULTS)
        assert sim.fault_plane.packets_rerouted >= 0  # counter exists
        # The TSB event carries the reroute count.
        obs = Observability()
        sink = InMemorySink()
        obs.add_sink(sink)
        sim2, _ = _run(self.FAULTS, obs=obs)
        events = sink.by_kind(EV_FAULT_TSB)
        assert len(events) == 1
        assert events[0].data["region"] == 0
        assert events[0].data["rerouted"] == \
            sim2.fault_plane.packets_rerouted
        for ev in events:
            assert not validate_event(
                {"cycle": ev.cycle, "kind": ev.kind, **ev.data})

    def test_deterministic_across_schedulers(self):
        _, event = _run(self.FAULTS, scheduler="event")
        _, dense = _run(self.FAULTS, scheduler="dense")
        _assert_identical(event, dense, "tsb failure dense vs event")
        _, repeat = _run(self.FAULTS, scheduler="event")
        _assert_identical(event, repeat, "tsb failure repeat")

    def test_estimator_scheme_survives_remap(self):
        sim, result = _run(self.FAULTS, scheme=Scheme.STTRAM_4TSB_WB)
        assert sim.region_map.failed_regions
        assert result.packets_delivered > 0
        assert sim.guard.violations == 0


class TestBankPortFailure:
    FAULTS = FaultConfig(seed=7, bank_port_failures=((2, 250, None),),
                         bank_redirect_timeout=16)

    def test_redirects_around_dead_array(self):
        obs = Observability()
        sink = InMemorySink()
        obs.add_sink(sink)
        sim, result = _run(self.FAULTS, cycles=1_500, warmup=200, obs=obs)
        report = sim.fault_plane.report()
        assert report["bank_ports_failed"] == 1
        redirected = (
            report["bank_redirected_reads"]
            + report["bank_redirected_writes"]
            + report["bank_redirected_fills"]
        )
        assert redirected > 0
        assert sim.banks[2].port_failed_until > 0
        assert result.packets_delivered > 0
        assert sim.guard.violations == 0
        fails = sink.by_kind(EV_FAULT_BANK)
        redirects = sink.by_kind(EV_FAULT_REDIRECT)
        assert len(fails) == 1 and len(redirects) == redirected
        for ev in fails + redirects:
            assert not validate_event(
                {"cycle": ev.cycle, "kind": ev.kind, **ev.data})

    def test_port_heals_after_duration(self):
        faults = FaultConfig(seed=7,
                             bank_port_failures=((2, 250, 200),),
                             bank_redirect_timeout=16)
        sim, result = _run(faults, cycles=1_500, warmup=200)
        bank = sim.banks[2]
        # After healing the bank serves from the array again.
        assert sim.cycle >= bank.port_failed_until
        assert bank.stats.reads + bank.stats.writes + bank.stats.fills > 0
        assert sim.guard.violations == 0

    def test_deterministic_across_schedulers(self):
        _, event = _run(self.FAULTS, scheduler="event",
                        cycles=1_500, warmup=200)
        _, dense = _run(self.FAULTS, scheduler="dense",
                        cycles=1_500, warmup=200)
        _assert_identical(event, dense, "bank fault dense vs event")


class TestFaultConfigValidation:
    CFG = make_config(Scheme.STTRAM_4TSB, mesh_width=4,
                      capacity_scale=1 / 64)

    def _reject(self, **kwargs):
        with pytest.raises(FaultConfigError):
            FaultConfig(**kwargs).validate(self.CFG)

    def test_rates_and_knobs(self):
        self._reject(crc_rate=1.0)
        self._reject(crc_rate=-0.1)
        self._reject(retransmit_base_backoff=0, crc_rate=0.1)
        self._reject(bank_redirect_timeout=0)
        FaultConfig(crc_rate=0.5).validate(self.CFG)  # ok

    def test_tsb_faults_need_regions(self):
        sram = make_config(Scheme.SRAM_64TSB, mesh_width=4,
                           capacity_scale=1 / 64)
        with pytest.raises(FaultConfigError):
            FaultConfig(tsb_failures=((0, 10),)).validate(sram)

    def test_tsb_fault_bounds(self):
        self._reject(tsb_failures=((9, 10),))
        self._reject(tsb_failures=((0, -5),))
        n = self.CFG.n_region_tsbs
        everything = tuple((r, 10) for r in range(n))
        self._reject(tsb_failures=everything)  # no healthy donor left

    def test_bank_fault_bounds(self):
        self._reject(bank_port_failures=((99, 10, None),))
        self._reject(bank_port_failures=((0, -1, None),))
        self._reject(bank_port_failures=((0, 10, 0),))

    def test_default_config_injects_nothing(self):
        faults = FaultConfig()
        assert not faults.any_faults()
        cfg = small_config(Scheme.STTRAM_4TSB)
        sim = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=5),
                           faults=faults)
        assert sim.fault_plane is None  # no hooks installed

    def test_plane_validates_at_bind(self):
        cfg = small_config(Scheme.STTRAM_4TSB)
        sim = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=5))
        with pytest.raises(FaultConfigError):
            FaultPlane(sim, FaultConfig(crc_rate=2.0))


class TestFaultsAreInert:
    """A faults-off run with the fault plane kwargs present must be
    fingerprint-identical to the bare simulator (no hook overhead
    leaks into simulated state)."""

    @pytest.mark.parametrize("scheduler", ["dense", "event"])
    def test_none_faults_identical(self, scheduler):
        cfg = small_config(Scheme.STTRAM_4TSB_WB)
        sim = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=5),
                           scheduler=scheduler)
        bare = sim.run(400, warmup=100)
        cfg = small_config(Scheme.STTRAM_4TSB_WB)
        sim = CMPSimulator(cfg, homogeneous("sclust", cfg, seed=5),
                           scheduler=scheduler, guard=True,
                           faults=FaultConfig())
        armed = sim.run(400, warmup=100)
        _assert_identical(bare, armed, f"faults-off {scheduler}")


class TestChaosCLI:
    @pytest.mark.parametrize("fault", ["crc", "tsb", "bank-port"])
    def test_chaos_smoke(self, fault, capsys):
        from repro.cli import main

        rc = main([
            "chaos", "--app", "sclust", "--fault", fault,
            "--mesh-width", "4", "--capacity-scale", "0.015625",
            "--cycles", "600", "--warmup", "200", "--json",
        ])
        assert rc == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["guard"]["violations"] == 0
        assert payload["fault"] == fault
