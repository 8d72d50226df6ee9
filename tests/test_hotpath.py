"""Hot-path datapath invariants (flat router state, pooling, dispatch).

The optimized executed-cycle datapath -- flat ``port * n_vcs + vc`` VC
arrays, entry-list pooling, precomputed routing tables, per-node arbiter
dispatch, and the active-set route loop -- must be observationally
invisible.  These tests pin that down three ways:

* a fingerprint matrix: all six paper schemes x {dense, event}
  scheduler x {optimized, reference} route loop must produce the same
  ``SimulationResult`` bit for bit,
* identity-based entry removal (``Router.remove_entry`` must never
  remove a merely value-equal sibling entry; pooled entry lists make
  value equality meaningless),
* the precomputed XY routing table must agree with the closed-form
  ``_compute_port`` reference at every (node, destination, via) step.
"""

import pytest

from repro.noc.packet import Packet, PacketClass, reset_packet_ids
from repro.noc.router import Router
from repro.noc.routing import RoutingPolicy
from repro.noc.topology import LOCAL, Mesh3D
from repro.sim.config import Scheme
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous
from tests.conftest import small_config

#: Every paper scheme: SRAM baseline, naive STT-RAM, region-restricted
#: STT-RAM, and bank-aware arbitration under each estimator (SS, RCA,
#: WB).
SCHEMES = [
    Scheme.SRAM_64TSB,
    Scheme.STTRAM_64TSB,
    Scheme.STTRAM_4TSB,
    Scheme.STTRAM_4TSB_SS,
    Scheme.STTRAM_4TSB_RCA,
    Scheme.STTRAM_4TSB_WB,
]

#: (scheduler, use_reference_loop) datapath combinations.
DATAPATHS = [
    ("dense", True),
    ("dense", False),
    ("event", True),
    ("event", False),
]


def _fingerprint(scheme, scheduler, use_reference_loop,
                 cycles=400, warmup=100):
    reset_packet_ids()
    cfg = small_config(scheme)
    sim = CMPSimulator(
        cfg, homogeneous("sclust", cfg, seed=5), scheduler=scheduler)
    sim.network.use_reference_loop = use_reference_loop
    return sim.run(cycles, warmup=warmup)


class TestFingerprintIdentity:
    """Every datapath combination must agree with the authoritative
    dense + reference-loop run, field for field."""

    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
    def test_all_datapaths_byte_identical(self, scheme):
        base = _fingerprint(scheme, "dense", True)
        assert base.packets_delivered > 0  # non-vacuous comparison
        for scheduler, reference in DATAPATHS[1:]:
            result = _fingerprint(scheme, scheduler, reference)
            diffs = [
                key for key in base.__dict__
                if base.__dict__[key] != result.__dict__[key]
            ]
            assert not diffs, (
                f"{scheme.value}: SimulationResult drift in {diffs} "
                f"(scheduler={scheduler}, reference={reference})"
            )


def _mk_pkt(src=0, dst=1, flits=1):
    return Packet(PacketClass.REQUEST, src, dst, flits, inject_cycle=0)


class TestIdentityRemoval:
    """``remove_entry`` removes the exact entry object, never a
    value-equal sibling (regression for the ``list.remove`` era)."""

    def test_removes_exact_entry_not_value_equal_twin(self):
        router = Router(node=0, n_vcs=4)
        pkt = _mk_pkt()
        # Two entries for the *same* packet object with identical fields
        # except the VC -- then forge the VCs equal so the entries are
        # value-equal but distinct objects.
        router.accept(LOCAL, 0, pkt, out_port=1, arrival=0)
        router.accept(LOCAL, 1, pkt, out_port=1, arrival=0)
        first, second = router.out_entries[1]
        second[1] = first[1] = 0
        assert first == second and first is not second
        router.remove_entry(1, second, now=0)
        assert router.out_entries[1] == [first]
        assert router.out_entries[1][0] is first

    def test_missing_entry_raises(self):
        router = Router(node=0, n_vcs=4)
        pkt = _mk_pkt()
        router.accept(LOCAL, 0, pkt, out_port=1, arrival=0)
        stranger = [LOCAL, 0, pkt, 0]  # value-equal, never parked
        with pytest.raises(ValueError):
            router.remove_entry(1, stranger, now=0)

    def test_entry_pool_recycles_lists(self):
        router = Router(node=0, n_vcs=4)
        router.accept(LOCAL, 0, _mk_pkt(), out_port=1, arrival=0)
        recycled = router.out_entries[1][0]
        router.remove_entry_at(1, 0, now=0)
        assert recycled[2] is None  # packet reference dropped
        router.accept(LOCAL, 1, _mk_pkt(), out_port=2, arrival=3)
        assert router.out_entries[2][0] is recycled  # pooled reuse
        assert router.out_entries[2][0][3] == 3


class TestRoutingTableEquivalence:
    """The precomputed XY table path of ``next_port`` must match the
    closed-form ``_compute_port`` reference at every routing step."""

    @pytest.mark.parametrize("klass", [
        PacketClass.REQUEST, PacketClass.RESPONSE, PacketClass.COHERENCE,
    ], ids=lambda k: k.name)
    def test_table_matches_reference_on_all_pairs(self, klass):
        topo = Mesh3D(width=4)
        policy = RoutingPolicy(topo, region_map=None)
        for src in range(topo.n_nodes):
            for dst in range(topo.n_nodes):
                if src == dst:
                    continue
                pkt = Packet(klass, src, dst, 1, inject_cycle=0)
                policy.prepare(pkt)
                node, via, hops = src, pkt.via, 0
                while node != dst:
                    expect_port, expect_via = policy._compute_port(
                        node, dst, via)
                    pkt.via = via
                    port = policy.next_port(node, pkt)
                    assert port == expect_port, (
                        f"table/reference split at node {node} "
                        f"(src={src}, dst={dst}, via={via})"
                    )
                    via = pkt.via
                    assert via == expect_via
                    if port == LOCAL:
                        break
                    node = topo.neighbor(node, port)
                    hops += 1
                    assert hops <= 3 * topo.n_nodes, "routing loop"
                assert node == dst
