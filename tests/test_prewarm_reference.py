"""Bulk pre-warming against its per-block executable reference.

``reference_prewarm_blocks`` and ``reference_prewarm`` are the per-block
formulation of analytic pre-warming: one ``_fresh_block`` call per
streamed block, then one ``_install_l2`` call (one ``CacheArray.fill``)
per L2 install in global order.  The production path builds each
stream's blocks with list comprehensions and fills every bank once with
``fill_many``; it must leave exactly the same state behind -- every
bank's and every L1's sets in LRU order with their dirty flags, the
eviction counters, every directory entry and every stream's counter and
pools -- also after a second ``prewarm_blocks`` call.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.arrays import CacheArray
from repro.sim.config import Scheme, make_config
from repro.sim.simulator import CMPSimulator
from repro.workloads.mixes import homogeneous


def reference_prewarm_blocks(stream):
    """Per-block ``SyntheticStream.prewarm_blocks``."""
    blocks = []
    if stream.bursty:
        per_bank = max(8, stream._pool_capacity // (2 * stream.n_banks))
        for bank in range(stream.n_banks):
            for _ in range(per_bank):
                blocks.append(stream._fresh_block(bank=bank))
    while len(stream._pool) < stream._pool_capacity:
        blocks.append(stream._fresh_block())
    return blocks


def reference_prewarm(sim):
    """Per-block ``CMPSimulator.prewarm``: one ``_install_l2`` per block."""
    shared_done = False
    for core in sim.cores:
        stream = core.stream
        for block in reference_prewarm_blocks(stream):
            sim._install_l2(block)
        for block in stream.hot_blocks():
            sim._install_l2(block)
            core.l1.fill(block)
            bank = sim.banks[sim.bank_for_block(block)]
            bank.directory.on_request(core.core_id, block, False)
        if not shared_done:
            for block in stream.shared_blocks():
                sim._install_l2(block)
            shared_done = True


def array_state(array):
    return ([list(entry.items()) for entry in array._sets],
            array.evictions, array.dirty_evictions)


def stream_state(stream):
    return (stream._stream_counter, list(stream._pool),
            [(bank, list(pool), pool.maxlen)
             for bank, pool in stream._bank_pools.items()])


def sim_state(sim):
    return {
        "banks": [array_state(bank.array) for bank in sim.banks],
        "l1s": [array_state(core.l1) for core in sim.cores],
        "directories": [list(bank.directory._entries.items())
                        for bank in sim.banks],
        "streams": [stream_state(core.stream) for core in sim.cores],
    }


# Bursty shared, bursty private, non-bursty shared and non-bursty
# private streams.
APPS = ["tpcc", "lbm", "canneal", "mcf"]
SHAPES = [
    pytest.param(4, 1 / 64, id="4x4"),
    pytest.param(8, 1 / 16, id="8x8"),
]


@pytest.mark.parametrize("scheme", [Scheme.SRAM_64TSB, Scheme.STTRAM_64TSB],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("mesh_width,capacity_scale", SHAPES)
@pytest.mark.parametrize("app", APPS)
def test_bulk_prewarm_matches_per_block_reference(app, mesh_width,
                                                   capacity_scale, scheme):
    config = make_config(scheme, mesh_width=mesh_width,
                         capacity_scale=capacity_scale)
    bulk = CMPSimulator(config, homogeneous(app, config, seed=3))
    ref = CMPSimulator(config, homogeneous(app, config, seed=3),
                       prewarm=False)
    reference_prewarm(ref)

    state = sim_state(bulk)
    assert state == sim_state(ref)
    # non-vacuous: the L2 was filled and directories recorded sharers
    assert sum(bank.array.occupancy() for bank in bulk.banks) > 0
    assert any(state["directories"])

    for bulk_core, ref_core in zip(bulk.cores, ref.cores):
        again = bulk_core.stream.prewarm_blocks()
        assert again == reference_prewarm_blocks(ref_core.stream)
        assert stream_state(bulk_core.stream) == stream_state(
            ref_core.stream)


def test_reference_cases_cover_evictions():
    """The SRAM 4x4 tpcc case overflows L2 sets during pre-warming, so
    the identity above covers LRU eviction order too."""
    config = make_config(Scheme.SRAM_64TSB, mesh_width=4,
                         capacity_scale=1 / 64)
    sim = CMPSimulator(config, homogeneous("tpcc", config, seed=3))
    assert sum(bank.array.evictions for bank in sim.banks) > 0


def _populated_array(ops, ways, stride):
    array = CacheArray(4 * ways * 64, ways, 64, index_stride=stride)
    for block, dirty in ops:
        array.fill(block, dirty=dirty)
    return array


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(st.tuples(st.integers(0, 120), st.booleans()),
                 max_size=120),
    blocks=st.lists(st.integers(0, 120), max_size=200),
    ways=st.integers(1, 4),
    stride=st.sampled_from([1, 4, 16]),
)
def test_property_fill_many_equals_repeated_fill(ops, blocks, ways, stride):
    bulk = _populated_array(ops, ways, stride)
    ref = copy.deepcopy(bulk)
    bulk.fill_many(blocks)
    for block in blocks:
        ref.fill(block)
    assert array_state(bulk) == array_state(ref)
    assert (bulk.hits, bulk.misses) == (ref.hits, ref.misses)


def test_fill_many_keeps_dirty_flags_and_counts_dirty_victims():
    array = CacheArray(2 * 64, 2, 64)  # one set, two ways
    array.fill(1, dirty=True)
    array.fill(2, dirty=False)
    array.fill_many([1, 3, 4])
    # 1 was refreshed (still dirty), 2 then 1 were evicted in LRU order
    assert array_state(array) == ([[(3, False), (4, False)]], 2, 1)
