"""Stream draws against their executable reference.

``reference_next_access`` is ``SyntheticStream.next_access`` with its
``_gap`` and ``_hot_block`` helpers as separate calls and
``rng.expovariate`` for the gap.  The production draw binds
``rng.random`` once and inlines the gap and hot-set step for the
L1-resident access; it must return the same tuples, keep the same
counters and leave the RNG in the same state, because every simulated
value downstream depends on the exact sequence of RNG calls.
"""

from __future__ import annotations

import pytest

from repro.sim.config import Scheme, make_config
from repro.workloads.benchmarks import all_benchmarks
from repro.workloads.mixes import make_stream
from repro.workloads.synthetic import MEAN_BURST_LENGTH


def reference_gap(stream, small=False):
    if small:
        return stream._rng.randrange(2, 9)
    mean = stream._mean_gap
    return max(0, int(stream._rng.expovariate(1.0 / mean))) if mean else 0


def reference_hot_block(stream):
    stream._hot_ptr = (stream._hot_ptr + 1) % len(stream._hot_set)
    return stream._hot_set[stream._hot_ptr]


def reference_next_access(stream):
    stream.accesses += 1
    rng = stream._rng

    if stream._burst_remaining > 0:
        stream._burst_remaining -= 1
        stream.generated_misses += 1
        is_store = rng.random() < stream.store_prob
        if is_store:
            stream.generated_stores += 1
        return (reference_gap(stream, small=True),
                stream._burst_block(stream._burst_bank), is_store)

    if stream.bursty:
        if rng.random() < stream._burst_enter_prob:
            stream._burst_bank = rng.randrange(stream.n_banks)
            stream._burst_remaining = max(
                1, int(rng.expovariate(1.0 / MEAN_BURST_LENGTH)))
            stream._burst_remaining -= 1
            stream.generated_misses += 1
            is_store = rng.random() < stream.store_prob
            if is_store:
                stream.generated_stores += 1
            return (reference_gap(stream),
                    stream._burst_block(stream._burst_bank), is_store)
        if rng.random() < stream.miss_prob * stream._solo_miss_fraction:
            stream.generated_misses += 1
            is_store = rng.random() < stream.store_prob
            if is_store:
                stream.generated_stores += 1
            return (reference_gap(stream), stream._miss_block(), is_store)
        return (reference_gap(stream), reference_hot_block(stream), False)

    if rng.random() < stream.miss_prob:
        stream.generated_misses += 1
        is_store = rng.random() < stream.store_prob
        if is_store:
            stream.generated_stores += 1
        return (reference_gap(stream), stream._miss_block(), is_store)
    return (reference_gap(stream), reference_hot_block(stream), False)


CONFIG = make_config(Scheme.STTRAM_64TSB, mesh_width=4,
                     capacity_scale=1 / 64)
DRAWS = 20_000


def _stream(spec, seed):
    stream = make_stream(spec, 5, CONFIG, seed)
    stream.prewarm_blocks()
    return stream


@pytest.mark.parametrize("seed", [1, 97])
@pytest.mark.parametrize("spec", all_benchmarks(), ids=lambda s: s.name)
def test_next_access_matches_reference(spec, seed):
    fast = _stream(spec, seed)
    ref = _stream(spec, seed)
    got = [fast.next_access() for _ in range(DRAWS)]
    want = [reference_next_access(ref) for _ in range(DRAWS)]
    assert got == want
    for name in ("accesses", "generated_misses", "generated_stores",
                 "_hot_ptr", "_burst_remaining", "_stream_counter"):
        assert getattr(fast, name) == getattr(ref, name), name
    assert fast._rng.getstate() == ref._rng.getstate()
    # non-vacuous: both the inlined hot access and the miss paths ran
    assert 0 < fast.generated_misses < DRAWS
