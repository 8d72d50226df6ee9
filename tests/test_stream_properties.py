"""Property-based tests of the synthetic workload streams."""

from hypothesis import given, settings, strategies as st

from repro.sim.config import Scheme, make_config
from repro.workloads.benchmarks import all_benchmarks, get_benchmark
from repro.workloads.synthetic import SyntheticStream

APP_NAMES = [b.name for b in all_benchmarks()]


def make_stream(app, core=0, seed=1, mesh_width=4):
    cfg = make_config(Scheme.STTRAM_64TSB, mesh_width=mesh_width,
                      capacity_scale=1 / 64)
    spec = get_benchmark(app)
    shared = 512 if spec.shared else None
    return SyntheticStream(spec, core, cfg, seed=seed,
                           shared_pool_blocks=shared)


@settings(max_examples=30, deadline=None)
@given(app=st.sampled_from(APP_NAMES), seed=st.integers(0, 100))
def test_property_accesses_are_well_formed(app, seed):
    stream = make_stream(app, seed=seed)
    for _ in range(300):
        gap, block, is_store = stream.next_access()
        assert gap >= 0
        assert block >= 0
        assert isinstance(is_store, bool)


@settings(max_examples=20, deadline=None)
@given(app=st.sampled_from(["tpcc", "mcf", "x264", "hmmer"]),
       core_a=st.integers(0, 15), core_b=st.integers(0, 15))
def test_property_private_spaces_disjoint(app, core_a, core_b):
    if core_a == core_b:
        return
    a = make_stream(app, core=core_a)
    b = make_stream(app, core=core_b)
    blocks_a = {a.next_access()[1] for _ in range(500)}
    blocks_b = {b.next_access()[1] for _ in range(500)}
    shared_limit = 512  # only the shared pool may overlap
    overlap = blocks_a & blocks_b
    assert all(blk < shared_limit for blk in overlap)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 50))
def test_property_store_rate_respects_spec(seed):
    stream = make_stream("tpcc", seed=seed)
    for _ in range(20_000):
        stream.next_access()
    if stream.generated_misses < 200:
        return
    frac = stream.generated_stores / stream.generated_misses
    target = get_benchmark("tpcc").write_fraction
    assert abs(frac - target) < 0.2


@settings(max_examples=10, deadline=None)
@given(app=st.sampled_from(["libquantum", "milc", "gcc"]))
def test_property_low_write_apps_generate_few_stores(app):
    stream = make_stream(app)
    for _ in range(20_000):
        stream.next_access()
    spec = get_benchmark(app)
    if stream.generated_misses:
        frac = stream.generated_stores / stream.generated_misses
        assert frac <= spec.write_fraction + 0.1


@settings(max_examples=20, deadline=None)
@given(app=st.sampled_from(APP_NAMES), seed=st.sampled_from([1, 2]),
       mesh_width=st.sampled_from([4, 8]))
def test_property_prewarm_is_idempotent_in_size(app, seed, mesh_width):
    stream = make_stream(app, seed=seed, mesh_width=mesh_width)
    blocks = stream.prewarm_blocks()
    assert len(set(blocks)) == len(blocks)
    assert not set(blocks) & set(stream.hot_blocks())
    assert len(stream._pool) == stream._pool_capacity
    # The pool is at capacity, so a second call adds no scattered
    # blocks; bursty streams re-pin their per-bank lists.
    again = stream.prewarm_blocks()
    if stream.bursty:
        per_bank = max(8, stream._pool_capacity // (2 * stream.n_banks))
        assert len(again) == stream.n_banks * per_bank
    else:
        assert again == []
    assert len(stream._pool) == stream._pool_capacity


def test_blocks_map_to_all_banks_eventually():
    stream = make_stream("libquantum")
    banks = set()
    for _ in range(5_000):
        _gap, block, _st = stream.next_access()
        banks.add(block % stream.n_banks)
    assert len(banks) == stream.n_banks
