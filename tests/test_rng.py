import numpy as np
import pytest

import trochoid.correlations
import trochoid.digraphs
import trochoid.ensembles
import trochoid.rng

from trochoid.rng import (
    TAG_FLIP,
    Stream,
    VectorStreams,
    derive_key,
    derive_keys,
    edge_flip_uniforms,
    normalize_seed,
)


def per_node_flip_uniforms(seed: int, node: int, count: int) -> np.ndarray:
    """Reference: seed one stream per in-edge slot (b -> node), b < count, and
    draw its first uniform, as the sweep once did node by node."""
    if count == 0:
        return np.empty(0)
    keys = (np.uint64(node) << np.uint64(32)) | np.arange(count, dtype=np.uint64)
    return VectorStreams.for_indices(seed, TAG_FLIP, keys).uniform()


def test_normalize_seed_masks_to_64_bits():
    assert normalize_seed(2**64 + 5) == 5
    assert normalize_seed(7) == 7
    with pytest.raises(TypeError):
        normalize_seed("7")


@pytest.mark.parametrize(
    "draw",
    [
        lambda seed: trochoid.ensembles.generate_base_iid(5, seed),
        lambda seed: trochoid.correlations.flip_uniforms(seed, 0),
        lambda seed: trochoid.correlations.generate_dense_cyclic(
            trochoid.correlations.DenseCyclicSpec(n=5, k=3, flip_prob=0.5), seed
        ),
        lambda seed: trochoid.correlations.induce_cyclic_correlations(
            trochoid.ensembles.DenseMatrix(np.eye(5)), trochoid.correlations.DenseCyclicSpec(n=5, k=3, flip_prob=0.0), seed
        ),
        lambda seed: trochoid.digraphs.generate_regular_cyclic(trochoid.digraphs.RegularCyclicSpec(n=30, d=2, k=3), seed),
        lambda seed: trochoid.digraphs.generate_poisson_cyclic(
            trochoid.digraphs.PoissonCyclicSpec(n=30, mean_degree=2.0, k=3), seed
        ),
        lambda seed: trochoid.digraphs.generate_mixed_cyclic(
            trochoid.digraphs.MixedCyclicSpec(
                n=12, species=(trochoid.digraphs.CycleSpecies(d=1, k=3), trochoid.digraphs.CycleSpecies(d=1, k=4))
            ),
            seed,
        ),
    ],
    ids=["base-iid", "flip-uniforms", "dense-cyclic", "induce-unswept", "regular", "poisson", "mixed"],
)
def test_every_generator_refuses_a_seed_that_is_not_an_integer(draw):
    # checked where the first stream is keyed; an unswept induce keys none and checks it itself
    with pytest.raises(TypeError, match="^seed must be an integer, got str$"):
        draw("7")


def test_derive_key_is_order_sensitive():
    assert derive_key(1, 2, 3) != derive_key(1, 3, 2)
    assert derive_key(1, 2) != derive_key(2, 2)
    assert derive_key(5, 9) == derive_key(5, 9)


def test_vector_and_scalar_streams_agree():
    keys = derive_keys(42, 7, np.arange(5))
    vec = VectorStreams(keys)
    raw = np.stack([vec.next_raw() for _ in range(6)])
    for i, key in enumerate(keys):
        s = Stream(int(key))
        mine = [s.next_raw() for _ in range(6)]
        assert mine == [int(x) for x in raw[:, i]]


def test_uniform_range_and_mean():
    streams = VectorStreams.for_indices(3, 1, np.arange(2000))
    u = np.concatenate([streams.uniform() for _ in range(20)])
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_pair_moments():
    streams = VectorStreams.for_indices(11, 1, np.arange(5000))
    z0, z1 = streams.normal_pair()
    sample = np.concatenate([z0, z1])
    assert abs(sample.mean()) < 0.05
    assert abs(sample.std() - 1.0) < 0.05


def test_stream_below_bounds_and_determinism():
    s = Stream.derived(9, 1)
    draws = [s.below(10) for _ in range(1000)]
    assert min(draws) >= 0 and max(draws) < 10
    s2 = Stream.derived(9, 1)
    assert [s2.below(10) for _ in range(1000)] == draws


def test_shuffle_is_permutation_and_deterministic():
    items = list(range(50))
    s = Stream.derived(4, 2)
    s.shuffle(items)
    assert sorted(items) == list(range(50))
    items2 = list(range(50))
    Stream.derived(4, 2).shuffle(items2)
    assert items2 == items
    assert items != list(range(50))


def test_sample_distinct():
    s = Stream.derived(8, 3)
    picks = s.sample_distinct(10, 10)
    assert sorted(picks) == list(range(10))
    with pytest.raises(ValueError):
        s.sample_distinct(3, 4)


def test_edge_flip_uniforms_independent_of_count():
    # the stream for edge (b -> v) must not depend on how many edges are drawn
    small, large = edge_flip_uniforms(7, 6), edge_flip_uniforms(7, 40)
    for v in range(6):
        np.testing.assert_array_equal(small[v], large[v])
    assert edge_flip_uniforms(7, 0) == []


# the table is built in chunks of whole rows: one chunk holds all 780 slots
# at n = 40 and four chunks hold the 124750 at n = 500; a chunk size of 5
# makes every row from v = 5 on a chunk of its own
@pytest.mark.parametrize(
    "n, chunk", [(0, None), (1, None), (2, None), (40, None), (40, 5), (500, None)]
)
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_edge_flip_table_matches_per_node_streams(monkeypatch, n, chunk, seed):
    if chunk is not None:
        monkeypatch.setattr(trochoid.rng, "_TABLE_CHUNK", chunk)
    table = edge_flip_uniforms(seed, n)
    assert [row.shape for row in table] == [(v,) for v in range(n)]
    for v, row in enumerate(table):
        expected = per_node_flip_uniforms(seed, v, v)
        np.testing.assert_array_equal(row.view(np.uint64), expected.view(np.uint64))
