"""Discovery's shuffle stream against numpy's.

`rcd.Pcg64Stream` and `rcd.seed_state` compute numpy's SeedSequence -> PCG64
-> `Generator.permutation` path themselves. These tests pin them to numpy
bit for bit, so the chunking of every discovery run stays where numpy put it.
"""

import numpy as np
import pytest

from rcseq.rcd import Pcg64Stream, partition, seed_state
from rcseq.tuner import _cell_seed

# word boundaries of SeedSequence's entropy: one, two, three and seven words
SEEDS = [0, 1, 143, 2**32 - 1, 2**32, 2**64 + 5, 2**200]


def numpy_stream(entropy):
    return np.random.default_rng(np.random.SeedSequence(entropy))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("run_index", [0, 1, 9, 2**32 + 3])
def test_permutations_match_numpy(seed, run_index):
    for n in range(1, 61):
        ours, theirs = Pcg64Stream([seed, run_index]), numpy_stream([seed, run_index])
        # the refinement passes keep drawing from a run's stream
        for _ in range(3):
            assert ours.permutation(n) == theirs.permutation(n).tolist()


def test_stream_continues_across_sizes():
    # a stream left holding half of a 64-bit output spends it on the next call
    ours, theirs = Pcg64Stream([143, 4]), numpy_stream([143, 4])
    for n in (7, 2, 5, 3, 40, 1, 6, 33, 2, 17):
        assert ours.permutation(n) == theirs.permutation(n).tolist()


@pytest.mark.parametrize("entropy", [[], [0], [5, 6, 7, 8], [1, 2, 3, 4, 5], [2**100, 2**40, 9]])
def test_seed_state_matches_numpy(entropy):
    assert seed_state(entropy, 20) == np.random.SeedSequence(entropy).generate_state(20).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_cell_seed_matches_numpy(seed):
    for g, n in [(2, 1), (3, 10), (8, 50), (40, 1000)]:
        expected = np.random.SeedSequence([seed, g, n]).generate_state(1)[0]
        assert _cell_seed(seed, g, n) == int(expected)


def test_entropy_must_be_non_negative_ints():
    # numpy's SeedSequence refuses both; a float is not truncated
    with pytest.raises(ValueError, match="non-negative"):
        Pcg64Stream([3, -1])
    with pytest.raises(TypeError):
        Pcg64Stream([3, 1.0])
    assert Pcg64Stream([np.uint32(3), np.int64(1)]).permutation(9) == (
        Pcg64Stream([3, 1]).permutation(9)
    )


def test_partition_takes_either_stream():
    names = [f"k{i}" for i in range(23)]
    assert partition(names, 4, numpy_stream([7, 2])) == partition(names, 4, Pcg64Stream([7, 2]))
