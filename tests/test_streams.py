"""Discovery's shuffle stream against numpy's.

`rcd.seed_states` and `rcd.Pcg64Stream` compute numpy's SeedSequence ->
PCG64 -> `Generator.permutation` path themselves, seeding a batch of
streams at once. These tests pin them to numpy bit for bit, so the chunking
of every discovery run stays where numpy put it.
"""

import numpy as np
import pytest

from rcseq.rcd import Pcg64Stream, RcdConfig, partition, rcd_runs, seed_states
from test_rcd import autocorrelated_labeled

# word boundaries of SeedSequence's entropy: one, two, three and seven words
SEEDS = [0, 1, 143, 2**32 - 1, 2**32, 2**64 + 5, 2**200]


def numpy_stream(entropy):
    return np.random.default_rng(np.random.SeedSequence(entropy))


def stream(entropy):
    [ours] = Pcg64Stream.streams([entropy])
    return ours


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("run_index", [0, 1, 9, 2**32 + 3])
def test_permutations_match_numpy(seed, run_index):
    # one batch of 60 equal entropies: a fresh stream for each n
    ours = Pcg64Stream.streams([[seed, run_index]] * 60)
    for n, stream_n in enumerate(ours, start=1):
        theirs = numpy_stream([seed, run_index])
        # the refinement passes keep drawing from a run's stream
        for _ in range(3):
            assert stream_n.permutation(n) == theirs.permutation(n).tolist()


def test_stream_continues_across_sizes():
    # a stream left holding half of a 64-bit output spends it on the next call
    ours, theirs = stream([143, 4]), numpy_stream([143, 4])
    for n in (7, 2, 5, 3, 40, 1, 6, 33, 2, 17):
        assert ours.permutation(n) == theirs.permutation(n).tolist()


@pytest.mark.parametrize("entropy", [[], [0], [5, 6, 7, 8], [1, 2, 3, 4, 5], [2**100, 2**40, 9]])
def test_seed_state_matches_numpy(entropy):
    [ours] = seed_states([entropy], 20)
    assert ours == np.random.SeedSequence(entropy).generate_state(20).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_cell_seed_matches_numpy(seed):
    # run_grid seeds each (g, n) cell with word 0 of one batch
    cells = [(2, 1), (3, 10), (8, 50), (40, 1000)]
    ours = seed_states([[seed, g, n] for g, n in cells], 1)
    for (g, n), [cell_seed] in zip(cells, ours):
        assert cell_seed == int(np.random.SeedSequence([seed, g, n]).generate_state(1)[0])


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_equals_members_seeded_alone(seed):
    batch = [[seed, i] for i in range(41)]
    assert seed_states(batch, 8) == [seed_states([entropy], 8)[0] for entropy in batch]
    for entropy, ours in zip(batch, Pcg64Stream.streams(batch)):
        assert ours.permutation(30) == stream(entropy).permutation(30)


def test_batch_of_mixed_word_counts_raises():
    # 2**32 takes two words where 5 takes one
    with pytest.raises(ValueError, match="same number of words"):
        seed_states([[3, 5], [3, 2**32]], 8)
    with pytest.raises(ValueError, match="same number of words"):
        Pcg64Stream.streams([[3], [3, 1]])


def test_empty_batch():
    assert seed_states([], 8) == []
    assert Pcg64Stream.streams([]) == []


def test_entropy_must_be_non_negative_ints():
    # numpy's SeedSequence refuses both; a float is not truncated
    with pytest.raises(ValueError, match="non-negative"):
        stream([3, -1])
    with pytest.raises(TypeError):
        stream([3, 1.0])
    assert stream([np.uint32(3), np.int64(1)]).permutation(9) == stream([3, 1]).permutation(9)


def test_partition_takes_either_stream():
    names = [f"k{i}" for i in range(23)]
    assert partition(names, 4, numpy_stream([7, 2])) == partition(names, 4, stream([7, 2]))


def test_runs_take_streams_seeded_elsewhere():
    # a tuner sweep seeds every run's stream in one batch and hands them over
    labeled = autocorrelated_labeled(0, v=12)
    cfg = RcdConfig(g=4, n_runs=7, seed=2**33 + 1)
    streams = Pcg64Stream.streams([cfg.seed, i] for i in range(cfg.n_runs))
    runs = rcd_runs(labeled, cfg)
    assert len({run.kpis for run in runs}) > 1
    assert rcd_runs(labeled, cfg, streams=streams) == runs
    fresh = Pcg64Stream.streams([cfg.seed, i] for i in range(cfg.n_runs))
    assert rcd_runs(labeled, cfg, streams=fresh[::-1]) == runs[::-1]
    for wrong in (streams[:-1], [*streams, streams[0]], []):
        with pytest.raises(ValueError, match=f"{len(wrong)} streams for 7 runs"):
            rcd_runs(labeled, cfg, streams=wrong)
