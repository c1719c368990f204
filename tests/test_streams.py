"""Discovery's shuffle stream against numpy's.

`rcd.seed_states`, `rcd.first_shuffles` and `rcd.Pcg64Stream` compute
numpy's SeedSequence -> PCG64 -> `Generator.permutation` path themselves:
`first_shuffles` seeds a batch of streams and draws each one's first
permutation as one array computation, and `Pcg64Stream` continues a stream
from the state that permutation left. These tests pin them to numpy bit
for bit, so the chunking of every discovery run stays where numpy put it.
"""

import warnings

import numpy as np
import pytest

from rcseq import rcd
from rcseq.rcd import FirstShuffles, RcdConfig, first_shuffles, partition, rcd_runs, seed_states
from test_rcd import autocorrelated_labeled

# word boundaries of SeedSequence's entropy: one, two, three and seven words
SEEDS = [0, 1, 143, 2**32 - 1, 2**32, 2**64 + 5, 2**200]
# each mask width's first and last bounds, and a step whose every draw fits
WIDTHS = [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33, 64, 65]


def numpy_stream(entropy):
    return np.random.default_rng(np.random.SeedSequence(entropy))


def kernel(entropies, n):
    """`first_shuffles` with every warning an error: the uint64 halves must
    wrap silently."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return first_shuffles(entropies, n)


def stream(entropy):
    """Our stream of the entropy, before any draw."""
    return kernel([entropy], 0).stream(0)


def assert_lanes_match_numpy(entropies, n, later=(5, 2, 9)):
    """Each lane's first permutation, then its stream's next permutations,
    against numpy's generator of the lane's entropy."""
    shuffles = kernel(entropies, n)
    assert shuffles.perms.shape == (len(entropies), n)
    for lane, entropy in enumerate(entropies):
        theirs = numpy_stream(entropy)
        assert shuffles.perms[lane].tolist() == theirs.permutation(n).tolist(), (entropy, n)
        ours = shuffles.stream(lane)
        for m in later:
            assert ours.permutation(m) == theirs.permutation(m).tolist(), (entropy, n, m)
    return shuffles


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("run_index", [0, 1, 9, 2**32 + 3])
def test_permutations_match_numpy(seed, run_index):
    # the first permutation of each n from the kernel; the refinement passes
    # keep drawing from the run's stream
    for n in range(61):
        assert_lanes_match_numpy([[seed, run_index]], n, later=(n, n))


@pytest.mark.parametrize("lanes", [1, 10, 1140, 5003])
def test_batches_match_numpy(lanes):
    entropies = [[143 + lane // 27, lane % 27] for lane in range(lanes)]
    for n in (2, 7, 17):
        assert_lanes_match_numpy(entropies, n, later=(4,))


@pytest.mark.parametrize("n", WIDTHS)
def test_widths_match_numpy(n):
    for seed in (0, 2**32 + 7, 2**100 + 3):
        assert_lanes_match_numpy([[seed, i] for i in range(150)], n)


def test_lanes_use_up_the_draw_budget(monkeypatch):
    # a lane whose draws run out is drawn again with twice as many outputs,
    # until its permutation fits
    calls = []
    draws = rcd._draws

    def counted(hi, lo, count):
        calls.append((hi.shape[1], count))
        return draws(hi, lo, count)

    monkeypatch.setattr(rcd, "_draws", counted)
    entropies = [[2**40 + 9, i] for i in range(5000)]
    assert_lanes_match_numpy(entropies, 33, later=(3,))
    budget = -(-rcd._draw_budget(33) // 2)
    assert sum(lanes for lanes, count in calls if count == budget) == 5000
    # at four deviations, a few of 5000 lanes run over
    redrawn = [lanes for lanes, count in calls if count > budget]
    assert 0 < sum(redrawn) < 50
    # with the budget cut to one output (two draws), every lane is drawn
    # again while its row has fewer draws than its n - 1 steps
    monkeypatch.setattr(rcd, "_draw_budget", lambda n: 1)
    for n in (3, 8, 17):
        calls.clear()
        assert_lanes_match_numpy(entropies[:200], n)
        assert calls[0] == (200, 1)
        assert [count for _, count in calls] == [2**k for k in range(len(calls))]
        assert all(lanes == 200 for lanes, count in calls if 2 * count < n - 1)
        assert len(calls) > 1


def test_lanes_continue_after_odd_and_even_draws():
    # a lane whose first permutation took an odd number of 32-bit draws
    # keeps the high half of its last output for its next draw
    shuffles = assert_lanes_match_numpy([[7, i] for i in range(400)], 9, later=(6, 1, 3, 2))
    spare = shuffles.spare.tolist()
    assert -1 in spare and any(s >= 0 for s in spare)
    assert all(-1 <= s < 2**32 for s in spare)


def test_stream_continues_across_sizes():
    # a stream left holding half of a 64-bit output spends it on the next call
    ours, theirs = stream([143, 4]), numpy_stream([143, 4])
    for n in (7, 2, 5, 3, 40, 1, 6, 33, 2, 17):
        assert ours.permutation(n) == theirs.permutation(n).tolist()


@pytest.mark.parametrize("entropy", [[], [0], [5, 6, 7, 8], [1, 2, 3, 4, 5], [2**100, 2**40, 9]])
def test_seed_state_matches_numpy(entropy):
    ours = seed_states([entropy], 20)
    assert ours.dtype == np.uint32 and ours.shape == (1, 20)
    assert ours[0].tolist() == np.random.SeedSequence(entropy).generate_state(20).tolist()


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
    words = seed_states(batch, 8)
    assert np.array_equal(words, np.concatenate([seed_states([entropy], 8) for entropy in batch]))
    shuffles = kernel(batch, 30)
    for lane, entropy in enumerate(batch):
        alone = kernel([entropy], 30)
        for name in FirstShuffles.__slots__:
            got, want = getattr(shuffles, name)[lane], getattr(alone, name)[0]
            assert np.array_equal(got, want), name
        assert shuffles.stream(lane).permutation(30) == alone.stream(0).permutation(30)


def test_batch_of_mixed_word_counts_raises():
    # 2**32 takes two words where 5 takes one
    with pytest.raises(ValueError, match="same number of words"):
        seed_states([[3, 5], [3, 2**32]], 8)
    with pytest.raises(ValueError, match="same number of words"):
        first_shuffles([[3], [3, 1]], 4)


def test_empty_batch():
    assert seed_states([], 8).shape == (0, 8)
    shuffles = kernel([], 5)
    assert len(shuffles) == 0 and shuffles.perms.shape == (0, 5)


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
    # a tuner sweep draws every run's first shuffle in one batch and hands
    # each call its lanes; a lane can be handed over more than once
    labeled = autocorrelated_labeled(0, v=12)
    cfg = RcdConfig(g=4, n_runs=7, seed=2**33 + 1)
    shuffles = first_shuffles(([cfg.seed, i] for i in range(cfg.n_runs)), 12)
    runs = rcd_runs(labeled, cfg)
    assert len({run.kpis for run in runs}) > 1
    assert rcd_runs(labeled, cfg, shuffles=shuffles) == runs
    assert rcd_runs(labeled, cfg, shuffles=shuffles[::-1]) == runs[::-1]
    assert rcd_runs(labeled, cfg, shuffles=shuffles) == runs
    longer = first_shuffles(([cfg.seed, i] for i in range(8)), 12)
    for wrong in (shuffles[:-1], longer, shuffles[:0]):
        with pytest.raises(ValueError, match=f"{len(wrong)} shuffles for 7 runs"):
            rcd_runs(labeled, cfg, shuffles=wrong)
    with pytest.raises(ValueError, match="shuffles of 11 names for 12 KPIs"):
        rcd_runs(labeled, cfg, shuffles=first_shuffles([[cfg.seed, i] for i in range(7)], 11))
