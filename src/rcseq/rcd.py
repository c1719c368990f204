"""Root Cause Discovery over a labeled KPI panel.

The binary failure indicator F (1 on the abnormal window, 0 on the normal
window) is appended to the variable set; KPI names are shuffled into random
chunks of size g, a localized PC-style skeleton search keeps the chunk
members that stay dependent on F under conditioning, and the union of
survivors is hierarchically refined until a final full pass yields the
run's candidate set. Repeating the run n times with independent RNG streams
gives the per-KPI causal-source frequency table.

Run i of base seed s shuffles with the stream of numpy's
`default_rng(SeedSequence([s, i]))` and its `permutation`, computed here bit
for bit by `Pcg64Stream`, so discovery never imports `numpy.random` and a
numpy release that changes `Generator.permutation` cannot move the chunks.

F is treated as a sink: survivors adjacent to F are reported as its parents
directly, with no orientation phase.

Discovery runs in one process. Every CI test goes through one `CiOracle`:
the pooled sample, each KPI's marginal p against F from one batch over all
pooled columns, the Gram matrix of the centered pooled KPI columns and F,
a memo of the conditional tests, each computed once, and a memo of the
chunk screens. A chunk's level 0 reads the marginal p's straight from that
batch, so only levels >= 1 enumerate conditioning sets. Removals take
effect only after a level completes, as in PC-stable (Colombo & Maathuis,
JMLR 2014), so a chunk's levels >= 1 depend only on the set of members
that pass level 0, not on the chunk's order: every screen goes through
`CiOracle.screen`, which computes `local_skeleton` once per such set,
taken in panel order. Each (chunk, level) asks all of its tests at once,
and the memo's misses go to one `stats.stacked_gram_ci` call, which
inverts one small block of the Gram per test, whatever the number of
pooled rows; a nearly collinear block (a derived KPI next to its inputs)
falls back to a least-squares solve on the rows. A run's final pass
screens its remaining survivors as one chunk, so its candidate set depends
only on them, alpha and max_cond: `CiOracle.candidates` builds it once per
such key and hands the same frozen object to every run that reaches it.
The runs of one `rcd_runs` call share an oracle, and a caller that reruns
discovery on the same panel, such as the Monte Carlo tuner, may pass one
oracle to every call; each distinct test, each distinct level-0 survivor
set and each distinct final survivor set is then computed once. Such a
caller may also seed the runs' streams itself, as one batch over all of
its calls, and pass each call its own (`rcd_runs(..., streams=...)`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

# RcdConfig is defined with the other config sections and re-exported here
from .config import RcdConfig
from .errors import AnalysisError, ConfigError
from .panel import LabeledPanel, read_only_copy, value_eq
# the marginal screen's binding; bench/tracer.py hooks it under this name
from .stats import batch_ci as batch_marginal_ci
from .stats import ci_test, stacked_gram_ci

__all__ = [
    "RcdConfig",
    "CandidateSet",
    "FrequencyTable",
    "CiOracle",
    "discovery_kpis",
    "seed_states",
    "Pcg64Stream",
    "partition",
    "local_skeleton",
    "hierarchical_refine",
    "rcd_single_run",
    "rcd_runs",
    "rcd_multi_run",
]


@dataclass(frozen=True)
class CandidateSet:
    """KPIs surviving one discovery run, with their final (maximum observed)
    CI p-values against F and any level-skip warnings."""

    kpis: tuple[str, ...]
    p_values: tuple[tuple[str, float], ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class FrequencyTable:
    """Per-KPI count of runs in which it appeared as a causal source."""

    kpi_names: tuple[str, ...]
    counts: np.ndarray
    n_runs: int

    __eq__ = value_eq

    @classmethod
    def from_runs(cls, kpi_names, runs) -> "FrequencyTable":
        """Count, per KPI, the runs whose candidate set contains it."""
        kpi_names = tuple(kpi_names)
        index = {name: i for i, name in enumerate(kpi_names)}
        counts = np.zeros(len(kpi_names), dtype=np.int64)
        for cand in runs:
            for kpi in cand.kpis:
                counts[index[kpi]] += 1
        return cls(kpi_names=kpi_names, counts=counts, n_runs=len(runs))

    def __post_init__(self):
        if self.n_runs < 1:
            raise ConfigError(f"n_runs must be >= 1, got {self.n_runs}")
        counts = read_only_copy(self.counts, np.int64)
        if counts.shape != (len(self.kpi_names),):
            raise ConfigError("counts must align with kpi_names")
        if counts.min(initial=0) < 0 or counts.max(initial=0) > self.n_runs:
            raise ConfigError("counts must lie in [0, n_runs]")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "kpi_names", tuple(self.kpi_names))

    @property
    def proportions(self) -> np.ndarray:
        return self.counts / self.n_runs

    def proportion(self, kpi: str) -> float:
        return float(self.counts[self.kpi_names.index(kpi)] / self.n_runs)


def discovery_kpis(labeled: LabeledPanel, exclude=()) -> tuple[str, ...]:
    """The KPIs discovery analyzes: the panel's KPIs minus `exclude`, in panel
    order. They are every run's candidates to screen, the rows of the
    frequency table and the tuner grid's KPI axis."""
    excluded = set(exclude)
    names = tuple(n for n in labeled.panel.kpi_names if n not in excluded)
    if not names:
        raise ConfigError("no KPIs left to analyze after exclusions")
    return names


# The chunk shuffle's random stream is computed here, bit for bit as numpy's
# `default_rng(SeedSequence(entropy)).permutation(n)` computes it: the
# SeedSequence entropy pool and `generate_state` (numpy/random/
# bit_generator.pyx), PCG64's 128-bit LCG with XSL-RR output (O'Neill 2014),
# and `Generator.shuffle`'s Fisher-Yates over `random_interval`'s masked
# rejection with buffered 32-bit draws. NEP 19 fixes the bit generators'
# streams across numpy releases but not `Generator.permutation`, so owning
# the shuffle keeps the chunking fixed; it also keeps `numpy.random` out of
# every discovery command.

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> tuple[int, ...]:
    """The first `count` terms of init * mult**k modulo 2**32."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _M32)
    return tuple(out)


def _entropy_words(entropy) -> list[int]:
    """SeedSequence's uint32 words of a sequence of non-negative ints: each
    int gives its 32-bit words, least significant first (0 gives one word)."""
    words = []
    for value in entropy:
        value = operator.index(value)  # as numpy, refuse floats
        if value < 0:
            raise ValueError(f"seed entropy must be non-negative, got {value}")
        words.append(value & _M32)
        while value := value >> 32:
            words.append(value & _M32)
    return words


def _hashmix(words: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's `hashmix` of uint32 words with the constants x, y."""
    v = (words ^ x) * y
    return v ^ v >> 16


def _mix(dst: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """SeedSequence's `mix` of pool words with hashed words."""
    r = _MIX_L * dst - _MIX_R * hashed
    return r ^ r >> 16


def seed_states(entropies, n_words: int) -> list[list[int]]:
    """numpy's `SeedSequence(e).generate_state(n_words)` as ints, for every
    entropy e, a sequence of non-negative ints, in `entropies`.

    The batch runs SeedSequence's hashes once, each over a uint32 array
    with one entry per entropy; array arithmetic wraps modulo 2**32 as the
    hashes do. Every entropy must give the same number of uint32 words
    (ValueError otherwise).
    """
    rows = [_entropy_words(e) for e in entropies]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("the entropies of one batch must give the same number of words")
    if not rows:
        return []
    # one row per word position; the pool pads entropy short of 4 words with 0
    words = np.zeros((max(4, len(rows[0])), len(rows)), dtype=np.uint32)
    words[: len(rows[0])] = np.array(rows, dtype=np.uint32).T
    # mix_entropy's k-th hash xors with constant k and multiplies by constant
    # k + 1: 4 hashes fill the pool, each pool word then mixes into the other
    # three, and each word past the fourth into all four
    a = np.array(_hash_constants(_INIT_A, _MULT_A, 4 * len(words) + 1), dtype=np.uint32)
    a = a[:, None]  # one constant per row, broadcast over the batch
    pool = _hashmix(words[:4], a[:4], a[1:5])
    k = 4
    for src in range(len(words)):
        dst = [d for d in range(4) if d != src]
        source = pool[src] if src < 4 else words[src]
        hashed = _hashmix(source, a[k : k + len(dst)], a[k + 1 : k + 1 + len(dst)])
        pool[dst] = _mix(pool[dst], hashed)
        k += len(dst)
    # generate_state cycles over the pool with its own constants
    b = np.array(_hash_constants(_INIT_B, _MULT_B, n_words + 1), dtype=np.uint32)[:, None]
    state = _hashmix(pool[np.arange(n_words) % 4], b[:-1], b[1:])
    return state.T.tolist()


class Pcg64Stream:
    """The PCG64 stream that numpy seeds from 8 SeedSequence state words,
    with the Generator's `permutation(n)` for an int n; each call continues
    the stream, as successive numpy calls do. `Pcg64Stream.streams(entropies)`
    gives the stream of `default_rng(SeedSequence(e))` for each entropy e."""

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, words):
        w0, w1, w2, w3, w4, w5, w6, w7 = words
        # PCG64 seeds from the words as uint64 little-endian pairs: the first
        # two pairs are the state's high and low halves, the next two the
        # increment's
        seed = w1 << 96 | w0 << 64 | w3 << 32 | w2
        inc = (w5 << 96 | w4 << 64 | w7 << 32 | w6) << 1 & _M128 | 1
        self._inc = inc
        # PCG's seeding: step from state 0, add the seed, step again
        self._state = ((inc + seed) * _PCG_MULT + inc) & _M128
        # the high half of the last 64-bit output while it is unused
        self._spare: int | None = None

    @classmethod
    def streams(cls, entropies) -> list["Pcg64Stream"]:
        """One stream per entropy, seeded as one `seed_states` batch."""
        return [cls(words) for words in seed_states(entropies, 8)]

    def permutation(self, n: int) -> list[int]:
        """A uniform permutation of range(n), as a list, for n < 2**32
        (numpy draws 64-bit words from there on)."""
        perm = list(range(n))
        state, inc, spare = self._state, self._inc, self._spare
        for i in range(n - 1, 0, -1):
            # draw j in [0, i]: mask a 32-bit draw to i's bit width and
            # redraw while it exceeds i
            mask = (1 << i.bit_length()) - 1
            while True:
                if spare is None:
                    state = (state * _PCG_MULT + inc) & _M128
                    rot = state >> 122
                    x = ((state >> 64) ^ state) & _M64
                    x = (x >> rot | x << (64 - rot)) & _M64
                    j = x & mask
                    spare = x >> 32
                else:
                    j = spare & mask
                    spare = None
                if j <= i:
                    break
            perm[i], perm[j] = perm[j], perm[i]
        self._state, self._spare = state, spare
        return perm


def partition(kpi_names, g: int, rng: Pcg64Stream) -> list[list[str]]:
    """Shuffle the names uniformly and split them into ceil(V/g) chunks of
    size at most g, covering every name exactly once. `rng` is any object
    whose permutation(n) permutes range(n), such as a numpy Generator."""
    if g < 2:
        raise ConfigError(f"chunk size g must be >= 2, got {g}")
    names = list(kpi_names)
    shuffled = [names[i] for i in rng.permutation(len(names))]
    n_chunks = max(1, -(-len(names) // g))
    # the first len % n_chunks chunks take one extra name, as np.array_split
    size, extra = divmod(len(names), n_chunks)
    starts = [i * size + min(i, extra) for i in range(n_chunks + 1)]
    return [shuffled[a:b] for a, b in zip(starts, starts[1:]) if b > a]


class CiOracle:
    """The pooled normal+abnormal rows of one panel with their F vector, and
    a memo of the discovery CI p-values against F, keyed (X, S).

    Every KPI's marginal p (S = ()) comes from one `stats.batch_ci` call
    over all pooled columns, made here through the `batch_marginal_ci`
    binding: a column's batch p depends in its last bits on the columns that
    share its batch, so one batch gives each KPI one marginal p whichever
    chunk screens it. `marginal` maps each name to that p, and `order` maps
    each name to its panel position. `gram` holds the cross products of the
    centered pooled columns, the KPIs in panel order and F last. A
    conditional p depends in its last bits on the order of S, so S is kept
    in the caller's order. `p_values` answers the memo's misses of one call
    with one call of the module's `stacked_gram_ci` binding on their Gram
    blocks, and each block it declines, a nearly collinear one, with the
    module's `ci_test` binding, the least-squares kernel's one-column call
    on the rows. `screen` answers discovery's chunk screens from a second
    memo, keyed by (the chunk's level-0 survivors in panel order, alpha,
    max_cond), and `candidates` answers the runs' final passes from a
    third, keyed by (the final pass's survivors in panel order, alpha,
    max_cond). A pooled sample of n <= 3 rows, too few for any CI test,
    raises AnalysisError.
    """

    def __init__(self, labeled: LabeledPanel):
        self.labeled = labeled
        rows = labeled.pooled_rows()
        self.values = labeled.panel.values[rows]
        self.f = labeled.fnode[rows].astype(float)
        if self.f.size <= 3:
            raise AnalysisError(
                f"pooled sample n={self.f.size} is too small for discovery: "
                "its CI tests need n > 3"
            )
        names = labeled.panel.kpi_names
        p_values = batch_marginal_ci(self.values, self.f)[1].tolist()
        self.marginal: dict[str, float] = dict(zip(names, p_values))
        self.order: dict[str, int] = {name: i for i, name in enumerate(names)}
        self._p: dict[tuple[str, tuple[str, ...]], float] = {
            (name, ()): p for name, p in self.marginal.items()
        }
        centered = np.column_stack([self.values, self.f])
        centered -= centered.mean(axis=0)
        self.gram = centered.T @ centered
        self._skeletons: dict[
            tuple[tuple[str, ...], float, int], tuple[dict[str, float], list[str]]
        ] = {}
        self._candidates: dict[tuple[tuple[str, ...], float, int], CandidateSet] = {}

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.order[name]]

    def p_values(self, keys) -> list[float]:
        """p-value of each (name, subset) key, name against F given the
        subset's columns in order; the subsets of one call have one size.
        The kernel gives each block the bits of a one-block call, so a p
        does not depend on the keys it is asked with. A call whose keys are
        all in the memo does not touch numpy."""
        memo = self._p
        try:
            # the memo answers most calls whole, such as a tuner's reruns
            return [memo[key] for key in keys]
        except KeyError:
            pass
        missing = [key for key in keys if key not in memo]
        order = self.order
        # each test's block is the Gram's on [X, F, *S]; F is its last column
        idx = np.array([[order[x], len(order), *(order[s] for s in sub)] for x, sub in missing])
        blocks = self.gram[idx[:, :, np.newaxis], idx[:, np.newaxis, :]]
        _, p, answered = stacked_gram_ci(blocks, self.f.size)
        for (name, subset), p_key, ok in zip(missing, p.tolist(), answered.tolist()):
            if not ok:
                given = [self.column(s) for s in subset]
                p_key = ci_test(self.column(name), self.f, given=given).p
            memo[name, subset] = p_key
        return [memo[key] for key in keys]

    def screen(
        self, chunk, alpha: float, max_cond: int
    ) -> tuple[dict[str, float], list[str]]:
        """`local_skeleton` of the chunk, computed once per (the chunk's
        level-0 survivors in panel order, alpha, max_cond).

        Removals take effect only after a level completes, so a chunk's
        levels >= 1 depend only on the set of members that pass level 0, and
        `local_skeleton` of those members in panel order is the skeleton of
        every chunk with that set; the chunk's own order would change only
        the order of its conditioning sets, and with it the last bits of a
        p. A miss calls the module's
        `local_skeleton` binding. Fewer than two survivors leave no level
        >= 1 to run, so their level 0 is the answer, with no call. A memo
        result is shared by every call that hits it; callers must not
        modify it.
        """
        p_max = _level_zero(self.marginal, chunk, alpha)
        if len(p_max) < 2:
            return p_max, []
        survivors = tuple(sorted(p_max, key=self.order.__getitem__))
        key = (survivors, alpha, max_cond)
        result = self._skeletons.get(key)
        if result is None:
            result = self._skeletons[key] = local_skeleton(self, survivors, alpha, max_cond)
        return result

    def candidates(self, survivors, alpha: float, max_cond: int) -> CandidateSet:
        """The candidate set of a discovery run's final pass over
        `survivors`, built once per (the survivors in panel order, alpha,
        max_cond).

        The final pass screens the survivors as one chunk, so its result
        depends only on that key; a miss takes it from `screen`, and lists
        the kept KPIs, their p-values and the screen's warnings in panel
        order. Every call with the key returns the same frozen object.
        """
        order = self.order
        members = tuple(sorted(survivors, key=order.__getitem__))
        key = (members, alpha, max_cond)
        result = self._candidates.get(key)
        if result is None:
            final, warnings = self.screen(members, alpha, max_cond)
            kept = sorted(final, key=order.__getitem__)
            result = self._candidates[key] = CandidateSet(
                kpis=tuple(kept),
                p_values=tuple((name, float(final[name])) for name in kept),
                warnings=tuple(warnings),
            )
        return result


def _level_zero(marginal, chunk, alpha: float) -> dict[str, float]:
    """The screen's level 0: each chunk member whose marginal p against F in
    `marginal` is not > alpha, mapped to that p (at least 0.0), in chunk
    order."""
    return {name: max(0.0, p) for name in chunk if not (p := marginal[name]) > alpha}


def local_skeleton(
    oracle: CiOracle, chunk, alpha: float, max_cond: int
) -> tuple[dict[str, float], list[str]]:
    """PC-style neighborhood search of F restricted to one chunk.

    Every chunk member starts adjacent to F. For conditioning sizes
    l = 0..max_cond, each member X is tested against F given every size-l
    subset of the other current neighbors; X is dropped once any test fails
    to reject (p > alpha). Removals are applied only after a level
    completes, so results do not depend on within-level order. Level 0 is
    one pass over the chunk that reads each member's p from
    `oracle.marginal`, the oracle's one marginal batch. Each level >= 1
    asks all of its (member, subset) tests in one `oracle.p_values` call,
    those after a member's first p > alpha included; they change no
    result, since a removed member's maximum is not reported.

    Returns (survivors mapped to their maximum observed p-value, warnings
    for any levels skipped due to sample size). `oracle` answers the CI
    tests. This is the pure per-chunk function; discovery calls it through
    `CiOracle.screen`, on a chunk's level-0 survivors in panel order, once
    per distinct set of them.
    """
    chunk = list(chunk)
    if not chunk:
        raise ConfigError("chunk must be non-empty")
    n = oracle.f.size
    # the oracle guarantees n > 3, so level 0 always runs
    p_max = _level_zero(oracle.marginal, chunk, alpha)
    adjacency = list(p_max)
    warnings: list[str] = []

    for level in range(1, max_cond + 1):
        if level > len(adjacency) - 1:
            break
        if n <= level + 3:
            warnings.append(
                f"conditioning level {level} skipped: pooled sample n={n} too small"
            )
            continue
        keys = [
            (name, subset)
            for name in adjacency
            for subset in combinations([o for o in adjacency if o != name], level)
        ]
        removed: set[str] = set()
        for (name, _), p in zip(keys, oracle.p_values(keys)):
            p_max[name] = max(p_max[name], p)
            if p > alpha:
                removed.add(name)
        if removed:
            adjacency = [a for a in adjacency if a not in removed]
    return {name: p_max[name] for name in adjacency}, warnings


# Re-chunking passes hierarchical_refine makes at most before its final pass.
MAX_REFINE_PASSES = 16


def hierarchical_refine(
    survivor_union,
    oracle: CiOracle,
    g: int,
    alpha: float,
    max_cond: int,
    rng: Pcg64Stream,
) -> CandidateSet:
    """Refine the union of chunk survivors down to the run's candidate set.

    While more than g survivors remain, they are re-partitioned into chunks
    of size g and re-screened; survivors of their own chunk stay. A pass
    that removes nothing ends the loop (re-chunking a genuinely dependent
    set would never terminate otherwise). At most MAX_REFINE_PASSES passes
    run; stopping there while passes still remove KPIs adds a warning. The
    final pass screens the remaining set as a single chunk and supplies the
    reported p-values. Each refinement screen is an `oracle.screen` call,
    and `rng` is passed to every `partition` call, on the survivors in
    panel order. The final pass is `oracle.candidates` of the remaining
    set, shared by every call that ends on that set; the warnings of any
    refinement passes go before its own, on a copy.
    """
    survivors = list(survivor_union)
    warnings: list[str] = []
    passes = 0
    while len(survivors) > g:
        if passes == MAX_REFINE_PASSES:
            warnings.append(
                f"refinement stopped at the {passes}-pass cap with {len(survivors)} KPIs left"
            )
            break
        passes += 1
        kept: list[str] = []
        # the shuffle permutes positions: give it the survivors in panel order
        for chunk in partition(sorted(survivors, key=oracle.order.__getitem__), g, rng):
            surv, warn = oracle.screen(chunk, alpha, max_cond)
            kept.extend(surv)
            warnings.extend(warn)
        if len(kept) == len(survivors):
            break
        survivors = kept
    result = oracle.candidates(survivors, alpha, max_cond)
    if warnings:
        result = replace(result, warnings=(*warnings, *result.warnings))
    return result


def _discovery_run(oracle: CiOracle, cfg: RcdConfig, names, rng: Pcg64Stream) -> CandidateSet:
    """One discovery run over `names`, shuffled by `rng`; its warnings are
    distinct, in the order first seen."""
    union: set[str] = set()
    warnings: list[str] = []
    for chunk in partition(names, cfg.g, rng):
        surv, warn = oracle.screen(chunk, cfg.alpha, cfg.max_cond)
        union.update(surv)
        warnings.extend(warn)
    result = hierarchical_refine(union, oracle, cfg.g, cfg.alpha, cfg.max_cond, rng)
    warnings.extend(result.warnings)
    if warnings:
        # every chunk and refinement pass repeats the same level skips
        result = replace(result, warnings=tuple(dict.fromkeys(warnings)))
    return result


def rcd_single_run(
    oracle: CiOracle, cfg: RcdConfig, run_index: int, exclude=()
) -> CandidateSet:
    """Run `run_index` of `rcd_runs` alone, on the oracle's panel, with the
    stream of entropy [cfg.seed, run_index]."""
    [rng] = Pcg64Stream.streams([[cfg.seed, run_index]])
    return _discovery_run(oracle, cfg, discovery_kpis(oracle.labeled, exclude), rng)


def rcd_runs(
    labeled: LabeledPanel,
    cfg: RcdConfig,
    exclude=(),
    *,
    oracle: CiOracle | None = None,
    streams: list[Pcg64Stream] | None = None,
) -> list[CandidateSet]:
    """All n_runs candidate sets, in run order.

    Runs are pure functions of (data, cfg, run index): run i shuffles with
    the stream of entropy [cfg.seed, i], and the call seeds all of its
    streams as one batch. A caller that has seeded them already, such as
    a tuner sweep seeding every run of every cell as one batch, passes them
    as `streams`, one fresh stream per run (ValueError on a length other
    than n_runs). Runs share one CI oracle, which must be built from
    `labeled` (ValueError otherwise); None builds a fresh one.
    """
    if oracle is None:
        oracle = CiOracle(labeled)
    elif oracle.labeled is not labeled:
        raise ValueError("oracle was built from a different labeled panel")
    if streams is None:
        streams = Pcg64Stream.streams([cfg.seed, i] for i in range(cfg.n_runs))
    elif len(streams) != cfg.n_runs:
        raise ValueError(f"got {len(streams)} streams for {cfg.n_runs} runs")
    names = discovery_kpis(labeled, exclude)
    return [_discovery_run(oracle, cfg, names, rng) for rng in streams]


def rcd_multi_run(
    labeled: LabeledPanel,
    cfg: RcdConfig,
    exclude=(),
    *,
    oracle: CiOracle | None = None,
    streams: list[Pcg64Stream] | None = None,
) -> FrequencyTable:
    """Aggregate n_runs independent runs into per-KPI source frequencies;
    `oracle` and `streams` are passed to `rcd_runs`."""
    runs = rcd_runs(labeled, cfg, exclude, oracle=oracle, streams=streams)
    return FrequencyTable.from_runs(discovery_kpis(labeled, exclude), runs)
