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
pooled columns, and a memo of the conditional tests, each computed once.
A chunk's level 0 reads the marginal p's straight from that batch, so only
levels >= 1 enumerate conditioning sets. The runs of one `rcd_runs` call
share an oracle, and a caller that reruns discovery on the same panel, such
as the Monte Carlo tuner, may pass one oracle to every call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import AnalysisError, ConfigError
from .panel import LabeledPanel, read_only_copy, value_eq
# the marginal screen's binding; bench/tracer.py hooks it under this name
from .stats import batch_ci as batch_marginal_ci
from .stats import ci_test

__all__ = [
    "RcdConfig",
    "CandidateSet",
    "FrequencyTable",
    "CiOracle",
    "discovery_kpis",
    "seed_state",
    "Pcg64Stream",
    "partition",
    "local_skeleton",
    "hierarchical_refine",
    "rcd_single_run",
    "rcd_runs",
    "rcd_multi_run",
]


@dataclass(frozen=True)
class RcdConfig:
    """Discovery parameters: chunk size g, number of runs, CI significance,
    conditioning-set cap, and the base seed all RNG streams derive from."""

    g: int = 5
    n_runs: int = 10
    alpha: float = 0.05
    max_cond: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.g < 2:
            raise ConfigError(f"rcd.g must be >= 2, got {self.g}")
        if self.n_runs < 1:
            raise ConfigError(f"rcd.n_runs must be positive, got {self.n_runs}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"rcd.alpha must lie in (0, 1), got {self.alpha}")
        if self.max_cond < 0:
            raise ConfigError(f"rcd.max_cond must be non-negative, got {self.max_cond}")
        if self.seed < 0:
            raise ConfigError(f"rcd.seed must be non-negative, got {self.seed}")


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
_MULT_A = 0x931E8875
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


# SeedSequence's hashes run through fixed constant sequences: the k-th hash
# of a word xors it with entry k and multiplies it by entry k + 1. _HASH_A
# mixes the entropy into the pool, _HASH_B draws state words from it.
_HASH_A = _hash_constants(0x43B0D7E5, _MULT_A, 17)
_HASH_B = _hash_constants(0x8B51F9DD, _MULT_B, 9)


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


def _hash(value: int, x: int, y: int) -> int:
    """SeedSequence's `hashmix` of a word with the constants x, y."""
    v = (value ^ x) * y & _M32
    return v ^ v >> 16


def _mix(dst: int, hashed: int) -> int:
    """SeedSequence's `mix` of a pool word with a hashed word."""
    r = (_MIX_L * dst - _MIX_R * hashed) & _M32
    return r ^ r >> 16


@lru_cache(maxsize=256)
def _pool_head(w0: int, w2: int, w3: int) -> tuple[int, int, int, int]:
    """The pool mixing's steps that entropy word 1 does not reach: pool words
    0, 2 and 3 after word 0 has mixed into the others, and the hash of word
    0 that mixes into word 1. The runs of one base seed share them."""
    a = _HASH_A
    m0 = _hash(w0, a[0], a[1])
    m2 = _mix(_hash(w2, a[2], a[3]), _hash(m0, a[5], a[6]))
    m3 = _mix(_hash(w3, a[3], a[4]), _hash(m0, a[6], a[7]))
    return m0, _hash(m0, a[4], a[5]), m2, m3


def _entropy_pool(entropy) -> list[int]:
    """numpy's `SeedSequence(entropy).pool`: the four uint32 words that its
    `mix_entropy` makes of the entropy's words."""
    words = _entropy_words(entropy)
    # the first four words, or zeros where there are fewer, hash into the
    # pool, and then every pool word mixes into every other
    w0, w1, w2, w3 = (words + [0, 0, 0, 0])[:4]
    m0, h0, m2, m3 = _pool_head(w0, w2, w3)
    a = _HASH_A
    m1 = _mix(_hash(w1, a[1], a[2]), h0)
    # the mixes from words 1, 2 and 3, each three lines being
    # m_d = _mix(m_d, _hash(m_s, a[k], a[k + 1])) with k counting up from 7;
    # written out, as they run once per discovery run
    L, R, M = _MIX_L, _MIX_R, _M32
    v = (m1 ^ a[7]) * a[8] & M
    r = (L * m0 - R * (v ^ v >> 16)) & M
    m0 = r ^ r >> 16
    v = (m1 ^ a[8]) * a[9] & M
    r = (L * m2 - R * (v ^ v >> 16)) & M
    m2 = r ^ r >> 16
    v = (m1 ^ a[9]) * a[10] & M
    r = (L * m3 - R * (v ^ v >> 16)) & M
    m3 = r ^ r >> 16
    v = (m2 ^ a[10]) * a[11] & M
    r = (L * m0 - R * (v ^ v >> 16)) & M
    m0 = r ^ r >> 16
    v = (m2 ^ a[11]) * a[12] & M
    r = (L * m1 - R * (v ^ v >> 16)) & M
    m1 = r ^ r >> 16
    v = (m2 ^ a[12]) * a[13] & M
    r = (L * m3 - R * (v ^ v >> 16)) & M
    m3 = r ^ r >> 16
    v = (m3 ^ a[13]) * a[14] & M
    r = (L * m0 - R * (v ^ v >> 16)) & M
    m0 = r ^ r >> 16
    v = (m3 ^ a[14]) * a[15] & M
    r = (L * m1 - R * (v ^ v >> 16)) & M
    m1 = r ^ r >> 16
    v = (m3 ^ a[15]) * a[16] & M
    r = (L * m2 - R * (v ^ v >> 16)) & M
    m2 = r ^ r >> 16
    pool = [m0, m1, m2, m3]
    # each word past the fourth mixes into each pool word in turn, the
    # hashes going on from constant 16
    x = a[16]
    for w in words[4:]:
        for d in range(4):
            y = x * _MULT_A & M
            pool[d] = _mix(pool[d], _hash(w, x, y))
            x = y
    return pool


def seed_state(entropy, n_words: int) -> list[int]:
    """numpy's `SeedSequence(entropy).generate_state(n_words)` as ints: the
    n_words uint32 words drawn from the entropy's pool. `entropy` is a
    sequence of non-negative ints of any size."""
    pool = _entropy_pool(entropy)
    b = _hash_constants(_HASH_B[0], _MULT_B, n_words + 1)
    return [_hash(pool[k % 4], b[k], b[k + 1]) for k in range(n_words)]


class Pcg64Stream:
    """The PCG64 stream of numpy's `default_rng(SeedSequence(entropy))`, with
    that Generator's `permutation(n)` for an int n; each call continues the
    stream, as successive numpy calls do."""

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, entropy):
        p = _entropy_pool(entropy)
        # w = seed_state(entropy, 8), written out, as it runs once per
        # discovery run
        b, M = _HASH_B, _M32
        v = (p[0] ^ b[0]) * b[1] & M
        w0 = v ^ v >> 16
        v = (p[1] ^ b[1]) * b[2] & M
        w1 = v ^ v >> 16
        v = (p[2] ^ b[2]) * b[3] & M
        w2 = v ^ v >> 16
        v = (p[3] ^ b[3]) * b[4] & M
        w3 = v ^ v >> 16
        v = (p[0] ^ b[4]) * b[5] & M
        w4 = v ^ v >> 16
        v = (p[1] ^ b[5]) * b[6] & M
        w5 = v ^ v >> 16
        v = (p[2] ^ b[6]) * b[7] & M
        w6 = v ^ v >> 16
        v = (p[3] ^ b[7]) * b[8] & M
        w7 = v ^ v >> 16
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
    each name to its panel position. A conditional p depends in its last
    bits on the order of S, so S is kept in the caller's order; a miss calls
    the module's `ci_test` binding, the kernel's one-column call. A pooled
    sample of n <= 3 rows, too few for any CI test, raises AnalysisError.
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

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.order[name]]

    def p_value(self, name: str, subset: tuple[str, ...]) -> float:
        """p-value of name against F given the subset's columns, in order."""
        key = (name, subset)
        if key not in self._p:
            given = [self.column(s) for s in subset]
            self._p[key] = ci_test(self.column(name), self.f, given=given).p
        return self._p[key]


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
    `oracle.marginal`, the oracle's one marginal batch.

    Returns (survivors mapped to their maximum observed p-value, warnings
    for any levels skipped due to sample size). `oracle` answers the CI
    tests.
    """
    chunk = list(chunk)
    if not chunk:
        raise ConfigError("chunk must be non-empty")
    n = oracle.f.size
    marginal = oracle.marginal
    # the oracle guarantees n > 3, so level 0 always runs
    p_max = {name: max(0.0, p) for name in chunk if not (p := marginal[name]) > alpha}
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
        removed: list[str] = []
        for name in adjacency:
            others = [o for o in adjacency if o != name]
            for subset in combinations(others, level):
                p = oracle.p_value(name, subset)
                p_max[name] = max(p_max[name], p)
                if p > alpha:
                    removed.append(name)
                    break
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
    reported p-values. `oracle` is passed to every `local_skeleton` call,
    and `rng` to every `partition` call.
    """
    order = oracle.order
    survivors = sorted(survivor_union, key=order.__getitem__)
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
        for chunk in partition(survivors, g, rng):
            surv, warn = local_skeleton(oracle, chunk, alpha, max_cond)
            kept.extend(surv)
            warnings.extend(warn)
        if len(kept) == len(survivors):
            break
        survivors = sorted(kept, key=order.__getitem__)
    if not survivors:
        return CandidateSet(kpis=(), p_values=(), warnings=tuple(warnings))
    final, warn = local_skeleton(oracle, survivors, alpha, max_cond)
    warnings.extend(warn)
    kept = sorted(final, key=order.__getitem__)
    return CandidateSet(
        kpis=tuple(kept),
        p_values=tuple((name, float(final[name])) for name in kept),
        warnings=tuple(warnings),
    )


def rcd_single_run(
    oracle: CiOracle, cfg: RcdConfig, run_index: int, exclude=()
) -> CandidateSet:
    """One independent discovery run on the oracle's panel, with its own
    derived RNG stream; its warnings are distinct, in the order first seen."""
    names = discovery_kpis(oracle.labeled, exclude)
    rng = Pcg64Stream([cfg.seed, run_index])
    union: set[str] = set()
    warnings: list[str] = []
    for chunk in partition(names, cfg.g, rng):
        surv, warn = local_skeleton(oracle, chunk, cfg.alpha, cfg.max_cond)
        union.update(surv)
        warnings.extend(warn)
    result = hierarchical_refine(union, oracle, cfg.g, cfg.alpha, cfg.max_cond, rng)
    warnings.extend(result.warnings)
    if warnings:
        # every chunk and refinement pass repeats the same level skips
        result = replace(result, warnings=tuple(dict.fromkeys(warnings)))
    return result


def rcd_runs(
    labeled: LabeledPanel,
    cfg: RcdConfig,
    exclude=(),
    *,
    oracle: CiOracle | None = None,
) -> list[CandidateSet]:
    """All n_runs candidate sets, in run order.

    Runs are pure functions of (data, cfg, run index). They share one CI
    oracle, which must be built from `labeled` (ValueError otherwise); None
    builds a fresh one.
    """
    if oracle is None:
        oracle = CiOracle(labeled)
    elif oracle.labeled is not labeled:
        raise ValueError("oracle was built from a different labeled panel")
    exclude = tuple(exclude)
    return [rcd_single_run(oracle, cfg, i, exclude) for i in range(cfg.n_runs)]


def rcd_multi_run(
    labeled: LabeledPanel,
    cfg: RcdConfig,
    exclude=(),
    *,
    oracle: CiOracle | None = None,
) -> FrequencyTable:
    """Aggregate n_runs independent runs into per-KPI source frequencies;
    `oracle` is passed to `rcd_runs`."""
    runs = rcd_runs(labeled, cfg, exclude, oracle=oracle)
    return FrequencyTable.from_runs(discovery_kpis(labeled, exclude), runs)
