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
for bit, so discovery never imports `numpy.random` and a numpy release that
changes `Generator.permutation` cannot move the chunks. `first_shuffles`
seeds every run of a call and draws its first shuffle as one array
computation, a lane per run; only a run whose union needs refinement passes
builds its `Pcg64Stream`, which continues the lane's stream.

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
caller may also draw the runs' first shuffles itself, as one
`first_shuffles` batch over all of its calls, and pass each call its own
lanes (`rcd_runs(..., shuffles=...)`).
"""

from __future__ import annotations

import math
import operator
from collections import Counter
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
    "FirstShuffles",
    "first_shuffles",
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
        seen = Counter(kpi for cand in runs for kpi in cand.kpis)
        if unknown := seen.keys() - set(kpi_names):
            raise KeyError(min(unknown))
        counts = np.array([seen[name] for name in kpi_names], dtype=np.int64)
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
# rejection with buffered 32-bit draws. `first_shuffles` seeds a batch of
# streams and draws each one's first permutation as one numpy computation,
# one lane per stream; `Pcg64Stream` continues one lane's stream from the
# state that permutation left, for the refinement passes. NEP 19 fixes the
# bit generators' streams across numpy releases but not
# `Generator.permutation`, so owning the shuffle keeps the chunking fixed; it
# also keeps `numpy.random` out of every discovery command.

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


def seed_states(entropies, n_words: int) -> np.ndarray:
    """numpy's `SeedSequence(e).generate_state(n_words)` for every entropy e,
    a sequence of non-negative ints, in `entropies`: a uint32 array with one
    row per entropy.

    The batch runs SeedSequence's hashes once, each over a uint32 array
    with one entry per entropy; array arithmetic wraps modulo 2**32 as the
    hashes do. Every entropy must give the same number of uint32 words
    (ValueError otherwise).
    """
    flat: list[int] = []
    lengths = []
    for entropy in entropies:
        words = _entropy_words(entropy)
        lengths.append(len(words))
        flat.extend(words)
    if len(set(lengths)) > 1:
        raise ValueError("the entropies of one batch must give the same number of words")
    if not lengths:
        return np.zeros((0, n_words), dtype=np.uint32)
    # one row per word position; the pool pads entropy short of 4 words with 0
    words = np.zeros((max(4, lengths[0]), len(lengths)), dtype=np.uint32)
    words[: lengths[0]] = np.array(flat, dtype=np.uint32).reshape(len(lengths), -1).T
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
    return _hashmix(pool[np.arange(n_words) % 4], b[:-1], b[1:]).T


# The kernel keeps each 128-bit quantity as uint64 high and low halves; numpy
# array arithmetic wraps modulo 2**64 without a warning, as the halves need.


def _halves(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as uint64 arrays of their high and low halves."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _M64 for v in values], dtype=np.uint64),
    )


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """a * b modulo 2**128 on uint64 halves, broadcasting a against b."""
    # the high half of a_lo * b_lo from four 32 x 32 -> 64-bit products
    a0, a1 = a_lo & _M32, a_lo >> 32
    b0, b1 = b_lo & _M32, b_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    carry = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return a_hi * b_lo + a_lo * b_hi + carry, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """a + b modulo 2**128 on uint64 halves."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _seeded(entropies) -> tuple[np.ndarray, np.ndarray]:
    """Each entropy's PCG64 stream as numpy seeds it, as (2, lanes) uint64
    high and low halves: row 0 the state one LCG step before the seeded
    state, row 1 the increment."""
    # PCG64 seeds from 8 SeedSequence words as uint64 little-endian pairs:
    # the first two pairs are the seed's high and low halves, the next two
    # the increment's, shifted left by one with its low bit set
    w0, w1, w2, w3, w4, w5, w6, w7 = seed_states(entropies, 8).T.astype(np.uint64)
    inc_hi, inc_lo = w5 << 33 | w4 << 1 | w7 >> 31, w7 << 33 | w6 << 1 | 1
    # PCG's seeding steps from state 0 to inc, adds the seed and steps again
    hi, lo = _add128(inc_hi, inc_lo, w1 << 32 | w0, w3 << 32 | w2)
    return np.stack([hi, inc_hi]), np.stack([lo, inc_lo])


def _jumps(steps) -> tuple[np.ndarray, np.ndarray]:
    """For each k in `steps`, MULT**k (row 0) and 1 + MULT + ... +
    MULT**(k-1) (row 1) modulo 2**128, as (2, len(steps)) uint64 high and
    low halves: the state k LCG steps after s is MULT**k * s + (1 + MULT +
    ... + MULT**(k-1)) * inc."""
    powers, sums = [1], [0]
    for _ in range(max(steps, default=0)):
        sums.append((sums[-1] + powers[-1]) & _M128)
        powers.append(powers[-1] * _PCG_MULT & _M128)
    hi, lo = _halves([powers[k] for k in steps] + [sums[k] for k in steps])
    return hi.reshape(2, -1), lo.reshape(2, -1)


# Lanes x outputs that one `_draws` tile computes at once: its uint64
# temporaries stay near 0.3 MB however many lanes a batch has.
_DRAW_TILE = 2048


def _draws(hi: np.ndarray, lo: np.ndarray, count: int) -> np.ndarray:
    """The 32-bit draws of the first `count` 64-bit outputs of each lane of
    `_seeded`'s halves, low half first, then a row of zeros: a
    (2 * count + 1, lanes) uint32 array, one column per lane. Output k
    comes from the state k + 1 steps after row 0's."""
    j_hi, j_lo = _jumps(range(2, count + 2))
    j_hi, j_lo = j_hi[..., None], j_lo[..., None]  # [state or inc, output, lane]
    lanes = hi.shape[1]
    draws = np.zeros((2 * count + 1, lanes), dtype=np.uint32)
    tile = max(1, _DRAW_TILE // max(1, count))
    for start in range(0, lanes, tile):
        part = slice(start, start + tile)
        # one product per output and lane, of the state and of the increment
        p_hi, p_lo = _mul128(hi[:, None, part], lo[:, None, part], j_hi, j_lo)
        s_hi, s_lo = _add128(p_hi[0], p_lo[0], p_hi[1], p_lo[1])
        # XSL-RR: xor the halves, rotate right by the state's top 6 bits
        rot = s_hi >> 58
        x = s_hi ^ s_lo
        out = x >> rot | x << ((64 - rot) & 63)
        draws[0:-1:2, part] = out & _M32
        draws[1:-1:2, part] = out >> 32
    return draws


def _fisher_yates(draws: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`Generator.shuffle` of range(n) on each column of `_draws`, in
    lockstep over the columns: the (n, columns) uint32 permutations and the
    draws each column took, or -1 where its draws ran out.

    At each step every column takes its next draw, and only the columns
    whose masked draw exceeds the step's bound draw again. A column that
    runs out reads the zeros past its draws, which every step keeps, and
    is redone.
    """
    width, cols = draws.shape
    flat = draws.reshape(-1)
    perms = np.repeat(np.arange(n, dtype=np.uint32)[:, None], cols, axis=1)
    cells = perms.reshape(-1)
    lane = np.arange(cols)
    at = lane.copy()  # each column's next draw, as an index into `flat`
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = flat.take(at, mode="clip") & mask
        at += cols
        redraw = np.flatnonzero(j > i) if i < mask else []  # i == mask keeps all
        while len(redraw):
            again = at[redraw]
            j[redraw] = flat.take(again, mode="clip") & mask
            at[redraw] = again + cols
            redraw = redraw[j[redraw] > i]
        # swap rows i and j of every column; reading row i as a view is safe,
        # as the scatter writes to row i only where j == i, its own value
        other = j * cols + lane
        cells[other], perms[i] = perms[i], cells[other]
    used = at // cols
    used[used >= width] = -1
    return perms, used


def _draw_budget(n: int) -> int:
    """The 32-bit draws to generate up front for `permutation(n)`: the
    expected count plus four standard deviations, each step's redraws
    being geometric with acceptance (i + 1) / (mask + 1)."""
    mean = var = 0.0
    for i in range(1, n):
        accept = (i + 1) / (1 << i.bit_length())
        mean += 1 / accept
        var += (1 - accept) / accept**2
    return math.ceil(mean + 4 * math.sqrt(var))


def _first_pass(hi, lo, n: int, outputs: int) -> tuple[np.ndarray, ...]:
    """Each lane's first permutation(n) from `_seeded`'s halves, drawing
    `outputs` 64-bit outputs per lane, and twice as many again for a lane
    that uses them up: the (n, lanes) permutations, the draws each lane
    took, and the unused high half of its last output, or -1 where there is
    none."""
    draws = _draws(hi, lo, outputs)
    perms, used = _fisher_yates(draws, n)
    # a lane that took an odd number of draws keeps its last output's high
    # half, the draw after its last; a lane that ran short (-1) is redone
    odd = np.flatnonzero(used % 2 == 1)
    spare = np.full(len(used), -1, dtype=np.int64)
    spare[odd] = draws[used[odd], odd]
    short = np.flatnonzero(used < 0)
    if short.size:
        perms[:, short], used[short], spare[short] = _first_pass(
            hi[:, short], lo[:, short], n, 2 * max(outputs, 1)
        )
    return perms, used, spare


class FirstShuffles:
    """The first `permutation(n)` of each of a batch of PCG64 streams, one
    row per stream (lane), with what each lane's stream needs to continue:
    the state one step before its seeded state and its increment, as
    (lanes, 2) uint64 high and low halves, the 64-bit outputs its
    permutation took, and the unused high 32-bit half of its last output,
    or -1 where there is none. Slicing gives the lanes of a sub-batch;
    `stream(lane)` continues a lane's stream."""

    # a plain class: a dataclass would cost its import about 0.7 ms
    __slots__ = ("perms", "pre", "inc", "outputs", "spare")

    def __init__(self, perms, pre, inc, outputs, spare):
        self.perms, self.pre, self.inc, self.outputs, self.spare = perms, pre, inc, outputs, spare

    def __len__(self) -> int:
        return len(self.perms)

    def __getitem__(self, lanes: slice) -> "FirstShuffles":
        return FirstShuffles(*(getattr(self, name)[lanes] for name in self.__slots__))

    def stream(self, lane: int) -> "Pcg64Stream":
        """The lane's stream, where its first permutation left it."""
        s_hi, s_lo = self.pre[lane].tolist()
        i_hi, i_lo = self.inc[lane].tolist()
        state, inc = s_hi << 64 | s_lo, i_hi << 64 | i_lo
        # one step to the seeded state, then one per output
        for _ in range(int(self.outputs[lane]) + 1):
            state = (state * _PCG_MULT + inc) & _M128
        spare = int(self.spare[lane])
        return Pcg64Stream(state, inc, None if spare < 0 else spare)


def first_shuffles(entropies, n: int) -> FirstShuffles:
    """`default_rng(SeedSequence(e)).permutation(n)` for every entropy e in
    `entropies`, with each stream's state after it, for n < 2**32 (numpy
    draws 64-bit words from there on).

    One `seed_states` batch gives every lane's 8 state words. Each lane
    draws outputs for the permutation's expected need plus four standard
    deviations, from one jump-ahead product per output; a lane that uses
    them up is drawn again with twice as many. Fisher-Yates then runs in
    lockstep over the lanes.
    """
    hi, lo = _seeded(entropies)
    perms, used, spare = _first_pass(hi, lo, n, -(-_draw_budget(n) // 2))
    return FirstShuffles(
        perms=perms.T,
        pre=np.stack([hi[0], lo[0]], axis=1),
        inc=np.stack([hi[1], lo[1]], axis=1),
        outputs=(used + 1) // 2,
        spare=spare,
    )


class Pcg64Stream:
    """A PCG64 stream from its 128-bit LCG state and increment, and the high
    half of its last 64-bit output while that is unused, with the
    Generator's `permutation(n)` for an int n; each call continues the
    stream, as successive numpy calls do. `FirstShuffles.stream` builds one
    where a lane's first permutation left it."""

    __slots__ = ("_state", "_inc", "_spare")

    def __init__(self, state: int, inc: int, spare: int | None = None):
        self._state, self._inc, self._spare = state, inc, spare

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


def _chunk_bounds(n: int, g: int) -> list[tuple[int, int]]:
    """The (start, stop) of each chunk when n shuffled names are split into
    ceil(n/g) chunks of size at most g; the first n % ceil(n/g) chunks take
    one extra name, as np.array_split does."""
    if g < 2:
        raise ConfigError(f"chunk size g must be >= 2, got {g}")
    n_chunks = max(1, -(-n // g))
    size, extra = divmod(n, n_chunks)
    starts = [i * size + min(i, extra) for i in range(n_chunks + 1)]
    return [(a, b) for a, b in zip(starts, starts[1:]) if b > a]


def partition(kpi_names, g: int, rng: Pcg64Stream) -> list[list[str]]:
    """Shuffle the names uniformly and split them into ceil(V/g) chunks of
    size at most g, covering every name exactly once. `rng` is any object
    whose permutation(n) permutes range(n), such as a numpy Generator."""
    names = list(kpi_names)
    bounds = _chunk_bounds(len(names), g)
    shuffled = [names[i] for i in rng.permutation(len(names))]
    return [shuffled[a:b] for a, b in bounds]


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
    rng: Pcg64Stream | None,
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
    refinement passes go before its own, on a copy. `rng` may be None when
    the union has at most g members, since no pass then shuffles.
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


def _discovery_run(
    oracle: CiOracle, cfg: RcdConfig, chunks, shuffles: FirstShuffles, lane: int
) -> CandidateSet:
    """One discovery run whose first pass screens `chunks`, the lane's first
    shuffle of the names; a union of more than g survivors is refined with
    the lane's stream, continued. Its warnings are distinct, in the order
    first seen."""
    union: set[str] = set()
    warnings: list[str] = []
    for chunk in chunks:
        surv, warn = oracle.screen(chunk, cfg.alpha, cfg.max_cond)
        union.update(surv)
        warnings.extend(warn)
    rng = shuffles.stream(lane) if len(union) > cfg.g else None
    result = hierarchical_refine(union, oracle, cfg.g, cfg.alpha, cfg.max_cond, rng)
    warnings.extend(result.warnings)
    if warnings:
        # every chunk and refinement pass repeats the same level skips
        result = replace(result, warnings=tuple(dict.fromkeys(warnings)))
    return result


def _runs(oracle: CiOracle, cfg: RcdConfig, names, shuffles: FirstShuffles) -> list[CandidateSet]:
    """One discovery run per lane of `shuffles`, in lane order."""
    bounds = _chunk_bounds(len(names), cfg.g)
    runs = []
    for lane, shuffled in enumerate(np.array(names, dtype=object)[shuffles.perms].tolist()):
        chunks = [shuffled[a:b] for a, b in bounds]
        runs.append(_discovery_run(oracle, cfg, chunks, shuffles, lane))
    return runs


def rcd_single_run(
    oracle: CiOracle, cfg: RcdConfig, run_index: int, exclude=()
) -> CandidateSet:
    """Run `run_index` of `rcd_runs` alone, on the oracle's panel, with the
    stream of entropy [cfg.seed, run_index]."""
    names = discovery_kpis(oracle.labeled, exclude)
    [run] = _runs(oracle, cfg, names, first_shuffles([[cfg.seed, run_index]], len(names)))
    return run


def rcd_runs(
    labeled: LabeledPanel,
    cfg: RcdConfig,
    exclude=(),
    *,
    oracle: CiOracle | None = None,
    shuffles: FirstShuffles | None = None,
) -> list[CandidateSet]:
    """All n_runs candidate sets, in run order.

    Runs are pure functions of (data, cfg, run index): run i shuffles with
    the stream of entropy [cfg.seed, i], and the call draws every run's
    first shuffle as one `first_shuffles` batch. A caller that has drawn
    them already, such as a tuner sweep drawing every run of every cell as
    one batch, passes its slice as `shuffles`, one lane per run (ValueError
    on a count other than n_runs or a permutation of another width). Runs
    share one CI oracle, which must be built from `labeled` (ValueError
    otherwise); None builds a fresh one.
    """
    if oracle is None:
        oracle = CiOracle(labeled)
    elif oracle.labeled is not labeled:
        raise ValueError("oracle was built from a different labeled panel")
    names = discovery_kpis(labeled, exclude)
    if shuffles is None:
        shuffles = first_shuffles(([cfg.seed, i] for i in range(cfg.n_runs)), len(names))
    elif len(shuffles) != cfg.n_runs:
        raise ValueError(f"got {len(shuffles)} shuffles for {cfg.n_runs} runs")
    elif shuffles.perms.shape[1] != len(names):
        raise ValueError(
            f"got shuffles of {shuffles.perms.shape[1]} names for {len(names)} KPIs"
        )
    return _runs(oracle, cfg, names, shuffles)


def rcd_multi_run(
    labeled: LabeledPanel,
    cfg: RcdConfig,
    exclude=(),
    *,
    oracle: CiOracle | None = None,
    shuffles: FirstShuffles | None = None,
) -> FrequencyTable:
    """Aggregate n_runs independent runs into per-KPI source frequencies;
    `oracle` and `shuffles` are passed to `rcd_runs`."""
    runs = rcd_runs(labeled, cfg, exclude, oracle=oracle, shuffles=shuffles)
    return FrequencyTable.from_runs(discovery_kpis(labeled, exclude), runs)
