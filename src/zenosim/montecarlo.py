"""Ensemble simulation over realizations of the measurement sequence.

Two sampling modes: hold the number of measurements m fixed and let the
total time fluctuate, or hold a time budget fixed and draw intervals
until the next one would overrun it (the overrunning draw is discarded,
so every applied interval keeps the waiting-time law).

Realization i draws from its own counter-based stream keyed by
``(master_seed, i)``, which makes ensembles bitwise reproducible and
independent of how realizations are split into chunks. The streams
depend on neither the law, the system nor m, so the m = 50 row of a
stream is a prefix of its m = 6400 row, and ``run_ensembles`` runs all
fixed-m configs that share (master_seed, realizations), at any m, as
one group that reads each draw once.

Fixed m has one path, for rows of any length. A group runs in chunks of
about ``_CHUNK_TARGET`` draws of its longest rows, and a chunk's rows
are read in segments of ``_SEGMENT`` draws (the last one shorter), so
memory does not grow with m. A segment is a uint64 block of raw Philox
words, the words ``Generator.random`` would turn into uniforms, drawn
for every law: one ``philox_words`` call fills it for many short rows,
else each row's stream is selected at the segment's first draw and its
words read by ``random_raw``, into a new block, or as drawn where the
chunk is one row. The block is made read-only as soon as it is
drawn. Each reader of the group, the configs of one law and system,
reads it once, and reduces each row to its additive statistic at the
end of each of its configs' rows (``row_stats``): a discrete law's atom
counts, from the words against integer edges with no uniform made,
counted between one end and the next and added up, or a power law's
(sum mu, sum ln q) by ``np.sum`` of each prefix of the words' exact
uniforms, mapped once. So each config gets the sums over the pieces it
would get alone: whole segments, then its last piece. The segment
statistics are added left to right, and the law turns them into total
times and log survivals (``row_sums``), a discrete law from one ln q
table per config and chunk.

The segments of a chunk are cut into one contiguous run per usable core,
at most ``_MAX_PARTS``: the calling thread reads the first and a thread
pool the rest, which is made only where there is more than one run and
shut down before the group's run returns. No bit moves: Philox is
counter based, so each run opens its own stream family and reads what a
serial pass would, and the statistics are added in the calling thread.

Fixed T has one loop, over steps, for rows of any length. A chunk's
rows start together, with first blocks sized from the law's mean, and
at each step every row still running draws its next block from its
stream: block s is the first block's size times 2^s, at most
``_SEGMENT`` draws, whatever rows share the chunk. The stop rule runs
once over a step's stacked blocks, each row carrying its own state. It
is Neumaier-compensated, but plain sums decide nearly every row: sums
of groups of four draws, one ``np.cumsum`` over the groups, a quarter
as long as one over the draws, then the running sums inside the one
group where the row crosses the budget. Only a row whose sum comes
within a proven round-off margin of the budget, or which keeps its
whole block and so carries on, runs the compensated rule, on a
sequential sum of its own draws. One ln q call maps a step's whole
stack, overrun draws included, so no draw is mapped twice, and one
masked ``np.add.reduce`` per statistic sums each row's kept prefix
where it lies, with the bits of the prefix summed alone: NumPy's masked
reduction runs its pairwise loop on each run of unmasked entries, and a
prefix is one run. A row's block sums are added left to right, as a
fixed-m row's segment sums are, and a step stacks at most ``_SEGMENT``
draws, so memory does not grow with T.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import Hamiltonian, PureState, log_survival_factors, phase_weights
from .intervals import DiscreteIntervals, InfiniteMeanError, IntervalDistribution, _log_mean_q
from .rng import StreamFamily, philox_words

__all__ = [
    "InsufficientSamplesError",
    "NonFiniteRecordsError",
    "EnsembleConfig",
    "SurvivalEnsemble",
    "EmpiricalRate",
    "EnsembleSummary",
    "run_ensemble",
    "run_ensembles",
    "empirical_rate",
    "ensemble_summary",
]

#: draws per fixed-m chunk
_CHUNK_TARGET = 262_144
#: a fixed-m chunk draws its words with ``philox_words`` when its rows
#: are at most this long and at least ``_VECTOR_MIN_ROWS`` many; otherwise
#: each row selects its stream, whose C generator costs less per draw but a
#: few microseconds more per row, and the vector path's fixed cost per call
#: (about 340 numpy calls) is not repaid by few rows (measured in BENCH_6.json;
#: with words, per-row draws win from somewhere between 64 and 128 draws a
#: row, BENCH_25.json, but no workload runs a chunk there)
_VECTOR_MAX_M = 128
_VECTOR_MIN_ROWS = 128
#: a fixed-m row longer than this is drawn and reduced in segments of this
#: many draws (the last one shorter); a multiple of 4, as a part opens its
#: stream at a segment's first draw and a Philox counter gives four draws.
#: It also caps a fixed-T block and the draws a fixed-T step stacks (bar
#: one row), and with them the stop rule's temporaries
_SEGMENT = 65_536
#: a fixed-m chunk of many segments runs in one part per usable core, but in
#: at most this many: each part holds its own segment block and one
#: segment's working set (a comparison mask for a discrete law, the kernel's
#: output and temporaries for a power law), so peak memory grows with the
#: part count, and only two cores have been measured (BENCH_14.json)
_MAX_PARTS = 2
#: relative slack on the fixed-time budget comparison, so exact ties
#: (degenerate laws) are not lost to accumulated round-off
_BUDGET_SLACK = 1e-12
#: records per block that ``ensemble_summary`` turns into a list for ``math.fsum``
_SUM_BLOCK = 4096


class InsufficientSamplesError(ValueError):
    """Too few realizations for the requested statistic."""


class NonFiniteRecordsError(ValueError):
    """The requested statistic is undefined over non-finite log survivals
    (L = -inf where a factor q(mu) is exactly zero)."""


def _require_finite(values: np.ndarray, what: str) -> None:
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise NonFiniteRecordsError(
            f"{what} needs finite records, but {bad} of {values.size} are not")


@dataclass(frozen=True)
class EnsembleConfig:
    """Complete description of an ensemble run.

    ``mode`` is "fixed_m", which takes ``m`` and no ``t_total``, or
    "fixed_T", which takes a finite ``t_total`` in seconds and no ``m``.
    ``m``, ``realizations`` and ``master_seed`` are ints or numpy
    integers, not bools; only ``m`` may be None. ``t_total`` is None or a
    real number (int, float or numpy number), not a bool.
    """

    dist: IntervalDistribution
    hamiltonian: Hamiltonian
    state: PureState
    mode: str
    realizations: int
    master_seed: int
    m: int | None = None
    t_total: float | None = None

    def __post_init__(self):
        if self.mode not in ("fixed_m", "fixed_T"):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name, value in (("realizations", self.realizations), ("m", self.m),
                            ("master_seed", self.master_seed)):
            if value is None and name == "m":
                continue  # checked against the mode below
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.t_total is not None and (isinstance(self.t_total, bool) or not isinstance(
                self.t_total, (int, float, np.integer, np.floating))):
            raise ValueError(f"t_total must be a real number, not {self.t_total!r}")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.mode == "fixed_m" and (self.m is None or self.m < 1):
            raise ValueError("fixed_m mode needs a positive m")
        if self.mode == "fixed_T" and (self.t_total is None or not 0 < self.t_total < math.inf):
            raise ValueError("fixed_T mode needs a positive, finite t_total")
        stray = "t_total" if self.mode == "fixed_m" else "m"
        if getattr(self, stray) is not None:
            raise ValueError(f"{self.mode} mode takes no {stray}")


@dataclass(frozen=True)
class SurvivalEnsemble:
    """Per-realization records (m, total time, log survival)."""

    config: EnsembleConfig
    ms: np.ndarray
    total_times: np.ndarray
    log_survivals: np.ndarray

    @property
    def n(self) -> int:
        return int(self.log_survivals.shape[0])

    def typical_index(self) -> int:
        """Realization whose log survival is the ensemble median.

        Deterministic convention: stable-sort the log survivals and take
        position (n-1)//2.
        """
        order = np.argsort(self.log_survivals, kind="stable")
        return int(order[(self.n - 1) // 2])

    def typical_log_survival(self) -> float:
        return float(self.log_survivals[self.typical_index()])


@dataclass(frozen=True)
class EmpiricalRate:
    """Histogram estimate of the rate function from a fixed-m ensemble.

    ``rates`` are -(1/m) ln(density), shifted so the smallest value is
    zero (the absolute normalization is subdominant and not estimable).
    Only occupied bins appear; empty ones are absent rather than
    infinite.
    """

    centers: np.ndarray
    rates: np.ndarray
    counts: np.ndarray
    bin_edges: np.ndarray
    m: int


@dataclass(frozen=True)
class EnsembleSummary:
    """Aggregate statistics of an ensemble, log-domain where it matters."""

    log_mean_survival: float
    log_geometric_mean: float
    log_median: float
    mean_total_time: float
    n: int
    #: Kish's effective sample size (sum P)^2 / sum P^2 of the survivals
    #: P = e^L: about n where they are alike, near 1 where one realization
    #: carries ``log_mean_survival``; 0 where every P is 0 (L = -inf)
    effective_sample_size: float
    #: L/m of each realization with at least one measurement
    intensive_logs: np.ndarray = field(repr=False, compare=False)

    @property
    def mean_survival(self) -> float:
        return math.exp(self.log_mean_survival)

    @property
    def variance_intensive_log(self) -> float:
        """Sample variance of L/m over the realizations with m >= 1 (a
        fixed-T budget below the smallest interval leaves m = 0, where L/m
        is undefined); ``InsufficientSamplesError`` below two of them and
        ``NonFiniteRecordsError`` if any of them is not finite."""
        if self.intensive_logs.size < 2:
            raise InsufficientSamplesError(
                f"the variance needs at least two realizations with m >= 1, "
                f"got {self.intensive_logs.size} of {self.n}"
            )
        _require_finite(self.intensive_logs, "the variance of L/m")
        return float(np.var(self.intensive_logs, ddof=1))


def _kept_in_block(mus: np.ndarray, total: np.ndarray, comp: np.ndarray, limit: float):
    """(kept, total, comp) per row of the (rows, k) block ``mus``, k >= 1:
    how many leading draws of the row the fixed-T stop rule keeps, carried
    on from the row's state (total, comp), and the state after them.

    The rule, one draw at a time: stop at the first mu with total + comp
    + mu > limit, else add mu to total, Neumaier-compensated in comp
    (``_kept_compensated``). Most rows are decided from plain sums, with
    margin = |comp| + (k + 8) 2^-52 limit. Each group of four draws is
    summed as (x0 + x1) + (x2 + x3), and one ``np.cumsum`` of (total,
    group sums, +inf) along the row gives the group prefixes; the +inf
    group stands for a last group short of four, or for none. In the
    first group whose prefix is above limit - margin, the running sums
    from the prefix P before it are P + x0, P + (x0 + x1), P + ((x0 + x1)
    + x2) and P + ((x0 + x1) + (x2 + x3)), which is that group's prefix,
    bit for bit: so they are non-decreasing, as no draw is negative and
    rounding is monotone, and the last of them is above limit - margin.
    The draws before the first of them above limit - margin are kept,
    and that draw is over the budget if its sum is above limit + margin.
    A short or +inf group reads the row's last draw in place of the
    missing ones, and a count that reaches the row's end keeps the whole
    block. One margin serves the block, from its largest |comp|: a
    chunk's first blocks carry comp = 0, and where carried-on rows step
    on stacked, each with its own comp, the largest |comp| bounds every
    row's, so the margin is conservative for each of them and the proof
    below holds row by row unchanged.

    The bound, with u = 2^-53 (Neumaier 1974; Higham, Accuracy and
    Stability of Numerical Algorithms, section 4): any summation order of
    the carried total and at most k non-negative draws errs by at most
    about k u of their sum, and the exact running sums are
    non-decreasing, so a group prefix at most limit - margin bounds each
    of its draws' exact sums too. The compensated rule tests the exact
    sum plus comp, up to its test's two roundings and second-order
    terms. So the tested sum is at most limit where a plain sum is at
    most limit - margin, and above it where a plain sum is above limit +
    margin, with about (k + 13) u limit to spare. A row whose crossing
    sum is at most limit + margin, or which keeps the whole block, runs
    the compensated rule on its own draws, with their sequential
    ``np.cumsum`` built for those rows alone; where they are the whole
    block, the block itself is passed.

    The returned state is exact, with the bits the rule gives one draw at
    a time, only for rows that keep the whole block, which are the only
    ones carried on; for other rows it is the plain sum of the kept draws
    in the grouped order and the carried comp.
    """
    rows, k = mus.shape
    full = k // 4
    sums = np.empty((rows, full + 2))
    sums[:, 0], sums[:, -1] = total, np.inf
    np.add(mus[:, 0:4 * full:4], mus[:, 1:4 * full:4], out=sums[:, 1:full + 1])
    sums[:, 1:full + 1] += mus[:, 2:4 * full:4] + mus[:, 3:4 * full:4]
    np.cumsum(sums, axis=1, out=sums)
    margin = float(np.abs(comp).max(initial=0.0)) + (k + 8) * 2.0**-52 * limit
    groups = np.argmax(sums[:, 1:] > limit - margin, axis=1)
    at = np.arange(rows)
    x = mus[at[:, None], np.minimum(4 * groups[:, None] + np.arange(4), k - 1)]
    x[:, 1] += x[:, 0]
    x[:, 3] += x[:, 2]
    x[:, 2:] += x[:, 1:2]
    run = np.empty((rows, 6))  # the prefix, its four running sums, and +inf
    run[:, 0], run[:, 5] = sums[at, groups], np.inf
    np.add(run[:, :1], x, out=run[:, 1:5])
    inner = np.argmax(run[:, 1:] > limit - margin, axis=1)
    kept = np.minimum(4 * groups + inner, k)
    near = np.flatnonzero((run[at, inner + 1] <= limit + margin) | (kept == k))
    total, comp = run[at, inner], comp.copy()
    if near.size:
        some = mus if near.size == rows else mus[near]
        totals = np.empty((near.size, k + 1))
        totals[:, 0], totals[:, 1:] = sums[near, 0], some
        np.cumsum(totals, axis=1, out=totals)
        kept[near], total[near], comp[near] = _kept_compensated(some, totals, comp[near], limit)
    return kept, total, comp


def _kept_compensated(mus: np.ndarray, totals: np.ndarray, comp: np.ndarray, limit: float):
    """(kept, total, comp) of ``_kept_in_block`` by the compensated rule
    on every draw of the rows ``mus``, given their plain running sums
    ``totals`` (the carried total in front) and carried ``comp``.

    t = total + mu adds (big - t) + small to comp, big the larger of
    |total| and mu, which is max(total, mu) as no total is negative. Two
    ``np.cumsum`` along the rows add left to right like the loop, with
    the carried state in front, so they carry its bits across blocks.
    The terms are built in one array and one scratch block, in place.
    """
    before, after = totals[:, :-1], totals[:, 1:]
    comps, spare = np.empty(totals.shape), np.empty(mus.shape)
    comps[:, 0] = comp
    np.maximum(before, mus, out=comps[:, 1:])
    comps[:, 1:] -= after
    comps[:, 1:] += np.minimum(before, mus, out=spare)
    np.cumsum(comps, axis=1, out=comps)
    np.add(before, comps[:, :-1], out=spare)
    spare += mus
    over = spare > limit
    kept = np.where(over.any(axis=1), over.argmax(axis=1), mus.shape[1])
    at = np.arange(len(mus))
    return kept, totals[at, kept], comps[at, kept]


def _usable_cores() -> int:
    """The cores this process may run on (all of them where the OS cannot
    say). A cgroup CPU quota is not counted; ``_MAX_PARTS`` bounds the
    threads a quota-limited process starts."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux and a few Unixes
        return os.cpu_count() or 1


class _Reader(NamedTuple):
    """The fixed-m configs of a group that share one law, Hamiltonian and
    state, which map each segment of words once for all their m."""

    dist: IntervalDistribution
    lam: np.ndarray
    w: np.ndarray
    #: the configs' places in the group, in increasing m
    cfgs: list[int]
    #: their m, in the same order
    ms: list[int]
    #: how many statistics ``row_stats`` gives a row: a count per atom of a
    #: discrete law, (sum mu, sum ln q) of a power law
    width: int


def _segment_stats(readers: list[_Reader], seed: int, start: int, stop: int, draw: int,
                   n: int, out: list[np.ndarray]) -> None:
    """Write the row statistic (``row_stats``) of each config of
    ``readers`` in every segment of draws draw to draw + n - 1 of
    realizations start to stop - 1 that its rows reach, one segment of
    ``_SEGMENT`` draws (the last one shorter) after another, into
    ``out[c][g]``: c is the config's place in the group and g the
    segment's in the row, so parts write disjoint ranges of g.

    A segment is drawn once, for every law, as a (rows, k) uint64 block
    of raw Philox words: a new array filled by ``philox_words`` for many
    short rows at their first draw, else by ``random_raw`` from one
    stream selected per row at the segment's first draw; a one-row chunk
    reads that row's words as drawn, with no copy. The block is
    read-only from its draw on, and each reader whose rows reach the
    segment reads it in turn, once, and writes its statistic at the end
    of each of its configs' rows in the segment. The part opens its own
    stream family, so runs of segments can be read on any threads.
    """
    rows = stop - start
    family = StreamFamily(seed)
    for a in range(draw, draw + n, _SEGMENT):
        k = min(_SEGMENT, draw + n - a)
        if rows == 1:
            x = family.select(start, a).bit_generator.random_raw(k)[None]
        else:
            x = np.empty((rows, k), dtype=np.uint64)
            if a == 0 and k <= _VECTOR_MAX_M and rows >= _VECTOR_MIN_ROWS:
                philox_words(seed, start, x)
            else:
                for j in range(rows):
                    x[j] = family.select(start + j, a).bit_generator.random_raw(k)
        x.flags.writeable = False
        for dist, lam, w, cfgs, ms, _ in readers:
            if ms[-1] <= a:
                continue
            ends = sorted({min(m - a, k) for m in ms if m > a})
            at = dist.row_stats(x, lam, w, ends)
            for c, m in zip(cfgs, ms):
                if m > a:
                    out[c][a // _SEGMENT] = at[ends.index(min(m - a, k))]
        del x  # a segment's words go before the next segment's are drawn


def _run_fixed_m(group: list[SurvivalEnsemble]) -> None:
    """Fill the records of fixed-m ensembles that share (master_seed,
    realizations), at any m, chunk by chunk, a chunk's rows as long as
    the group's largest m: the segments of a chunk's rows are cut into
    one contiguous run per part, the calling thread reads the first and a
    pool the rest (``_segment_stats``), into one (segments, rows,
    statistics) array per config and chunk, and each config's segment
    statistics, up to its own m, are added left to right. Configs with
    the same law, Hamiltonian and state objects are one ``_Reader``."""
    cfg = group[0].config
    shared = {}
    for c, ens in enumerate(group):
        key = (id(ens.config.dist), id(ens.config.hamiltonian), id(ens.config.state))
        shared.setdefault(key, []).append(c)
    readers = []
    for cfgs in shared.values():
        cfgs.sort(key=lambda c: group[c].config.m)
        first = group[cfgs[0]].config
        readers.append(_Reader(first.dist, *phase_weights(first.hamiltonian, first.state), cfgs,
                               [int(group[c].config.m) for c in cfgs],
                               first.dist.d if isinstance(first.dist, DiscreteIntervals) else 2))
    m = max(reader.ms[-1] for reader in readers)
    segments = -(-m // _SEGMENT)
    count = min(_MAX_PARTS, _usable_cores(), segments)
    cuts = [min(m, segments * k // count * _SEGMENT) for k in range(count + 1)]
    pool, rows = None, max(1, _CHUNK_TARGET // m)
    if count > 1:
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(count - 1)
    try:
        for start in range(0, cfg.realizations, rows):
            stop = min(start + rows, cfg.realizations)
            out = [None] * len(group)
            for reader in readers:
                for c, m_c in zip(reader.cfgs, reader.ms):
                    out[c] = np.empty((-(-m_c // _SEGMENT), stop - start, reader.width))
            runs = [(readers, cfg.master_seed, start, stop, a, b - a, out)
                    for a, b in zip(cuts, cuts[1:])]
            helped = [pool.submit(_segment_stats, *run) for run in runs[1:]]
            _segment_stats(*runs[0])
            for future in helped:
                future.result()
            for dist, lam, w, cfgs, *_ in readers:
                for c in cfgs:
                    stats = np.cumsum(out[c], axis=0)[-1]
                    group[c].total_times[start:stop], group[c].log_survivals[start:stop] = (
                        dist.row_sums(stats, lam, w))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    for ens in group:
        ens.ms[:] = ens.config.m


def _block_size(remaining: float) -> int:
    """Draws in a fixed-T first block expected to hold ``remaining`` kept
    draws: the whole part of that count and an eighth more, at least 64
    and at most ``_SEGMENT``, rounded up to a multiple of 4, so that a
    stream can be selected at the block's end."""
    return -(-int(min(_SEGMENT, max(64.0, 1.125 * remaining))) // 4) * 4


def _run_fixed_t(ens: SurvivalEnsemble) -> None:
    """Fill the records of a fixed-T ensemble in chunks of about
    ``_SEGMENT`` first-block draws, step by step until every row of the
    chunk stops. At each step, each row still running draws its next
    block from its stream, at its own offset; the stop rule runs once
    over the stacked blocks, each row carrying its own (total, comp);
    and each row adds to its records the masked ``np.add.reduce`` of its
    block's kept prefix and of the prefix's ln q, from one kernel call
    over the stack. Block s of every row is the first block's size times
    2^s, at most ``_SEGMENT`` draws, and a step stacks its rows in slices
    of at most ``_SEGMENT`` draws (or one row), so a row's bits depend on
    the config alone and memory does not grow with T."""
    cfg = ens.config
    lam, w = phase_weights(cfg.hamiltonian, cfg.state)
    family = StreamFamily(cfg.master_seed)
    limit = cfg.t_total * (1.0 + _BUDGET_SLACK)
    try:
        first = _block_size(limit / cfg.dist.mean())
    except InfiniteMeanError:
        first = 64
    chunk = max(1, _SEGMENT // first)
    for start in range(0, cfg.realizations, chunk):
        rows = slice(start, min(start + chunk, cfg.realizations))
        ms, times, logs = ens.ms[rows], ens.total_times[rows], ens.log_survivals[rows]
        total, comp = np.zeros((2, ms.size))
        running, drawn, k = np.arange(ms.size), 0, first
        while running.size:
            per = max(1, _SEGMENT // k)
            for at in (running[a:a + per] for a in range(0, running.size, per)):
                block = np.empty((at.size, k))
                for j, i in enumerate(at.tolist()):
                    block[j] = cfg.dist.sample(family.select(start + i, drawn), k)
                kept, total[at], comp[at] = _kept_in_block(block, total[at], comp[at], limit)
                prefix = np.arange(k) < kept[:, None]
                ms[at] += kept
                times[at] += np.add.reduce(block, axis=1, where=prefix)
                logs[at] += np.add.reduce(log_survival_factors(lam, w, block), axis=1,
                                          where=prefix)
            drawn += k
            running, k = running[ms[running] == drawn], min(2 * k, _SEGMENT)


def run_ensembles(cfgs: list[EnsembleConfig]) -> list[SurvivalEnsemble]:
    """Simulate every realization of each config in ``cfgs``, and return
    the ensembles in input order.

    Fixed-m configs that share (master_seed, realizations) read the same
    words, at any m, since a realization's stream depends on neither the
    law, the system nor m: each segment of a chunk is drawn once, up to
    the group's largest m, and every law maps it once for all its m,
    with the bits each config would get alone (``_run_fixed_m``).
    Fixed-T configs run one at a time (``_run_fixed_t``).

    The result is bitwise identical for any chunk size: every
    realization's substream is keyed by its index, each draw is mapped
    on its own, and each realization's sums run over its own draws. A
    fixed-m row is reduced in segments of ``_SEGMENT`` draws, added in
    order. A fixed-T row's blocks are sized by the config alone, its stop
    rule carries its state across them, and each block's kept prefix is
    summed by a masked reduction with the prefix's own bits, the block
    sums added in order; a row that stops in its first block is summed
    as that prefix alone.

    A fixed-m chunk of more than one segment runs in one part per usable
    core (at most ``_MAX_PARTS``), with the same bits for any core
    count: each run of its segments opens the stream at its first draw.
    The helper threads are a ``ThreadPoolExecutor`` made only where the
    segments split, so other runs neither import
    ``concurrent.futures`` nor start a thread; they are joined before the
    group's run returns or raises, and an error in a part is raised here
    with its own type.
    """
    ensembles, fixed_m = [], {}
    for cfg in cfgs:
        n = cfg.realizations
        ens = SurvivalEnsemble(config=cfg, ms=np.zeros(n, dtype=np.int64),
                               total_times=np.zeros(n), log_survivals=np.zeros(n))
        ensembles.append(ens)
        if cfg.mode == "fixed_m":
            fixed_m.setdefault((cfg.master_seed, n), []).append(ens)
        else:
            _run_fixed_t(ens)
    for group in fixed_m.values():
        _run_fixed_m(group)
    return ensembles


def run_ensemble(cfg: EnsembleConfig) -> SurvivalEnsemble:
    """Simulate every realization of ``cfg``: ``run_ensembles([cfg])[0]``."""
    return run_ensembles([cfg])[0]


def empirical_rate(ens: SurvivalEnsemble, bins: int) -> EmpiricalRate:
    """Estimate the rate function from a fixed-m ensemble histogram;
    ``NonFiniteRecordsError`` if any log survival is not finite."""
    if ens.config.mode != "fixed_m":
        raise ValueError("rate estimation needs a fixed-m ensemble")
    if bins < 1:
        raise ValueError("need at least one bin")
    if ens.n < 10 * bins:
        raise InsufficientSamplesError(
            f"{ens.n} realizations cannot populate {bins} bins (need >= {10 * bins})"
        )
    m = int(ens.config.m)
    _require_finite(ens.log_survivals, "the empirical rate")
    xs = ens.log_survivals / m
    lo, hi = float(xs.min()), float(xs.max())
    if hi <= lo:
        return EmpiricalRate(
            centers=np.array([lo]),
            rates=np.array([0.0]),
            counts=np.array([ens.n]),
            bin_edges=np.array([lo, hi]),
            m=m,
        )
    counts, edges = np.histogram(xs, bins=bins, range=(lo, hi))
    width = edges[1] - edges[0]
    occupied = counts > 0
    density = counts[occupied] / (ens.n * width)
    rates = -np.log(density) / m
    rates -= rates.min()
    centers = 0.5 * (edges[:-1] + edges[1:])
    return EmpiricalRate(
        centers=centers[occupied],
        rates=rates,
        counts=counts[occupied],
        bin_edges=edges,
        m=m,
    )


def _blocks(values: np.ndarray):
    """The slices of ``values`` of ``_SUM_BLOCK`` entries (the last one shorter)."""
    return (values[a:a + _SUM_BLOCK] for a in range(0, values.size, _SUM_BLOCK))


def _fsum(blocks) -> float:
    """``math.fsum`` over the ``tolist()`` of each block in turn."""
    return math.fsum(itertools.chain.from_iterable(block.tolist() for block in blocks))


def ensemble_summary(ens: SurvivalEnsemble) -> EnsembleSummary:
    """Aggregate the ensemble into the standard comparison quantities.

    The linear-domain mean is formed from the log records by shifting by
    the largest, compensated summation, and shifting back, so it stays
    meaningful even when every survival underflows a double. The shifted
    mean m is taken as log1p(-(1 - m)) while 1 - m <= 1/2, as
    ``intervals._log_mean_q`` does, so close records keep their digits.
    The effective sample size comes from the same shifted survivals, as
    (sum P)^2 / sum P^2 is the same for P scaled by any one factor.
    Every field is defined for any ensemble; only the variance of L/m
    (``EnsembleSummary.variance_intensive_log``) needs two realizations
    with m >= 1, all of them finite. Each ``math.fsum`` reads the
    ``tolist()`` of one block of ``_SUM_BLOCK`` records after another,
    which it iterates faster than an array, with no list of all n held;
    its sum is correctly rounded, so it has the bits of one whole list.
    """
    logs = ens.log_survivals
    smax = float(logs.max())
    if math.isinf(smax):
        log_mean, ess = -math.inf, 0.0
    else:
        shifted = logs - smax
        weights = np.exp(shifted)
        total = _fsum(_blocks(weights))
        log_mean = smax + _log_mean_q(_fsum(-np.expm1(block) for block in _blocks(shifted))
                                      / ens.n, math.log(total / ens.n))
        ess = total * total / float(weights @ weights)
    measured = ens.ms >= 1
    return EnsembleSummary(
        log_mean_survival=log_mean,
        log_geometric_mean=_fsum(_blocks(logs)) / ens.n,
        log_median=float(np.median(logs)),
        mean_total_time=_fsum(_blocks(ens.total_times)) / ens.n,
        n=ens.n,
        effective_sample_size=ess,
        intensive_logs=logs[measured] / ens.ms[measured],
    )
