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

Fixed T runs the stop rule once over a chunk's stacked first blocks,
sized from the law's mean. The rule is Neumaier-compensated, but the
plain running sums decide nearly every row: only a row whose sum comes
within a proven round-off margin of the budget, or which keeps its whole
block, runs the compensated rule. One ln q call maps the chunk's whole
block, overrun draws included, and one masked ``np.add.reduce`` per
statistic sums each row's kept prefix where it lies, with the bits of
the prefix summed alone: NumPy's masked reduction runs its pairwise
loop on each run of unmasked entries, and a prefix is one run. A row
that keeps its whole block selects its stream at the block's end and
carries on alone; the draws such rows keep past it are mapped by one
ln q call per about ``_CHUNK_TARGET`` of their kept draws, so memory
does not grow with T and no draw is mapped twice, and each row is
summed on its own by ``np.add.reduce``.
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

#: draws per fixed-m chunk, and kept draws (bar one row) per ln q call over
#: the fixed-T rows that carry on past their first block
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
#: It also caps a fixed-T block and a fixed-T chunk's stacked first blocks,
#: and with them the stop rule's temporaries
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
    """(kept, total, comp) per row of the (rows, k) block ``mus``: how
    many leading draws of the row the fixed-T stop rule keeps, carried on
    from the row's state (total, comp), and the state after them.

    The rule, one draw at a time: stop at the first mu with total + comp
    + mu > limit, else add mu to total, Neumaier-compensated in comp
    (``_kept_compensated``). Most rows are decided from the plain running
    sums A = ``np.cumsum`` of (total, mus) along the row, non-decreasing
    as no draw is negative, with margin = |comp| + (k + 8) 2^-52 limit:
    draw i is kept if A[i + 1] <= limit - margin and over the budget if
    A[i + 1] > limit + margin. One margin serves the block, from its
    largest |comp|, which is each row's own where the runs call it: a
    chunk's first blocks carry comp = 0 and a carried-on row runs alone.

    The bound, with u = 2^-53 (Neumaier 1974; Higham, Accuracy and
    Stability of Numerical Algorithms, section 4): while A[1..i] are at
    most limit, the compensation tested at draw i is comp plus at most k
    exact rounding errors of those additions, each at most u limit, and
    its own sum's rounding is of second order. The test's two roundings
    and that of A[i + 1] move it at most 3u max(A[i + 1], limit) further.
    So the tested sum is at most limit where A[i + 1] <= limit - margin,
    and above it where A[i + 1] > limit + margin, with (k + 13) u limit
    to spare. A row whose first A[i + 1] above limit - margin is at most
    limit + margin, or which keeps the whole block, runs the compensated
    rule on its own draws.

    The returned state is exact, with the bits the rule gives one draw at
    a time, only for rows that keep the whole block, which are the only
    ones carried on; for other rows it is the plain sum at the stop and
    the carried comp.
    """
    k = mus.shape[1]
    totals = np.empty((len(mus), k + 1))
    totals[:, 0], totals[:, 1:] = total, mus
    np.cumsum(totals, axis=1, out=totals)
    margin = float(np.abs(comp).max(initial=0.0)) + (k + 8) * 2.0**-52 * limit
    kept = np.count_nonzero(totals[:, 1:] <= limit - margin, axis=1)
    at = np.arange(len(mus))
    near = np.flatnonzero(totals[at, np.minimum(kept + 1, k)] <= limit + margin)
    total, comp = totals[at, kept], comp.copy()
    if near.size:
        kept[near], total[near], comp[near] = _kept_compensated(
            mus[near], totals[near], comp[near], limit)
    return kept, total, comp


def _kept_compensated(mus: np.ndarray, totals: np.ndarray, comp: np.ndarray, limit: float):
    """(kept, total, comp) of ``_kept_in_block`` by the compensated rule
    on every draw of the rows ``mus``, given their plain running sums
    ``totals`` (the carried total in front) and carried ``comp``.

    t = total + mu adds (big - t) + small to comp, big the larger of
    |total| and mu, which is max(total, mu) as no total is negative. Two
    ``np.cumsum`` along the rows add left to right like the loop, with
    the carried state in front, so they carry its bits across blocks.
    """
    before, after = totals[:, :-1], totals[:, 1:]
    comps = np.concatenate((comp[:, None], np.maximum(before, mus) - after), axis=1)
    comps[:, 1:] += np.minimum(before, mus)
    np.cumsum(comps, axis=1, out=comps)
    over = before + comps[:, :-1] + mus > limit
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
    """Draws in a fixed-T block expected to hold ``remaining`` more kept
    draws: the whole part of that count and an eighth more, at least 64
    and at most ``_SEGMENT``, rounded up to a multiple of 4, so that a
    stream can be selected at the block's end."""
    return -(-int(min(_SEGMENT, max(64.0, 1.125 * remaining))) // 4) * 4


def _fixed_t_draws(dist, rng, limit: float, first: np.ndarray, total: np.ndarray,
                   comp: np.ndarray) -> np.ndarray:
    """The waiting times a fixed-T realization keeps whose stop rule kept
    all of its first block ``first``, with state (total, comp), each of
    shape (1,): ``rng`` reads its stream on from the block's end, in
    blocks sized from its own mean so far, which moves no bit."""
    blocks, drawn = [first], first.size
    while True:
        mus = dist.sample(rng, _block_size(drawn * (limit - total[0]) / total[0]))
        kept, total, comp = _kept_in_block(mus[None], total, comp, limit)
        blocks.append(mus[:kept[0]])
        if kept[0] < mus.size:
            return np.concatenate(blocks)
        drawn += mus.size


def _carried_sums(ens: SurvivalEnsemble, lam, w, at: list[int], rows: list[np.ndarray],
                  firsts: list[np.ndarray]) -> None:
    """Write the records of the fixed-T realizations ``at`` from their
    kept draws ``rows``, rows that kept their whole first block, whose
    ln q ``firsts`` the chunk has mapped: ln q runs once over all their
    draws past that block, and each row is summed on its own by
    ``np.add.reduce``, its log survival over its first block's ln q
    joined to its tail's."""
    size = firsts[0].size
    tails = [row.size - size for row in rows]
    logq = log_survival_factors(lam, w, np.concatenate([row[size:] for row in rows]))
    ens.ms[at] = [row.size for row in rows]
    ens.total_times[at] = [np.add.reduce(row) for row in rows]
    ens.log_survivals[at] = [np.add.reduce(np.concatenate((first, logq[end - t:end])))
                             for first, t, end in zip(firsts, tails, itertools.accumulate(tails))]


def _run_fixed_t(ens: SurvivalEnsemble) -> None:
    """Fill the records of a fixed-T ensemble in chunks of about
    ``_SEGMENT`` first-block draws, one block per realization's stream:
    one stop rule over a chunk's stacked blocks, one ln q call over the
    whole of them, and one masked ``np.add.reduce`` per statistic, which
    sums each row's kept prefix where it lies, with the bits of the
    prefix summed alone (NumPy runs its pairwise loop on each run of
    unmasked entries, and a prefix is one run). A row that keeps its
    whole block carries on through ``_fixed_t_draws``, and such rows are
    summed by ``_carried_sums`` once they hold ``_CHUNK_TARGET`` kept
    draws, and at the chunk's end."""
    cfg = ens.config
    lam, w = phase_weights(cfg.hamiltonian, cfg.state)
    family = StreamFamily(cfg.master_seed)
    limit = cfg.t_total * (1.0 + _BUDGET_SLACK)
    try:
        size = _block_size(limit / cfg.dist.mean())
    except InfiniteMeanError:
        size = 64
    step = max(1, _SEGMENT // size)
    for start in range(0, cfg.realizations, step):
        stop = min(start + step, cfg.realizations)
        block = np.empty((stop - start, size))
        for j in range(stop - start):
            block[j] = cfg.dist.sample(family.select(start + j), size)
        kept, totals, comps = _kept_in_block(block, *np.zeros((2, stop - start)), limit)
        prefix = np.arange(size) < kept[:, None]
        ens.ms[start:stop] = kept
        np.add.reduce(block, axis=1, where=prefix, out=ens.total_times[start:stop])
        logq = log_survival_factors(lam, w, block)
        np.add.reduce(logq, axis=1, where=prefix, out=ens.log_survivals[start:stop])
        carried = np.flatnonzero(kept == size).tolist()
        at, rows, held = [], [], 0
        for j in carried:
            at.append(start + j)
            rows.append(_fixed_t_draws(cfg.dist, family.select(start + j, size), limit,
                                       block[j], totals[j:j + 1], comps[j:j + 1]))
            held += rows[-1].size
            if held >= _CHUNK_TARGET or j == carried[-1]:
                _carried_sums(ens, lam, w, at, rows, [logq[i - start] for i in at])
                at, rows, held = [], [], 0
        del logq  # a chunk's ln q goes before the next chunk's is mapped


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
    order; a fixed-T row's stop rule carries its state across blocks, and
    a row that stops in its first block is summed there, as its kept
    prefix, by a masked reduction with the prefix's own bits.

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
        ens = SurvivalEnsemble(config=cfg, ms=np.empty(n, dtype=np.int64),
                               total_times=np.empty(n), log_survivals=np.empty(n))
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
