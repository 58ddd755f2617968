"""Ensemble simulation over realizations of the measurement sequence.

Two sampling modes: hold the number of measurements m fixed and let the
total time fluctuate, or hold a time budget fixed and draw intervals
until the next one would overrun it (the overrunning draw is discarded,
so every applied interval keeps the waiting-time law).

Realization i draws from its own counter-based stream keyed by
``(master_seed, i)``, which makes ensembles bitwise reproducible and
independent of how realizations are split into chunks. The streams
depend on neither the law nor the system, so ``run_ensembles`` runs all
fixed-m configs that share (master_seed, realizations, m) as one group
that reads each draw once.

Fixed m has one path, for rows of any length. A group runs in chunks of
about ``_CHUNK_TARGET`` draws, and a chunk's rows are read in segments
of ``_SEGMENT`` draws (the last one shorter), so memory does not grow
with m. Each segment is drawn into one reused buffer, by one
``philox_uniforms`` call for many short rows, else by selecting each
row's stream at the segment's first draw; where every law has one atom,
whose ``row_stats`` reads only the block's shape, nothing is drawn.
Every law of the group reads the block in turn, read-only until its
last reader, and reduces each row to its additive statistic
(``row_stats``): a discrete law's atom counts, or a power law's (sum mu,
sum ln q) by ``np.sum``. The segment statistics are added left to right,
and the law turns them into total times and log survivals
(``row_sums``), a discrete law from one ln q table per chunk.

The segments of a chunk are cut into one contiguous run per usable core,
at most ``_MAX_PARTS``: the calling thread reads the first and a thread
pool the rest, which is made only where there is more than one run and
shut down before the group's run returns. No bit moves: Philox is
counter based, so each run opens its own stream family and reads what a
serial pass would, and the statistics are added in the calling thread.

A fixed-T realization runs the compensated one-draw-at-a-time stop rule
over blocks of draws, its state carried from block to block; it sizes
its first block from the law's mean and each next one from its own mean
waiting time so far; the kept draws of a chunk of realizations are then
mapped by one ln q call and summed row by row. Records fill
preallocated arrays.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Hamiltonian, PureState, log_survival_factors, phase_weights
from .intervals import DiscreteIntervals, InfiniteMeanError, IntervalDistribution, _log_mean_q
from .rng import StreamFamily, philox_uniforms

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

#: target number of intervals per vectorized chunk (kept ones, for fixed-T)
_CHUNK_TARGET = 262_144
#: a fixed-m chunk draws its uniforms with ``philox_uniforms`` when its rows
#: are at most this long and at least ``_VECTOR_MIN_ROWS`` many; otherwise
#: each row selects its stream, whose C generator costs less per draw but a
#: few microseconds more per row, and the vector path's fixed cost per call
#: (about 340 numpy calls) is not repaid by few rows (measured in BENCH_6.json)
_VECTOR_MAX_M = 128
_VECTOR_MIN_ROWS = 128
#: a fixed-m row longer than this is drawn and reduced in segments of this
#: many draws (the last one shorter); a multiple of 4, as a part opens its
#: stream at a segment's first draw and a Philox counter gives four draws.
#: It also caps a fixed-T block, and with it the stop rule's temporaries
_SEGMENT = 65_536
#: a fixed-m chunk of many segments runs in one part per usable core, but in
#: at most this many: each part holds its own segment buffer and one
#: segment's working set (a comparison mask for a discrete law, the kernel's
#: output and temporaries for a power law), so peak memory grows with the
#: part count, and only two cores have been measured (BENCH_14.json)
_MAX_PARTS = 2
#: a fixed-T realization expected to keep at least this many draws starts
#: with one block sized from the law's mean; a shorter one starts with 64
#: draws, whose stop rule runs in Python, cheaper there than one numpy pass
#: on a slightly longer block (measured in BENCH_13.json)
_MEAN_SIZED_MIN = 110
#: relative slack on the fixed-time budget comparison, so exact ties
#: (degenerate laws) are not lost to accumulated round-off
_BUDGET_SLACK = 1e-12


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
    integers, not bools; only ``m`` may be None.
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


def _kept_in_block(mus: np.ndarray, total: float, comp: float, limit: float):
    """(kept, total, comp): how many leading draws of ``mus`` the fixed-T
    stop rule keeps, carried on from the state (total, comp), and the
    state after them.

    The rule, one draw at a time: stop at the first mu with total + comp
    + mu > limit, else add mu to total, Neumaier-compensated in comp. A
    block of at most 64 draws runs that loop in Python, which costs less
    than numpy's call overhead on so few. A longer one runs two
    ``np.cumsum``, which add left to right like the loop, with the
    carried total and compensation in front, so the totals, the
    compensations and the stop decisions carry its bits across blocks.
    """
    if mus.size <= 64:
        for kept, mu in enumerate(mus.tolist()):
            if total + comp + mu > limit:
                return kept, total, comp
            t = total + mu
            comp += (total - t) + mu if abs(total) >= mu else (mu - t) + total
            total = t
        return mus.size, total, comp
    totals = np.cumsum(np.concatenate(([total], mus)))
    before, after = totals[:-1], totals[1:]
    err = np.where(np.abs(before) >= mus, (before - after) + mus, (mus - after) + before)
    comps = np.cumsum(np.concatenate(([comp], err)))
    kept = int(np.argmax(np.append(before + comps[:-1] + mus > limit, True)))
    return kept, totals[kept], comps[kept]


def _usable_cores() -> int:
    """The cores this process may run on (all of them where the OS cannot
    say). A cgroup CPU quota is not counted; ``_MAX_PARTS`` bounds the
    threads a quota-limited process starts."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux and a few Unixes
        return os.cpu_count() or 1


def _one_atom(dist) -> bool:
    """Whether ``dist`` has one atom, whose ``row_stats`` reads only the
    shape of its uniforms, so a block of them need not be drawn."""
    return isinstance(dist, DiscreteIntervals) and dist.d == 1


def _segment_stats(group: list[SurvivalEnsemble], weights, start: int, stop: int, draw: int,
                   n: int) -> list[np.ndarray]:
    """Each law's row statistic (``row_stats``) of every segment of draws
    draw to draw + n - 1 of realizations start to stop - 1, stacked
    along a new first axis, one segment of ``_SEGMENT`` draws (the last
    one shorter) after another.

    A segment is drawn once into one reused buffer, by ``philox_uniforms``
    for many short rows at their first draw, else one stream selected
    per row at the segment's first draw, or not at all where every law
    has one atom. Every law of the group reads it in turn; it is
    read-only while a later law still reads it, so only its last reader
    may overwrite it. The part opens its own stream family, so runs of
    segments can be read on any threads.
    """
    seed, rows = group[0].config.master_seed, stop - start
    draws = not all(_one_atom(ens.config.dist) for ens in group)
    family, buf = StreamFamily(seed), np.empty(rows * min(n, _SEGMENT) if draws else 0)
    stats = [[] for _ in group]
    for a in range(draw, draw + n, _SEGMENT):
        k = min(_SEGMENT, draw + n - a)
        u = buf[:rows * k].reshape(rows, k) if draws else np.broadcast_to(0.0, (rows, k))
        if draws and a == 0 and k <= _VECTOR_MAX_M and rows >= _VECTOR_MIN_ROWS:
            philox_uniforms(seed, start, u)
        elif draws:
            for j in range(rows):
                family.select(start + j, a).random(k, out=u[j])
        for reader, (ens, (lam, w)) in enumerate(zip(group, weights)):
            u.flags.writeable = draws and reader == len(group) - 1
            stats[reader].append(ens.config.dist.row_stats(u, lam, w))
    return [np.stack(law_stats) for law_stats in stats]


def _run_fixed_m(group: list[SurvivalEnsemble]) -> None:
    """Fill the records of fixed-m ensembles that share (master_seed,
    realizations, m), chunk by chunk: the segments of a chunk's rows are
    cut into one contiguous run per part, the calling thread reads the
    first and a pool the rest (``_segment_stats``), and each law's
    segment statistics are added left to right."""
    cfg = group[0].config
    m = int(cfg.m)
    weights = [phase_weights(ens.config.hamiltonian, ens.config.state) for ens in group]
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
            runs = [(group, weights, start, stop, a, b - a) for a, b in zip(cuts, cuts[1:])]
            helped = [pool.submit(_segment_stats, *run) for run in runs[1:]]
            parts = [_segment_stats(*runs[0]), *(future.result() for future in helped)]
            for k, (ens, (lam, w)) in enumerate(zip(group, weights)):
                stats = np.cumsum(np.concatenate([part[k] for part in parts]), axis=0)[-1]
                ens.total_times[start:stop], ens.log_survivals[start:stop] = (
                    ens.config.dist.row_sums(stats, lam, w))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    for ens in group:
        ens.ms[:] = m


def _first_block(dist, limit: float) -> int:
    """Draws in each fixed-T realization's first block: the expected kept
    count limit / E[mu] and an eighth more, at most ``_SEGMENT``; 64
    where that count is below ``_MEAN_SIZED_MIN`` or the law has no
    finite mean."""
    try:
        expected = limit / dist.mean()
    except InfiniteMeanError:
        return 64
    return 64 if expected < _MEAN_SIZED_MIN else int(min(_SEGMENT, 1.125 * expected))


def _fixed_t_draws(dist, rng, limit: float, size: int = 64) -> np.ndarray:
    """The waiting times one fixed-T realization of ``rng`` keeps.

    Draws ``size`` (``_first_block``), then, while the stop rule keeps all
    it has, a next block sized from the realization's own mean so far:
    the expected remaining draws and an eighth more, at least 64 and at
    most ``_SEGMENT``. The stream is read in order, so block sizes move
    no bit.
    """
    blocks, total, comp = [], 0.0, 0.0
    while True:
        mus = dist.sample(rng, size)
        kept, total, comp = _kept_in_block(mus, total, comp, limit)
        blocks.append(mus[:kept])
        if kept < size:
            return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        drawn = sum(block.size for block in blocks)
        size = int(min(_SEGMENT, max(64.0, 1.125 * drawn * (limit - total) / total)))


def _fixed_t_sums(lam, w, rows: list[np.ndarray]):
    """(ms, totals, log survivals) of fixed-T realizations from their kept
    draws: ln q runs once over all of them, and each row is summed on
    its own, as ``np.sum`` sums the row alone, by an (rows, m) gather
    per kept count m; a count only one row has is summed in place, so a
    long row is never copied."""
    ms = np.array([row.size for row in rows], dtype=np.int64)
    flat = rows[0] if len(rows) == 1 else np.concatenate(rows)
    logq = log_survival_factors(lam, w, flat)
    starts = np.cumsum(ms) - ms
    totals, logs = np.empty(len(rows)), np.empty(len(rows))
    for m in np.unique(ms).tolist():
        at = np.flatnonzero(ms == m)
        first = starts[at[0]]
        span = slice(first, first + m) if at.size == 1 else starts[at, None] + np.arange(m)
        totals[at], logs[at] = flat[span].sum(axis=-1), logq[span].sum(axis=-1)
    return ms, totals, logs


def _run_fixed_t(ens: SurvivalEnsemble) -> None:
    """Fill the records of a fixed-T ensemble, in chunks of about
    ``_CHUNK_TARGET`` kept intervals, one stream selected per realization."""
    cfg = ens.config
    lam, w = phase_weights(cfg.hamiltonian, cfg.state)
    family = StreamFamily(cfg.master_seed)
    limit = cfg.t_total * (1.0 + _BUDGET_SLACK)
    first = _first_block(cfg.dist, limit)
    rows, kept, start = [], 0, 0
    for i in range(cfg.realizations):
        rows.append(_fixed_t_draws(cfg.dist, family.select(i), limit, first))
        kept += rows[-1].size
        if kept >= _CHUNK_TARGET or i == cfg.realizations - 1:
            ens.ms[start:i + 1], ens.total_times[start:i + 1], ens.log_survivals[start:i + 1] = (
                _fixed_t_sums(lam, w, rows))
            rows, kept, start = [], 0, i + 1


def run_ensembles(cfgs: list[EnsembleConfig]) -> list[SurvivalEnsemble]:
    """Simulate every realization of each config in ``cfgs``, and return
    the ensembles in input order.

    Fixed-m configs that share (master_seed, realizations, m) read the
    same uniforms at any m, since a realization's stream depends on
    neither the law nor the system: each segment of a chunk is drawn
    once and every law reads it in turn, with the bits each would get
    alone (``_run_fixed_m``). Fixed-T configs run one at a time
    (``_run_fixed_t``).

    The result is bitwise identical for any chunk size: every
    realization's substream is keyed by its index, each draw is mapped
    on its own, and each realization's sums run over its own draws. A
    fixed-m row is reduced in segments of ``_SEGMENT`` draws, added in
    order. Fixed-T finds each realization's stop on its own
    (``_fixed_t_draws``), then maps and sums the kept draws of a whole
    chunk at once.

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
            fixed_m.setdefault((cfg.master_seed, n, int(cfg.m)), []).append(ens)
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


def ensemble_summary(ens: SurvivalEnsemble) -> EnsembleSummary:
    """Aggregate the ensemble into the standard comparison quantities.

    The linear-domain mean is formed from the log records by shifting by
    the largest, compensated summation, and shifting back, so it stays
    meaningful even when every survival underflows a double. The shifted
    mean m is taken as log1p(-(1 - m)) while 1 - m <= 1/2, as
    ``intervals._log_mean_q`` does, so close records keep their digits.
    Every field is defined for any ensemble; only the variance of L/m
    (``EnsembleSummary.variance_intensive_log``) needs two realizations
    with m >= 1, all of them finite. ``math.fsum`` reads lists, which it
    iterates faster than arrays, with the same correctly rounded sums.
    """
    logs = ens.log_survivals
    smax = float(logs.max())
    if math.isinf(smax):
        log_mean = -math.inf
    else:
        shifted = logs - smax
        log_mean = smax + _log_mean_q(math.fsum((-np.expm1(shifted)).tolist()) / ens.n,
                                      math.log(math.fsum(np.exp(shifted).tolist()) / ens.n))
    measured = ens.ms >= 1
    return EnsembleSummary(
        log_mean_survival=log_mean,
        log_geometric_mean=math.fsum(logs.tolist()) / ens.n,
        log_median=float(np.median(logs)),
        mean_total_time=math.fsum(ens.total_times.tolist()) / ens.n,
        n=ens.n,
        intensive_logs=logs[measured] / ens.ms[measured],
    )
