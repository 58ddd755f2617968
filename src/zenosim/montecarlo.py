"""Ensemble simulation over realizations of the measurement sequence.

Two sampling modes: hold the number of measurements m fixed and let the
total time fluctuate, or hold a time budget fixed and draw intervals
until the next one would overrun it (the overrunning draw is discarded,
so every applied interval keeps the waiting-time law).

Realization i draws from its own counter-based stream keyed by
``(master_seed, i)``, which makes ensembles bitwise reproducible and
independent of how realizations are split into chunks. A fixed-m chunk
of many short rows draws all its uniforms in one ``philox_uniforms``
call, with no Python per realization; other chunks, and fixed-T, select
each realization's stream in turn; both give the same bits. Fixed-T
finds each stop with a vectorized form of the compensated
one-draw-at-a-time rule. Records fill preallocated arrays; raw interval
sequences are only retained when a debug flag asks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import Hamiltonian, PureState, log_survival_factors, phase_weights
from .intervals import IntervalDistribution, _log_mean_q
from .rng import StreamFamily, philox_uniforms

__all__ = [
    "InsufficientSamplesError",
    "EnsembleConfig",
    "SurvivalEnsemble",
    "EmpiricalRate",
    "EnsembleSummary",
    "run_ensemble",
    "empirical_rate",
    "ensemble_summary",
]

#: target number of sampled intervals handled per vectorized chunk
_CHUNK_TARGET = 262_144
#: a fixed-m chunk draws its uniforms with ``philox_uniforms`` when its rows
#: are at most this long and at least ``_VECTOR_MIN_ROWS`` many; otherwise
#: each row selects its stream, whose C generator costs less per draw but a
#: few microseconds more per row, and the vector path's fixed cost per call
#: (about 340 numpy calls) is not repaid by few rows (measured in BENCH_6.json)
_VECTOR_MAX_M = 128
_VECTOR_MIN_ROWS = 128
#: relative slack on the fixed-time budget comparison, so exact ties
#: (degenerate laws) are not lost to accumulated round-off
_BUDGET_SLACK = 1e-12


class InsufficientSamplesError(ValueError):
    """Too few realizations for the requested statistic."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Complete description of an ensemble run.

    ``mode`` is "fixed_m" (requires ``m``) or "fixed_T" (requires
    ``t_total`` in seconds).
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
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if self.mode == "fixed_m":
            if self.m is None or self.m < 1:
                raise ValueError("fixed_m mode needs a positive m")
        else:
            if self.t_total is None or not (self.t_total > 0):
                raise ValueError("fixed_T mode needs a positive time budget")


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
        is undefined); ``InsufficientSamplesError`` below two of them."""
        if self.intensive_logs.size < 2:
            raise InsufficientSamplesError(
                f"the variance needs at least two realizations with m >= 1, "
                f"got {self.intensive_logs.size} of {self.n}"
            )
        return float(np.var(self.intensive_logs, ddof=1))


def _drawn_past_budget(dist, rng, limit: float) -> np.ndarray:
    """Waiting times from ``rng``, enough for the fixed-T stop rule to end
    among them.

    Draws 64, then as many again as are drawn so far, until the n draws
    sum above ``limit`` by a relative n 2**-50: more than the rounding of
    this plain sum and of the rule's compensated total together. The
    stream is read in order, so the block sizes never change a result.
    """
    mus = dist.sample(rng, 64)
    while mus.sum() <= limit * (1.0 + mus.size * 2.0**-50):
        mus = np.concatenate((mus, dist.sample(rng, mus.size)))
    return mus


def _kept_counts(mus: np.ndarray, limit: float) -> np.ndarray:
    """How many leading draws of each row of ``mus`` the fixed-T stop
    rule keeps; every row must contain its stop.

    The rule, one draw at a time: stop at the first mu with total + comp
    + mu > limit, else add mu to total, Neumaier-compensated in comp.
    ``np.cumsum`` adds left to right like that loop, so the totals, the
    compensations and the stop decisions carry its bits.
    """
    total = np.cumsum(mus, axis=1)
    before = np.pad(total[:, :-1], ((0, 0), (1, 0)))  # total ahead of each draw
    err = np.where(np.abs(before) >= mus, (before - total) + mus, (mus - total) + before)
    comp = np.pad(np.cumsum(err[:, :-1], axis=1), ((0, 0), (1, 0)))
    return np.argmax(before + comp + mus > limit, axis=1)


def _fixed_m_chunk(cfg: EnsembleConfig, lam, w, family: StreamFamily, start: int, stop: int):
    m = int(cfg.m)
    u = np.empty((stop - start, m), dtype=float)
    if m <= _VECTOR_MAX_M and stop - start >= _VECTOR_MIN_ROWS:
        philox_uniforms(cfg.master_seed, start, u)
    else:
        for j in range(stop - start):
            family.select(start + j).random(m, out=u[j])
    mus, logq = cfg.dist.intervals_and_log_q(u, lam, w)
    ms = np.full(stop - start, m, dtype=np.int64)
    return ms, mus.sum(axis=1), logq.sum(axis=1)


def _rows_by_value(keys: np.ndarray):
    """(value, indices of the keys equal to it) for each distinct key."""
    for value in np.unique(keys).tolist():
        yield value, np.flatnonzero(keys == value)


def _fixed_t_chunk(cfg: EnsembleConfig, lam, w, drawn: list[np.ndarray], limit: float):
    ms = np.empty(len(drawn), dtype=np.int64)
    for _, rows in _rows_by_value(np.array([mus.size for mus in drawn])):
        ms[rows] = _kept_counts(np.stack([drawn[j] for j in rows.tolist()]), limit)
    flat = np.concatenate([mus[:m] for mus, m in zip(drawn, ms.tolist())])
    logq = log_survival_factors(lam, w, flat)
    starts = np.cumsum(ms) - ms
    totals, logs = np.empty(len(drawn)), np.empty(len(drawn))
    # an (rows, m) gather per kept count m; each row sums on its own,
    # as np.sum does on the row alone
    for m, rows in _rows_by_value(ms):
        at = starts[rows, None] + np.arange(m)
        totals[rows] = flat[at].sum(axis=1)
        logs[rows] = logq[at].sum(axis=1)
    return ms, totals, logs


def _chunks(cfg: EnsembleConfig, lam, w):
    """(ms, totals, log survivals) of consecutive realizations,
    in chunks of about ``_CHUNK_TARGET`` intervals each."""
    family = StreamFamily(cfg.master_seed)
    n = cfg.realizations
    if cfg.mode == "fixed_m":
        rows = max(1, _CHUNK_TARGET // int(cfg.m))
        for start in range(0, n, rows):
            yield _fixed_m_chunk(cfg, lam, w, family, start, min(start + rows, n))
        return
    limit = cfg.t_total * (1.0 + _BUDGET_SLACK)
    drawn, draws = [], 0
    for i in range(n):
        drawn.append(_drawn_past_budget(cfg.dist, family.select(i), limit))
        draws += drawn[-1].size
        if draws >= _CHUNK_TARGET or i == n - 1:
            yield _fixed_t_chunk(cfg, lam, w, drawn, limit)
            drawn, draws = [], 0


def run_ensemble(cfg: EnsembleConfig) -> SurvivalEnsemble:
    """Simulate every realization of ``cfg``.

    The result is bitwise identical for any chunk size: every
    realization's substream is keyed by its index, each draw is mapped
    on its own, and each realization's sums run over its own draws.
    """
    lam, w = phase_weights(cfg.hamiltonian, cfg.state)
    n = cfg.realizations
    ms, totals, logs = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    start = 0
    for part in _chunks(cfg, lam, w):
        stop = start + part[0].size
        ms[start:stop], totals[start:stop], logs[start:stop] = part
        start = stop
    return SurvivalEnsemble(config=cfg, ms=ms, total_times=totals, log_survivals=logs)


def empirical_rate(ens: SurvivalEnsemble, bins: int) -> EmpiricalRate:
    """Estimate the rate function from a fixed-m ensemble histogram."""
    if ens.config.mode != "fixed_m":
        raise ValueError("rate estimation needs a fixed-m ensemble")
    if bins < 1:
        raise ValueError("need at least one bin")
    if ens.n < 10 * bins:
        raise InsufficientSamplesError(
            f"{ens.n} realizations cannot populate {bins} bins (need >= {10 * bins})"
        )
    m = int(ens.config.m)
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
    with m >= 1.
    """
    logs = ens.log_survivals
    smax = float(logs.max())
    if math.isinf(smax):
        log_mean = -math.inf
    else:
        shifted = logs - smax
        log_mean = smax + _log_mean_q(math.fsum(-np.expm1(shifted)) / ens.n,
                                      math.log(math.fsum(np.exp(shifted)) / ens.n))
    measured = ens.ms >= 1
    return EnsembleSummary(
        log_mean_survival=log_mean,
        log_geometric_mean=math.fsum(logs) / ens.n,
        log_median=float(np.median(logs)),
        mean_total_time=math.fsum(ens.total_times) / ens.n,
        n=ens.n,
        intensive_logs=logs[measured] / ens.ms[measured],
    )
