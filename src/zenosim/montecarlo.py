"""Ensemble simulation over realizations of the measurement sequence.

Two sampling modes: hold the number of measurements m fixed and let the
total time fluctuate, or hold a time budget fixed and draw intervals
until the next one would overrun it (the overrunning draw is discarded,
so every applied interval keeps the waiting-time law).

Realization i draws from its own counter-based stream keyed by
``(master_seed, i)``, which makes ensembles bitwise reproducible and
independent of how realizations are split into chunks. Fixed-T finds
each stop with a vectorized form of the compensated one-draw-at-a-time
rule. Records stream into flat arrays; raw interval sequences are only
retained when a debug flag asks for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Hamiltonian, PureState, log_survival_factors, phase_weights
from .intervals import IntervalDistribution
from .rng import StreamFamily

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
#: relative slack on the fixed-time budget comparison, so exact ties
#: (degenerate laws) are not lost to accumulated round-off
_BUDGET_SLACK = 1e-12


class InsufficientSamplesError(ValueError):
    """Too few realizations for the requested statistic."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Complete description of an ensemble run.

    ``mode`` is "fixed_m" (requires ``m``) or "fixed_T" (requires
    ``t_total`` in seconds). ``keep_traces`` retains every sampled
    interval sequence for debugging; summaries never need it.
    """

    dist: IntervalDistribution
    hamiltonian: Hamiltonian
    state: PureState
    mode: str
    realizations: int
    master_seed: int
    m: int | None = None
    t_total: float | None = None
    keep_traces: bool = False

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
    traces: tuple | None = None

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
    variance_intensive_log: float
    mean_total_time: float
    n: int

    @property
    def mean_survival(self) -> float:
        return math.exp(self.log_mean_survival)

    @property
    def geometric_mean_survival(self) -> float:
        return math.exp(self.log_geometric_mean)

    @property
    def median_survival(self) -> float:
        return math.exp(self.log_median)


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
    for j in range(stop - start):
        family.select(start + j).random(m, out=u[j])
    mus, logq = cfg.dist.intervals_and_log_q(u, lam, w)
    ms = np.full(stop - start, m, dtype=np.int64)
    return ms, mus.sum(axis=1), logq.sum(axis=1), list(mus) if cfg.keep_traces else []


def _rows_by_value(keys: np.ndarray):
    """(value, indices of the keys equal to it) for each distinct key."""
    for value in np.unique(keys).tolist():
        yield value, np.flatnonzero(keys == value)


def _fixed_t_chunk(cfg: EnsembleConfig, lam, w, drawn: list[np.ndarray], limit: float):
    ms = np.empty(len(drawn), dtype=np.int64)
    for _, rows in _rows_by_value(np.array([mus.size for mus in drawn])):
        ms[rows] = _kept_counts(np.stack([drawn[j] for j in rows.tolist()]), limit)
    seqs = [mus[:m] for mus, m in zip(drawn, ms.tolist())]
    flat = np.concatenate(seqs)
    logq = log_survival_factors(lam, w, flat)
    starts = np.cumsum(ms) - ms
    totals, logs = np.empty(len(drawn)), np.empty(len(drawn))
    # an (rows, m) gather per kept count m; each row sums on its own,
    # as np.sum does on the row alone
    for m, rows in _rows_by_value(ms):
        at = starts[rows, None] + np.arange(m)
        totals[rows] = flat[at].sum(axis=1)
        logs[rows] = logq[at].sum(axis=1)
    return ms, totals, logs, [seq.copy() for seq in seqs] if cfg.keep_traces else []


def _chunks(cfg: EnsembleConfig, lam, w):
    """(ms, totals, log survivals, traces) of consecutive realizations,
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
    parts = list(_chunks(cfg, lam, w))
    ms, totals, logs = (np.concatenate([p[k] for p in parts]) for k in range(3))
    return SurvivalEnsemble(
        config=cfg,
        ms=ms,
        total_times=totals,
        log_survivals=logs,
        traces=tuple(t for p in parts for t in p[3]) if cfg.keep_traces else None,
    )


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

    The linear-domain mean is formed from the log records by shifting,
    compensated summation of the exponentials, and shifting back, so it
    stays meaningful even when every survival underflows a double.

    The variance of the intensive log survival L/m is taken over the
    realizations with at least one measurement (a fixed-T budget below
    the smallest interval leaves m = 0, where L/m is undefined). Raises
    ``InsufficientSamplesError`` when fewer than two such realizations
    exist.
    """
    measured = ens.ms >= 1
    n_measured = int(np.count_nonzero(measured))
    if n_measured < 2:
        raise InsufficientSamplesError(
            f"summary needs at least two realizations with m >= 1, "
            f"got {n_measured} of {ens.n}"
        )
    logs = ens.log_survivals
    smax = float(logs.max())
    if math.isinf(smax):
        log_mean = -math.inf
    else:
        log_mean = smax + math.log(math.fsum(np.exp(logs - smax))) - math.log(ens.n)
    intensive = logs[measured] / ens.ms[measured]
    return EnsembleSummary(
        log_mean_survival=log_mean,
        log_geometric_mean=math.fsum(logs) / ens.n,
        log_median=float(np.median(logs)),
        variance_intensive_log=float(np.var(intensive, ddof=1)),
        mean_total_time=math.fsum(ens.total_times) / ens.n,
        n=ens.n,
    )
