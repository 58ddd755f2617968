"""Ensemble simulation over realizations of the measurement sequence.

Two sampling modes: hold the number of measurements m fixed and let the
total time fluctuate, or hold a time budget fixed and draw intervals
until the next one would overrun it (the overrunning draw is discarded,
so every applied interval keeps the waiting-time law).

Realization i draws from its own counter-based stream keyed by
``(master_seed, i)``, which makes ensembles bitwise reproducible and
independent of how realizations are scheduled across workers. Records
stream into flat arrays; raw interval sequences are only retained when a
debug flag asks for them.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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


def _fixed_t_intervals(dist, rng, t_total: float) -> np.ndarray:
    """Draw intervals until the budget would be exceeded.

    The cumulative time uses Neumaier-compensated summation so that the
    stop decision is made on a correctly rounded total; the comparison
    carries a tiny relative slack to keep exact ties (point-mass laws)
    on the inclusive side.
    """
    limit = t_total * (1.0 + _BUDGET_SLACK)
    kept: list[float] = []
    total = 0.0
    comp = 0.0
    while True:
        block = dist.sample(rng, 64)
        for mu in block.tolist():
            if total + comp + mu > limit:
                return np.asarray(kept, dtype=float)
            t = total + mu
            if abs(total) >= mu:
                comp += (total - t) + mu
            else:
                comp += (mu - t) + total
            total = t
            kept.append(mu)


def _run_chunk(cfg: EnsembleConfig, lam, w, start: int, stop: int):
    count = stop - start
    family = StreamFamily(cfg.master_seed)
    if cfg.mode == "fixed_m":
        m = int(cfg.m)
        u = np.empty((count, m), dtype=float)
        for j in range(count):
            family.select(start + j).random(m, out=u[j])
        mus, logq = cfg.dist.intervals_and_log_q(u, lam, w)
        ms = np.full(count, m, dtype=np.int64)
        traces = [row.copy() for row in mus] if cfg.keep_traces else None
        return ms, mus.sum(axis=1), logq.sum(axis=1), traces

    ms = np.empty(count, dtype=np.int64)
    totals = np.empty(count, dtype=float)
    logs = np.empty(count, dtype=float)
    seqs: list[np.ndarray] = []
    for j in range(count):
        mus = _fixed_t_intervals(cfg.dist, family.select(start + j), cfg.t_total)
        totals[j] = float(np.sum(mus))
        ms[j] = mus.size
        seqs.append(mus)
    flat = np.concatenate(seqs) if seqs else np.empty(0)
    logq = log_survival_factors(lam, w, flat)
    pos = 0
    for j in range(count):
        n_j = int(ms[j])
        logs[j] = float(np.sum(logq[pos : pos + n_j])) if n_j else 0.0
        pos += n_j
    traces = seqs if cfg.keep_traces else None
    return ms, totals, logs, traces


def run_ensemble(cfg: EnsembleConfig, workers: int = 1) -> SurvivalEnsemble:
    """Simulate every realization of ``cfg``.

    The result is bitwise identical for any ``workers`` value: chunk
    boundaries are fixed by the realization count alone and every
    realization's substream is keyed by its index, never by schedule.
    """
    lam, w = phase_weights(cfg.hamiltonian, cfg.state)
    n = cfg.realizations
    per_real = cfg.m if cfg.mode == "fixed_m" else 64
    chunk = max(1, _CHUNK_TARGET // max(int(per_real), 1))
    bounds = [(s, min(s + chunk, n)) for s in range(0, n, chunk)]

    ms = np.empty(n, dtype=np.int64)
    totals = np.empty(n, dtype=float)
    logs = np.empty(n, dtype=float)
    traces: list = [None] * n if cfg.keep_traces else None

    def work(se):
        return se, _run_chunk(cfg, lam, w, *se)

    if workers <= 1 or len(bounds) == 1:
        results = [work(se) for se in bounds]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(work, bounds))

    for (start, stop), (cms, ctot, clog, ctraces) in results:
        ms[start:stop] = cms
        totals[start:stop] = ctot
        logs[start:stop] = clog
        if cfg.keep_traces:
            traces[start:stop] = ctraces

    return SurvivalEnsemble(
        config=cfg,
        ms=ms,
        total_times=totals,
        log_survivals=logs,
        traces=tuple(traces) if cfg.keep_traces else None,
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
