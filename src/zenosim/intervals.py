"""Probability distributions over inter-measurement waiting times.

Three families ship: a discrete distribution over d positive atoms (the
d-outcome Bernoulli case), a continuous power law on [mu0, inf), and the
degenerate point mass that models equally spaced measurements. Each
offers sampling against an explicit generator handle, exact moments, and
the survival averages E[ln q] and ln E[q] for given phase weights
(``log_q_moments``). Monte Carlo ensembles hand each law a block of
uniforms and get back the waiting times and their ln q
(``intervals_and_log_q``): the lattice laws evaluate ln q once per atom
and gather it by atom index, the power law runs the kernel on every draw.
The power law's moments come from one composite Gauss-Legendre rule with
panels graded toward the zeros of q, truncated by a fixed rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from numpy.random import Generator

from .dynamics import log_survival_factors, survival_minima

__all__ = [
    "InfiniteMeanError",
    "InfiniteSecondMomentError",
    "QuadratureNoConvergenceError",
    "DiscreteIntervals",
    "PowerLawIntervals",
    "DegenerateInterval",
    "IntervalDistribution",
]

#: Gauss-Legendre rule of every power-law panel
_GAUSS_NODES = np.polynomial.legendre.leggauss(16)
#: power-law body panels are this fraction of the period of q
_PANEL_FRACTION = 1.0 / 8.0
#: minima of q below this are panel edges, with panels graded toward them
_Q_FLOOR = 1e-3
#: graded edges in body panels off a minimum (nearer, kernel round-off rivals q)
_GRADING = 8.0 ** -np.arange(9)
#: the dropped power-law tail, relative to the moments' scale
_TAIL_TOL = 1e-10
#: most power-law body panels, checked before any kernel call
_MAX_PANELS = 32_768
#: quadrature nodes per kernel call
_QUAD_SLAB = 8192
#: draws per slab of the discrete gather: the atom-index buffer stays this
#: small, so a block costs only its uniforms and its ln q (16 bytes a draw)
_GATHER_SLAB = 65_536


class InfiniteMeanError(ValueError):
    """The distribution has no finite mean (power law with alpha <= 1)."""


class InfiniteSecondMomentError(ValueError):
    """No finite second moment (power law with alpha <= 2)."""


class QuadratureNoConvergenceError(RuntimeError):
    """The power-law tail is too heavy for the quadrature's panel budget."""


@dataclass(frozen=True)
class DiscreteIntervals:
    """Waiting time takes one of d distinct positive values.

    ``values`` are the atoms mu^(alpha) in seconds, ``probs`` their
    probabilities (summing to 1). Sampling inverts the cumulative with a
    right-closed tie rule so results are reproducible across platforms.
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        vals = np.atleast_1d(np.asarray(self.values, dtype=float))
        pr = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if vals.shape != pr.shape or vals.ndim != 1 or vals.size == 0:
            raise ValueError("values and probs must be matching nonempty vectors")
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise ValueError("waiting times must be strictly positive and finite")
        if np.unique(vals).size != vals.size:
            raise ValueError("waiting-time atoms must be pairwise distinct")
        if np.any(pr <= 0) or np.any(pr > 1):
            raise ValueError("probabilities must lie in (0, 1]")
        if abs(float(pr.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {pr.sum()!r}, not 1 within 1e-12")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "probs", pr)
        cum = np.cumsum(pr)
        cum[-1] = 1.0  # guard the last edge against round-off
        object.__setattr__(self, "_cum", cum)

    @property
    def d(self) -> int:
        return int(self.values.size)

    def sample(self, rng: Generator, m: int) -> np.ndarray:
        """Draw m i.i.d. waiting times via inverse-CDF lookup."""
        if m < 1:
            raise ValueError("need at least one draw")
        return self.values[self._atom_index(rng.random(m), np.empty(m, dtype=np.intp))]

    def _atom_index(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Atom of each uniform u in [0, 1), written into ``out``.

        Right-closed intervals (c_{a-1}, c_a]: the index is the number of
        cumulative edges below u, which equals
        ``np.searchsorted(cum, u, side="left")`` bit for bit and is much
        faster for a few atoms. The last edge is exactly 1 > u, so it is
        skipped, except for d = 1, where it is the first and gives 0.
        """
        cum = self._cum.tolist()
        np.greater(u, cum[0], out=out)
        for edge in cum[1:-1]:
            out += u > edge
        return out

    def intervals_and_log_q(
        self, u: np.ndarray, lam: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Waiting times and their ln q for a C-contiguous block of uniforms.

        ln q is evaluated once per atom and gathered by atom index; the
        waiting times overwrite ``u``. Entry by entry, both equal what
        ``sample`` and ``log_survival_factors`` give for the same uniforms.
        """
        if not u.flags.c_contiguous:
            raise ValueError("the uniform block must be C-contiguous")
        table = log_survival_factors(lam, w, self.values)
        log_q = np.empty_like(u)
        flat_u, flat_log_q = u.reshape(-1), log_q.reshape(-1)
        idx = np.empty(min(flat_u.size, _GATHER_SLAB), dtype=np.intp)
        for start in range(0, flat_u.size, _GATHER_SLAB):
            stop = start + _GATHER_SLAB
            part = flat_u[start:stop]
            atoms = self._atom_index(part, idx[: part.size])
            # mode="clip" writes straight into out; "raise" buffers a copy
            np.take(table, atoms, out=flat_log_q[start:stop], mode="clip")
            np.take(self.values, atoms, out=part, mode="clip")
        return u, log_q

    def mean(self) -> float:
        return float(np.dot(self.probs, self.values))

    def second_moment(self) -> float:
        return float(np.dot(self.probs, self.values**2))

    def log_q_moments(self, lam: np.ndarray, w: np.ndarray) -> tuple[float, float]:
        """E[ln q] and ln E[q], from the kernel once per atom."""
        return _atom_moments(self.probs, log_survival_factors(lam, w, self.values))


@dataclass(frozen=True)
class PowerLawIntervals:
    """Heavy-tailed waiting times: p(mu) = alpha/(mu0 (mu/mu0)^(1+alpha)).

    Supported on [mu0, inf) with mu0 in seconds and alpha > 0. The mean
    exists only for alpha > 1 and the second moment only for alpha > 2.
    """

    mu0: float
    alpha: float

    def __post_init__(self):
        if not (self.mu0 > 0 and np.isfinite(self.mu0)):
            raise ValueError("mu0 must be a positive time scale")
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ValueError("alpha must be positive")

    def sample(self, rng: Generator, m: int) -> np.ndarray:
        """Draw m waiting times as mu0 * u^(-1/alpha), u uniform on (0, 1]."""
        if m < 1:
            raise ValueError("need at least one draw")
        return self._inverse_cdf(rng.random(m))

    def _inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms on [0, 1) to waiting times, in place."""
        np.subtract(1.0, u, out=u)  # (0, 1]: keeps the map finite
        u **= -1.0 / self.alpha
        u *= self.mu0
        return u

    def intervals_and_log_q(
        self, u: np.ndarray, lam: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Waiting times (overwriting ``u``) and the kernel's ln q on each."""
        mus = self._inverse_cdf(u)
        return mus, log_survival_factors(lam, w, mus)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(x < self.mu0, 0.0, 1.0 - (self.mu0 / np.maximum(x, self.mu0)) ** self.alpha)

    def mean(self) -> float:
        if self.alpha <= 1:
            raise InfiniteMeanError(f"mean diverges for alpha = {self.alpha} <= 1")
        return self.alpha * self.mu0 / (self.alpha - 1.0)

    def second_moment(self) -> float:
        if self.alpha <= 2:
            raise InfiniteSecondMomentError(
                f"second moment diverges for alpha = {self.alpha} <= 2"
            )
        return self.alpha * self.mu0**2 / (self.alpha - 2.0)

    def log_q_moments(self, lam: np.ndarray, w: np.ndarray) -> tuple[float, float]:
        """E[ln q] and ln E[q] under the power law, for phase weights (lam, w).

        One composite Gauss-Legendre rule on [mu0, cut]: panels grow by
        half from mu0 up to ``_PANEL_FRACTION`` of the period
        2 pi / (lam_max - lam_min), and keep that width; each minimum of q
        below ``_Q_FLOOR``, a log singularity of ln q, is an edge, with
        edges ``_GRADING`` panels to either side. An eigenstate gives (0, 0).

        Truncation: past the cut c the density barely changes over a
        period, so the dropped tail is about (mu0/c)^alpha times the mean
        of -ln q >= 1 - q over time, -2 ln M with M the Mahler measure of
        sum_k w_k z_k on the torus the phases fill. M is at least w_v, the
        weight of the lowest or highest weighted level (a vertex of the
        Newton polytope), and q >= (1 - 2r)^2 if the weights but the
        largest sum to r < 1/2: B, the smaller bound, is -2 ln w_v or
        -2 ln(1 - 2r). The cut puts B (mu0/c)^alpha at ``_TAIL_TOL`` times
        min(V mu0^2, 1), V the energy variance: about the least 1 - q near
        mu0, below E[1 - q] <= |E[ln q]|. A cut more than ``_MAX_PANELS``
        panels away, as for alpha <= 2 on the default chain, raises
        ``QuadratureNoConvergenceError`` before any kernel call.
        """
        variance = float(np.dot(w, (lam - np.dot(w, lam)) ** 2))
        if variance == 0.0:
            return 0.0, 0.0
        mu0, alpha = self.mu0, self.alpha
        present = lam[w > 0.0]
        width = _PANEL_FRACTION * 2.0 * math.pi / float(present.max() - present.min())
        head = mu0 * 1.5 ** np.arange(max(0, math.ceil(math.log(2.0 * width / mu0, 1.5))) + 1)
        # B of the docstring; r is summed without cancellation
        bound = -2.0 * math.log(max(w[lam == present.min()].sum(), w[lam == present.max()].sum()))
        rest = float(np.sort(w)[:-1].sum())
        if rest < 0.5:
            bound = min(bound, -2.0 * math.log1p(-2.0 * rest))
        scale = min(variance * mu0 * mu0, 1.0)
        reach = head[-1] + _MAX_PANELS * width
        if bound * (mu0 / reach) ** alpha > _TAIL_TOL * scale:
            raise QuadratureNoConvergenceError(
                f"alpha = {alpha}: the tail needs more than {_MAX_PANELS} panels")
        cut = mu0 * (bound / (_TAIL_TOL * scale)) ** (1.0 / alpha)
        panels = max(1, math.ceil((cut - head[-1]) / width))
        edges = np.concatenate((head[:-1], head[-1] + width * np.arange(panels + 1)))
        minima = survival_minima(lam, w, edges)
        minima = minima[log_survival_factors(lam, w, minima) < math.log(_Q_FLOOR)]
        graded = (minima[:, None] + width * np.concatenate((-_GRADING, [0.0], _GRADING))).ravel()
        graded = graded[(graded > mu0) & (graded < edges[-1])]

        def moments(mus: np.ndarray) -> np.ndarray:
            log_q = log_survival_factors(lam, w, mus)
            return np.stack((log_q, -np.expm1(log_q), np.exp(log_q)))

        edges = np.unique(np.concatenate((edges, graded)))
        mean_log_q, mean_delta, mean_q = self.expect_windowed(moments, edges=edges)
        return float(mean_log_q), _log_mean_q(float(mean_delta), math.log(mean_q))

    def expect_windowed(self, g: Callable, *, edges: np.ndarray) -> np.ndarray:
        """E[g] by the Gauss-Legendre rule on each panel between two
        ``edges``; g maps waiting times to values along its last axis, and
        gets at most ``_QUAD_SLAB`` of them a call."""
        nodes, weights = _GAUSS_NODES
        per_slab = _QUAD_SLAB // nodes.size
        mu0, alpha = self.mu0, self.alpha
        acc = 0.0
        for start in range(0, edges.size - 1, per_slab):
            slab = edges[start : start + per_slab + 1, None]
            half = 0.5 * (slab[1:] - slab[:-1])
            mus = (0.5 * (slab[1:] + slab[:-1]) + half * nodes).ravel()
            density = (alpha / mu0) * (mu0 / mus) ** (1.0 + alpha)
            acc = acc + g(mus) @ ((half * weights).ravel() * density)
        return acc


@dataclass(frozen=True)
class DegenerateInterval:
    """Point mass: every waiting time equals mu_bar (equally spaced)."""

    mu_bar: float

    def __post_init__(self):
        if not (self.mu_bar > 0 and np.isfinite(self.mu_bar)):
            raise ValueError("mu_bar must be a positive time")

    def sample(self, rng: Generator, m: int) -> np.ndarray:
        if m < 1:
            raise ValueError("need at least one draw")
        return np.full(m, self.mu_bar, dtype=float)

    def intervals_and_log_q(
        self, u: np.ndarray, lam: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The one waiting time (overwriting ``u``) and its ln q, broadcast."""
        u.fill(self.mu_bar)
        log_q = float(log_survival_factors(lam, w, np.array([self.mu_bar]))[0])
        return u, np.full(u.shape, log_q)

    def mean(self) -> float:
        return self.mu_bar

    def second_moment(self) -> float:
        return self.mu_bar**2

    def log_q_moments(self, lam: np.ndarray, w: np.ndarray) -> tuple[float, float]:
        """ln q at the one waiting time, as E[ln q] and as ln E[q]."""
        return _atom_moments(np.ones(1), log_survival_factors(lam, w, np.array([self.mu_bar])))


def _atom_moments(probs: np.ndarray, log_q: np.ndarray) -> tuple[float, float]:
    """(sum p ln q, ln sum p q), each sum added left to right in atom order;
    sum p q is scaled by the largest q, which may underflow alone."""
    p, top = probs.tolist(), float(log_q.max())

    def dot(x: np.ndarray) -> float:
        return float(sum(a * b for a, b in zip(p, x.tolist())))

    return dot(log_q), _log_mean_q(dot(-np.expm1(log_q)), top + math.log(dot(np.exp(log_q - top))))


def _log_mean_q(mean_delta: float, log_mean_q: float) -> float:
    """ln E[q] = log1p(-E[1 - q]) while E[1 - q] <= 1/2, where the log of a
    sum near 1 would lose the Jensen gap; past it ``log_mean_q``, the log of
    E[q] summed as such, since 1 - E[1 - q] loses a small E[q] to round-off."""
    return math.log1p(-mean_delta) if mean_delta <= 0.5 else log_mean_q


IntervalDistribution = Union[DiscreteIntervals, PowerLawIntervals, DegenerateInterval]
