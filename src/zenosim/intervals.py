"""Probability distributions over inter-measurement waiting times.

Three families ship: a discrete distribution over d positive atoms (the
d-outcome Bernoulli case), a continuous power law on [mu0, inf), and the
degenerate point mass that models equally spaced measurements. Each
offers sampling against an explicit generator handle, exact moments, and
expectations of arbitrary functions of the waiting time. Monte Carlo
ensembles hand each law a block of uniforms and get back the waiting times
and their ln q (``intervals_and_log_q``): the lattice laws evaluate ln q
once per atom and gather it by atom index, the power law runs the kernel
on every draw.

Power-law expectations compactify the infinite tail with u = (mu0/mu)^alpha,
mapping E[g] to the unit interval

    E[g] = integral_0^1 g(mu0 * u^(-1/alpha)) du,

then integrate adaptively. No tail truncation is involved, which keeps
small exponents honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from numpy.random import Generator

from .dynamics import log_survival_factors

__all__ = [
    "InfiniteMeanError",
    "InfiniteSecondMomentError",
    "QuadratureNoConvergenceError",
    "DiscreteIntervals",
    "PowerLawIntervals",
    "DegenerateInterval",
    "IntervalDistribution",
]

#: default relative tolerance for power-law expectation quadrature
QUAD_TOL = 1e-10
#: default cap on adaptive subdivisions
QUAD_LIMIT = 400

#: fixed Gauss-Legendre rule for the windowed tail integrator
_GAUSS_NODES = np.polynomial.legendre.leggauss(32)
#: draws per slab of the discrete gather: the atom-index buffer stays this
#: small, so a block costs only its uniforms and its ln q (16 bytes a draw)
_GATHER_SLAB = 65_536


class InfiniteMeanError(ValueError):
    """The distribution has no finite mean (power law with alpha <= 1)."""


class InfiniteSecondMomentError(ValueError):
    """No finite second moment (power law with alpha <= 2)."""


class QuadratureNoConvergenceError(RuntimeError):
    """Adaptive quadrature could not meet the requested tolerance."""


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

    def expect(self, g: Callable[[float], float]) -> float:
        """Exact weighted sum of g over the atoms."""
        return float(sum(p * g(v) for v, p in zip(self.values, self.probs)))


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

    def expect(self, g: Callable[[float], float], *, tol: float = QUAD_TOL,
               limit: int = QUAD_LIMIT) -> float:
        """Adaptive quadrature of E[g] on the compactified unit interval.

        Accepts the result when the integrator's error bound meets the
        requested relative tolerance, even if scipy reports that its own
        internal target was missed. Raises
        ``QuadratureNoConvergenceError`` otherwise, which happens for
        genuinely pathological integrands (wild oscillation or
        non-integrable singularities under the tail measure).
        """
        from scipy.integrate import quad  # deferred: scipy is slow to import

        mu0, alpha = self.mu0, self.alpha

        def integrand(u: float) -> float:
            return g(mu0 * u ** (-1.0 / alpha))

        result = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=tol,
                      limit=limit, full_output=1)
        value, abserr = float(result[0]), float(result[1])
        if not np.isfinite(value):
            raise QuadratureNoConvergenceError("expectation quadrature diverged")
        if abserr > tol * max(abs(value), np.finfo(float).tiny):
            detail = result[3].splitlines()[0] if len(result) > 3 else ""
            raise QuadratureNoConvergenceError(
                f"quadrature error bound {abserr:g} exceeds relative tolerance "
                f"{tol:g} for value {value:g} {detail}"
            )
        return value

    def expect_windowed(
        self,
        g: Callable[[np.ndarray], np.ndarray],
        *,
        oscillation_period: float = np.inf,
        tol: float = 1e-9,
        max_windows: int = 50_000,
    ) -> float:
        """Expectation of a bounded, eventually-oscillating g.

        Blind adaptive quadrature can extrapolate straight through an
        oscillating heavy tail and report a wildly optimistic error bound
        (the compactified integrand looks like a clean endpoint
        singularity at every scale it samples). When the caller knows the
        oscillation period -- here, set by the spread of the overlap
        phases -- the tail can instead be integrated panel by panel, each
        panel at most an eighth of a period wide so fixed Gauss nodes
        resolve it to round-off, truncating only once the remaining tail
        mass times the observed magnitude of g is below ``tol`` relative.

        Panels grow geometrically from mu0 until the period cap takes
        over, so the power-law head is resolved as well. Requires g
        bounded on the support. g is called once per panel with the
        array of its nodes and returns the array of its values there.
        """
        nodes, weights = _GAUSS_NODES
        mu0, alpha = self.mu0, self.alpha
        cap = oscillation_period / 8.0
        acc = 0.0
        g_max = 0.0
        a = mu0
        for _ in range(max_windows):
            b = a + min(0.5 * a, cap)
            half = 0.5 * (b - a)
            mus = 0.5 * (a + b) + half * nodes
            vals = np.asarray(g(mus), dtype=float)
            density = alpha * mu0**alpha * mus ** (-1.0 - alpha)
            acc += half * float(np.dot(weights, vals * density))
            g_max = max(g_max, float(np.max(np.abs(vals))))
            a = b
            tail_bound = (mu0 / a) ** alpha * 2.0 * max(g_max, 1e-300)
            if tail_bound <= tol * max(abs(acc), np.finfo(float).tiny):
                return float(acc)
        raise QuadratureNoConvergenceError(
            f"tail not exhausted after {max_windows} windows (reached mu = {a:g})"
        )


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

    def expect(self, g: Callable[[float], float]) -> float:
        return float(g(self.mu_bar))


IntervalDistribution = Union[DiscreteIntervals, PowerLawIntervals, DegenerateInterval]
