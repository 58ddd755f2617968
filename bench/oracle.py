"""Reference values computed apart from zenosim.

Nothing here imports zenosim. The survival factor
q(mu) = |<psi0| exp(-i H mu) |psi0>|^2 comes from mpmath: its matrix
exponential at 40 digits for single points (``System.log_q_exact``), and
its 40-digit eigendecomposition of H for vectorized grids
(``System.log_q``), which the constructor checks against the matrix
exponential. Realizations are replayed from ``numpy.random.Philox`` keyed
by ``(master_seed, realization_index)`` with this module's own
inverse-CDF maps and stop rule.
"""

from __future__ import annotations

import math
from itertools import accumulate

import mpmath
import numpy as np
from numpy.random import Generator, Philox
from scipy.optimize import brentq

_MASK64 = (1 << 64) - 1
_DPS = 40
#: documented relative slack of zenosim's fixed-T budget comparison
BUDGET_SLACK = 1e-12


class System:
    """Nearest-neighbour chain with level frequencies and one coupling,
    all in Hz, and real initial amplitudes (normalized here)."""

    def __init__(self, omegas_hz=(30e3, 20e3, 10e3), coupling_hz=100e3,
                 amplitudes=(1.0, 0.0, 1.0)):
        n = len(omegas_hz)
        with mpmath.workdps(_DPS):
            two_pi = 2 * mpmath.pi
            h = mpmath.matrix(n, n)
            for k, om in enumerate(omegas_hz):
                h[k, k] = two_pi * mpmath.mpf(om)
            for k in range(n - 1):
                h[k, k + 1] = h[k + 1, k] = two_pi * mpmath.mpf(coupling_hz)
            amps = [mpmath.mpf(a) for a in amplitudes]
            norm = mpmath.sqrt(mpmath.fsum(a * a for a in amps))
            psi = mpmath.matrix([a / norm for a in amps])
            evals, evecs = mpmath.eigsy(h)
            weights = [mpmath.fsum(evecs[r, k] * psi[r] for r in range(n)) ** 2
                       for k in range(n)]
        self._h, self._psi = h, psi
        self.lam = np.array([float(e) for e in evals])
        self.w = np.array([float(x) for x in weights])
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        self._pair_gap = np.array([self.lam[k] - self.lam[j] for j, k in pairs])
        self._pair_w = np.array([4.0 * self.w[j] * self.w[k] for j, k in pairs])
        self.period = 2.0 * math.pi / float(self.lam.max() - self.lam.min())
        probes = np.array([1e-9, 3e-9, 2.5e-7, 1.7e-6, 1e-5, 4.4e-5, 2.8e-3])
        exact = np.array([self.log_q_exact(float(mu)) for mu in probes])
        if not np.allclose(self.log_q(probes), exact, rtol=1e-11, atol=0.0):
            raise AssertionError("spectral ln q disagrees with the matrix exponential")

    def log_q_exact(self, mu: float) -> float:
        """ln q(mu) from the 40-digit matrix exponential."""
        with mpmath.workdps(_DPS):
            u = mpmath.expm(-1j * self._h * mpmath.mpf(mu))
            amp = (self._psi.T * u * self._psi)[0]
            return float(mpmath.log(abs(amp) ** 2))

    def log_q(self, mus) -> np.ndarray:
        """ln q on an array of intervals, from the mpmath eigensystem.

        1 - q = sum_{j<k} 4 w_j w_k sin^2((lam_k - lam_j) mu / 2) is a sum of
        non-negative terms, so small decay probabilities keep full
        relative precision; where q < 1/2 it is formed from the amplitude.
        """
        mus = np.asarray(mus, dtype=float)
        half = np.sin(0.5 * np.multiply.outer(mus, self._pair_gap))
        delta = (half * half) @ self._pair_w
        out = np.empty_like(delta)
        small = delta < 0.5
        out[small] = np.log1p(-delta[small])
        if not np.all(small):
            far = mus[~small]
            amp = np.exp(-1j * np.multiply.outer(far, self.lam - self.lam[0])) @ self.w
            with np.errstate(divide="ignore"):
                out[~small] = np.log(amp.real ** 2 + amp.imag ** 2)
        return out

    def _dq(self, mus: np.ndarray) -> np.ndarray:
        """dq/dmu, with q = 1 - sum_{j<k} 4 w_j w_k sin^2(gap_jk mu / 2)."""
        return -0.5 * np.sin(np.multiply.outer(mus, self._pair_gap)) @ (self._pair_w * self._pair_gap)

    def near_zeros(self, lo: float, hi: float, q_floor: float = 1e-3) -> list[float]:
        """Local minima of q in [lo, hi] where q < q_floor (log singularities)."""
        grid = np.arange(lo, hi, self.period / 64.0)
        slope = self._dq(grid)
        out = []
        for k in np.nonzero((slope[:-1] < 0) & (slope[1:] >= 0))[0]:
            x = brentq(lambda mu: float(self._dq(np.array(mu))), grid[k], grid[k + 1],
                       xtol=1e-300, rtol=1e-15)
            if self.log_q(np.array([x]))[0] < math.log(q_floor):
                out.append(x)
        return out


def stream(master_seed: int, index: int) -> Generator:
    """The generator of realization ``index`` under ``master_seed``."""
    return Generator(Philox(key=((master_seed & _MASK64) << 64) | (index & _MASK64)))


def discrete_indices(u: np.ndarray, probs) -> np.ndarray:
    """Atom index of each uniform: right-closed bins (c_{a-1}, c_a]."""
    cum = list(accumulate(float(p) for p in probs))
    idx = np.zeros(u.shape, dtype=np.int64)
    for edge in cum[:-1]:
        idx += u > edge
    return idx


def powerlaw_times(u: np.ndarray, mu0: float, alpha: float) -> np.ndarray:
    """Inverse CDF of p(mu) = alpha mu0^alpha / mu^(1+alpha) on [mu0, inf)."""
    return mu0 * np.exp(-np.log1p(-u) / alpha)


def replay_fixed_m_discrete(log_q_atoms, probs, master_seed, index, m):
    """(atom counts, L) of one fixed-m realization of a discrete law."""
    idx = discrete_indices(stream(master_seed, index).random(m), probs)
    counts = np.bincount(idx, minlength=len(probs))
    return counts, math.fsum(c * lq for c, lq in zip(counts.tolist(), log_q_atoms))


def replay_fixed_m_powerlaw(sysm: System, master_seed, index, m, mu0, alpha) -> float:
    """L of one fixed-m realization of a power law."""
    mus = powerlaw_times(stream(master_seed, index).random(m), mu0, alpha)
    return math.fsum(sysm.log_q(mus).tolist())


def replay_fixed_t_powerlaw(sysm: System, master_seed, index, t_total, mu0, alpha):
    """(m, T, L) of one fixed-T power-law realization.

    Draws in blocks of 64 and keeps the first k intervals, where k is the
    smallest count whose next interval would take the exactly rounded
    (``math.fsum``) total past the budget.
    """
    gen = stream(master_seed, index)
    limit = t_total * (1.0 + BUDGET_SLACK)
    mus = np.empty(0)
    while math.fsum(mus) <= limit:
        mus = np.concatenate([mus, powerlaw_times(gen.random(64), mu0, alpha)])
    k = int(np.searchsorted(np.cumsum(mus), limit, side="right"))
    while k > 0 and math.fsum(mus[:k]) > limit:
        k -= 1
    while math.fsum(mus[: k + 1]) <= limit:
        k += 1
    kept = mus[:k]
    return k, math.fsum(kept), math.fsum(sysm.log_q(kept).tolist())


def _gauss_panels(edges: np.ndarray, order: int):
    """Nodes and weights of a composite Gauss-Legendre rule on ``edges``."""
    x, w = np.polynomial.legendre.leggauss(order)
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * x).ravel(), (half * w).ravel()


def powerlaw_expect_log_q(sysm: System, mu0: float, alpha: float,
                          rel_target: float = 1e-9, order: int = 24) -> float:
    """E[ln q] under the power law, by composite Gauss-Legendre.

    Panels grow geometrically from mu0 until they reach period/32, then
    stay at that width. Every near-zero of q (an integrable log
    singularity) becomes a panel edge, and panels are graded
    geometrically toward it. The range is cut where the remaining tail
    mass times 4, a bound on |ln q| averaged over a period (2 ln 2 for the
    default system), falls below ``rel_target`` of |E[ln q]|, estimated by
    its small-interval form Var(H) E[mu^2].
    """
    width = sysm.period / 32.0
    head = [mu0]
    while head[-1] * 0.25 < width:
        head.append(head[-1] * 1.25)
    small_scale = -float(np.dot(sysm.w, sysm.lam ** 2) - np.dot(sysm.w, sysm.lam) ** 2)
    estimate = abs(small_scale) * alpha * mu0 ** 2 / max(alpha - 2.0, 0.1)
    cut = mu0 * (4.0 / (rel_target * estimate)) ** (1.0 / alpha)
    body = np.arange(head[-1], cut + width, width)
    pieces = [np.array(head[:-1]), body]
    grade = 2.0 ** -np.arange(1, 41)
    for z in sysm.near_zeros(head[-1], cut):
        k = np.searchsorted(body, z)
        lo, hi = body[k - 1], body[k]
        pieces.append(np.concatenate([z - (z - lo) * grade, [z], z + (hi - z) * grade]))
    edges = np.unique(np.concatenate(pieces))
    nodes, weights = _gauss_panels(edges, order)
    density = alpha * mu0 ** alpha * nodes ** (-1.0 - alpha)
    return math.fsum((weights * density * sysm.log_q(nodes)).tolist())
