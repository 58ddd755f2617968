"""Independent oracles for the test suite.

Everything here deliberately avoids the code paths under test: the
propagator oracle is a truncated Taylor series in extended precision,
ln q at long intervals comes from mpmath's matrix exponential, eigenvalues come from characteristic-polynomial roots, two-level results
are hand-derived closed forms, and small-m rate functions are exact
binomial enumerations.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

TWO_PI = 2.0 * math.pi

#: 3-level chain parameters used throughout: coupling 2*pi*100 kHz and
#: level frequencies 2*pi*(30, 20, 10) kHz
CHAIN_COUPLING = TWO_PI * 100e3
CHAIN_OMEGAS = (TWO_PI * 30e3, TWO_PI * 20e3, TWO_PI * 10e3)

NS = 1e-9
US = 1e-6

#: two-atom waiting-time benchmark: atoms (1, 3) ns with probs (0.3, 0.7)
D2_VALUES_S = (1 * NS, 3 * NS)
D2_PROBS = (0.3, 0.7)
D3_VALUES_S = (1 * NS, 3 * NS, 2 * NS)
D3_PROBS = (0.3, 0.2, 0.5)
D4_VALUES_S = (1 * NS, 3 * NS, 2 * NS, 0.5 * NS)
D4_PROBS = (0.3, 0.2, 0.05, 0.45)


def chain_matrix() -> np.ndarray:
    """The benchmark 3-level chain Hamiltonian as a plain matrix."""
    h = np.diag(np.asarray(CHAIN_OMEGAS, dtype=complex))
    h[0, 1] = h[1, 0] = CHAIN_COUPLING
    h[1, 2] = h[2, 1] = CHAIN_COUPLING
    return h


def taylor_propagator(h: np.ndarray, mu: float, terms: int = 40, dps: int = 50) -> np.ndarray:
    """exp(-i h mu) summed term by term at ``dps`` decimal digits.

    Completely independent of the eigendecomposition route; at the method
    scales used here (|h mu| << 1) forty terms are far past machine
    convergence.
    """
    with mp.workdps(dps):
        n = h.shape[0]
        hm = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                hm[i, j] = mp.mpc(complex(h[i, j]))
        z = mp.mpc(0, -float(mu))
        acc = mp.eye(n)
        term = mp.eye(n)
        for k in range(1, terms + 1):
            term = (term * hm) * (z / k)
            acc = acc + term
        return np.array(
            [[complex(acc[i, j]) for j in range(n)] for i in range(n)], dtype=complex
        )


def expm_log_q(h: np.ndarray, psi: np.ndarray, mu: float, dps: int = 40) -> float:
    """ln |<psi| exp(-i h mu) |psi>|^2 from mpmath's matrix exponential.

    ``expm`` scales and squares, so unlike the Taylor propagator it
    converges at |h mu| >> 1. The state is renormalized at ``dps`` digits:
    a float vector is a unit vector only to round-off, and that round-off
    would otherwise swamp ln q at tiny mu.
    """
    with mp.workdps(dps):
        n = h.shape[0]
        hm = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                hm[i, j] = mp.mpc(complex(h[i, j]))
        p = mp.matrix([mp.mpc(complex(a)) for a in psi])
        p = p / mp.sqrt(mp.fsum(abs(a) ** 2 for a in p))
        amp = (p.H * mp.expm(hm * mp.mpc(0, -float(mu))) * p)[0]
        return float(mp.log(abs(amp) ** 2))


def characteristic_cubic_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 Hermitian matrix via det(h - x I) root finding.

    Builds the characteristic cubic from trace, the sum of principal 2x2
    minors, and the determinant, then finds its roots with the companion
    method. Independent of any Jacobi iteration.
    """
    assert h.shape == (3, 3)
    c2 = float(np.trace(h).real)
    minors = 0.0
    for i in range(3):
        idx = [k for k in range(3) if k != i]
        sub = h[np.ix_(idx, idx)]
        minors += float((sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]).real)
    det = float(np.linalg.det(h).real)
    # det(h - x) = -x^3 + c2 x^2 - minors x + det
    roots = np.roots([-1.0, c2, -minors, det])
    return np.sort(roots.real)


def two_level_q(omega: float, mu) -> np.ndarray:
    """Rabi survival for H = omega * sigma_x from state |0>: cos^2(omega mu)."""
    return np.cos(omega * np.asarray(mu, dtype=float)) ** 2


def overlap_amplitude(h: np.ndarray, psi: np.ndarray, mu: float) -> complex:
    """<psi| exp(-i h mu) |psi> through the Taylor oracle."""
    u = taylor_propagator(h, mu)
    return complex(np.vdot(psi, u @ psi))


def expectation_variance(h: np.ndarray, psi: np.ndarray) -> float:
    """<H^2> - <H>^2 by explicit matrix products (H @ H), no eigensystem."""
    h2 = h @ h
    e1 = float(np.vdot(psi, h @ psi).real)
    e2 = float(np.vdot(psi, h2 @ psi).real)
    return e2 - e1 * e1


def binomial_rate_enumeration(
    p1: float, logq1: float, logq2: float, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact distribution of the intensive log-survival for two atoms.

    Enumerates every split k (occurrences of atom 1), giving
    x_k = (k logq1 + (m-k) logq2)/m with exact binomial weight. Returns
    (x, probability, shifted rate) where the rate is -(1/m) ln P shifted
    to zero at its minimum.
    """
    ks = np.arange(m + 1)
    probs = np.array(
        [math.comb(m, int(k)) * p1**int(k) * (1 - p1) ** int(m - k) for k in ks]
    )
    xs = (ks * logq1 + (m - ks) * logq2) / m
    rates = -np.log(probs) / m
    rates -= rates.min()
    return xs, probs, rates
