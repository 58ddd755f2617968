"""Independent oracles for the test suite.

Everything here deliberately avoids the code paths under test: the
propagator oracle is a truncated Taylor series in extended precision,
ln q at long intervals comes from mpmath's matrix exponential,
eigenvalues come from characteristic-polynomial roots, two-level results
are hand-derived closed forms, small-m rate functions are exact
binomial enumerations, and power-law E[ln q] is a composite
Gauss-Legendre rule on a 40-digit eigensystem, with the zeros of q found
by ``mpmath.findroot``, or, for a state that weighs two levels and any
alpha, tanh-sinh quadrature over the first periods and a Hurwitz zeta
series over the rest.
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


def same_bits(a, b) -> bool:
    """Whether two float arrays (or sequences) have the same shape and bits."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def float_atoms(probs, u) -> np.ndarray:
    """The atom of each uniform ``u`` by inverse-CDF lookup on float
    cumulative edges, right-closed: ``searchsorted`` of u on
    ``np.cumsum(probs)`` with the last edge set to exactly 1, above every
    uniform, against round-off."""
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="left")


class FixedWords:
    """Generator stand-in whose ``bit_generator.random_raw`` returns preset
    raw 64-bit words, for a law's ``sample`` on chosen words."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, m):
        assert m == self.words.size
        return self.words.copy()


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


def _expm_q(h: np.ndarray, psi: np.ndarray, mu: float):
    """|<psi| exp(-i h mu) |psi>|^2 at mpmath's working precision."""
    n = h.shape[0]
    hm = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            hm[i, j] = mp.mpc(complex(h[i, j]))
    p = mp.matrix([mp.mpc(complex(a)) for a in psi])
    p = p / mp.sqrt(mp.fsum(abs(a) ** 2 for a in p))
    return abs((p.H * mp.expm(hm * mp.mpc(0, -float(mu))) * p)[0]) ** 2


def expm_log_q(h: np.ndarray, psi: np.ndarray, mu: float, dps: int = 40) -> float:
    """ln |<psi| exp(-i h mu) |psi>|^2 from mpmath's matrix exponential.

    ``expm`` scales and squares, so unlike the Taylor propagator it
    converges at |h mu| >> 1. The state is renormalized at ``dps`` digits:
    a float vector is a unit vector only to round-off, and that round-off
    would otherwise swamp ln q at tiny mu.
    """
    with mp.workdps(dps):
        return float(mp.log(_expm_q(h, psi, mu)))


def expm_log_mean_q(h: np.ndarray, psi: np.ndarray, values, probs, dps: int = 40) -> float:
    """ln sum_a p_a q(mu_a) for a discrete law, q from mpmath's matrix
    exponential at ``dps`` digits and the state renormalized there, as in
    ``expm_log_q``. The probabilities are renormalized at ``dps`` digits
    too: the floats 0.3 and 0.7 sum to 1 - 5.6e-17 exactly, a defect that
    alone would move ln sum p q by 1.1e-11 relative where 1 - q is 5e-6."""
    with mp.workdps(dps):
        qs = [_expm_q(h, psi, mu) for mu in values]
        ps = [mp.mpf(float(pa)) for pa in probs]
        return float(mp.log(mp.fsum(pa * q for pa, q in zip(ps, qs)) / mp.fsum(ps)))


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


def xx_chain_matrix(n: int, coupling: float, field: float) -> np.ndarray:
    """H = field sum_i Z_i + coupling sum_i (X_i X_i+1 + Y_i Y_i+1) / 2 on an
    open chain of n qubits, built entry by entry in the computational
    basis (bit i of the index set: qubit i excited, Z = -1). The hopping
    term moves one excitation across a bond with amplitude ``coupling``."""
    dim = 1 << n
    index = np.arange(dim)
    bits = (index[:, None] >> np.arange(n)) & 1
    h = np.diag(field * (n - 2 * bits.sum(axis=1))).astype(complex)
    for i in range(n - 1):
        hops = np.flatnonzero(bits[:, i] != bits[:, i + 1])
        h[hops, hops ^ (3 << i)] = coupling
    return h


def one_excitation_state(site_amps) -> np.ndarray:
    """The n-qubit vector sum_s a_s |s>, |s> the state with only qubit s
    excited, from the site amplitudes a_s (the W state: all 1/sqrt(n))."""
    n = len(site_amps)
    psi = np.zeros(1 << n, dtype=complex)
    psi[1 << np.arange(n)] = site_amps
    return psi


def one_excitation_spectrum(site_amps, coupling: float, field: float, dps: int = 40):
    """The levels and weights of a one-excitation state of ``xx_chain_matrix``
    in closed form, at ``dps`` digits: the sector is a tight-binding chain
    with modes phi_k(s) = sqrt(2/(n+1)) sin(k s pi/(n+1)) and energies
    (n-2) field + 2 coupling cos(k pi/(n+1)), k, s = 1..n. Returns the
    (energy, weight) pairs of the modes the state weighs, weight above
    1e-30 (the W state weighs odd k only), in mpmath numbers."""
    n = len(site_amps)
    with mp.workdps(dps):
        theta = mp.pi / (n + 1)
        out = []
        for k in range(1, n + 1):
            amp = mp.sqrt(mp.mpf(2) / (n + 1)) * mp.fsum(
                mp.sin(k * s * theta) * mp.mpf(a) for s, a in enumerate(site_amps, 1))
            if abs(amp) ** 2 > mp.mpf(10) ** -30:
                out.append(((n - 2) * mp.mpf(field) + 2 * mp.mpf(coupling) * mp.cos(k * theta),
                            amp ** 2))
        return out


def one_excitation_log_q(site_amps, coupling: float, field: float, mus,
                         dps: int = 40) -> np.ndarray:
    """ln q(mu) = ln |sum_k w_k exp(-i E_k mu)|^2 from the closed form of
    ``one_excitation_spectrum``, at ``dps`` digits, with the weights
    scaled to sum to 1 (float amplitudes such as 1/sqrt(n) miss it by an
    ulp, which would rival ln q at short mu)."""
    levels = one_excitation_spectrum(site_amps, coupling, field, dps)
    with mp.workdps(dps):
        norm = mp.fsum(wk for _, wk in levels)
        return np.array([float(mp.log(abs(mp.fsum(wk * mp.expj(-ek * mp.mpf(mu))
                                                  for ek, wk in levels) / norm) ** 2))
                         for mu in np.asarray(mus, dtype=float).tolist()])


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


def two_atom_rate(probs, logq, x: float, dps: int = 40) -> float:
    """Rate of a two-atom law at x in closed form, at ``dps`` digits.

    Two atoms pin the occupation fractions, f_1 = (ln q_2 - x) /
    (ln q_2 - ln q_1) and f_2 = 1 - f_1, and I(x) = KL(f || p); every
    float input is taken exactly.
    """
    with mp.workdps(dps):
        (p1, p2), (lq1, lq2) = ([mp.mpf(float(v)) for v in pair] for pair in (probs, logq))
        x = mp.mpf(float(x))
        f1, f2 = (lq2 - x) / (lq2 - lq1), (x - lq1) / (lq2 - lq1)
        return float(f1 * mp.log(f1 / p1) + f2 * mp.log(f2 / p2))


def tilted_rate(probs, logq, x: float, dps: int = 40) -> float:
    """Legendre rate -ln sum_a p_a e^(t s_a), s_a = ln q_a - x, at the tilt
    t solving sum_a p_a s_a e^(t s_a) = 0, found by 300 bisection steps
    from a doubling bracket at ``dps`` digits; float inputs taken exactly."""
    with mp.workdps(dps):
        p = [mp.mpf(float(v)) for v in probs]
        s = [mp.mpf(float(v)) - mp.mpf(float(x)) for v in logq]

        def slope(t):
            return mp.fsum(pa * sa * mp.exp(t * sa) for pa, sa in zip(p, s))

        lo, hi = mp.mpf(-1), mp.mpf(1)
        while slope(lo) > 0:
            lo *= 2
        while slope(hi) < 0:
            hi *= 2
        for _ in range(300):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) < 0 else (lo, mid)
        t = (lo + hi) / 2
        return float(-mp.log(mp.fsum(pa * mp.exp(t * sa) for pa, sa in zip(p, s))))


def powerlaw_expect_log_q(h: np.ndarray, psi: np.ndarray, mu0: float, alpha: float,
                          rel_target: float = 1e-11, order: int = 24,
                          dps: int = 40) -> float:
    """E[ln q] under the power law p(mu) = alpha mu0^alpha / mu^(1+alpha), mu >= mu0.

    The eigenpairs of h come from mpmath at ``dps`` digits, so that
    q(mu) = |a(mu)|^2 with a(mu) = sum_k w_k exp(-i lam_k mu). Minima of q
    are bracketed where dq/dmu = 2 Re(conj(a) a') turns from negative to
    non-negative on a grid of period/64 steps (period = 2 pi /
    (lam_max - lam_min)), and each is refined by ``mpmath.findroot`` on
    dq/dmu at ``dps`` digits. Those with q < 1e-3, log singularities of
    ln q, become panel edges, with more edges period/32 * 2^-k away on
    both sides (k = 0..24; nearer, float64 round-off in the phases, about
    1e-16 of them, is no longer small against q). Other panels grow by a
    quarter from mu0 until they are period/32 wide and keep that width up
    to the cut. Each panel takes ``order`` Gauss-Legendre nodes; ln q is
    evaluated there in float64 from the ``dps``-digit eigensystem (the
    pair form of 1 - q below 1/2, the amplitude elsewhere) and summed with
    ``math.fsum``.

    The tail past the cut c is the mean of ln q over the last 16 periods
    times the tail mass (mu0/c)^alpha. For a periodic q that step is off
    by about that tail times alpha period / c; the cut puts this, with 4
    as a bound on the mean of |ln q|, below ``rel_target`` times the part
    of |E[ln q]| on [mu0, 2 mu0].
    """
    if not alpha > 2.0:
        raise ValueError("the oracle's cut needs alpha > 2")
    with mp.workdps(dps):
        n = h.shape[0]
        hm = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                hm[i, j] = mp.mpc(complex(h[i, j]))
        evals, evecs = mp.eighe(hm)
        p = mp.matrix([mp.mpc(complex(a)) for a in psi])
        p = p / mp.sqrt(mp.fsum(abs(a) ** 2 for a in p))
        lam_mp = [mp.re(e) for e in evals]
        w_mp = [abs(mp.fsum(mp.conj(evecs[r, k]) * p[r] for r in range(n))) ** 2
                for k in range(n)]

        def slope_mp(mu):
            terms = [wk * mp.expj(-lk * mu) for wk, lk in zip(w_mp, lam_mp)]
            damp = mp.fsum(lk * t for lk, t in zip(lam_mp, terms))
            return 2 * mp.im(mp.conj(mp.fsum(terms)) * damp)

        def q_mp(mu):
            return abs(mp.fsum(wk * mp.expj(-lk * mu) for wk, lk in zip(w_mp, lam_mp))) ** 2

    lam = np.array([float(x) for x in lam_mp])
    w = np.array([float(x) for x in w_mp])
    j, k = np.triu_indices(n, 1)
    gaps, pair_w = lam[k] - lam[j], 4.0 * w[j] * w[k]

    def log_q(mus: np.ndarray) -> np.ndarray:
        delta = np.sin(0.5 * np.multiply.outer(mus, gaps)) ** 2 @ pair_w
        far = delta >= 0.5
        out = np.log1p(-np.where(far, 0.0, delta))
        amp = np.exp(-1j * np.multiply.outer(mus[far], lam)) @ w
        out[far] = np.log(amp.real ** 2 + amp.imag ** 2)
        return out

    def slope(mus: np.ndarray) -> np.ndarray:
        phase = np.exp(-1j * np.multiply.outer(mus, lam))
        return 2.0 * (np.conj(phase @ w) * (phase @ (-1j * lam * w))).real

    x, wx = np.polynomial.legendre.leggauss(order)

    def integral(edges: np.ndarray, weighted: bool = True) -> float:
        terms = []
        for s in range(0, edges.size - 1, 4096):
            a, b = edges[s:-1][:4096], edges[s + 1:][:4096]
            half = 0.5 * (b - a)[:, None]
            mus = (0.5 * (a + b)[:, None] + half * x).ravel()
            wts = (half * wx).ravel()
            if weighted:
                wts = wts * alpha * mu0 ** alpha * mus ** (-1.0 - alpha)
            terms.extend((wts * log_q(mus)).tolist())
        return math.fsum(terms)

    period = 2.0 * math.pi / float(lam.max() - lam.min())
    width = period / 32.0
    lower = -integral(mu0 * 2.0 ** (np.arange(9) / 8.0))
    cut = (4.0 * alpha * period * mu0 ** alpha / (rel_target * lower)) ** (1.0 / (alpha + 1.0))
    head = [mu0]
    while 0.25 * head[-1] < width:
        head.append(1.25 * head[-1])
    body = head[-1] + width * np.arange(max(512, math.ceil((cut - head[-1]) / width)) + 1)
    cut = float(body[-1])
    grid = np.arange(mu0, cut, period / 64.0)
    rising = slope(grid) >= 0.0
    zeros = []
    for i in np.flatnonzero(~rising[:-1] & rising[1:]).tolist():
        with mp.workdps(dps):
            z = mp.findroot(slope_mp, (mp.mpf(float(grid[i])), mp.mpf(float(grid[i + 1]))),
                            solver="anderson", tol=mp.mpf(10) ** -30)
            if q_mp(z) < mp.mpf("1e-3"):
                zeros.append(float(z))
    zs = np.array(zeros)
    offsets = width * 2.0 ** -np.arange(25)
    graded = np.concatenate([zs, (zs[:, None] - offsets).ravel(), (zs[:, None] + offsets).ravel()])
    edges = np.unique(np.concatenate([head[:-1], body, graded[(graded > mu0) & (graded < cut)]]))
    window = edges[edges >= body[-513]]
    mean_log_q = integral(window, weighted=False) / (window[-1] - window[0])
    return integral(edges) + mean_log_q * (mu0 / cut) ** alpha


def two_level_expect_log_q(h: np.ndarray, psi: np.ndarray, mu0: float, alpha: float,
                           zeros: int = 4, terms: int = 40, dps: int = 30) -> float:
    """E[ln q] under the power law p(mu) = alpha mu0^alpha / mu^(1+alpha),
    mu >= mu0, for a state that weighs two levels of h, any alpha > 0.

    The eigenpairs come from mpmath at ``dps`` digits; the two largest
    weights, scaled to sum to 1, are the support (the rest must be below
    1e-25). With x = (lam_1 - lam_0) mu / 2, ln q = L(x) =
    ln((w0 - w1)^2 + 4 w0 w1 cos^2 x), of period pi, and the law is
    alpha x0^alpha x^(-1-alpha) dx on [x0, inf). Tanh-sinh quadrature
    covers x0 to the first ``zeros`` zeros of cos past it, whose log
    singularities it takes at panel ends. The periods past them are
    centred on c_k = (N + k) pi, k >= 0, where L(c_k + y) = L(y) is even
    in y on [-pi/2, pi/2]; expanding (c_k + y)^(-1-alpha) in y gives
    sum over even j of binomial(-1-alpha, j) M_j c_k^(-1-alpha-j), with
    M_j = int y^j L(y) dy, and the sum over k of c_k^(-s) is
    pi^(-s) zeta(s, N), the Hurwitz zeta function. The series in j, the
    first ``terms``, falls as (2N)^-j.
    """
    with mp.workdps(dps):
        n = h.shape[0]
        hm = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                hm[i, j] = mp.mpc(complex(h[i, j]))
        evals, evecs = mp.eighe(hm)
        p = mp.matrix([mp.mpc(complex(a)) for a in psi])
        p = p / mp.sqrt(mp.fsum(abs(a) ** 2 for a in p))
        weights = [abs(mp.fsum(mp.conj(evecs[r, k]) * p[r] for r in range(n))) ** 2
                   for k in range(n)]
        order = sorted(range(n), key=lambda k: weights[k])
        assert all(weights[k] < mp.mpf("1e-25") for k in order[:-2])
        k0, k1 = order[-2:]
        w0, w1 = weights[k0], weights[k1]
        w0, w1 = w0 / (w0 + w1), w1 / (w0 + w1)
        a = mp.mpf(float(alpha))
        x0 = abs(mp.re(evals[k1]) - mp.re(evals[k0])) * mp.mpf(float(mu0)) / 2

        def log_q(x):
            return mp.log((w0 - w1) ** 2 + 4 * w0 * w1 * mp.cos(x) ** 2)

        first = int(mp.floor((x0 - mp.pi / 2) / mp.pi)) + 1  # first zero above x0
        ends = [x0] + [mp.pi / 2 + (first + k) * mp.pi for k in range(zeros)]
        body = mp.quad(lambda x: x ** (-1 - a) * log_q(x), ends)
        big_n = first + zeros  # c_0 = N pi, half a period past the last zero
        tail = mp.fsum(
            mp.binomial(-1 - a, j) * 2 * mp.quad(lambda y: y ** j * log_q(y), [0, mp.pi / 2])
            * mp.pi ** (-1 - a - j) * mp.zeta(1 + a + j, big_n)
            for j in range(0, terms, 2))
        return float(a * x0 ** a * (body + tail))
