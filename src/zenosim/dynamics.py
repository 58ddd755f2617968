"""Unitary dynamics interrupted by projective measurements.

A pure state evolves under a fixed Hamiltonian for a random interval, a
projective measurement asks "is the system still in the initial state?",
and the cycle repeats. For a rank-1 projector the probability that all m
measurements succeed factorizes,

    P({mu_j}) = prod_j q(mu_j),    q(mu) = |<psi0| exp(-i H mu) |psi0>|^2,

so sequences are evaluated as products of scalar overlaps. The full
matrix-chain evaluation (projector-propagator products and a trace) is
kept as an independent cross-check path.

All times are in seconds and all energies in rad/s (hbar = 1); ordinary
frequencies are converted with omega = 2*pi*f at the construction
boundary, never internally.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import SpectralDecomposition, as_complex_matrix, hermitian_eig, propagator

__all__ = [
    "DimensionMismatchError",
    "EmptySpectrumError",
    "NotNormalizedError",
    "ZeroVarianceError",
    "UnderflowWarning",
    "PureState",
    "Hamiltonian",
    "SequenceResult",
    "build_chain_hamiltonian",
    "entangled_initial_state",
    "survival_factor",
    "log_survival_factor",
    "log_survival_factors",
    "survival_minima",
    "delta_of_mu",
    "evolve_sequence",
    "survival_trace",
    "energy_variance",
    "zeno_time",
    "phase_weights",
]

#: linear-domain survival below this triggers UnderflowWarning
UNDERFLOW_FLOOR = 1e-300
#: phase weights at or below this are eigensolver round-off (``phase_weights``)
_WEIGHT_FLOOR = 1e-28
#: support levels closer than this many eps max|lambda| are one level
#: (``phase_weights``): ``eigh`` resolves no finer
_MERGE_ULPS = 8


class DimensionMismatchError(ValueError):
    """State and operator act on Hilbert spaces of different dimension."""


class EmptySpectrumError(ValueError):
    """A Hamiltonian needs at least one level."""


class NotNormalizedError(ValueError):
    """State vector norm is not 1 within tolerance."""


class ZeroVarianceError(ValueError):
    """Energy variance vanishes: the state is an eigenstate and never decays."""


class UnderflowWarning(RuntimeWarning):
    """Linear-domain survival underflowed; use the log-domain value."""


@dataclass(frozen=True)
class PureState:
    """Normalized state vector in an n-dimensional Hilbert space."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size < 1 or not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be a nonempty finite vector")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > 1e-12:
            raise NotNormalizedError(f"|psi|^2 = {norm_sq!r} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return int(self.amplitudes.shape[0])

    def density_matrix(self) -> np.ndarray:
        """Rank-1 density matrix |psi><psi|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True)
class Hamiltonian:
    """Hermitian generator of the unitary evolution, in rad/s.

    The spectral decomposition is computed once at construction and
    cached; propagators and overlap amplitudes are synthesized from it.
    """

    matrix: np.ndarray
    spec: SpectralDecomposition = field(repr=False)

    @classmethod
    def from_matrix(cls, matrix) -> "Hamiltonian":
        m = as_complex_matrix(matrix)
        return cls(matrix=m, spec=hermitian_eig(m))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class SequenceResult:
    """Outcome of one measurement sequence.

    ``survival`` is the linear-domain product of the per-interval factors
    (it may underflow for very long sequences; ``log_survival`` is then
    the quantity to use). ``total_time`` sums the intervals in their
    given order. The post-measurement state is always psi0 (up to a
    global phase), so it is not recorded.
    """

    survival: float
    log_survival: float
    total_time: float
    factors: np.ndarray


def build_chain_hamiltonian(omegas, coupling: float) -> Hamiltonian:
    """Nearest-neighbor chain: level energies on the diagonal, one
    uniform coupling on the first off-diagonals.

    ``omegas`` are the level frequencies in rad/s; ``coupling`` is the
    inter-level coupling in rad/s. Hermitian by construction.
    """
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    if om.size == 0:
        raise EmptySpectrumError("need at least one level energy")
    n = om.size
    h = np.diag(om.astype(complex))
    idx = np.arange(n - 1)
    h[idx, idx + 1] = coupling
    h[idx + 1, idx] = coupling
    return Hamiltonian.from_matrix(h)


def entangled_initial_state(
    a1: complex | None = None, a2: complex | None = None
) -> PureState:
    """Superposition of the outer levels of a 3-level chain.

    With no arguments, the balanced combination (1, 0, 1)/sqrt(2), which
    is entangled with respect to the first-site/rest bipartition when the
    levels are read as one-excitation product states. General amplitudes
    (a1, a2) build a1|100> + a2|001> and must satisfy |a1|^2+|a2|^2 = 1.
    """
    if a1 is None and a2 is None:
        r = math.sqrt(0.5)  # correctly rounded 1/sqrt(2)
        return PureState(np.array([r, 0.0, r], dtype=complex))
    if a1 is None or a2 is None:
        raise ValueError("provide both amplitudes or neither")
    return PureState(np.array([a1, 0.0, a2], dtype=complex))  # norm checked there


def phase_weights(h: Hamiltonian, psi0: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Support of the spectral measure of psi0: ``(lam, w)``, lam ascending,
    with w_k = |<v_k|psi0>|^2 > ``_WEIGHT_FLOOR``, so that
    <psi0|exp(-iHmu)|psi0> = sum_k w_k exp(-i lam_k mu). Every consumer
    takes it as it is: its size is the kernel's cost, and an eigenstate's
    has one energy (lam_0 == lam_-1). ``eigh`` leaves weights near eps^2
    where psi0 is orthogonal to an eigenvector; dropping total weight eps
    lowers delta(mu), a sum of non-negative pair terms, by at most 4 eps
    and moves the amplitude by at most eps, under its 1e-16 round-off for
    fewer than 10^12 levels.

    ``eigh`` splits a degenerate level by about eps max|lam|, so adjacent
    support levels at most ``_MERGE_ULPS`` = 8 eps max|lam| apart are
    joined: the lowest keeps its energy and takes their summed weight.
    Merging levels g apart drops their pair term, 4 w_j w_k sin^2(g mu/2)
    <= w_j w_k (g mu)^2, and moves every other gap by at most g, as the
    eigensolver's own error already does. So a state in a degenerate
    eigenspace has one energy, and ``zeno_time`` raises for it.
    """
    if h.dim != psi0.dim:
        raise DimensionMismatchError(
            f"state dim {psi0.dim} != Hamiltonian dim {h.dim}"
        )
    c = h.spec.eigenvectors.conj().T @ psi0.amplitudes
    w = np.abs(c) ** 2
    kept = w > _WEIGHT_FLOOR
    lam, w = h.spec.eigenvalues[kept], w[kept]
    tol = _MERGE_ULPS * 2.0**-52 * float(np.abs(h.spec.eigenvalues).max())
    apart = np.diff(lam) > tol
    if apart.all():
        return lam, w
    firsts = np.flatnonzero(np.concatenate(([True], apart)))
    return lam[firsts], np.add.reduceat(w, firsts)


def _pairs(lam: np.ndarray, w: np.ndarray) -> list[tuple[float, float, float]]:
    """(lam_k - lam_j, w_j, w_k) for each level pair j < k, in row-major order."""
    lam, w = lam.tolist(), w.tolist()
    return [(lam[k] - lam[j], w[j], w[k]) for j in range(len(lam))
            for k in range(j + 1, len(lam))]


def _variance(lam: np.ndarray, w: np.ndarray) -> float:
    """sum_k w_k (lam_k - <H>)^2 over a support, from lam_0: one energy gives 0."""
    shift = lam - lam[0]
    return float(np.dot(w, (shift - np.dot(w, shift)) ** 2))


def log_survival_factors(
    lam: np.ndarray, w: np.ndarray, mus: np.ndarray
) -> np.ndarray:
    """ln q(mu) for every interval in ``mus``, given the phase weights.

    This is the package's only evaluation of the survival factor; the
    scalar helpers, the sequence evaluator, the large-deviation problems
    and the Monte Carlo driver all call it. The decay probability is a
    sum of non-negative pair terms,

        delta(mu) = 1 - q(mu) = sum_{j<k} 4 w_j w_k sin^2((lam_k - lam_j) mu / 2),

    so small deltas keep full relative precision and nothing needs a
    clamp. Where delta < 1/2 the result is log1p(-delta); elsewhere q is
    formed from the amplitude a = sum_k w_k exp(-i (lam_k - lam_0) mu) as
    Re^2 a + Im^2 a, which stays accurate near the zeros of q and gives
    -inf on an exact zero. Every entry depends on its own mu alone, so
    results do not depend on how intervals are batched into calls.

    ``(lam, w)`` is the support ``phase_weights`` returns; the cost grows
    with the square of its size. The first pair is written into delta
    directly, as 0.0 + t == t for the non-negative pair terms t.
    """
    mus = np.asarray(mus, dtype=float)
    pairs = [(0.5 * gap, 4.0 * w_j * w_k) for gap, w_j, w_k in _pairs(lam, w)]
    delta = term = None
    for half_gap, pair_w in pairs:
        if term is None:
            term = np.empty(mus.shape)
        np.multiply(half_gap, mus, out=term)
        np.sin(term, out=term)
        np.square(term, out=term)
        term *= pair_w
        if delta is None:
            delta, term = term, None  # the first pair fills delta itself
        else:
            delta += term
    if delta is None:  # an eigenstate: no pair decays
        delta = np.zeros(mus.shape)
    far = delta >= 0.5
    out = np.negative(delta, out=delta)  # the result reuses delta's buffer
    np.log1p(out, out=out, where=~far)
    if np.any(far):
        far_mus = mus[far]
        re = np.full(far_mus.shape, float(w[0]))
        im = np.zeros(far_mus.shape)
        for shift, weight in zip((lam[1:] - lam[0]).tolist(), w[1:].tolist()):
            phase = shift * far_mus
            re += weight * np.cos(phase)
            im += weight * np.sin(phase)
        with np.errstate(divide="ignore"):
            out[far] = np.log(re * re + im * im)
    return out


def survival_minima(lam: np.ndarray, w: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Local minima of q, one in each step of the increasing ``grid`` where
    dq/dmu = -1/2 sum_{j<k} 4 w_j w_k g sin(g mu), g = lam_k - lam_j (the
    kernel's pair sums), turns non-negative; bisection on its sign narrows
    each step to adjacent doubles and returns the upper one. ``(lam, w)``
    is the support ``phase_weights`` returns."""
    terms = [(gap, -2.0 * w_j * w_k * gap) for gap, w_j, w_k in _pairs(lam, w)]
    grid = np.asarray(grid, dtype=float)
    if lam[0] == lam[-1]:  # an eigenstate: q = 1 has no minima
        return grid[:0]

    def rising(mus: np.ndarray) -> np.ndarray:
        return sum(coeff * np.sin(gap * mus) for gap, coeff in terms) >= 0.0

    up = rising(grid)
    at = np.flatnonzero(~up[:-1] & up[1:])
    lo, hi = grid[at], grid[at + 1]
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        up = rising(mid)
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        mid = 0.5 * (lo + hi)
    return hi


def _interval_sequence(intervals) -> np.ndarray:
    """``intervals`` as a nonempty 1-d array of non-negative finite floats."""
    mus = np.atleast_1d(np.asarray(intervals, dtype=float))
    if mus.size == 0:
        raise ValueError("interval sequence must be nonempty")
    if not np.all((mus >= 0.0) & (mus < math.inf)):  # NaN fails too
        raise ValueError("intervals must be non-negative and finite")
    return mus


def log_survival_factor(h: Hamiltonian, psi0: PureState, mu: float) -> float:
    """ln q(mu) for one interval; -inf where the overlap vanishes."""
    return float(log_survival_factors(*phase_weights(h, psi0), _interval_sequence(mu))[0])


def survival_factor(h: Hamiltonian, psi0: PureState, mu: float) -> float:
    """Single-interval survival probability q(mu) = |<psi0|U(mu)|psi0>|^2."""
    return math.exp(log_survival_factor(h, psi0, mu))


def delta_of_mu(h: Hamiltonian, psi0: PureState, mu: float) -> float:
    """Decay probability delta(mu) = 1 - q(mu), accurate for small mu.

    For mu -> 0 this behaves as (mu/tau_Z)^2 with tau_Z the Zeno time.
    Recovered as -expm1(ln q), so tiny deltas keep full relative precision.
    """
    return -math.expm1(log_survival_factor(h, psi0, mu))


def evolve_sequence(h: Hamiltonian, psi0: PureState, intervals) -> SequenceResult:
    """Run one full measurement sequence and collect survival data.

    The survival probability is accumulated both as a linear-domain
    product of the per-interval factors and as a sum of their logs; the
    two agree except when the product underflows, in which case an
    ``UnderflowWarning`` is emitted and ``log_survival`` remains exact.
    """
    mus = _interval_sequence(intervals)
    log_factors = log_survival_factors(*phase_weights(h, psi0), mus)
    factors = np.exp(log_factors)
    survival = float(np.prod(factors))
    if survival < UNDERFLOW_FLOOR:
        warnings.warn(
            "linear-domain survival underflowed; use log_survival",
            UnderflowWarning,
            stacklevel=2,
        )
    return SequenceResult(
        survival=survival,
        log_survival=float(np.sum(log_factors)),
        total_time=float(sum(mus.tolist())),  # left-to-right, input order
        factors=factors,
    )


def survival_trace(h: Hamiltonian, psi0: PureState, intervals) -> float:
    """Survival probability by the explicit matrix chain.

    Builds (P U_m) ... (P U_1), applies it to the initial density matrix
    and takes the trace. Independent of the scalar-overlap fast path in
    ``evolve_sequence``; the two must agree to round-off and are compared
    in tests as a correctness witness.
    """
    mus = _interval_sequence(intervals)
    if h.dim != psi0.dim:
        raise DimensionMismatchError(
            f"state dim {psi0.dim} != Hamiltonian dim {h.dim}"
        )
    p = psi0.density_matrix()  # the projector and the initial state alike
    chain = np.eye(h.dim, dtype=complex)
    for mu in mus:
        chain = (p @ propagator(h.spec, float(mu))) @ chain
    rho = chain @ p @ chain.conj().T
    return float(np.trace(rho).real)


def energy_variance(h: Hamiltonian, psi0: PureState) -> float:
    """<H^2> - <H>^2 as sum_k w_k (lam_k - <H>)^2 over the support of
    ``phase_weights``, with no cancellation of <H>^2 against <H^2>: exactly
    0 for an eigenstate (one energy), whose dynamics is frozen."""
    return _variance(*phase_weights(h, psi0))


def zeno_time(h: Hamiltonian, psi0: PureState) -> float:
    """Zeno time tau_Z = (  <H^2> - <H>^2  )^(-1/2) in the given state.

    The energy variance sets the small-interval decay scale via
    delta(mu) ~ (mu/tau_Z)^2. Raises ``ZeroVarianceError`` when psi0 is
    an eigenstate (frozen dynamics, infinite Zeno time).
    """
    lam, w = phase_weights(h, psi0)
    if lam[0] == lam[-1]:
        raise ZeroVarianceError("state is an eigenstate; energy variance vanishes")
    return _variance(lam, w) ** -0.5
