"""Probability distributions over inter-measurement waiting times.

Two families ship: a discrete distribution over d positive atoms (the
d-outcome Bernoulli case), and a continuous power law on [mu0, inf). The
point mass that models equally spaced measurements is the one-atom
discrete law. Each offers sampling against an explicit generator handle,
exact moments, and the survival averages E[ln q] and ln E[q] for given
phase weights (``log_q_moments``). Monte Carlo ensembles hand each law
rows of raw 64-bit Philox words, word x standing for the uniform
(x >> 11) 2^-53 that ``Generator.random`` makes of it, and get back an
additive statistic per row (``row_stats``), which sums over any cut of a
row, and finish it into the row's total time and log survival
(``row_sums``). For the discrete law the statistic is the row's atom
counts n_a, counted against integer edges on the words themselves,
which determine T = sum n_a mu_a and L = sum n_a ln q_a, with ln q
evaluated once per atom; for the power law it is (sum mu, sum ln q),
the kernel run on every draw.
The power law's moments come from one composite Gauss-Legendre rule with
panels graded toward the zeros of q, each only as deep as its share of
the error budget needs, and a tail past the cut that is added in closed
form where q is periodic (two levels) and dropped otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from numpy.random import Generator

from .dynamics import _variance, log_survival_factors, survival_minima
from .rng import uniforms_from_words, word_threshold

__all__ = [
    "InfiniteMeanError",
    "InfiniteSecondMomentError",
    "QuadratureNoConvergenceError",
    "DiscreteIntervals",
    "PowerLawIntervals",
    "DegenerateInterval",
    "IntervalDistribution",
]

#: the 16-point Gauss-Legendre rule of every power-law panel, (nodes, weights)
#: on [-1, 1], bit for bit what numpy's ``leggauss(16)`` returns; the rule is
#: symmetric, so the literals are its positive nodes and their weights
_GAUSS_HALF = (
    ("0x1.852bd6676a9f9p-4", "0x1.83feae80e4e01p-3"),
    ("0x1.205cae642337cp-2", "0x1.75f8c77e0c011p-3"),
    ("0x1.d50259a43a772p-2", "0x1.5a6ebbb5a7600p-3"),
    ("0x1.3c5a466d5e8b8p-1", "0x1.325f61bca3cbep-3"),
    ("0x1.82c45dda4726bp-1", "0x1.fe7af2bad3878p-4"),
    ("0x1.bb3403514e483p-1", "0x1.85c4ee79cc24bp-4"),
    ("0x1.e39f56616f9b0p-1", "0x1.fdfb1a2c1261ep-5"),
    ("0x1.fa92c264d787ep-1", "0x1.bcddab4b7c228p-6"),
)
_half = np.array([[float.fromhex(x) for x in pair] for pair in _GAUSS_HALF])
_GAUSS_NODES = (np.concatenate((-_half[::-1, 0], _half[:, 0])),
                np.concatenate((_half[::-1, 1], _half[:, 1])))
del _half
#: the rule's error on the integral of ln x over [0, h], per unit h (about
#: 2.3e-3): a log singularity at a panel's end, as at a zero of q
_LOG_EDGE_ERROR = abs(1.0 + 0.5 * float(_GAUSS_NODES[1] @ np.log(0.5 + 0.5 * _GAUSS_NODES[0])))
#: power-law body panels are this fraction of the period of q
_PANEL_FRACTION = 1.0 / 8.0
#: minima of q below this are panel edges, with panels graded toward them
_Q_FLOOR = 1e-3
#: graded edges in body panels off a minimum, k levels deep taking the first
#: k + 1 (each divides the log-endpoint error by 8; nearer than the last,
#: kernel round-off rivals q)
_GRADING = 8.0 ** -np.arange(9)
#: the dropped power-law tail, relative to the moments' scale
_TAIL_TOL = 1e-10
#: most power-law body panels, checked before any kernel call
_MAX_PANELS = 32_768
#: quadrature nodes per kernel call
_QUAD_SLAB = 8192
#: most words a power law maps at a time, whole rows (or one longer row), so
#: it holds a slab's uniforms and kernel temporaries, not a block's
_WORD_SLAB = 16_384


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
    probabilities (summing to 1). Sampling and ``row_stats`` share one
    rule, on raw Philox words: a word's atom is the number of the d - 1
    inner cumulative edges its uniform is above, counted against integer
    edges worked out once per law (``word_threshold``), so results are
    reproducible across platforms.
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
        if not np.all((pr > 0) & (pr <= 1)):  # so NaN fails too
            raise ValueError("probabilities must lie in (0, 1]")
        if abs(float(pr.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {pr.sum()!r}, not 1 within 1e-12")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "probs", pr)
        inner = np.cumsum(pr)[:-1].tolist()
        object.__setattr__(self, "_word_edges", [word_threshold(c) for c in inner])

    @property
    def d(self) -> int:
        return int(self.values.size)

    def sample(self, rng: Generator, m: int) -> np.ndarray:
        """Draw m i.i.d. waiting times via inverse-CDF lookup.

        Right-closed intervals (c_{a-1}, c_a]: the atom of a draw is the
        number of inner cumulative edges c below its uniform
        u = (x >> 11) 2^-53, counted as ``row_stats`` counts it, on the
        raw word x of ``rng``'s stream that ``Generator.random`` would
        turn into u, against the integer edges G (x > G).
        """
        if m < 1:
            raise ValueError("need at least one draw")
        x = rng.bit_generator.random_raw(m)
        atoms = np.zeros(m, dtype=np.intp)
        for edge in self._word_edges:
            atoms += x > edge
        return self.values[atoms]

    def row_stats(self, x: np.ndarray, lam: np.ndarray, w: np.ndarray,
                  ends: list[int]) -> np.ndarray:
        """Atom counts n_a of each row of raw Philox words (the last axis
        of the uint64 array ``x``) up to each of the increasing ``ends``,
        as floats along a new last axis, one end
        after another along a new first axis: exact below 2^53, so counts
        of any cut of a row add up to the row's in any order.

        A word falls in the atom ``sample`` gives its uniform
        u = (x >> 11) 2^-53, the number of cumulative edges c below u:
        each of the d - 1 inner edges is one comparison x > G of the words
        against the integer edge G of c (``word_threshold``), worked out
        once per law, into one reused mask, counted per row between one
        end and the next; the counts up to an end add up those pieces. No
        uniform is made. (lam, w), what ``phase_weights`` returns, is not
        read.
        """
        cuts = [0, *ends]
        above = np.zeros((len(cuts) - 1, *x.shape[:-1], self.d + 1))  # in atoms k, k + 1, ...
        axis = -1 if x.size > x.shape[-1] else None  # one row counts whole, 3x faster
        words = x[..., :cuts[-1]]
        mask = np.empty(words.shape, dtype=bool)
        for k, edge in enumerate(self._word_edges, 1):
            np.greater(words, edge, out=mask)
            for j in range(len(cuts) - 1):
                above[j, ..., k] = np.count_nonzero(mask[..., cuts[j]:cuts[j + 1]], axis=axis)
        for j in range(len(cuts) - 1):
            above[j, ..., 0] = cuts[j + 1] - cuts[j]
        if len(cuts) > 2:
            np.cumsum(above, axis=0, out=above)
        return above[..., :-1] - above[..., 1:]

    def row_sums(
        self, stats: np.ndarray, lam: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(total time, log survival) of rows with atom counts ``stats``.

        Each is sum_a n_a (mu_a, ln q_a), added left to right in atom order
        over the atoms the row visits, so an atom with ln q = -inf (an
        overlap zero) that a row never visits leaves its L finite. ln q is
        evaluated once per atom for all rows, on (lam, w) of ``phase_weights``.
        """
        table = log_survival_factors(lam, w, self.values).tolist()
        totals, logs = np.zeros(stats.shape[:-1]), np.zeros(stats.shape[:-1])
        term = np.empty(stats.shape[:-1])
        for a, (mu, log_q) in enumerate(zip(self.values.tolist(), table)):
            counts = stats[..., a]
            seen = counts > 0
            for acc, value in ((totals, mu), (logs, log_q)):
                np.multiply(counts, value, out=term, where=seen)
                np.add(acc, term, out=acc, where=seen)
        return totals, logs

    def mean(self) -> float:
        return float(np.dot(self.probs, self.values))

    def second_moment(self) -> float:
        return float(np.dot(self.probs, self.values**2))

    def log_q_moments(self, lam: np.ndarray, w: np.ndarray) -> tuple[float, float]:
        """E[ln q] and ln E[q], from the kernel once per atom on (lam, w) of phase_weights."""
        return _atom_moments(self.probs, log_survival_factors(lam, w, self.values))


@dataclass(frozen=True)
class PowerLawIntervals:
    """Heavy-tailed waiting times: p(mu) = alpha/(mu0 (mu/mu0)^(1+alpha)).

    Supported on [mu0, inf) with mu0 in seconds and alpha > 0. The mean
    exists only for alpha > 1 and the second moment only for alpha > 2.
    A draw is mu0 (1 - u)^(-1/alpha) for a uniform u on [0, 1), so the
    largest is mu0 2^(53/alpha); ``ValueError`` where it, or the power
    before it is scaled by mu0, overflows a double, as for any alpha
    below 53/1024 (about 0.052).
    """

    mu0: float
    alpha: float

    def __post_init__(self):
        if not (self.mu0 > 0 and np.isfinite(self.mu0)):
            raise ValueError("mu0 must be a positive time scale")
        if not (self.alpha > 0 and np.isfinite(self.alpha)):
            raise ValueError("alpha must be positive")
        # the largest draw, from the largest uniform below 1, 1 - 2^-53
        with np.errstate(over="ignore"):
            top = self._inverse_cdf(np.array([1.0 - 2.0**-53]))[0]
        if not np.isfinite(top):
            raise ValueError(f"mu0 = {self.mu0} s and alpha = {self.alpha} make the largest "
                             f"draw, mu0 2^(53/alpha), overflow a double")

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

    def row_stats(self, x: np.ndarray, lam: np.ndarray, w: np.ndarray,
                  ends: list[int]) -> np.ndarray:
        """(sum mu, sum ln q) of each row of raw Philox words (the rows of
        the uint64 (rows, k) array ``x``) up to each of the increasing
        ``ends``, at most k, along a new last axis, one end after
        another along a new first axis; the kernel runs once on every
        draw up to the last end, on (lam, w) of ``phase_weights``, and
        each prefix is summed by ``np.sum``, which gives a prefix view of
        a row the bits of the same words summed alone.

        The words are only read: slabs of whole rows, at most
        ``_WORD_SLAB`` words each (one row where a row has more), become
        the uniforms ``Generator.random`` makes of them
        (``uniforms_from_words``), then the waiting times, in new arrays
        one slab at a time, so a row has the bits of ``sample`` and no
        copy of the whole block is held.
        """
        top, rows = ends[-1], x.shape[0]
        step = max(1, _WORD_SLAB // top)
        stats = np.empty((len(ends), rows, 2))
        for r in range(0, rows, step):
            mus = self._inverse_cdf(uniforms_from_words(x[r:r + step, :top]))
            log_q = log_survival_factors(lam, w, mus)
            for j, e in enumerate(ends):
                stats[j, r:r + step, 0] = mus[:, :e].sum(axis=-1)
                stats[j, r:r + step, 1] = log_q[:, :e].sum(axis=-1)
        return stats

    def row_sums(
        self, stats: np.ndarray, lam: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(total time, log survival) of rows with statistics ``stats``; (lam, w) is unread."""
        return stats[..., 0], stats[..., 1]

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
        """E[ln q] and ln E[q] under the power law, for (lam, w) of
        ``phase_weights`` (``ValueError`` if a weight is not positive); an
        eigenstate, whose support has one energy, gives (0, 0).

        One composite Gauss-Legendre rule on [mu0, cut]: panels grow by
        half from mu0 up to ``_PANEL_FRACTION`` of the period
        2 pi / (lam_max - lam_min), and keep that width; each minimum of q
        below ``_Q_FLOOR``, a log singularity of ln q, is an edge, with
        edges the first k + 1 of ``_GRADING`` panels to either side.

        Grading: the rule errs by C h on the integral of ln x over [0, h]
        (C = ``_LOG_EDGE_ERROR``, about 2.3e-3, from the nodes), and an
        edge at h/8 divides that by 8. Near a zero of q, ln q is
        2 ln|mu - mu_min| plus a smooth part, so a minimum graded k levels
        deep errs by at most 4 C W 8^-k p on its two sides, W the body
        panel width and p the density at the near end of its span,
        mu_min - W. Each of the n deep minima before the cut gets the
        fewest k, at most 8, that keep this within an equal share
        ``_TAIL_TOL`` S / n of the budget the cut spends (S the scale
        below): a minimum j periods out, which the density weighs about
        j^-(1 + alpha) as much as the first, gets few levels or none.

        The tail past the cut c takes one of two rules, and the cut puts
        that rule's error bound at ``_TAIL_TOL`` times S = min(V mu0^2, 1),
        V the energy variance: about the least 1 - q near mu0, below
        E[1 - q] <= |E[ln q]|.

        Closed, where the support has two levels: q = w0^2 + w1^2 +
        2 w0 w1 cos((lam_1 - lam_0) mu) has the period P, and the rule adds
        the tail as (mu0/c)^alpha, its mass, times each moment's mean over
        a period: g = 2 ln max(w0, w1) for ln q (Jensen's formula),
        2 w0 w1 for 1 - q and w0^2 + w1^2 for q. What that misses is the
        integral of p (f - mean f) past c. Let F be the antiderivative of
        f - mean f that vanishes at c; it is periodic, so by parts the
        miss is -int_c^inf p' F, at most p(c) sup|F| with
        p(c) = (alpha/mu0)(mu0/c)^(1+alpha). F over a period rises and
        falls by half of int_P |f - mean f| each, so sup|F| is at most
        that half, at most P max(|g|, 2 w0 w1), as ln q <= 0 and
        0 <= 1 - q <= 1.

        Truncated, where the support has three or more levels and q is
        quasi-periodic: the tail is dropped. It is about (mu0/c)^alpha
        times the mean of -ln q >= 1 - q over time, -2 ln M with M the
        Mahler measure of sum_k w_k z_k on the torus the phases fill. M is
        at least w_v, the larger end weight w_0 or w_-1 (a vertex of the
        Newton polytope), and q >= (1 - 2r)^2 if the weights but the
        largest sum to r < 1/2: B, the smaller bound, is -2 ln w_v or
        -2 ln(1 - 2r), and the error bound is B (mu0/c)^alpha.

        A cut more than ``_MAX_PANELS`` body panels away, as for
        alpha <= 1.5 on the default chain, raises
        ``QuadratureNoConvergenceError`` before any kernel call, naming
        the tail rule and the panels the cut needs.
        """
        if not np.all(w > 0.0):
            raise ValueError("phase weights must be positive: pass what phase_weights returns")
        if lam[0] == lam[-1]:
            return 0.0, 0.0
        variance = _variance(lam, w)
        mu0, alpha = self.mu0, self.alpha
        period = 2.0 * math.pi / float(lam[-1] - lam[0])
        width = _PANEL_FRACTION * period
        head = mu0 * 1.5 ** np.arange(max(0, math.ceil(math.log(2.0 * width / mu0, 1.5))) + 1)
        scale = min(variance * mu0 * mu0, 1.0)
        # the tail past the cut c errs by at most size (mu0/c)^power
        closed = lam.size == 2
        if closed:  # period means of (ln q, 1 - q, q), and the bound P max(|g|, 2 w0 w1) p(c)
            w0, w1 = w.tolist()
            g, spread = 2.0 * math.log(max(w0, w1)), 2.0 * w0 * w1
            means = np.array([g, spread, w0 * w0 + w1 * w1])
            size, power = alpha / mu0 * period * max(-g, spread), 1.0 + alpha
        else:  # B of the docstring, the dropped mass's; r is summed without cancellation
            size, power = -2.0 * math.log(max(w[0], w[-1])), alpha
            rest = float(np.sort(w)[:-1].sum())
            if rest < 0.5:
                size = min(size, -2.0 * math.log1p(-2.0 * rest))
        try:
            cut = mu0 * (size / (_TAIL_TOL * scale)) ** (1.0 / power)
        except OverflowError:  # far past any panel budget
            cut = math.inf
        panels = (cut - head[-1]) / width
        if panels > _MAX_PANELS:
            raise QuadratureNoConvergenceError(
                f"alpha = {alpha}: the {'closed' if closed else 'truncated'} tail needs "
                f"{panels:.1e} panels, more than {_MAX_PANELS}")
        panels = max(1, math.ceil(panels))
        edges = np.concatenate((head[:-1], head[-1] + width * np.arange(panels + 1)))
        minima = survival_minima(lam, w, edges)
        minima = minima[log_survival_factors(lam, w, minima) < math.log(_Q_FLOOR)]
        # each minimum's bound with no level, 4 C W p; k, the least level
        # count with bound 8^-k within the share (8 at most), takes the
        # first k + 1 grading edges to either side
        near = np.maximum(minima - width, mu0)
        error = 4.0 * _LOG_EDGE_ERROR * width * (alpha / mu0) * (mu0 / near) ** (1.0 + alpha)
        share = _TAIL_TOL * scale / max(minima.size, 1)
        levels = np.count_nonzero(error[:, None] * _GRADING[:-1] > share, axis=1)
        depth = np.tile(np.arange(_GRADING.size), 2)
        graded = minima[:, None] + width * np.concatenate((-_GRADING, _GRADING))
        graded = np.concatenate((minima, graded[depth <= levels[:, None]]))
        graded = graded[(graded > mu0) & (graded < edges[-1])]

        def moments(mus: np.ndarray) -> np.ndarray:
            log_q = log_survival_factors(lam, w, mus)
            return np.stack((log_q, -np.expm1(log_q), np.exp(log_q)))

        edges = np.unique(np.concatenate((edges, graded)))
        sums = self.expect_windowed(moments, edges=edges)
        if closed:
            sums = sums + means * (mu0 / edges[-1]) ** alpha
        mean_log_q, mean_delta, mean_q = sums
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


class DegenerateInterval(DiscreteIntervals):
    """Point mass: every waiting time equals mu_bar (equally spaced), the
    discrete law with the one atom mu_bar of probability 1."""

    def __init__(self, mu_bar: float):
        super().__init__(np.array([mu_bar], dtype=float), np.ones(1))

    @property
    def mu_bar(self) -> float:
        return float(self.values[0])

    # its own class attribute, so tracers find it by name; every draw is mu_bar
    sample = DiscreteIntervals.sample


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


IntervalDistribution = Union[DiscreteIntervals, PowerLawIntervals]
