"""Large-deviation statistics of the survival probability.

For i.i.d. waiting times drawn from a discrete distribution, the
intensive log-survival x = L/m = (1/m) sum_j ln q(mu_j) concentrates as
the number of measurements m grows, with fluctuations governed by a rate
function: P(x) ~ exp(-m I(x)). Two constructions of I are provided.

* ``rate_function_I`` follows the explicit occupation-count recipe: the
  deviation is attributed across atoms through

      f_a = (ln q_d - x) / ((d-1)(ln q_d - ln q_a)),  a < d,
      f_d = 1 - sum f_a,

  and I(x) is the Kullback-Leibler divergence of f from the atom
  probabilities p. For d = 2 the occupation constraints pin f uniquely;
  for d > 2 this particular split is one admissible solution, on the
  simplex only for some x (``explicit_domain``).

* ``cramer_rate`` is the classical tilting construction for i.i.d. sums:
  find the exponential tilt whose mean matches x (bisection inside a
  closed-form bracket) and Legendre-transform the cumulant generating
  function (Dembo & Zeitouni, Thm. 2.2.3). It is the true minimum over all
  admissible occupation vectors, hence a lower bound on (and at d = 2
  equal to) the explicit construction. The two serve as mutual oracles.

Both take a float or an array of x. An array is one pass over the grid,
each entry with the bits of a call on that entry alone, so
``rate_curve`` makes one call per curve.

Alongside the rate functions live the closed-form summary statistics:
most probable and mean survival (geometric vs arithmetic average of q
under the waiting-time law), the joint rate function at fixed total time
for laws of one or two atoms with its contraction back to I, the
fixed-time count reconstruction, and the frequent-measurement (Zeno)
limits. For every law L* = m E[ln q] and ln<P> = m ln E[q], from one
pair of averages (``log_q_moments``).

Everything is carried in the log domain; exponentiation happens only at
presentation boundaries, since realistic m underflow doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    Hamiltonian,
    PureState,
    energy_variance,
    log_survival_factor,
    log_survival_factors,
    phase_weights,
    zeno_time,
)
from .intervals import DiscreteIntervals, IntervalDistribution

__all__ = [
    "OutOfRangeError",
    "RootBracketFailureError",
    "InconsistentConstraintsError",
    "InvalidMeanError",
    "LdProblem",
    "RateCurve",
    "rate_function_I",
    "explicit_domain",
    "cramer_rate",
    "rate_curve",
    "rate_function_J",
    "SurvivalStats",
    "survival_stats_for",
    "joint_rate_function",
    "contracted_rate",
    "FixedTimeSolution",
    "fixed_time_solve_m",
    "EquallySpacedResult",
    "equally_spaced_survival",
    "QzeCondition",
    "qze_condition",
    "DisorderGain",
    "disorder_gain",
]

#: atoms whose ln q differ by less than this are one level to the rate
#: functions (the occupation constraints are rank-deficient there)
LOGQ_MERGE_TOL = 1e-14
#: bisection aims for |tilted mean - x| at or below this
TILT_X_TOL = 1e-13


class OutOfRangeError(ValueError):
    """Requested point is outside the attainable range of the rate function."""


class RootBracketFailureError(RuntimeError):
    """Tilting root finder could not bracket or converge on the target mean."""


class InconsistentConstraintsError(ValueError):
    """No non-negative occupation counts satisfy the given (L, T) pair."""


class InvalidMeanError(ValueError):
    """Fixed-mean construction would need a non-positive second atom."""


@dataclass(frozen=True)
class LdProblem:
    """Discrete waiting-time law together with the per-atom log survivals.

    ``logq[a]`` is ln q(mu^(a)) for atom a of ``dist`` (all finite: atoms
    sitting exactly on a zero of the overlap are not admissible).

    ``probs`` and ``levels`` are the law as every rate function reads it:
    atoms whose ln q is within ``LOGQ_MERGE_TOL`` of an earlier level are
    indistinguishable to the log-survival statistics and join it, their
    probabilities summed. Listed order is kept, so the last level keeps the
    distinguished role in the f-construction. Where no two atoms merge the
    two equal ``dist.probs`` and ``logq`` exactly.
    """

    dist: DiscreteIntervals
    logq: np.ndarray
    probs: np.ndarray = field(init=False, repr=False, compare=False)
    levels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lq = np.atleast_1d(np.asarray(self.logq, dtype=float))
        if lq.shape != self.dist.values.shape:
            raise ValueError("logq must align with the distribution atoms")
        if not np.all(np.isfinite(lq)) or np.any(lq > 0):
            raise ValueError("each ln q must be finite and non-positive")
        probs, levels = [], []
        for p, level in zip(self.dist.probs.tolist(), lq.tolist()):
            for k, existing in enumerate(levels):
                if abs(existing - level) < LOGQ_MERGE_TOL:
                    probs[k] += p
                    break
            else:
                probs.append(p)
                levels.append(level)
        object.__setattr__(self, "logq", lq)
        object.__setattr__(self, "probs", np.asarray(probs))
        object.__setattr__(self, "levels", np.asarray(levels))

    @classmethod
    def for_system(
        cls, h: Hamiltonian, psi0: PureState, dist: DiscreteIntervals
    ) -> "LdProblem":
        """Evaluate ln q on the atoms of ``dist`` for the given system."""
        return cls(dist=dist, logq=log_survival_factors(*phase_weights(h, psi0), dist.values))


@dataclass(frozen=True)
class RateCurve:
    """Rate-function samples I(x) on a grid of intensive log-survivals."""

    xs: np.ndarray
    rates: np.ndarray


def _kl(f: np.ndarray, p: np.ndarray) -> np.ndarray:
    """KL(f || p) along the last axis, with 0 ln 0 = 0."""
    return np.sum(f * np.log(np.where(f > 0.0, f, 1.0) / p), axis=-1)


def _require(ok: np.ndarray, xs: np.ndarray, why: str) -> None:
    """Raise ``OutOfRangeError`` naming the first x where ``ok`` is false."""
    if not np.all(ok):
        at = int(np.flatnonzero(~ok)[0])
        raise OutOfRangeError(f"x = {float(xs.flat[at])!r} {why}")


def _like(x, values: np.ndarray):
    """``values`` as a float for a scalar x, else as an array of x's shape."""
    return float(values) if np.ndim(x) == 0 else values


def _explicit_fractions(prob: LdProblem, xs: np.ndarray):
    """(inside, f) of the problem's levels at each x: whether x lies in
    [min ln q, max ln q] up to round-off, and its occupation fractions
    along a new last axis (x snapped into that range, the last level
    distinguished; one fraction of 1 for a law of one level)."""
    p, logq = prob.probs, prob.levels
    lo, hi = float(np.min(logq)), float(np.max(logq))
    slack = 1e-15 * max(hi - lo, 1.0)
    inside = (xs >= lo - slack) & (xs <= hi + slack)
    if p.size == 1:
        return inside, np.ones((*xs.shape, 1))
    xs = np.clip(xs, lo, hi)  # snap boundary round-off back into range
    lq_d = logq[-1]
    f_head = (lq_d - xs[..., None]) / ((p.size - 1) * (lq_d - logq[:-1]))
    return inside, np.concatenate((f_head, 1.0 - f_head.sum(axis=-1, keepdims=True)), axis=-1)


def explicit_domain(prob: LdProblem, x):
    """Whether ``rate_function_I`` is defined at x, a float or an array:
    x inside [min ln q, max ln q] with its occupation fractions on the
    probability simplex. For d <= 2 that is the whole range; for d > 2 it
    is one interval of it, or none, as each fraction is affine in x."""
    xs = np.asarray(x, dtype=float)
    inside, f = _explicit_fractions(prob, xs)
    ok = inside & np.all(f >= -1e-12, axis=-1)
    return bool(ok) if np.ndim(x) == 0 else ok


def rate_function_I(prob: LdProblem, x):
    """Explicit rate function at intensive log-survival x, a float or an
    array (one value per entry, each the bits of a call on that entry).

    Builds the occupation fractions f from x (distinguishing the last
    level), then returns KL(f || p). Raises ``OutOfRangeError``,
    naming the first offending x, when x is outside [min ln q, max ln q]
    or, for d > 2, when this particular construction leaves the
    probability simplex (``explicit_domain`` says where it does not).
    """
    xs = np.asarray(x, dtype=float)
    inside, f = _explicit_fractions(prob, xs)
    lo, hi = float(np.min(prob.levels)), float(np.max(prob.levels))
    _require(inside, xs, f"outside attainable [{lo!r}, {hi!r}]")
    if prob.levels.size == 1:
        return _like(x, np.zeros(xs.shape))
    _require(np.all(f >= -1e-12, axis=-1), xs, "puts the occupation fractions off the simplex")
    return _like(x, _kl(np.clip(f, 0.0, None), prob.probs))


def _tilt_bracket(p: np.ndarray, logq: np.ndarray, xs: np.ndarray):
    """Tilts t_lo <= 0 <= t_hi around the root of sum_a p_a s_a e^(t s_a),
    s_a = ln q_a - x, for x inside (min ln q, max ln q).

    With up = max ln q - x and down = x - min ln q: for t >= t_hi the top
    atom's term p_top up e^(t up) >= down outweighs every negative term,
    and for t <= t_lo the bottom atom's term outweighs every positive one.
    An entry is inf when x is within round-off of an end.
    """
    up, down = np.max(logq) - xs, xs - np.min(logq)
    with np.errstate(over="ignore", divide="ignore"):
        t_hi = np.maximum(0.0, np.log(down / (p[np.argmax(logq)] * up)) / up)
        t_lo = np.minimum(0.0, -np.log(up / (p[np.argmin(logq)] * down)) / down)
    return t_lo, t_hi


def cramer_rate(prob: LdProblem, x):
    """Tilting (Legendre) rate sup_t [t x - ln sum_a p_a q_a^t] at x, a
    float or an array (one value per entry, each the bits of a call on
    that entry).

    With s_a = ln q_a - x the optimal tilt solves sum_a p_a s_a e^(t s_a)
    = 0, whose left side increases in t, and the rate is
    -ln sum_a p_a e^(t s_a). The root is bracketed in closed form
    (``_tilt_bracket``) and bisected, every x at once, until the bracket is
    at most 1e-15 max(|t|, 1) wide; its midpoint is accepted only if the
    tilted mean of ln q there is within ``TILT_X_TOL`` of x. x must lie in
    the open interval (min ln q, max ln q), except for a law of one level,
    whose rate is 0 at that point.
    """
    p, logq = prob.probs, prob.levels
    lo, hi = float(np.min(logq)), float(np.max(logq))
    xs = np.asarray(x, dtype=float)
    if logq.size == 1:
        _require(np.abs(xs - lo) <= LOGQ_MERGE_TOL, xs, f"is not the law's only ln q {lo!r}")
        return _like(x, np.zeros(xs.shape))
    _require((lo < xs) & (xs < hi), xs, f"outside open interval ({lo!r}, {hi!r})")
    t_lo, t_hi = _tilt_bracket(p, logq, xs)
    if not np.all(np.isfinite(t_lo) & np.isfinite(t_hi)):
        raise RootBracketFailureError("the tilt bracket overflows next to an end of the range")
    s = logq - xs[..., None]
    while True:
        t = 0.5 * (t_lo + t_hi)
        u = t[..., None] * s
        umax = np.max(u, axis=-1)
        wts = p * np.exp(u - umax[..., None])
        total = np.sum(wts, axis=-1)
        resid = np.sum(wts * s, axis=-1) / total  # tilted mean of ln q, minus x
        active = t_hi - t_lo > 1e-15 * np.maximum(np.maximum(np.abs(t_lo), np.abs(t_hi)), 1.0)
        if not np.any(active):
            break
        t_lo = np.where(active & (resid < 0.0), t, t_lo)
        t_hi = np.where(active & ~(resid < 0.0), t, t_hi)
    missed = ~(np.abs(resid) <= TILT_X_TOL)
    if np.any(missed):
        at = int(np.flatnonzero(missed)[0])
        raise RootBracketFailureError(
            f"x = {float(xs.flat[at])!r}: tilted mean missed x by "
            f"{float(resid.flat[at]):g} (> {TILT_X_TOL:g})"
        )
    return _like(x, -(umax + np.log(total)))


def rate_curve(prob: LdProblem, points: int = 200) -> RateCurve:
    """Sample ``cramer_rate`` on a uniform grid over its domain, in one
    call on the whole grid.

    The grid spans [min ln q + eps, max ln q - eps] with eps a 1e-9
    fraction of the range, keeping clear of the boundary where the
    tilting parameter diverges. For a law of one level, as a point mass,
    the domain is that one value and the curve one point. The explicit
    curve on the same grid is ``rate_function_I(prob, rate_curve(prob).xs)``.
    """
    lo, hi = float(np.min(prob.levels)), float(np.max(prob.levels))
    eps = 1e-9 * (hi - lo)
    xs = np.linspace(lo + eps, hi - eps, points if hi > lo else 1)
    return RateCurve(xs=xs, rates=cramer_rate(prob, xs))


def rate_function_J(prob: LdProblem, survival: float) -> float:
    """Decay rate of P(survival = P): the constraint L = m ln P pins the
    intensive variable, so this is I evaluated at ln P."""
    if not (0.0 < survival <= 1.0):
        raise OutOfRangeError("survival probability must be in (0, 1]")
    return rate_function_I(prob, math.log(survival))


@dataclass(frozen=True)
class SurvivalStats:
    """Most probable and mean survival, carried in the log domain.

    ``log_p_star`` is the geometric-mean (log-average) prediction for a
    single typical run; ``log_p_mean`` averages the survival itself over
    realizations. Jensen's inequality puts the mean at or above the most
    probable value, with equality only for degenerate waiting times.
    """

    log_p_star: float
    log_p_mean: float
    m: int

    @property
    def p_star(self) -> float:
        return math.exp(self.log_p_star)

    @property
    def p_mean(self) -> float:
        return math.exp(self.log_p_mean)

    @property
    def log_jensen_gap(self) -> float:
        return self.log_p_mean - self.log_p_star


def survival_stats_for(
    dist: IntervalDistribution, h: Hamiltonian, psi0: PureState, m: int
) -> SurvivalStats:
    """Survival statistics for any waiting-time law: L* = m E[ln q] and
    ln<P> = m ln E[q], from ``log_q_moments``. At m = 1, L* is the zero x*
    of the rate function. A power law whose tail is too heavy for its
    quadrature raises ``QuadratureNoConvergenceError``."""
    if m < 1:
        raise ValueError("m must be a positive count")
    mean_log_q, log_mean_q = dist.log_q_moments(*phase_weights(h, psi0))
    return SurvivalStats(log_p_star=m * mean_log_q, log_p_mean=m * log_mean_q, m=m)


def _joint_fractions(prob: LdProblem, x: float, y: float) -> np.ndarray:
    """Occupation fractions of the fixed-time construction at (x, y), for
    a law of one or two atoms."""
    mu = prob.dist.values
    logq = prob.logq
    if mu.size > 2:
        raise ValueError("the joint rate needs one or two atoms")
    if not (math.isfinite(x) and math.isfinite(y)):
        raise OutOfRangeError(f"(x, y) = ({x!r}, {y!r}) must be finite")
    if y <= 0.0:
        raise OutOfRangeError("intensive total time y must be positive")
    if mu.size == 1:
        if abs(x - logq[0]) <= LOGQ_MERGE_TOL and abs(y - mu[0]) <= 1e-12 * mu[0]:
            return np.array([1.0])
        raise OutOfRangeError("single-atom law attains only its own (x, y)")
    (mu1, mu2), (lq1, lq2) = mu.tolist(), logq.tolist()
    denom = (lq2 - x) * (mu2 - mu1) + y * (lq2 - lq1)
    if denom == 0.0:
        raise OutOfRangeError(f"(x, y) = ({x!r}, {y!r}) degenerates the construction")
    g1 = mu2 * (lq2 - x) / denom
    g = np.array([g1, 1.0 - g1])
    if np.any(g < -1e-12):
        raise OutOfRangeError(
            f"(x, y) = ({x!r}, {y!r}): fractions {g} leave the simplex"
        )
    return np.clip(g, 0.0, None)


def joint_rate_function(prob: LdProblem, x: float, y: float) -> float:
    """Rate of the pair (log-survival, total time), both per measurement,
    for a law of one or two atoms.

    The occupation fractions are

        g_1 = mu_2 (ln q_2 - x) /
              [ (ln q_2 - x)(mu_2 - mu_1) + y (ln q_2 - ln q_1) ]

    and g_2 = 1 - g_1, and the rate is KL(g || p). Both arguments are
    intensive: x = L/m, y = T/m in seconds. The paper's split of the
    deviation over d > 2 atoms is one particular solution, not the
    minimum, so more atoms raise ``ValueError``.

    At the time value consistent with the deviation, y = sum_a g_a mu_a,
    this reproduces the marginal rate I(x) exactly; sweeping y at fixed x
    re-weights the deviation instead of pricing an independent time
    fluctuation, so recovering I(x) by contraction must restrict y to
    the consistency set (see ``contracted_rate``). A non-finite x or y
    raises ``OutOfRangeError``.
    """
    g = _joint_fractions(prob, x, y)
    return float(_kl(g, prob.dist.probs))


def contracted_rate(prob: LdProblem, x: float) -> float:
    """Contract the joint rate over the time variable, for a two-atom law.

    The minimization over T/m keeps T at its conditional expectation:
    the admissible y solves y = sum_a g_a(x, y) mu_a. With two atoms
    ln q fixes the occupation fractions f of ``rate_function_I`` alone,
    so y* = f . mu, and the joint rate there is the marginal I(x); a
    non-finite x raises ``OutOfRangeError`` there. Other atom counts, and
    two atoms of one level, raise ``ValueError``, as ``fixed_time_solve_m``
    does.
    """
    if prob.dist.d != 2 or prob.levels.size != 2:
        raise ValueError("the contraction needs exactly two atoms of distinct ln q")
    (mu1, mu2), (lq1, lq2) = prob.dist.values.tolist(), prob.logq.tolist()
    f1 = (lq2 - x) / (lq2 - lq1)
    return joint_rate_function(prob, x, f1 * mu1 + (1.0 - f1) * mu2)


@dataclass(frozen=True)
class FixedTimeSolution:
    """Occupation counts reconstructed from (log-survival, total time).

    ``counts`` solve the linear constraints exactly and may be
    non-integer; ``nearest_counts`` rounds them to the closest admissible
    integers. ``m`` is the real-valued total count.
    """

    m: float
    counts: tuple[float, float]
    nearest_counts: tuple[int, int]

    @property
    def nearest_m(self) -> int:
        return int(self.nearest_counts[0] + self.nearest_counts[1])


def fixed_time_solve_m(
    prob: LdProblem, log_survival: float, total_time: float
) -> FixedTimeSolution:
    """Recover the measurement count from (L, T) for a two-atom law.

    With two atoms the constraints  n1 mu1 + n2 mu2 = T  and
    n1 ln q1 + n2 ln q2 = L  determine (n1, n2) uniquely; their sum is m.
    Raises ``InconsistentConstraintsError`` when the unique solution has
    a negative or non-finite count (no realization produces that pair).
    """
    if prob.dist.d != 2:
        raise ValueError("count reconstruction requires exactly two atoms")
    (mu1, mu2), (lq1, lq2) = prob.dist.values.tolist(), prob.logq.tolist()
    det = mu1 * lq2 - mu2 * lq1
    scale = max(abs(mu1 * lq2), abs(mu2 * lq1), np.finfo(float).tiny)
    if abs(det) <= 1e-12 * scale:
        raise InconsistentConstraintsError(
            "constraint system is singular (atoms indistinguishable)"
        )
    n1 = (total_time * lq2 - log_survival * mu2) / det
    n2 = (log_survival * mu1 - total_time * lq1) / det
    if not (math.isfinite(n1) and math.isfinite(n2)):
        raise InconsistentConstraintsError(
            f"no finite counts: (L, T) = ({log_survival!r}, {total_time!r})"
        )
    tol = 1e-9 * (abs(n1) + abs(n2) + 1.0)
    if n1 < -tol or n2 < -tol:
        raise InconsistentConstraintsError(
            f"no non-negative counts: solution ({n1!r}, {n2!r})"
        )
    n1, n2 = max(n1, 0.0), max(n2, 0.0)
    return FixedTimeSolution(
        m=n1 + n2,
        counts=(n1, n2),
        nearest_counts=(int(round(n1)), int(round(n2))),
    )


@dataclass(frozen=True)
class EquallySpacedResult:
    """Survival after m equally spaced measurements vs its Zeno estimate.

    ``log_exact`` is (T/mu_bar) ln q(mu_bar) with T = m mu_bar; the
    estimate replaces ln q by its leading small-interval expansion,
    giving exp(-T mu_bar (Delta H)^2).
    """

    m: int
    mu_bar: float
    total_time: float
    log_exact: float
    log_zeno_estimate: float

    @property
    def exact(self) -> float:
        return math.exp(self.log_exact)

    @property
    def zeno_estimate(self) -> float:
        return math.exp(self.log_zeno_estimate)

    @property
    def relative_difference(self) -> float:
        return abs(self.exact - self.zeno_estimate) / self.exact


def equally_spaced_survival(
    h: Hamiltonian, psi0: PureState, mu_bar: float, total_time: float
) -> EquallySpacedResult:
    """Survival for measurements every ``mu_bar`` seconds over ``total_time``.

    When ``total_time`` is not an exact multiple of ``mu_bar`` the count
    rounds down and the result reports the time actually used.
    """
    if not (0.0 < mu_bar < math.inf and math.isfinite(total_time)):  # NaN fails too
        raise ValueError("spacing must be positive and finite, and total time finite")
    m = int(math.floor(total_time / mu_bar + 1e-9))
    if m < 1:
        raise ValueError("total time does not cover a single interval")
    t_actual = m * mu_bar
    log_q = log_survival_factor(h, psi0, mu_bar)
    variance = energy_variance(h, psi0)  # 0 for eigenstates: estimate is exactly 1
    return EquallySpacedResult(
        m=m,
        mu_bar=mu_bar,
        total_time=t_actual,
        log_exact=m * log_q,
        log_zeno_estimate=-t_actual * mu_bar * variance,
    )


@dataclass(frozen=True)
class QzeCondition:
    """Leading decay per measurement for frequent random measurements.

    ``delta_mean`` is E[mu^2] / tau_Z^2; freezing requires it to be
    small. For m measurements, -m ``delta_mean`` is the shared leading
    estimate of both the most probable and the mean log-survival.
    """

    delta_mean: float
    tau_z: float
    second_moment: float


def qze_condition(
    dist: IntervalDistribution, h: Hamiltonian, psi0: PureState
) -> QzeCondition:
    """Evaluate the frequent-measurement freezing condition for ``dist``.

    Propagates ``InfiniteSecondMomentError`` for laws whose second moment
    diverges (power law with alpha <= 2), where the condition does not
    apply.
    """
    sm = dist.second_moment()
    tz = zeno_time(h, psi0)
    return QzeCondition(delta_mean=sm / tz**2, tau_z=tz, second_moment=sm)


@dataclass(frozen=True)
class DisorderGain:
    """Typical survival of a random two-atom schedule against the equally
    spaced schedule with the same mean spacing.

    Fields are floats for a scalar query and arrays for an array query;
    the linear-domain properties apply ``math.exp`` entry by entry, so
    both give the same bits.
    """

    log_p_star: float | np.ndarray
    log_p_equal: float | np.ndarray
    mu2: float | np.ndarray

    @property
    def p_star(self):
        return _exp(self.log_p_star)

    @property
    def ratio(self):
        return _exp(self.log_p_star - self.log_p_equal)


def _exp(x):
    if np.ndim(x) == 0:
        return math.exp(x)
    return np.array([math.exp(v) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def disorder_gain(
    h: Hamiltonian,
    psi0: PureState,
    p1,
    mu1,
    mu_bar,
    m: int,
) -> DisorderGain:
    """Compare a random two-atom schedule to equal spacing at fixed mean.

    The second atom is pinned by the mean: mu2 = (mu_bar - p1 mu1)/(1 - p1).
    Returns the most probable survival of the random schedule, the
    survival of the equally spaced one, and their ratio (> 1 means the
    disorder helps). ``p1``, ``mu1`` and ``mu_bar`` broadcast together;
    with arrays, one kernel call serves every point and the fields of
    the result are arrays of the broadcast shape.
    """
    p1, mu1, mu_bar = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (p1, mu1, mu_bar))
    )
    if not np.all((0.0 < p1) & (p1 < 1.0)):
        raise ValueError("p1 must lie strictly between 0 and 1")
    if not np.all((0.0 < mu1) & (mu1 < math.inf) & (0.0 < mu_bar) & (mu_bar < math.inf)):
        raise ValueError("times must be positive and finite")
    if m < 1:
        raise ValueError("m must be a positive count")
    p2 = 1.0 - p1
    mu2 = (mu_bar - p1 * mu1) / p2
    unreachable = ~(mu2 > 0)
    if np.any(unreachable):
        at = np.flatnonzero(unreachable)[0]
        raise InvalidMeanError(
            f"mean {float(mu_bar.flat[at])!r} unreachable: second atom would be "
            f"{float(mu2.flat[at])!r}"
        )
    mus = np.concatenate([mu1.ravel(), mu2.ravel(), mu_bar.ravel()])
    log_q1, log_q2, log_q_bar = log_survival_factors(
        *phase_weights(h, psi0), mus
    ).reshape((3,) + p1.shape)
    log_p_star = m * (p1 * log_q1 + p2 * log_q2)
    log_p_equal = m * log_q_bar
    if p1.ndim == 0:
        return DisorderGain(float(log_p_star), float(log_p_equal), float(mu2))
    return DisorderGain(log_p_star, log_p_equal, mu2)
