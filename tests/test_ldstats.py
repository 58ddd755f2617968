import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CHAIN_COUPLING,
    D2_PROBS,
    D2_VALUES_S,
    D3_PROBS,
    D3_VALUES_S,
    D4_PROBS,
    D4_VALUES_S,
    NS,
    chain_matrix,
    expm_log_mean_q,
    same_bits,
    tilted_rate,
    two_atom_rate,
)

from zenosim import (
    DegenerateInterval,
    DiscreteIntervals,
    EnsembleConfig,
    InconsistentConstraintsError,
    InfiniteSecondMomentError,
    InvalidMeanError,
    LdProblem,
    OutOfRangeError,
    PowerLawIntervals,
    contracted_rate,
    cramer_rate,
    disorder_gain,
    equally_spaced_survival,
    fixed_time_solve_m,
    joint_rate_function,
    log_survival_factor,
    qze_condition,
    rate_curve,
    rate_function_I,
    rate_function_J,
    run_ensemble,
    survival_stats_for,
    zeno_time,
)
from zenosim import ldstats
from zenosim.intervals import _atom_moments
from zenosim.dynamics import phase_weights

OMEGA = CHAIN_COUPLING


def problem(chain, psi0, values, probs):
    dist = DiscreteIntervals(np.asarray(values), np.asarray(probs))
    return LdProblem.for_system(chain, psi0, dist)


def x_star(prob, chain, psi0):
    """The zero of the rate function, E[ln q]."""
    return survival_stats_for(prob.dist, chain, psi0, 1).log_p_star


@pytest.fixture(scope="module")
def d2_prob(chain, psi0):
    return problem(chain, psi0, D2_VALUES_S, D2_PROBS)


class TestRateFunctionI:
    def test_zero_at_typical_point(self, chain, psi0, d2_prob):
        assert rate_function_I(d2_prob, x_star(d2_prob, chain, psi0)) <= 1e-12

    def test_boundary_value_is_log_prob(self, d2_prob):
        x = float(d2_prob.logq[0])
        assert rate_function_I(d2_prob, x) == pytest.approx(
            -math.log(D2_PROBS[0]), rel=1e-12, abs=0.0
        )

    def test_midpoint_matches_tilting_oracle(self, d2_prob):
        x = 0.5 * float(d2_prob.logq.sum())
        assert rate_function_I(d2_prob, x) == pytest.approx(
            cramer_rate(d2_prob, x), abs=1e-10
        )

    def test_out_of_range_rejected(self, d2_prob):
        lo = float(d2_prob.logq.min())
        with pytest.raises(OutOfRangeError):
            rate_function_I(d2_prob, lo * 1.5)
        with pytest.raises(OutOfRangeError):
            rate_function_I(d2_prob, 0.1)

    def test_nonnegative_and_convex_on_grid(self, d2_prob):
        rates = rate_function_I(d2_prob, rate_curve(d2_prob, points=200).xs)
        assert np.all(rates >= -1e-12)
        second = np.diff(rates, 2)
        assert np.min(second) >= -1e-9

    def test_equal_q_atoms_are_merged(self, chain, psi0):
        # two distinct waiting times with identical ln q collapse to one atom
        logq = np.array([-2.0, -2.0, -1.0])
        dist = DiscreteIntervals(
            np.array([1e-9, 2e-9, 3e-9]), np.array([0.2, 0.3, 0.5])
        )
        prob = LdProblem(dist=dist, logq=logq)
        assert prob.probs.tolist() == [0.5, 0.5]
        assert prob.levels.tolist() == [-2.0, -1.0]
        # boundary of the merged problem: all mass on the merged atom
        assert rate_function_I(prob, -2.0) == pytest.approx(-math.log(0.5), rel=1e-12, abs=0.0)
        # the tilting rate reads the same two levels: the bits of the
        # two-atom law, not of three terms summed
        two = LdProblem(dist=DiscreteIntervals(np.array([1e-9, 3e-9]), np.array([0.5, 0.5])),
                        logq=np.array([-2.0, -1.0]))
        xs = np.linspace(-2.0, -1.0, 9)[1:-1]
        assert same_bits(cramer_rate(prob, xs), cramer_rate(two, xs))
        curve, want = rate_curve(prob, points=50), rate_curve(two, points=50)
        assert same_bits(curve.xs, want.xs) and same_bits(curve.rates, want.rates)


class TestCramerRate:
    def test_zero_at_typical_point(self, chain, psi0, d2_prob):
        assert cramer_rate(d2_prob, x_star(d2_prob, chain, psi0)) == pytest.approx(0.0, abs=1e-12)

    def test_d2_identity_across_domain(self, d2_prob):
        xs = rate_curve(d2_prob, points=200).xs
        for x, rate in zip(xs, rate_function_I(d2_prob, xs)):
            assert cramer_rate(d2_prob, float(x)) == pytest.approx(
                float(rate), abs=1e-10
            )

    def test_d4_lower_bounds_explicit_construction(self, chain, psi0):
        # for four atoms the last-listed atom carries the largest ln q, so
        # the uniform split is a genuine probability vector on part of the
        # range; the tilting minimum must sit at or below it everywhere
        prob = problem(chain, psi0, D4_VALUES_S, D4_PROBS)
        lo, hi = float(prob.logq.min()), float(prob.logq.max())
        compared = 0
        for x in np.linspace(lo, hi, 41)[1:-1]:
            tilt = cramer_rate(prob, float(x))
            try:
                explicit = rate_function_I(prob, float(x))
            except OutOfRangeError:
                continue  # particular construction outside the simplex here
            assert tilt <= explicit + 1e-12
            compared += 1
        assert compared >= 5

    def test_d3_explicit_construction_domain_collapses(self, chain, psi0):
        # the 3-atom benchmark lists the atom with the middle ln q last, so
        # the uniform split assigns opposite signs to the two head
        # fractions: only the distinguished atom's own ln q is attainable
        prob = problem(chain, psi0, D3_VALUES_S, D3_PROBS)
        lq_d = float(prob.logq[-1])
        lo, hi = float(prob.logq.min()), float(prob.logq.max())
        for frac in (0.1, 0.3, 0.7, 0.9):
            x = lo + frac * (hi - lo)
            if abs(x - lq_d) < 0.02 * (hi - lo):
                continue
            with pytest.raises(OutOfRangeError):
                rate_function_I(prob, x)
        at_pivot = rate_function_I(prob, lq_d)
        assert at_pivot == pytest.approx(-math.log(D3_PROBS[-1]), rel=1e-12, abs=0.0)
        assert cramer_rate(prob, lq_d) <= at_pivot + 1e-12

    def test_higher_d_tilting_is_zero_at_typical_point(self, chain, psi0):
        # the particular split generally misses the typical point; the
        # tilting construction always vanishes there
        for values, probs in ((D3_VALUES_S, D3_PROBS), (D4_VALUES_S, D4_PROBS)):
            prob = problem(chain, psi0, values, probs)
            assert cramer_rate(prob, x_star(prob, chain, psi0)) == pytest.approx(0.0, abs=1e-12)

    def test_open_interval_required(self, d2_prob):
        with pytest.raises(OutOfRangeError):
            cramer_rate(d2_prob, float(d2_prob.logq.min()))

    @settings(max_examples=100)
    @given(
        atoms=st.lists(st.floats(1e-10, 2e-5), min_size=1, max_size=8, unique=True),
        fracs=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_random_laws_bounded_by_explicit_construction(self, chain, psi0, atoms,
                                                           fracs, data):
        weights = np.array(data.draw(
            st.lists(st.floats(1e-3, 1.0), min_size=len(atoms), max_size=len(atoms))))
        dist = DiscreteIntervals(np.array(atoms), weights / weights.sum())
        prob = LdProblem.for_system(chain, psi0, dist)
        lo, hi = float(prob.logq.min()), float(prob.logq.max())
        xs = lo + np.array(fracs) * (hi - lo)
        tilts = cramer_rate(prob, xs)
        assert same_bits(tilts, [cramer_rate(prob, float(x)) for x in xs])
        explicit = {}
        for i, x in enumerate(xs.tolist()):
            try:
                explicit[i] = rate_function_I(prob, x)
            except OutOfRangeError:  # the particular split leaves the simplex (d > 2)
                continue
            # the tilting rate is the minimum over all occupation vectors
            assert -1e-15 <= tilts[i] <= explicit[i] + 1e-12 * max(explicit[i], 1.0)
        assert same_bits(rate_function_I(prob, xs[list(explicit)]), list(explicit.values()))

    @settings(max_examples=100)
    @given(
        atoms=st.lists(st.floats(1e-10, 2e-5), min_size=2, max_size=8, unique=True),
        fracs=st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=1, max_size=6),
        data=st.data(),
    )
    def test_closed_form_bracket_holds_the_root(self, chain, psi0, atoms, fracs, data):
        weights = np.array(data.draw(
            st.lists(st.floats(1e-3, 1.0), min_size=len(atoms), max_size=len(atoms))))
        dist = DiscreteIntervals(np.array(atoms), weights / weights.sum())
        prob = LdProblem.for_system(chain, psi0, dist)
        lo, hi = float(prob.logq.min()), float(prob.logq.max())
        xs = lo + np.array(fracs) * (hi - lo)
        xs = xs[(lo < xs) & (xs < hi)]
        t_lo, t_hi = ldstats._tilt_bracket(dist.probs, prob.logq, xs)
        assert np.all(t_lo <= 0.0) and np.all(t_hi >= 0.0)
        for x, a, b in zip(xs.tolist(), t_lo.tolist(), t_hi.tolist()):
            s = prob.logq - x
            # sum_a p_a s_a e^(t s_a), scaled by e^(-max t s) to stay finite
            g = [float(np.sum(dist.probs * s * np.exp(t * s - np.max(t * s)))) for t in (a, b)]
            assert g[0] <= 0.0 <= g[1]

    def test_d2_curve_matches_closed_form(self, d2_prob):
        curve = rate_curve(d2_prob, points=200)
        want = np.array([two_atom_rate(d2_prob.dist.probs, d2_prob.logq, x)
                         for x in curve.xs])
        for end in (0, -1):  # next to the ends the tilt is largest
            assert curve.rates[end] == pytest.approx(want[end], rel=1e-12, abs=0.0)
        # -ln sum p e^(t s) has no cancellation, unlike t x - ln sum p q^t
        assert np.max(np.abs(curve.rates - want)) <= 1e-15

    def test_d4_curve_matches_extended_precision_tilt(self, chain, psi0):
        prob = problem(chain, psi0, D4_VALUES_S, D4_PROBS)
        curve = rate_curve(prob, points=41)
        want = [tilted_rate(prob.dist.probs, prob.logq, x) for x in curve.xs]
        assert np.max(np.abs(curve.rates - want)) <= 1e-15


class TestArrayForm:
    """A float gives a float; an array gives an array of its shape, each
    entry the bits of the call on that entry alone."""

    @pytest.mark.parametrize("fn", [rate_function_I, cramer_rate])
    def test_float_in_float_out(self, d2_prob, fn):
        x = float(np.mean(d2_prob.logq))
        assert type(fn(d2_prob, x)) is float
        assert type(fn(d2_prob, np.float64(x))) is float

    @pytest.mark.parametrize("fn", [rate_function_I, cramer_rate])
    def test_grid_entries_are_pointwise_bits(self, d2_prob, fn):
        lo, hi = float(d2_prob.logq.min()), float(d2_prob.logq.max())
        xs = np.linspace(lo, hi, 14)[1:-1].reshape(3, 4)
        rates = fn(d2_prob, xs)
        assert rates.shape == (3, 4)
        assert same_bits(rates.ravel(), [fn(d2_prob, x) for x in xs.ravel().tolist()])

    def test_curve_is_one_call(self, d2_prob, monkeypatch):
        calls = []
        real = ldstats.cramer_rate
        monkeypatch.setattr(ldstats, "cramer_rate",
                            lambda prob, x: calls.append(np.shape(x)) or real(prob, x))
        curve = rate_curve(d2_prob, points=200)
        assert calls == [(200,)]
        assert curve.rates.shape == (200,)

    @pytest.mark.parametrize("fn", [rate_function_I, cramer_rate])
    def test_one_out_of_range_entry_raises(self, d2_prob, fn):
        lo, hi = float(d2_prob.logq.min()), float(d2_prob.logq.max())
        xs = np.array([0.5 * (lo + hi), 0.1, lo - 1.0])
        with pytest.raises(OutOfRangeError, match=r"x = 0\.1 "):
            fn(d2_prob, xs)

    @pytest.mark.parametrize("fn", [rate_function_I, cramer_rate])
    def test_nan_is_out_of_range(self, d2_prob, fn):
        with pytest.raises(OutOfRangeError):
            fn(d2_prob, np.array([float(np.mean(d2_prob.logq)), math.nan]))

    @pytest.mark.parametrize("fn", [rate_function_I, cramer_rate])
    def test_merged_single_atom_gives_zeros_of_x_shape(self, fn):
        dist = DiscreteIntervals(np.array([1e-9, 2e-9]), np.array([0.4, 0.6]))
        prob = LdProblem(dist=dist, logq=np.array([-0.5, -0.5]))
        rates = fn(prob, np.full((2, 3), -0.5))
        assert rates.shape == (2, 3) and np.all(rates == 0.0)
        assert fn(prob, -0.5) == 0.0
        with pytest.raises(OutOfRangeError):
            fn(prob, np.array([-0.5, -0.4]))


class TestRateFunctionJ:
    def test_zero_at_typical_survival(self, chain, psi0, d2_prob):
        p_typ = math.exp(x_star(d2_prob, chain, psi0))
        assert rate_function_J(d2_prob, p_typ) <= 1e-12

    def test_boundary_atom(self, d2_prob):
        p = math.exp(float(d2_prob.logq[0]))
        assert rate_function_J(d2_prob, p) == pytest.approx(
            -math.log(D2_PROBS[0]), rel=1e-10, abs=0.0
        )

    def test_matches_tilting_between_atoms(self, d2_prob):
        x = 0.4 * float(d2_prob.logq[0]) + 0.6 * float(d2_prob.logq[1])
        assert rate_function_J(d2_prob, math.exp(x)) == pytest.approx(
            cramer_rate(d2_prob, x), abs=1e-10
        )

    def test_domain(self, d2_prob):
        with pytest.raises(OutOfRangeError):
            rate_function_J(d2_prob, 0.0)
        with pytest.raises(OutOfRangeError):
            rate_function_J(d2_prob, 2.0)


class TestSurvivalStats:
    def test_degenerate_all_equal(self, chain, psi0):
        mu = 2e-9
        stats = survival_stats_for(DegenerateInterval(mu), chain, psi0, 50)
        expected = 50 * log_survival_factor(chain, psi0, mu)
        assert stats.log_p_star == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert stats.log_p_mean == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert abs(stats.log_jensen_gap) <= 1e-12

    @pytest.mark.parametrize("m", [math.nan, math.inf, 1.5, True, 0])
    def test_m_must_be_a_count(self, chain, psi0, m):
        with pytest.raises(ValueError, match="positive count"):
            survival_stats_for(DegenerateInterval(2e-9), chain, psi0, m)

    def test_numpy_integer_m(self, chain, psi0):
        dist = DegenerateInterval(2e-9)
        assert (survival_stats_for(dist, chain, psi0, np.int64(50))
                == survival_stats_for(dist, chain, psi0, 50))

    def test_point_mass_is_an_ld_problem(self, chain, psi0):
        dist = DegenerateInterval(2e-9)
        prob = LdProblem.for_system(chain, psi0, dist)
        curve = rate_curve(prob, points=5)
        for rates in (curve.rates, rate_function_I(prob, curve.xs)):
            assert np.all(curve.xs == prob.logq[0]) and np.all(rates == 0.0)

    def test_d2_direct_evaluation(self, chain, psi0, d2_prob):
        stats = survival_stats_for(d2_prob.dist, chain, psi0, 100)
        lq1 = log_survival_factor(chain, psi0, D2_VALUES_S[0])
        lq2 = log_survival_factor(chain, psi0, D2_VALUES_S[1])
        # L* is the atom-order sum, bit for bit
        assert stats.log_p_star == 100 * (0.3 * lq1 + 0.7 * lq2)

    @pytest.mark.parametrize(
        "values,probs",
        [(D2_VALUES_S, D2_PROBS), (D3_VALUES_S, D3_PROBS), (D4_VALUES_S, D4_PROBS)],
    )
    def test_jensen_strict_for_discrete(self, chain, psi0, values, probs):
        dist = DiscreteIntervals(np.array(values), np.array(probs))
        stats = survival_stats_for(dist, chain, psi0, 2000)
        assert stats.log_jensen_gap >= 1e-12

    def test_jensen_strict_for_powerlaw(self, chain, psi0):
        dist = PowerLawIntervals(mu0=1 * NS, alpha=3.0)
        stats = survival_stats_for(dist, chain, psi0, 2000)
        assert stats.log_jensen_gap >= 1e-12

    def test_powerlaw_star_against_monte_carlo(self, chain, psi0):
        dist = PowerLawIntervals(mu0=1 * NS, alpha=3.0)
        m, n = 100, 100_000
        stats = survival_stats_for(dist, chain, psi0, m)
        # each row sum is substream(1234, i) mapped by the law and summed by
        # np.sum, bit for bit (TestLatticeGather in test_montecarlo)
        sums = run_ensemble(EnsembleConfig(
            dist=dist, hamiltonian=chain, state=psi0, mode="fixed_m",
            realizations=n, master_seed=1234, m=m,
        )).log_survivals
        se = float(sums.std(ddof=1)) / math.sqrt(n)
        assert abs(float(sums.mean()) - stats.log_p_star) <= 3 * se

    @settings(max_examples=60)
    @given(
        atoms=st.lists(st.floats(1e-10, 2e-5), min_size=1, max_size=8, unique=True),
        data=st.data(),
    )
    def test_random_discrete_laws(self, chain, psi0, atoms, data):
        weights = np.array(data.draw(
            st.lists(st.floats(1e-3, 1.0), min_size=len(atoms), max_size=len(atoms))))
        dist = DiscreteIntervals(np.array(atoms), weights / weights.sum())
        mean_log_q, log_mean_q = dist.log_q_moments(*phase_weights(chain, psi0))
        # Jensen gap >= 0, to round-off: one atom has a zero gap
        assert mean_log_q <= log_mean_q + 1e-15 * abs(mean_log_q)

    @pytest.mark.parametrize("values,probs,m", [
        (D2_VALUES_S, D2_PROBS, 50), (D3_VALUES_S, D3_PROBS, 2000), (D4_VALUES_S, D4_PROBS, 2000),
    ])
    def test_log_p_mean_matches_oracle(self, chain, psi0, values, probs, m):
        # q is within 1e-5 of 1 on every atom: ln E[q] from a log-sum-exp
        # would keep only about 11 of the 16 digits
        oracle = m * expm_log_mean_q(chain_matrix(), psi0.amplitudes, values, probs)
        dist = DiscreteIntervals(np.array(values), np.array(probs))
        stats = survival_stats_for(dist, chain, psi0, m)
        assert stats.log_p_mean == pytest.approx(oracle, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("fractions", [(1.0000001, 0.999999), (1.0000001, 1.000000001)])
    def test_log_p_mean_matches_oracle_at_small_q(self, rabi, fractions):
        # atoms next to the zero of q = cos^2(OMEGA mu): E[q] is about 1e-12
        # or 1e-14, which 1 - E[1 - q] keeps to a few digits at best; the
        # kernel's own ln q is good to about 1e-9 relative there
        h, psi = rabi
        values = [f * math.pi / (2 * OMEGA) for f in fractions]
        oracle = 10 * expm_log_mean_q(h.matrix, psi.amplitudes, values, [0.5, 0.5])
        dist = DiscreteIntervals(np.array(values), np.array([0.5, 0.5]))
        stats = survival_stats_for(dist, h, psi, 10)
        assert stats.log_p_mean == pytest.approx(oracle, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("logq", [(-100.0, -300.0), (-800.0, -900.0)])
    def test_log_p_mean_below_double_epsilon(self, logq):
        # E[q] is below 1e-16 (E[1 - q] rounds to 1), and at -800 below the
        # least double; e^(logq[1] - logq[0]) = e^-200 is beyond round-off
        dist = DiscreteIntervals(np.array([1e-6, 2e-6]), np.array([0.25, 0.75]))
        mean_log_q, log_mean_q = _atom_moments(dist.probs, np.array(logq))
        expected = 10 * (logq[0] + math.log(0.25))
        assert 10 * log_mean_q == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert log_mean_q >= mean_log_q

    def test_log_affinity_in_p1(self, chain, psi0):
        # L*/m is affine in the first atom probability at fixed atoms
        p1s = np.linspace(0.02, 0.98, 50)
        xs = []
        for p1 in p1s:
            prob = problem(chain, psi0, D2_VALUES_S, (p1, 1.0 - p1))
            xs.append(x_star(prob, chain, psi0))
        coeffs = np.polyfit(p1s, xs, 1)
        residual = np.max(np.abs(np.polyval(coeffs, p1s) - np.asarray(xs)))
        assert residual <= 1e-12 * max(abs(x) for x in xs) + 1e-18


class TestJointRateFunction:
    def test_zero_at_typical_pair(self, chain, psi0, d2_prob):
        y_star = d2_prob.dist.mean()
        assert joint_rate_function(d2_prob, x_star(d2_prob, chain, psi0), y_star) <= 1e-12

    def test_contraction_recovers_marginal(self, d2_prob):
        lo, hi = float(d2_prob.logq.min()), float(d2_prob.logq.max())
        for x in np.linspace(lo, hi, 12)[1:-1]:
            assert contracted_rate(d2_prob, float(x)) == pytest.approx(
                rate_function_I(d2_prob, float(x)), abs=1e-12
            )

    @pytest.mark.parametrize("case", ["d3", "d4", "equal_log_q", "close_log_q"])
    def test_contraction_needs_two_atoms(self, chain, psi0, case):
        if case.endswith("log_q"):  # two atoms within LOGQ_MERGE_TOL merge into one
            dist = DiscreteIntervals(np.array(D2_VALUES_S), np.array(D2_PROBS))
            gap = 0.0 if case == "equal_log_q" else 5e-15
            prob = LdProblem(dist=dist, logq=np.array([-1e-3, -1e-3 + gap]))
        else:
            values, probs = {"d3": (D3_VALUES_S, D3_PROBS), "d4": (D4_VALUES_S, D4_PROBS)}[case]
            prob = problem(chain, psi0, values, probs)
        with pytest.raises(ValueError, match="two atoms"):
            contracted_rate(prob, float(np.mean(prob.logq)))

    def test_joint_equals_marginal_at_consistent_time(self, d2_prob):
        # at the deviation-consistent time the joint rate is exactly I(x)
        lq1, lq2 = d2_prob.logq
        mu1, mu2 = D2_VALUES_S
        for f1 in (0.1, 0.3, 0.6, 0.9):
            x = f1 * float(lq1) + (1 - f1) * float(lq2)
            y_star = f1 * mu1 + (1 - f1) * mu2
            assert joint_rate_function(d2_prob, x, y_star) == pytest.approx(
                rate_function_I(d2_prob, x), rel=1e-10, abs=1e-13
            )

    def test_out_of_simplex_rejected(self, d2_prob):
        # tiny time with the deviation pinned at the first atom: g1 > 1
        with pytest.raises(OutOfRangeError):
            joint_rate_function(d2_prob, float(d2_prob.logq.max()), 1e-12)
        with pytest.raises(OutOfRangeError):
            joint_rate_function(d2_prob, float(d2_prob.logq.max()), -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pair_is_out_of_range(self, d2_prob, bad):
        # at y = +inf the fractions would be (0, 1), a finite rate
        x, y = float(np.mean(d2_prob.logq)), d2_prob.dist.mean()
        for pair in ((bad, y), (x, bad)):
            with pytest.raises(OutOfRangeError, match="finite"):
                joint_rate_function(d2_prob, *pair)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_contraction_of_non_finite_x_is_out_of_range(self, d2_prob, bad):
        with pytest.raises(OutOfRangeError):
            contracted_rate(d2_prob, bad)

    def test_d3_particular_split_leaves_simplex_at_typical_pair(self, chain, psi0):
        # the displayed construction recovers the atom probabilities at the
        # typical pair only for two atoms; with more it is a different
        # particular solution (off the simplex for d = 3, a rate of 0.344
        # for d = 4, where the rate is 0), so it is refused
        for values, probs in ((D3_VALUES_S, D3_PROBS), (D4_VALUES_S, D4_PROBS)):
            prob = problem(chain, psi0, values, probs)
            with pytest.raises(ValueError, match="one or two atoms") as refused:
                joint_rate_function(prob, x_star(prob, chain, psi0), prob.dist.mean())
            assert refused.type is ValueError


class TestFixedTimeSolve:
    def test_constructed_counts(self, chain, psi0, d2_prob):
        lq = d2_prob.logq
        L = 50 * float(lq[0]) + 50 * float(lq[1])
        T = 50 * D2_VALUES_S[0] + 50 * D2_VALUES_S[1]  # 200 ns
        sol = fixed_time_solve_m(d2_prob, L, T)
        assert sol.m == pytest.approx(100.0, rel=1e-9, abs=0.0)
        assert sol.nearest_counts == (50, 50)

    def test_single_atom_sequence_exact(self, d2_prob):
        lq = d2_prob.logq
        m = 73
        sol = fixed_time_solve_m(d2_prob, m * float(lq[1]), m * D2_VALUES_S[1])
        assert sol.counts[0] == pytest.approx(0.0, abs=1e-9)
        assert sol.counts[1] == pytest.approx(m, rel=1e-12, abs=0.0)
        assert sol.nearest_counts == (0, m)

    def test_incompatible_pair_rejected(self, d2_prob):
        lq = d2_prob.logq
        L = 50 * float(lq[0]) + 50 * float(lq[1])
        T = 80 * D2_VALUES_S[0] + 20 * D2_VALUES_S[1]
        with pytest.raises(InconsistentConstraintsError):
            fixed_time_solve_m(d2_prob, L, T)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
    def test_non_finite_counts_are_inconsistent(self, d2_prob, bad):
        # 1e308 is finite, but its counts overflow
        L, T = 50 * float(np.sum(d2_prob.logq)), 50 * sum(D2_VALUES_S)
        for pair in ((bad, T), (L, bad)):
            with pytest.raises(InconsistentConstraintsError):
                fixed_time_solve_m(d2_prob, *pair)

    def test_requires_two_atoms(self, chain, psi0):
        prob = problem(chain, psi0, D3_VALUES_S, D3_PROBS)
        with pytest.raises(ValueError):
            fixed_time_solve_m(prob, -1e-4, 1e-7)


class TestEquallySpaced:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, chain, psi0, bad):
        with pytest.raises(ValueError, match="finite"):
            equally_spaced_survival(chain, psi0, bad, 100e-9)
        with pytest.raises(ValueError, match="finite"):
            equally_spaced_survival(chain, psi0, 1e-9, bad)

    def test_eigenstate_is_frozen(self, chain):
        from zenosim import PureState

        psi = PureState(chain.spec.eigenvectors[:, 1])
        res = equally_spaced_survival(chain, psi, 1e-9, 100e-9)
        assert res.exact == pytest.approx(1.0, abs=1e-9)
        assert res.zeno_estimate == 1.0  # zero variance: estimate is exact

    def test_two_level_small_spacing(self, rabi):
        h, psi = rabi
        res = equally_spaced_survival(h, psi, 0.01 / OMEGA, 1.0 / OMEGA)
        assert res.m == 100
        assert res.relative_difference < 1e-3

    def test_count_rounds_down(self, chain, psi0):
        res = equally_spaced_survival(chain, psi0, 3e-9, 10e-9)
        assert res.m == 3
        assert res.total_time == pytest.approx(9e-9)

    def test_zeno_limit_monotone(self, chain, psi0):
        total = 10.0 / OMEGA
        exacts = []
        for k in range(3, 9):
            res = equally_spaced_survival(chain, psi0, 2.0**-k / OMEGA, total)
            exacts.append(res.exact)
        assert all(b > a for a, b in zip(exacts, exacts[1:]))
        assert exacts[-1] > 0.9


class TestQzeCondition:
    def test_degenerate(self, chain, psi0):
        mu = 2e-9
        cond = qze_condition(DegenerateInterval(mu), chain, psi0)
        tz = zeno_time(chain, psi0)
        assert cond.delta_mean == pytest.approx((mu / tz) ** 2, rel=1e-12, abs=0.0)

    def test_powerlaw_alpha3(self, chain, psi0):
        mu0 = 1e-9
        cond = qze_condition(PowerLawIntervals(mu0, 3.0), chain, psi0)
        tz = zeno_time(chain, psi0)
        assert cond.delta_mean == pytest.approx(3 * mu0**2 / tz**2, rel=1e-12, abs=0.0)

    def test_infinite_second_moment_flagged(self, chain, psi0):
        with pytest.raises(InfiniteSecondMomentError):
            qze_condition(PowerLawIntervals(1e-9, 1.5), chain, psi0)

    def test_estimate_approaches_star_for_small_mu0(self, chain, psi0):
        errs = []
        for mu0 in (1e-2 / OMEGA, 3e-3 / OMEGA, 1e-3 / OMEGA):
            dist = PowerLawIntervals(mu0, 3.0)
            stats = survival_stats_for(dist, chain, psi0, 100)
            m_delta = 100 * qze_condition(dist, chain, psi0).delta_mean
            errs.append(abs(stats.log_p_star + m_delta) / m_delta)
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.05


class TestDisorderGain:
    def test_degenerate_coincidence_is_unity(self, chain, psi0):
        mu = 10e-6
        gain = disorder_gain(chain, psi0, 0.3, mu1=mu, mu_bar=mu, m=100)
        assert gain.mu2 == pytest.approx(mu, rel=1e-12, abs=0.0)
        assert gain.ratio == pytest.approx(1.0, rel=1e-10, abs=0.0)

    def test_extreme_probability_is_finite(self, chain, psi0):
        gain = disorder_gain(
            chain, psi0, 1.0 - 1e-6, mu1=10e-6, mu_bar=24e-6, m=100
        )
        assert math.isfinite(gain.log_p_star)
        assert gain.mu2 > 0

    @pytest.mark.parametrize("m", [math.nan, math.inf, 1.5, True, 0])
    def test_m_must_be_a_count(self, chain, psi0, m):
        with pytest.raises(ValueError, match="positive count"):
            disorder_gain(chain, psi0, 0.3, 10e-6, 24e-6, m)

    def test_numpy_integer_m(self, chain, psi0):
        assert (disorder_gain(chain, psi0, 0.3, 10e-6, 24e-6, np.int64(100))
                == disorder_gain(chain, psi0, 0.3, 10e-6, 24e-6, 100))

    def test_unreachable_mean_rejected(self, chain, psi0):
        with pytest.raises(InvalidMeanError):
            disorder_gain(chain, psi0, 0.9, mu1=10e-6, mu_bar=5e-6, m=100)

    def test_enhancement_region_exists(self, chain, psi0):
        # fixed mean 24 us, first atom at 10 us: some p1 beats equal spacing
        ratios = [
            disorder_gain(chain, psi0, float(p1), 10e-6, 24e-6, 100).ratio
            for p1 in np.linspace(0.01, 0.99, 99)
        ]
        assert max(ratios) > 1.0

    def test_zeno_regime_disorder_hurts(self, chain, psi0):
        gain = disorder_gain(chain, psi0, 0.99, mu1=1e-9, mu_bar=2.4e-9, m=100)
        assert gain.ratio < 1.0

    def test_scalar_query_matches_scalar_kernel(self, chain, psi0):
        p1, mu1, mu_bar = 0.3, 10e-6, 24e-6
        gain = disorder_gain(chain, psi0, p1, mu1=mu1, mu_bar=mu_bar, m=100)
        mu2 = (mu_bar - p1 * mu1) / (1.0 - p1)
        lq = lambda mu: log_survival_factor(chain, psi0, mu)
        assert gain.mu2 == mu2
        assert gain.log_p_star == 100 * (p1 * lq(mu1) + (1.0 - p1) * lq(mu2))
        assert gain.log_p_equal == 100 * lq(mu_bar)
        assert isinstance(gain.ratio, float)

    @pytest.mark.parametrize("axis", ["p1", "mu1"])
    def test_array_query_matches_scalar_queries_bitwise(self, chain, psi0, axis):
        if axis == "p1":
            xs = np.linspace(0.005, 0.995, 37)
            args = [(x, 10e-6, 24e-6) for x in xs.tolist()]
            gain = disorder_gain(chain, psi0, xs, 10e-6, 24e-6, 100)
        else:
            xs = np.linspace(1.0, 250.0, 41) * 1e-9
            args = [(0.99, x, 2.4 * x) for x in xs.tolist()]
            gain = disorder_gain(chain, psi0, 0.99, xs, 2.4 * xs, 100)
        assert gain.log_p_star.shape == xs.shape
        for i, (p1, mu1, mu_bar) in enumerate(args):
            one = disorder_gain(chain, psi0, p1, mu1, mu_bar, 100)
            assert one.log_p_star == gain.log_p_star[i]
            assert one.log_p_equal == gain.log_p_equal[i]
            assert one.mu2 == gain.mu2[i]
            assert one.ratio == gain.ratio[i]
            assert one.p_star == gain.p_star[i]

    def test_array_query_validates_every_point(self, chain, psi0):
        with pytest.raises(ValueError):
            disorder_gain(chain, psi0, np.array([0.3, 1.0]), 10e-6, 24e-6, 100)
        with pytest.raises(InvalidMeanError):
            disorder_gain(chain, psi0, 0.9, 10e-6, np.array([24e-6, 5e-6]), 100)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, chain, psi0, bad):
        with pytest.raises(ValueError, match="finite"):
            disorder_gain(chain, psi0, 0.3, 10e-6, bad, 100)
        with pytest.raises(ValueError, match="finite"):
            disorder_gain(chain, psi0, 0.3, np.array([10e-6, bad]), 24e-6, 100)


class TestValidation:
    def test_logq_must_be_finite(self, d2_prob):
        with pytest.raises(ValueError):
            LdProblem(dist=d2_prob.dist, logq=np.array([-np.inf, -1.0]))


def test_fig4_star_matches_oracle(tmp_path, powerlaw_log_q_oracle):
    from zenosim.presets import run_preset

    path = run_preset("fig4", out_dir=str(tmp_path))["csv"]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "alpha,m,log_P_typical,log_P_star"
    rows = [[float(x) for x in line.split(",")] for line in lines[2:]]
    assert {row[0] for row in rows} == {2.5, 3.0, 4.0}
    for alpha, m, _, star in rows:
        assert star / m == pytest.approx(powerlaw_log_q_oracle(1 * NS, alpha), rel=1e-8, abs=0.0)
