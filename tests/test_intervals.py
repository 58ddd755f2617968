import math
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    D2_PROBS,
    D2_VALUES_S,
    D3_PROBS,
    D3_VALUES_S,
    D4_PROBS,
    D4_VALUES_S,
    NS,
    US,
    FixedWords,
    chain_matrix,
    float_atoms,
    powerlaw_expect_log_q,
    same_bits,
    two_level_expect_log_q,
)

from zenosim import (
    DegenerateInterval,
    DiscreteIntervals,
    EnsembleConfig,
    Hamiltonian,
    InfiniteMeanError,
    InfiniteSecondMomentError,
    PowerLawIntervals,
    PureState,
    QuadratureNoConvergenceError,
    build_chain_hamiltonian,
    log_survival_factor,
    log_survival_factors,
    qze_condition,
    run_ensemble,
    survival_stats_for,
)
from zenosim import intervals
from zenosim.dynamics import phase_weights, survival_minima
from zenosim.rng import substream, uniforms_from_words


def d2():
    return DiscreteIntervals(np.array(D2_VALUES_S), np.array(D2_PROBS))


class TestValidation:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteIntervals(np.array([1.0, 2.0]), np.array([0.3, 0.6]))

    def test_atoms_positive_and_distinct(self):
        with pytest.raises(ValueError):
            DiscreteIntervals(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            DiscreteIntervals(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            DiscreteIntervals(np.array([1.0, 2.0]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [0.5, math.nan]])
    def test_nan_probability_rejected(self, probs):
        # NaN fails every comparison, so a check by rejection let it through
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
            DiscreteIntervals(np.array([1.0, 2.0]), np.array(probs))

    def test_powerlaw_parameters(self):
        with pytest.raises(ValueError):
            PowerLawIntervals(mu0=-1.0, alpha=3.0)
        with pytest.raises(ValueError):
            PowerLawIntervals(mu0=1.0, alpha=0.0)

    @pytest.mark.parametrize("mu0, alpha", [(1e-9, 0.01), (1e-9, 0.05), (1e305, 3.0)])
    def test_powerlaw_draws_must_stay_finite(self, mu0, alpha):
        # the largest draw, mu0 2^(53/alpha), or the power before the
        # scaling by mu0, would overflow to inf
        with pytest.raises(ValueError, match="overflow"):
            PowerLawIntervals(mu0=mu0, alpha=alpha)

    def test_powerlaw_largest_draw_is_finite(self):
        dist = PowerLawIntervals(mu0=1e-9, alpha=0.06)
        top = dist._inverse_cdf(np.array([1.0 - 2.0**-53, 0.0]))
        assert np.all(np.isfinite(top)) and top[1] == 1e-9
        assert top[0] == pytest.approx(1e-9 * 2.0 ** (53 / 0.06), rel=1e-12)

    def test_degenerate_parameter(self):
        with pytest.raises(ValueError):
            DegenerateInterval(0.0)


class TestSampling:
    def test_degenerate_returns_constant(self):
        dist = DegenerateInterval(2.5e-9)
        out = dist.sample(substream(1, 0), 100)
        assert np.all(out == 2.5e-9)

    def test_discrete_frequencies_chi_squared(self):
        dist = DiscreteIntervals(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
        n = 100_000
        draws = dist.sample(substream(5, 0), n)
        counts = np.array([(draws == 1.0).sum(), (draws == 2.0).sum()])
        chi2 = float(np.sum((counts - n / 2) ** 2 / (n / 2)))
        assert counts.sum() == n
        assert chi2 < 11.0  # ~p=0.001 for 1 dof; deterministic given the seed

    def test_discrete_draws_are_atoms(self):
        dist = d2()
        draws = dist.sample(substream(5, 1), 1000)
        assert set(np.unique(draws)) <= set(dist.values)

    def test_powerlaw_empirical_mean(self):
        dist = PowerLawIntervals(mu0=1.0, alpha=3.0)
        draws = dist.sample(substream(17, 0), 1_000_000)
        assert float(draws.mean()) == pytest.approx(1.5, rel=0.01, abs=0.0)
        assert float(draws.min()) >= 1.0

    def test_powerlaw_ks_statistic(self):
        dist = PowerLawIntervals(mu0=1.0, alpha=2.0)
        n = 100_000
        draws = np.sort(dist.sample(substream(23, 0), n))
        cdf = dist.cdf(draws)
        grid = np.arange(n)
        ks = max(
            float(np.max(cdf - grid / n)),
            float(np.max((grid + 1) / n - cdf)),
        )
        assert ks <= 1.63 / math.sqrt(n)

    def test_substreams_reproducible_and_independent(self):
        dist = d2()
        a = dist.sample(substream(9, 4), 50)
        b = dist.sample(substream(9, 4), 50)
        c = dist.sample(substream(9, 5), 50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_family_matches_fresh_substreams(self):
        from zenosim.rng import StreamFamily

        family = StreamFamily(987654321)
        for i in (0, 1, 17, 2**40):
            fresh = substream(987654321, i).random(32)
            rekeyed = family.select(i).random(32)
            assert np.array_equal(fresh, rekeyed)
        # re-selecting replays the stream from the start
        assert np.array_equal(family.select(17).random(8),
                              substream(987654321, 17).random(8))

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            d2().sample(substream(1, 0), 0)


#: laws whose first inner edge is each named edge c; the last has an inner
#: edge above 1, as its probabilities sum to 1 + 5e-13, inside the 1e-12 check
EDGE_LAWS = {
    "2^-53": (2.0**-53, 1.0 - 2.0**-53),
    "0.3": (0.3, 0.7),
    "0.5": (0.5, 0.5),
    "1-2^-53": (1.0 - 2.0**-53, 2.0**-53),
    "subnormal": (5e-324, 1.0),
    "above-1": (0.5, 0.5 + 4e-13, 1e-13),
}
TOP_WORD = 2**64 - 1


def edge_law(name):
    probs = EDGE_LAWS[name]
    return DiscreteIntervals(np.arange(1.0, len(probs) + 1) * NS, np.array(probs))


def float_counts(dist, x):
    """Atom counts of the words ``x`` from their uniforms (x >> 11) 2^-53,
    by float comparisons against the cumulative edges."""
    atoms = float_atoms(dist.probs, uniforms_from_words(x))
    return np.bincount(atoms, minlength=dist.d).astype(float)


class TestWordEdges:
    # a discrete law counts raw words x against integer edges G, x > G, in
    # sample and row_stats alike; the oracle compares uniforms
    # u = (x >> 11) 2^-53 with float cumulative edges c, u > c

    def test_edges_are_the_named_ones(self):
        assert [np.cumsum(edge_law(name).probs)[0] for name in EDGE_LAWS][:5] == [
            2.0**-53, 0.3, 0.5, 1.0 - 2.0**-53, 5e-324]
        above = edge_law("above-1")
        assert np.cumsum(above.probs)[1] > 1.0 and above._word_edges[1] == TOP_WORD

    @pytest.mark.parametrize("name", EDGE_LAWS)
    def test_boundary_words(self, name):
        # the last word whose uniform is at most c, floor(c 2^53) 2^11 + 2047,
        # the first above it, + 2048, and the least and greatest words
        dist = edge_law(name)
        words = [0, TOP_WORD]
        for c in np.cumsum(dist.probs)[:-1].tolist():
            low = math.floor(c * 2.0**53) << 11
            words += [w for w in (low, low + 2047, low + 2048) if w <= TOP_WORD]
        x = np.array(words, dtype=np.uint64)
        assert same_bits(dist.row_stats(x, None, None, [x.size])[0], float_counts(dist, x))
        atoms = float_atoms(dist.probs, uniforms_from_words(x))
        assert same_bits(dist.row_stats(x[:, None].copy(), None, None, [1])[0],
                         np.eye(dist.d)[atoms])
        assert same_bits(dist.sample(FixedWords(x), x.size), dist.values[atoms])

    @settings(max_examples=60)
    @given(name=st.sampled_from(sorted(EDGE_LAWS)), data=st.data())
    def test_drawn_words(self, name, data):
        dist = edge_law(name)
        near = [int(g) for g in dist._word_edges]
        word = st.one_of(st.integers(0, TOP_WORD), *(
            st.integers(max(0, g - 4096), min(TOP_WORD, g + 4096)) for g in near))
        x = np.array(data.draw(st.lists(word, min_size=1, max_size=40)), dtype=np.uint64)
        assert same_bits(dist.row_stats(x, None, None, [x.size])[0], float_counts(dist, x))

    @pytest.mark.parametrize("name", [*EDGE_LAWS, "d4"])
    def test_sample_picks_the_atom_the_word_count_gives(self, name):
        # the atom sample draws from a stream, and the one each of its
        # words is counted into as a row of its own, is the atom of the
        # stream's Generator.random uniform on float cumulative edges
        dist = (DiscreteIntervals(np.array(D4_VALUES_S), np.array(D4_PROBS)) if name == "d4"
                else edge_law(name))
        m = 5000
        atoms = float_atoms(dist.probs, substream(2024, 7).random(m))
        assert same_bits(dist.sample(substream(2024, 7), m), dist.values[atoms])
        x = substream(2024, 7).bit_generator.random_raw(m)
        assert same_bits(dist.row_stats(x[:, None], None, None, [1])[0], np.eye(dist.d)[atoms])


class TestMoments:
    def test_discrete_mean_benchmark(self):
        # atoms (1, 3) ns with weights (0.3, 0.7) average to 2.4 ns
        assert d2().mean() == pytest.approx(2.4e-9, rel=1e-15, abs=0.0)

    def test_degenerate_mean(self):
        assert DegenerateInterval(7e-6).mean() == 7e-6
        assert DegenerateInterval(7e-6).second_moment() == pytest.approx(49e-12)

    def test_powerlaw_moments(self):
        dist = PowerLawIntervals(mu0=1.0, alpha=3.0)
        assert dist.mean() == pytest.approx(1.5, rel=1e-15, abs=0.0)
        assert dist.second_moment() == pytest.approx(3.0, rel=1e-15, abs=0.0)

    def test_infinite_mean_guard(self):
        with pytest.raises(InfiniteMeanError):
            PowerLawIntervals(mu0=1.0, alpha=1.0).mean()
        with pytest.raises(InfiniteMeanError):
            PowerLawIntervals(mu0=1.0, alpha=0.5).mean()

    def test_infinite_second_moment_guard(self):
        with pytest.raises(InfiniteSecondMomentError):
            PowerLawIntervals(mu0=1.0, alpha=2.0).second_moment()
        with pytest.raises(InfiniteSecondMomentError):
            PowerLawIntervals(mu0=1.0, alpha=1.5).second_moment()


class TestLogQMoments:
    LAWS = {
        "discrete": lambda: d2(),
        "powerlaw": lambda: PowerLawIntervals(1 * NS, 3.0),
        "degenerate": lambda: DegenerateInterval(2 * NS),
    }

    @pytest.mark.parametrize("law", sorted(LAWS))
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_eigenstate_gives_exact_zeros(self, chain, law, level):
        lam, w = phase_weights(chain, PureState(chain.spec.eigenvectors[:, level]))
        assert lam.size == 1
        moments = self.LAWS[law]().log_q_moments(lam, w)
        assert moments == (0.0, 0.0)
        assert all(type(x) is float for x in moments)
        # the same eigenstate padded with zero weights: not a support
        padded = np.eye(3)[level]
        if law == "powerlaw":
            with pytest.raises(ValueError, match="phase_weights"):
                self.LAWS[law]().log_q_moments(chain.spec.eigenvalues, padded)
        else:
            assert self.LAWS[law]().log_q_moments(chain.spec.eigenvalues, padded) == (0.0, 0.0)

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_degenerate_eigenstate_gives_exact_zeros(self, psi0, law):
        # uncoupled levels of one energy: psi0 weighs two, merged into one
        lam, w = phase_weights(build_chain_hamiltonian([2 * math.pi * 1e4] * 3, 0.0), psi0)
        assert lam.size == 1
        assert self.LAWS[law]().log_q_moments(lam, w) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "values,probs",
        [(D2_VALUES_S, D2_PROBS), (D3_VALUES_S, D3_PROBS), (D4_VALUES_S, D4_PROBS)],
    )
    def test_discrete_is_sum_over_atoms_in_order(self, chain, psi0, values, probs):
        lam, w = phase_weights(chain, psi0)
        dist = DiscreteIntervals(np.array(values), np.array(probs))
        log_q = [log_survival_factor(chain, psi0, mu) for mu in values]
        # q is near 1 on every atom: ln E[q] is log1p(-E[1 - q])
        expected = (
            sum(p * x for p, x in zip(probs, log_q)),
            math.log1p(-sum(p * -math.expm1(x) for p, x in zip(probs, log_q))),
        )
        assert dist.log_q_moments(lam, w) == expected  # bitwise

    def test_degenerate_is_the_kernel_at_its_point(self, chain, psi0):
        lam, w = phase_weights(chain, psi0)
        log_q = log_survival_factor(chain, psi0, 2 * NS)
        assert DegenerateInterval(2 * NS).log_q_moments(lam, w) == (
            log_q, math.log1p(math.expm1(log_q))
        )

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
    def test_powerlaw_matches_oracle(self, chain, psi0, powerlaw_log_q_oracle, alpha):
        lam, w = phase_weights(chain, psi0)
        mean_log_q, log_mean_q = PowerLawIntervals(1 * NS, alpha).log_q_moments(lam, w)
        assert mean_log_q == pytest.approx(powerlaw_log_q_oracle(1 * NS, alpha), rel=1e-10, abs=0.0)
        # Jensen, and both vanish only on an eigenstate
        assert mean_log_q <= log_mean_q < 0.0

    @pytest.mark.parametrize("alpha", [2.0, 2.5, 3.0, 4.0])
    def test_powerlaw_matches_oracle_at_long_mu0(self, chain, psi0, powerlaw_log_q_oracle, alpha):
        # mu0 = 1 us is a quarter of the period of q: the panels start deep in it
        lam, w = phase_weights(chain, psi0)
        mean_log_q, log_mean_q = PowerLawIntervals(1 * US, alpha).log_q_moments(lam, w)
        assert mean_log_q == pytest.approx(powerlaw_log_q_oracle(1 * US, alpha), rel=1e-10, abs=0.0)
        assert mean_log_q <= log_mean_q < 0.0

    @pytest.mark.parametrize("mu0", [1 * NS, 1 * US])
    @pytest.mark.parametrize("alpha", [2.5, 3.0])
    def test_two_level_oracle_matches_the_quadrature_oracle(self, powerlaw_log_q_oracle, mu0, alpha):
        psi = np.array([1.0, 0.0, 1.0], dtype=complex)
        assert two_level_expect_log_q(chain_matrix(), psi, mu0, alpha) == pytest.approx(
            powerlaw_log_q_oracle(mu0, alpha), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("mu0", [1 * NS, 1 * US])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
    def test_heavy_tail_fails_fast(self, chain, psi0, powerlaw_log_q_oracle, mu0, alpha):
        lam, w = phase_weights(chain, psi0)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                mean_log_q, log_mean_q = PowerLawIntervals(mu0, alpha).log_q_moments(lam, w)
            except QuadratureNoConvergenceError:
                mean_log_q = None
        assert time.perf_counter() - start < 0.5
        # the closed tail takes alpha = 2 under _MAX_PANELS at both mu0
        assert (mean_log_q is None) == (alpha < 2.0)
        if mean_log_q is not None:
            assert math.isfinite(mean_log_q) and math.isfinite(log_mean_q)
            assert mean_log_q == pytest.approx(powerlaw_log_q_oracle(mu0, alpha), rel=1e-8, abs=0.0)

    def test_near_eigenstate_matches_oracle(self, chain):
        weights = np.array([1e-6, 1.0 - 2e-6, 1e-6])
        psi = chain.spec.eigenvectors @ np.sqrt(weights)
        lam, w = phase_weights(chain, PureState(psi))
        mean_log_q, log_mean_q = PowerLawIntervals(1 * NS, 3.0).log_q_moments(lam, w)
        expected = powerlaw_expect_log_q(chain_matrix(), psi, 1 * NS, 3.0)
        assert mean_log_q == pytest.approx(expected, rel=1e-10, abs=0.0)
        assert mean_log_q <= log_mean_q < 0.0

    #: levels 0, 1 and the golden ratio: q never repeats, and its minima
    #: come at every depth
    GOLDEN = np.diag([0.0, 1.0, (1.0 + math.sqrt(5.0)) / 2.0]) * 2 * math.pi * 100e3
    GOLDEN_PSI = np.ones(3, dtype=complex) / math.sqrt(3.0)

    def golden_support(self):
        return phase_weights(Hamiltonian.from_matrix(self.GOLDEN), PureState(self.GOLDEN_PSI))

    @pytest.mark.parametrize("alpha", [2.5, 3.0])
    def test_quasi_periodic_matches_oracle(self, alpha):
        lam, w = self.golden_support()
        period = 2 * math.pi / (lam[-1] - lam[0])
        minima = survival_minima(lam, w, period / 8 * np.arange(4000))[:300]
        assert np.count_nonzero(log_survival_factors(lam, w, minima) < math.log(intervals._Q_FLOOR)) == 19
        mean_log_q, log_mean_q = PowerLawIntervals(1 * NS, alpha).log_q_moments(lam, w)
        expected = powerlaw_expect_log_q(self.GOLDEN, self.GOLDEN_PSI, 1 * NS, alpha)
        assert mean_log_q == pytest.approx(expected, rel=1e-10, abs=0.0)
        assert mean_log_q <= log_mean_q < 0.0

    def test_numerical_eigenstate_gives_exact_zeros(self, chain):
        # eigh leaves weights of about 1e-32 off the eigenvector; the
        # support drops them
        lam, w = phase_weights(chain, PureState(chain.spec.eigenvectors[:, 1]))
        assert lam.size == 1
        assert PowerLawIntervals(1 * NS, 3.0).log_q_moments(lam, w) == (0.0, 0.0)
        assert np.all(log_survival_factors(lam, w, np.geomspace(1 * NS, 1.0, 50)) == 0.0)

    def test_composite_rule_integrates_the_density(self):
        # E[1] on [mu0, c] is 1 - (mu0/c)^alpha; the panels span several slabs
        nodes = intervals._GAUSS_NODES[0].size
        assert 2000 * nodes > 3 * intervals._QUAD_SLAB
        dist = PowerLawIntervals(1 * NS, 2.5)
        edges = 1 * NS * (1.0 + 0.01 * np.arange(2001))
        sizes = []

        def one(mus):
            sizes.append(mus.size)
            return np.ones((1, mus.size))

        got = dist.expect_windowed(one, edges=edges)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(1.0 - (edges[0] / edges[-1]) ** 2.5, rel=1e-13, abs=0.0)
        assert sum(sizes) == 2000 * nodes and max(sizes) <= intervals._QUAD_SLAB

    def test_gauss_literals_are_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(16)
        for got, want in zip(intervals._GAUSS_NODES, (nodes, weights)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    def test_one_grading_level_divides_the_log_edge_error(self):
        # the rule on the integral of ln x over [0, 1], which is -1, with
        # no edge and with one at 1/8
        nodes, weights = intervals._GAUSS_NODES

        def error(edges):
            lo, hi = np.array(edges[:-1])[:, None], np.array(edges[1:])[:, None]
            half = 0.5 * (hi - lo)
            return abs(1.0 + float(np.sum(half * weights * np.log(lo + half * (1.0 + nodes)))))

        assert error([0.0, 1.0]) == pytest.approx(intervals._LOG_EDGE_ERROR, rel=1e-12)
        assert 2e-3 < intervals._LOG_EDGE_ERROR < 3e-3
        assert error([0.0, 1.0 / 8.0, 1.0]) * 7.0 <= error([0.0, 1.0])

    @staticmethod
    def recorded_rule(dist, lam, w):
        """``dist.log_q_moments(lam, w)``, with the edges it passes to
        ``expect_windowed`` and the moments that call returns."""
        windowed = PowerLawIntervals.expect_windowed
        seen = []

        def recorded(self, g, *, edges):
            seen.append((edges, windowed(self, g, edges=edges)))
            return seen[-1][1]

        with mock.patch.object(PowerLawIntervals, "expect_windowed", recorded):
            moments = dist.log_q_moments(lam, w)
        ((edges, sums),) = seen
        return moments, edges, sums

    def test_grading_keeps_the_default_chain_panels_few(self, chain, psi0):
        # every minimum graded 8 levels deep made 24,048 panels here, and
        # the graded rule with the tail dropped past the cut 10,486
        lam, w = phase_weights(chain, psi0)
        _, edges, _ = self.recorded_rule(PowerLawIntervals(1 * NS, 2.5), lam, w)
        assert np.all(np.diff(edges) > 0.0)
        assert edges.size - 1 <= 2_500

    def test_two_levels_close_the_tail(self, chain, psi0):
        # the default state weighs two levels equally: g = 2 ln(1/2)
        lam, w = phase_weights(chain, psi0)
        assert lam.size == 2
        dist = PowerLawIntervals(1 * NS, 2.5)
        (mean_log_q, _), edges, sums = self.recorded_rule(dist, lam, w)
        tail = (dist.mu0 / edges[-1]) ** dist.alpha
        assert mean_log_q - sums[0] == pytest.approx(-2.0 * math.log(2.0) * tail, rel=1e-12,
                                                     abs=np.spacing(-mean_log_q))

    @pytest.mark.parametrize("alpha", [2.5, 3.0])
    def test_quasi_periodic_support_drops_the_tail(self, alpha):
        lam, w = self.golden_support()
        dist = PowerLawIntervals(1 * NS, alpha)
        (mean_log_q, _), edges, sums = self.recorded_rule(dist, lam, w)
        assert mean_log_q == float(sums[0])
        # the cut of the dropped tail, B (mu0/c)^alpha = _TAIL_TOL S, B = -2 ln w_max
        scale = min(float(np.dot(w, lam ** 2) - np.dot(w, lam) ** 2) * dist.mu0 ** 2, 1.0)
        mass = intervals._TAIL_TOL * scale / (-2.0 * math.log(w.max()))
        assert (dist.mu0 / edges[-1]) ** alpha == pytest.approx(mass, rel=0.01)

    @pytest.mark.parametrize("golden, alpha, rule, panels", [
        (False, 1.5, "closed", "2.2e+05"), (True, 2.0, "truncated", "4.6e+05")])
    def test_heavy_tail_error_names_the_rule_and_panels(self, chain, psi0, golden, alpha, rule,
                                                        panels):
        lam, w = self.golden_support() if golden else phase_weights(chain, psi0)
        with pytest.raises(QuadratureNoConvergenceError) as error:
            PowerLawIntervals(1 * NS, alpha).log_q_moments(lam, w)
        assert str(error.value) == (f"alpha = {alpha}: the {rule} tail needs {panels} panels, "
                                    f"more than {intervals._MAX_PANELS}")

    def test_powerlaw_memory_is_bounded(self, chain, psi0):
        dist = PowerLawIntervals(1 * NS, 2.5)
        tracemalloc.start()
        try:
            survival_stats_for(dist, chain, psi0, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20




class TestPointMass:
    """The point mass is the one-atom discrete law, bit for bit."""

    MU = 0.1 * NS

    def pair(self):
        return DegenerateInterval(self.MU), DiscreteIntervals(np.array([self.MU]), np.array([1.0]))

    def ensembles(self, chain, psi0, **run):
        return [run_ensemble(EnsembleConfig(dist=dist, hamiltonian=chain, state=psi0,
                                            master_seed=5, **run)) for dist in self.pair()]

    def test_is_a_one_atom_discrete_law(self):
        point, one_atom = self.pair()
        assert isinstance(point, DiscreteIntervals)
        assert point.d == 1 and point.mu_bar == self.MU
        assert same_bits(point.values, one_atom.values)
        assert same_bits(point.probs, one_atom.probs)
        assert same_bits(point.sample(substream(3, 0), 5), np.full(5, self.MU))
        assert repr(point).startswith("DegenerateInterval(values=array([1.e-10]), probs=")
        with pytest.raises(TypeError):  # like every discrete law: arrays do not hash
            hash(point)

    @pytest.mark.parametrize("realizations", [1, 300])
    def test_fixed_m_ensembles(self, chain, psi0, realizations):
        point, one_atom = self.ensembles(chain, psi0, mode="fixed_m", m=300,
                                         realizations=realizations)
        log_q = log_survival_factor(chain, psi0, self.MU)
        assert np.all(point.ms == 300)
        # every row counts m draws of the one atom: T = m mu and L = m ln q,
        # each rounded once
        assert same_bits(point.total_times, np.full(realizations, 300 * self.MU))
        assert same_bits(point.log_survivals, np.full(realizations, 300 * log_q))
        assert np.array_equal(point.ms, one_atom.ms)
        assert same_bits(point.total_times, one_atom.total_times)
        assert same_bits(point.log_survivals, one_atom.log_survivals)

    # 6.4 ns ties with the sum of the first 64-draw block; 0.05 ns keeps m = 0
    @pytest.mark.parametrize("t_total, m", [(0.7 * NS, 7), (6.4 * NS, 64), (0.05 * NS, 0)])
    def test_fixed_t_ensembles(self, chain, psi0, t_total, m):
        point, one_atom = self.ensembles(chain, psi0, mode="fixed_T", t_total=t_total,
                                         realizations=20)
        assert np.all(point.ms == m)
        assert np.array_equal(point.ms, one_atom.ms)
        assert same_bits(point.total_times, one_atom.total_times)
        assert same_bits(point.log_survivals, one_atom.log_survivals)

    def test_moments_and_statistics(self, chain, psi0):
        point, one_atom = self.pair()
        lam, w = phase_weights(chain, psi0)
        assert point.mean() == self.MU and one_atom.mean() == self.MU
        assert point.second_moment() == self.MU**2 == one_atom.second_moment()
        assert point.log_q_moments(lam, w) == one_atom.log_q_moments(lam, w)
        assert (survival_stats_for(point, chain, psi0, 300)
                == survival_stats_for(one_atom, chain, psi0, 300))
        assert qze_condition(point, chain, psi0) == qze_condition(one_atom, chain, psi0)
