import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    D2_PROBS,
    D2_VALUES_S,
    D3_PROBS,
    D3_VALUES_S,
    D4_PROBS,
    D4_VALUES_S,
    NS,
    US,
    chain_matrix,
    powerlaw_expect_log_q,
    same_bits,
)

from zenosim import (
    DegenerateInterval,
    DiscreteIntervals,
    EnsembleConfig,
    InfiniteMeanError,
    InfiniteSecondMomentError,
    PowerLawIntervals,
    PureState,
    QuadratureNoConvergenceError,
    log_survival_factor,
    qze_condition,
    run_ensemble,
    survival_stats_for,
)
from zenosim import intervals
from zenosim.dynamics import phase_weights
from zenosim.rng import substream


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

    def test_powerlaw_parameters(self):
        with pytest.raises(ValueError):
            PowerLawIntervals(mu0=-1.0, alpha=3.0)
        with pytest.raises(ValueError):
            PowerLawIntervals(mu0=1.0, alpha=0.0)

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
        w = np.zeros(3)
        w[level] = 1.0
        moments = self.LAWS[law]().log_q_moments(chain.spec.eigenvalues, w)
        assert moments == (0.0, 0.0)
        assert all(type(x) is float for x in moments)

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

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_powerlaw_matches_oracle(self, chain, psi0, powerlaw_log_q_oracle, alpha):
        lam, w = phase_weights(chain, psi0)
        mean_log_q, log_mean_q = PowerLawIntervals(1 * NS, alpha).log_q_moments(lam, w)
        assert mean_log_q == pytest.approx(powerlaw_log_q_oracle(1 * NS, alpha), rel=1e-8, abs=0.0)
        # Jensen, and both vanish only on an eigenstate
        assert mean_log_q <= log_mean_q < 0.0

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
        if mean_log_q is not None:
            assert math.isfinite(mean_log_q) and math.isfinite(log_mean_q)
            assert mean_log_q == pytest.approx(powerlaw_log_q_oracle(mu0, alpha), rel=1e-8, abs=0.0)

    def test_near_eigenstate_matches_oracle(self, chain):
        weights = np.array([1e-6, 1.0 - 2e-6, 1e-6])
        psi = chain.spec.eigenvectors @ np.sqrt(weights)
        lam, w = phase_weights(chain, PureState(psi))
        mean_log_q, log_mean_q = PowerLawIntervals(1 * NS, 3.0).log_q_moments(lam, w)
        expected = powerlaw_expect_log_q(chain_matrix(), psi, 1 * NS, 3.0)
        assert mean_log_q == pytest.approx(expected, rel=1e-8, abs=0.0)
        assert mean_log_q <= log_mean_q < 0.0

    def test_numerical_eigenstate_is_tiny_not_an_error(self, chain):
        # weights of about 1e-32 off the eigenvector: q never nears zero
        lam, w = phase_weights(chain, PureState(chain.spec.eigenvectors[:, 1]))
        mean_log_q, log_mean_q = PowerLawIntervals(1 * NS, 3.0).log_q_moments(lam, w)
        assert -1e-25 < mean_log_q <= log_mean_q <= 0.0

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
        # every row sums m copies of the one waiting time and of its ln q
        assert same_bits(point.total_times, np.full((realizations, 300), self.MU).sum(axis=1))
        assert same_bits(point.log_survivals, np.full((realizations, 300), log_q).sum(axis=1))
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
        assert qze_condition(point, chain, psi0, 300) == qze_condition(one_atom, chain, psi0, 300)
