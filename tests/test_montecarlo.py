import math
import tracemalloc
import warnings

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
)

from zenosim import (
    DegenerateInterval,
    DiscreteIntervals,
    EnsembleConfig,
    InsufficientSamplesError,
    LdProblem,
    PowerLawIntervals,
    empirical_rate,
    ensemble_summary,
    log_survival_factor,
    log_survival_factors,
    most_probable_log_survival,
    run_ensemble,
    survival_stats,
)
from zenosim import montecarlo
from zenosim.dynamics import phase_weights
from zenosim.rng import substream


def d2():
    return DiscreteIntervals(np.array(D2_VALUES_S), np.array(D2_PROBS))


def make_config(chain, psi0, dist, **kw):
    defaults = dict(
        dist=dist, hamiltonian=chain, state=psi0,
        mode="fixed_m", realizations=100, master_seed=777, m=100,
    )
    defaults.update(kw)
    return EnsembleConfig(**defaults)


class TestRunEnsemble:
    def test_degenerate_records_identical(self, chain, psi0):
        mu = 2e-9
        cfg = make_config(chain, psi0, DegenerateInterval(mu), m=50, realizations=20)
        ens = run_ensemble(cfg)
        expected = 50 * log_survival_factor(chain, psi0, mu)
        assert np.all(ens.ms == 50)
        assert np.all(ens.log_survivals == ens.log_survivals[0])
        assert ens.log_survivals[0] == pytest.approx(expected, rel=1e-12)

    def test_log_survivals_nonpositive(self, chain, psi0):
        ens = run_ensemble(make_config(chain, psi0, d2()))
        assert np.all(ens.log_survivals <= 0.0)

    def test_fixed_t_degenerate_count(self, chain, psi0):
        mu = 2e-9
        cfg = make_config(
            chain, psi0, DegenerateInterval(mu),
            mode="fixed_T", m=None, t_total=100 * mu, realizations=10,
        )
        ens = run_ensemble(cfg)
        assert np.all(ens.ms == 100)
        assert np.all(ens.total_times <= 100 * mu * (1 + 1e-12))

    def test_fixed_t_stopping_rule(self, chain, psi0):
        dist = PowerLawIntervals(mu0=1 * NS, alpha=2.0)
        t_total = 50 * NS
        cfg = make_config(
            chain, psi0, dist, mode="fixed_T", m=None,
            t_total=t_total, realizations=40, keep_traces=True,
        )
        ens = run_ensemble(cfg)
        for i in range(ens.n):
            kept = ens.traces[i]
            assert kept.sum() <= t_total * (1 + 1e-12)
            # the next draw from the same substream would overrun the budget
            replay = dist.sample(substream(cfg.master_seed, i), kept.size + 1)
            assert np.array_equal(replay[: kept.size], kept)
            assert kept.sum() + replay[kept.size] > t_total

    def test_determinism_same_seed(self, chain, psi0):
        cfg = make_config(chain, psi0, d2())
        a = run_ensemble(cfg)
        b = run_ensemble(cfg)
        assert np.array_equal(a.log_survivals, b.log_survivals)
        assert np.array_equal(a.total_times, b.total_times)

    def test_worker_count_invariance(self, chain, psi0):
        cfg = make_config(chain, psi0, d2(), realizations=257, m=40)
        serial = run_ensemble(cfg, workers=1)
        parallel = run_ensemble(cfg, workers=4)
        assert np.array_equal(serial.log_survivals, parallel.log_survivals)
        assert np.array_equal(serial.total_times, parallel.total_times)
        assert np.array_equal(serial.ms, parallel.ms)

    def test_seed_changes_output(self, chain, psi0):
        a = run_ensemble(make_config(chain, psi0, d2(), master_seed=1))
        b = run_ensemble(make_config(chain, psi0, d2(), master_seed=2))
        assert not np.array_equal(a.log_survivals, b.log_survivals)

    def test_config_validation(self, chain, psi0):
        with pytest.raises(ValueError):
            make_config(chain, psi0, d2(), mode="fixed_T")  # missing t_total
        with pytest.raises(ValueError):
            make_config(chain, psi0, d2(), m=None)
        with pytest.raises(ValueError):
            make_config(chain, psi0, d2(), realizations=0)
        with pytest.raises(ValueError):
            make_config(chain, psi0, d2(), mode="bogus")


LATTICE_LAWS = {
    "degenerate": DegenerateInterval(2e-9),
    "d2": DiscreteIntervals(np.array(D2_VALUES_S), np.array(D2_PROBS)),
    "d3": DiscreteIntervals(np.array(D3_VALUES_S), np.array(D3_PROBS)),
    "d4": DiscreteIntervals(np.array(D4_VALUES_S), np.array(D4_PROBS)),
}


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def replay(cfg):
    """Per-realization reference: substream, sample, then the kernel."""
    lam, w = phase_weights(cfg.hamiltonian, cfg.state)
    traces = [cfg.dist.sample(substream(cfg.master_seed, i), cfg.m)
              for i in range(cfg.realizations)]
    totals = np.array([t.sum() for t in traces])
    logs = np.array([log_survival_factors(lam, w, t).sum() for t in traces])
    return totals, logs, traces


class FixedUniforms:
    """Generator stand-in whose ``random`` returns preset uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, m):
        assert m == self.u.size
        return self.u.copy()


class TestLatticeGather:
    @pytest.mark.parametrize("law", [*LATTICE_LAWS, "power"])
    @pytest.mark.parametrize("keep_traces", [False, True])
    @pytest.mark.parametrize("per_chunk", [1, 7, None])
    def test_bitwise_replay(self, chain, psi0, monkeypatch, law, keep_traces, per_chunk):
        dist = LATTICE_LAWS.get(law, PowerLawIntervals(mu0=1 * NS, alpha=2.5))
        m = 50
        if per_chunk is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK_TARGET", per_chunk * m)
        cfg = make_config(chain, psi0, dist, m=m, realizations=23,
                          master_seed=2024, keep_traces=keep_traces)
        ens = run_ensemble(cfg)
        totals, logs, traces = replay(cfg)
        assert np.array_equal(ens.ms, np.full(cfg.realizations, m))
        assert same_bits(ens.total_times, totals)
        assert same_bits(ens.log_survivals, logs)
        if keep_traces:
            assert len(ens.traces) == len(traces)
            assert all(same_bits(a, b) for a, b in zip(ens.traces, traces))
        else:
            assert ens.traces is None

    @pytest.mark.parametrize("probs", [D2_PROBS, D3_PROBS, D4_PROBS, (0.1, 0.2, 0.3, 0.4)])
    def test_atom_index_on_cumulative_edges(self, chain, psi0, probs):
        dist = DiscreteIntervals(np.arange(1.0, len(probs) + 1) * NS, np.array(probs))
        edges = dist._cum[:-1]
        u = np.concatenate([[0.0], edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        expected = dist.values[np.searchsorted(dist._cum, u, side="left")]
        mus, _ = dist.intervals_and_log_q(u.copy(), *phase_weights(chain, psi0))
        assert same_bits(mus, expected)
        assert same_bits(dist.sample(FixedUniforms(u), u.size), expected)
        with pytest.raises(ValueError):
            dist.intervals_and_log_q(np.zeros((4, 4))[:, ::2], *phase_weights(chain, psi0))

    def test_peak_memory_per_draw(self, chain, psi0):
        m = 2_000_000
        cfg = make_config(chain, psi0, LATTICE_LAWS["d2"], m=m, realizations=1)
        tracemalloc.start()
        try:
            run_ensemble(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * m

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        atoms=st.lists(st.floats(1e-10, 2e-5), min_size=1, max_size=8, unique=True),
        data=st.data(),
        m=st.integers(1, 500),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_random_laws_match_per_draw_kernel(self, chain, psi0, atoms, data, m, seed):
        weights = np.array(data.draw(
            st.lists(st.floats(1e-3, 1.0), min_size=len(atoms), max_size=len(atoms))))
        dist = DiscreteIntervals(np.array(atoms), weights / weights.sum())
        cfg = make_config(chain, psi0, dist, m=m, realizations=3, master_seed=seed)
        ens = run_ensemble(cfg)
        totals, logs, _ = replay(cfg)
        assert same_bits(ens.total_times, totals)
        assert same_bits(ens.log_survivals, logs)


class TestStatisticalProperties:
    def test_variance_scales_inversely_with_m(self, chain, psi0):
        ms = (100, 400, 1600)
        variances = []
        for m in ms:
            cfg = make_config(chain, psi0, d2(), m=m, realizations=4000,
                              master_seed=4242)
            ens = run_ensemble(cfg)
            variances.append(ensemble_summary(ens).variance_intensive_log)
        slope = np.polyfit(np.log(ms), np.log(variances), 1)[0]
        assert -1.2 <= slope <= -0.8

    def test_geometric_mean_tracks_typical_value(self, chain, psi0):
        m, n = 100, 20_000
        cfg = make_config(chain, psi0, d2(), m=m, realizations=n, master_seed=99)
        ens = run_ensemble(cfg)
        prob = LdProblem.for_system(chain, psi0, d2(), m)
        l_star = most_probable_log_survival(prob)
        se = math.sqrt(ensemble_summary(ens).variance_intensive_log * m**2 / n)
        assert abs(float(ens.log_survivals.mean()) - l_star) <= 3 * se

    def test_sample_jensen(self, chain, psi0):
        for seed in (1, 7, 31):
            ens = run_ensemble(make_config(chain, psi0, d2(), master_seed=seed))
            summ = ensemble_summary(ens)
            assert summ.log_mean_survival >= summ.log_geometric_mean


class TestEnsembleSummary:
    def test_degenerate_mean_equals_geometric(self, chain, psi0):
        mu = 2e-9
        cfg = make_config(chain, psi0, DegenerateInterval(mu), m=30, realizations=8)
        summ = ensemble_summary(run_ensemble(cfg))
        expected = 30 * log_survival_factor(chain, psi0, mu)
        assert summ.log_mean_survival == pytest.approx(expected, rel=1e-12)
        assert summ.log_geometric_mean == pytest.approx(expected, rel=1e-12)
        assert summ.log_median == pytest.approx(expected, rel=1e-12)

    def test_mean_survival_matches_analytic(self, chain, psi0):
        m, n = 100, 100_000
        cfg = make_config(chain, psi0, d2(), m=m, realizations=n, master_seed=5150)
        ens = run_ensemble(cfg)
        summ = ensemble_summary(ens)
        stats = survival_stats(LdProblem.for_system(chain, psi0, d2(), m))
        # standard error of the sample mean of P, propagated into the log
        survivals = np.exp(ens.log_survivals)
        se_log = float(survivals.std(ddof=1)) / math.sqrt(n) / float(survivals.mean())
        assert abs(summ.log_mean_survival - stats.log_p_mean) <= 3 * se_log

    def test_mean_total_time_tracks_m_mu_bar(self, chain, psi0):
        m, n = 100, 10_000
        cfg = make_config(chain, psi0, d2(), m=m, realizations=n, master_seed=61)
        ens = run_ensemble(cfg)
        summ = ensemble_summary(ens)
        se = float(ens.total_times.std(ddof=1)) / math.sqrt(n)
        assert abs(summ.mean_total_time - m * d2().mean()) <= 3 * se

    def test_underflow_regime_mean_is_finite_in_log(self, chain, psi0):
        # per-record survival underflows a double; the log-domain mean must not
        mu = 1.7e-6  # near a zero of the overlap for the benchmark system
        cfg = make_config(chain, psi0, DegenerateInterval(mu), m=40000,
                          realizations=4)
        summ = ensemble_summary(run_ensemble(cfg))
        assert summ.log_mean_survival < -900.0
        assert math.isfinite(summ.log_mean_survival)
        assert summ.mean_survival == 0.0  # linear domain underflows, by design

    def test_budget_below_smallest_atom_is_typed_error(self, chain, psi0):
        cfg = make_config(chain, psi0, d2(), mode="fixed_T", m=None,
                          t_total=0.5 * NS, realizations=50)
        ens = run_ensemble(cfg)
        assert np.all(ens.ms == 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InsufficientSamplesError):
                ensemble_summary(ens)

    def test_variance_skips_zero_measurement_realizations(self, chain, psi0):
        cfg = make_config(chain, psi0, d2(), mode="fixed_T", m=None,
                          t_total=2 * NS, realizations=200)
        ens = run_ensemble(cfg)
        measured = ens.ms >= 1
        assert 2 <= np.count_nonzero(measured) < ens.n
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summ = ensemble_summary(ens)
        expected = np.var(ens.log_survivals[measured] / ens.ms[measured], ddof=1)
        assert math.isfinite(summ.variance_intensive_log)
        assert summ.variance_intensive_log == expected

    def test_needs_two_records(self, chain, psi0):
        cfg = make_config(chain, psi0, d2(), realizations=1)
        with pytest.raises(ValueError):
            ensemble_summary(run_ensemble(cfg))


class TestTypicalRealization:
    def test_median_convention(self, chain, psi0):
        ens = run_ensemble(make_config(chain, psi0, d2(), realizations=101))
        idx = ens.typical_index()
        assert ens.log_survivals[idx] == np.sort(ens.log_survivals)[50]
        assert ens.typical_log_survival() == ens.log_survivals[idx]


class TestEmpiricalRate:
    def test_degenerate_single_bin(self, chain, psi0):
        cfg = make_config(chain, psi0, DegenerateInterval(2e-9), m=50,
                          realizations=40)
        est = empirical_rate(run_ensemble(cfg), bins=4)
        assert est.centers.size == 1
        assert est.rates[0] == 0.0
        assert est.counts[0] == 40

    def test_insufficient_samples_rejected(self, chain, psi0):
        ens = run_ensemble(make_config(chain, psi0, d2(), realizations=99))
        with pytest.raises(InsufficientSamplesError):
            empirical_rate(ens, bins=10)

    def test_requires_fixed_m(self, chain, psi0):
        cfg = make_config(chain, psi0, d2(), mode="fixed_T", m=None,
                          t_total=1e-7, realizations=100)
        with pytest.raises(ValueError):
            empirical_rate(run_ensemble(cfg), bins=5)

    def test_matches_analytic_rate_on_populated_bins(self, chain, psi0):
        m, n = 100, 100_000
        cfg = make_config(chain, psi0, d2(), m=m, realizations=n, master_seed=8080)
        ens = run_ensemble(cfg)
        est = empirical_rate(ens, bins=25)
        prob = LdProblem.for_system(chain, psi0, d2(), m)
        from zenosim import rate_function_I

        checked = 0
        for x, rate, count in zip(est.centers, est.rates, est.counts):
            if count < 100:
                continue
            assert abs(rate - rate_function_I(prob, float(x))) <= 0.05
            checked += 1
        assert checked >= 5
