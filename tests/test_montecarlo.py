import math
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
    same_bits,
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
        assert ens.log_survivals[0] == pytest.approx(expected, rel=1e-12, abs=0.0)

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
            t_total=t_total, realizations=40,
        )
        ens = run_ensemble(cfg)
        for i, m in enumerate(ens.ms.tolist()):
            assert ens.total_times[i] <= t_total * (1 + 1e-12)
            # the kept draws lead the substream; its next draw would overrun
            replay = dist.sample(substream(cfg.master_seed, i), m + 1)
            assert ens.total_times[i] == replay[:m].sum()
            assert ens.total_times[i] + replay[m] > t_total

    def test_determinism_same_seed(self, chain, psi0):
        cfg = make_config(chain, psi0, d2())
        a = run_ensemble(cfg)
        b = run_ensemble(cfg)
        assert np.array_equal(a.log_survivals, b.log_survivals)
        assert np.array_equal(a.total_times, b.total_times)

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


def replay(cfg):
    """Per-realization reference: substream, sample, then the kernel."""
    lam, w = phase_weights(cfg.hamiltonian, cfg.state)
    draws = [cfg.dist.sample(substream(cfg.master_seed, i), cfg.m)
             for i in range(cfg.realizations)]
    totals = np.array([t.sum() for t in draws])
    logs = np.array([log_survival_factors(lam, w, t).sum() for t in draws])
    return totals, logs


class FixedUniforms:
    """Generator stand-in whose ``random`` returns preset uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, m):
        assert m == self.u.size
        return self.u.copy()


#: fixed-m row lengths below, at and above the longest vector-drawn row
ROW_LENGTHS = [5, 50, montecarlo._VECTOR_MAX_M, montecarlo._VECTOR_MAX_M + 1]


class TestLatticeGather:
    @pytest.mark.parametrize("law", [*LATTICE_LAWS, "power"])
    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("per_chunk,m", [
        pytest.param(per_chunk, m, id=f"{per_chunk}" if m == 50 else f"{per_chunk}-m{m}")
        for m in ROW_LENGTHS for per_chunk in (1, 7, None)
    ])
    def test_bitwise_replay(self, chain, psi0, monkeypatch, law, vector, per_chunk, m):
        dist = LATTICE_LAWS.get(law, PowerLawIntervals(mu0=1 * NS, alpha=2.5))
        cfg = make_config(chain, psi0, dist, m=m, realizations=23, master_seed=2024)
        # with ``vector``, chunks of 7 or more rows draw short rows with
        # philox_uniforms, and the 1-row chunks and the 2-row tail of
        # 23 = 3 x 7 + 2 select streams; without it every row selects
        monkeypatch.setattr(montecarlo, "_VECTOR_MIN_ROWS",
                            7 if vector else cfg.realizations + 1)
        if per_chunk is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK_TARGET", per_chunk * m)
        ens = run_ensemble(cfg)
        totals, logs = replay(cfg)
        assert np.array_equal(ens.ms, np.full(cfg.realizations, m))
        assert same_bits(ens.total_times, totals)
        assert same_bits(ens.log_survivals, logs)

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

    @pytest.mark.parametrize("m,rows,vector", [
        (20, 300, True),
        (montecarlo._VECTOR_MAX_M, montecarlo._VECTOR_MIN_ROWS, True),
        (montecarlo._VECTOR_MAX_M + 1, 300, False),
        (20, montecarlo._VECTOR_MIN_ROWS - 1, False),
    ])
    def test_short_rows_of_many_realizations_select_no_stream(self, chain, psi0, m, rows,
                                                              vector):
        cfg = make_config(chain, psi0, d2(), m=m, realizations=rows)
        with mock.patch.object(montecarlo.StreamFamily, "select",
                               autospec=True, side_effect=montecarlo.StreamFamily.select) as select:
            ens = run_ensemble(cfg)
        assert select.call_count == (0 if vector else rows)
        assert same_bits(ens.log_survivals, replay(cfg)[1])

    def test_peak_memory_of_short_rows(self, chain, psi0):
        # n realizations of m = 20 on the vector path: the chunk's
        # uniforms and ln q (16 bytes per draw), the records run_ensemble
        # keeps (m, total and log survival: 24 bytes per realization, held
        # once) and at most 2 MiB besides, for philox_uniforms' slabs and
        # the rest; at 4 x 10^5 the records outweigh the chunk
        m = 20
        chunk_draws = montecarlo._CHUNK_TARGET // m * m
        for n in (100_000, 400_000):
            cfg = make_config(chain, psi0, d2(), m=m, realizations=n)
            tracemalloc.start()
            try:
                run_ensemble(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * chunk_draws + 24 * n + 2 * 2**20

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

    @settings(max_examples=60)
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
        with mock.patch.object(montecarlo, "_VECTOR_MIN_ROWS", 1):  # rows up to _VECTOR_MAX_M
            ens = run_ensemble(cfg)
        totals, logs = replay(cfg)
        assert same_bits(ens.total_times, totals)
        assert same_bits(ens.log_survivals, logs)


def scalar_budget_rule(draws, limit):
    """Draws kept by the one-draw-at-a-time Neumaier stop rule."""
    kept, total, comp = [], 0.0, 0.0
    for mu in draws:
        if total + comp + mu > limit:
            break
        t = total + mu
        if abs(total) >= mu:
            comp += (total - t) + mu
        else:
            comp += (mu - t) + total
        total = t
        kept.append(mu)
    return kept


def sampled_in_blocks(dist, rng):
    while True:
        yield from dist.sample(rng, 64).tolist()


def replay_fixed_t(cfg):
    """Per-realization reference for fixed-T: substream, ``sample`` in
    64-draw blocks and the scalar stop rule, then the kernel."""
    lam, w = phase_weights(cfg.hamiltonian, cfg.state)
    limit = cfg.t_total * (1.0 + 1e-12)  # the documented budget slack
    ms, totals, logs = [], [], []
    for i in range(cfg.realizations):
        draws = sampled_in_blocks(cfg.dist, substream(cfg.master_seed, i))
        kept = np.asarray(scalar_budget_rule(draws, limit), dtype=float)
        ms.append(kept.size)
        totals.append(np.sum(kept))
        logs.append(np.sum(log_survival_factors(lam, w, kept)) if kept.size else 0.0)
    return np.array(ms), np.array(totals), np.array(logs)


class ReplayedDraws:
    """A waiting-time law that hands out the given draws, then ones."""

    def __init__(self, draws):
        self.draws = list(draws)

    def sample(self, rng, m):
        out, self.draws = (self.draws + [1.0] * m)[:m], self.draws[m:]
        return np.array(out)


FIXED_T_CASES = {
    "power1.5": (PowerLawIntervals(mu0=1 * NS, alpha=1.5), 300 * NS),
    "power2": (PowerLawIntervals(mu0=1 * NS, alpha=2.0), 300 * NS),
    "power3": (PowerLawIntervals(mu0=1 * NS, alpha=3.0), 2000 * NS),
    "d2": (LATTICE_LAWS["d2"], 1000 * NS),
    # 0.1 ns seven times sums above 0.7 ns in doubles: a tie the slack keeps
    "degenerate_tie": (DegenerateInterval(0.1 * NS), 0.7 * NS),
    # a tie at the first block's end: the next block holds the stop
    "degenerate_tie_64": (DegenerateInterval(0.1 * NS), 6.4 * NS),
    "below_smallest_atom": (DiscreteIntervals(np.array([1 * NS, 3 * NS]),
                                              np.array([0.5, 0.5])), 0.5 * NS),
}


class TestFixedTStop:
    @pytest.mark.parametrize("case", FIXED_T_CASES)
    @pytest.mark.parametrize("row_chunks", [False, True])
    def test_bitwise_replay(self, chain, psi0, monkeypatch, case, row_chunks):
        dist, t_total = FIXED_T_CASES[case]
        if row_chunks:  # every realization its own chunk
            monkeypatch.setattr(montecarlo, "_CHUNK_TARGET", 1)
        cfg = make_config(chain, psi0, dist, mode="fixed_T", m=None, t_total=t_total,
                          realizations=30, master_seed=31337)
        ens = run_ensemble(cfg)
        ms, totals, logs = replay_fixed_t(cfg)
        assert np.array_equal(ens.ms, ms)
        assert same_bits(ens.total_times, totals)
        assert same_bits(ens.log_survivals, logs)
        if case == "degenerate_tie":
            assert np.all(ens.ms == 7)
        if case == "degenerate_tie_64":
            assert np.all(ens.ms == 64)
        if case == "below_smallest_atom":
            assert np.all(ens.ms == 0) and np.all(ens.log_survivals == 0.0)

    def test_kept_counts_match_scalar_rule_at_the_limit(self):
        # rows scaled so that a prefix sums to the limit up to round-off:
        # the stop decisions there hinge on the compensation term
        rng = np.random.default_rng(2718)
        mus = rng.random((500, 64)) * 10.0 ** rng.integers(-3, 4, (500, 64))
        k = rng.integers(1, 64, 500)
        mus /= np.array([math.fsum(row[:n]) for row, n in zip(mus, k)])[:, None]
        expected = [len(scalar_budget_rule(row.tolist(), 1.0)) for row in mus]
        assert montecarlo._kept_counts(mus, 1.0).tolist() == expected

    def test_draws_contain_the_stop_near_the_limit(self):
        # budgets around the first block's sum, where whether to draw more
        # turns on the rounding margin
        dist = PowerLawIntervals(mu0=1 * NS, alpha=1.5)
        first = math.fsum(dist.sample(substream(5, 0), 64))
        for step in range(-400, 41, 4):
            limit = first * (1.0 + step * 2.0**-52)
            drawn = montecarlo._drawn_past_budget(dist, substream(5, 0), limit)
            assert len(scalar_budget_rule(drawn.tolist(), limit)) < drawn.size

    def test_draws_contain_the_stop_when_the_sum_rounds_up(self):
        # the plain sum of 64 draws rounds above a limit within which the
        # compensated rule keeps all of them: the next block holds the stop
        rng = np.random.default_rng(7)
        cases = 0
        for _ in range(200):
            first = rng.random(64) * 10.0 ** rng.integers(-3, 4, 64)
            limit = math.fsum(first)
            if first.sum() > limit and len(scalar_budget_rule(first.tolist(), limit)) == 64:
                cases += 1
                drawn = montecarlo._drawn_past_budget(ReplayedDraws(first), None, limit)
                assert len(scalar_budget_rule(drawn.tolist(), limit)) == 64 < drawn.size
        assert cases >= 10

    def test_blocks_outgrow_the_first(self, chain, psi0):
        # 300 draws per row take four blocks (64, 64, 128, 256)
        cfg = make_config(chain, psi0, DegenerateInterval(1 * NS), mode="fixed_T",
                          m=None, t_total=300 * NS, realizations=3)
        assert np.all(run_ensemble(cfg).ms == 300)


def chunked_configs(chain, psi0, mode, m=40, **kw):
    if mode == "fixed_m":
        return make_config(chain, psi0, d2(), m=m, **kw)
    return make_config(chain, psi0, PowerLawIntervals(mu0=1 * NS, alpha=2.5),
                       mode="fixed_T", m=None, t_total=150 * NS, **kw)


def run_in_chunks(cfg, target):
    """``run_ensemble`` with chunks of about ``target`` intervals."""
    with mock.patch.object(montecarlo, "_CHUNK_TARGET", target):
        return run_ensemble(cfg)


def same_ensemble(a, b) -> bool:
    return (np.array_equal(a.ms, b.ms) and same_bits(a.total_times, b.total_times)
            and same_bits(a.log_survivals, b.log_survivals))


class TestChunking:
    # chunks hold about _CHUNK_TARGET intervals: 1 and 7 give one
    # realization per chunk in both modes, 500 several
    @pytest.mark.parametrize("mode", ["fixed_m", "fixed_T"])
    @pytest.mark.parametrize("target", [1, 7, 500])
    def test_chunk_size_invariance(self, chain, psi0, mode, target):
        cfg = chunked_configs(chain, psi0, mode, realizations=257)
        assert same_ensemble(run_ensemble(cfg), run_in_chunks(cfg, target))

    @settings(max_examples=40)
    @given(
        mode=st.sampled_from(["fixed_m", "fixed_T"]),
        target=st.integers(1, 3000),
        n=st.integers(1, 60),
        seed=st.integers(0, 2**64 - 1),
        m=st.sampled_from(ROW_LENGTHS),
        min_rows=st.integers(1, 60),
    )
    def test_any_chunk_size_gives_the_same_bits(self, chain, psi0, mode, target, n, seed, m,
                                                min_rows):
        # chunks of at least min_rows short rows are vector-drawn, others not
        cfg = chunked_configs(chain, psi0, mode, m=m, realizations=n, master_seed=seed)
        with mock.patch.object(montecarlo, "_VECTOR_MIN_ROWS", min_rows):
            assert same_ensemble(run_ensemble(cfg), run_in_chunks(cfg, target))


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
        l_star = survival_stats(prob).log_p_star
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
        assert summ.log_mean_survival == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert summ.log_geometric_mean == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert summ.log_median == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_summaries_compare_and_hash_by_their_scalars(self, chain, psi0):
        ens = run_ensemble(make_config(chain, psi0, d2(), m=30, realizations=8))
        first, second = ensemble_summary(ens), ensemble_summary(ens)
        assert first == second and hash(first) == hash(second)

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
            summ = ensemble_summary(ens)
            with pytest.raises(InsufficientSamplesError):
                summ.variance_intensive_log
        # no measurement: every record is P = 1 after T = 0
        assert (summ.log_mean_survival, summ.log_geometric_mean, summ.mean_total_time) == (
            0.0, 0.0, 0.0)

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
        ens = run_ensemble(cfg)
        summ = ensemble_summary(ens)
        with pytest.raises(InsufficientSamplesError):
            summ.variance_intensive_log
        assert summ.log_mean_survival == summ.log_geometric_mean == ens.log_survivals[0]


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
