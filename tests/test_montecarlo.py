import math
import sys
import threading
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
    float_atoms,
    same_bits,
)

from zenosim import (
    DegenerateInterval,
    DiscreteIntervals,
    EnsembleConfig,
    InsufficientSamplesError,
    LdProblem,
    NonFiniteRecordsError,
    PowerLawIntervals,
    SurvivalEnsemble,
    empirical_rate,
    ensemble_summary,
    log_survival_factor,
    log_survival_factors,
    run_ensemble,
    survival_stats_for,
)
from zenosim import intervals, montecarlo, presets
from zenosim.dynamics import phase_weights
from zenosim.presets import run_preset
from zenosim.rng import substream, uniforms_from_words


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
        with pytest.raises(ValueError, match="takes no m"):
            make_config(chain, psi0, d2(), mode="fixed_T", t_total=1e-6)
        with pytest.raises(ValueError, match="takes no t_total"):
            make_config(chain, psi0, d2(), t_total=1e-6)
        for t_total in (math.inf, math.nan, -1e-9, 0.0):
            with pytest.raises(ValueError, match="finite t_total"):
                make_config(chain, psi0, d2(), mode="fixed_T", m=None, t_total=t_total)
        # a count that is not a plain integer would run clipped (2.7 as 2,
        # True as 1) or fail inside numpy
        for name, value in (("m", 2.7), ("m", True), ("m", 50.0), ("m", "50"),
                            ("realizations", 3.5), ("realizations", True),
                            ("master_seed", 2.0), ("master_seed", "7"),
                            ("master_seed", None), ("master_seed", False)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                make_config(chain, psi0, d2(), **{name: value})
        assert make_config(chain, psi0, d2(), m=np.int64(5), realizations=np.int32(3),
                           master_seed=np.uint64(2**64 - 1)).m == 5
        # a budget that is not a real number failed in a comparison, and
        # True ran as a budget of 1 s (these configs are built, never run)
        for t_total in ("1e-6", True, 1e-6j):
            with pytest.raises(ValueError, match="^t_total must be a real number"):
                make_config(chain, psi0, d2(), mode="fixed_T", m=None, t_total=t_total)
        for t_total in (np.float64(1e-6), 1):
            assert make_config(chain, psi0, d2(), mode="fixed_T", m=None,
                               t_total=t_total).t_total == t_total
        # only m may be None (fixed-T has no m)
        for mode, extra in (("fixed_m", {}), ("fixed_T", {"m": None, "t_total": 1e-6})):
            with pytest.raises(ValueError, match="^realizations must be an integer, not None"):
                make_config(chain, psi0, d2(), mode=mode, realizations=None, **extra)

    @pytest.mark.parametrize("seed, plain", [
        (np.int64(5), 5), (np.int32(7), 7), (np.int64(-1), -1), (np.uint64(2**64 - 1), 2**64 - 1),
    ], ids=["int64", "int32", "int64_negative", "uint64_top"])
    @pytest.mark.parametrize("mode, kw, drawn_by", [
        ("fixed_m", {"m": 20, "realizations": 200}, "philox"),  # short rows: one word fill
        ("fixed_m", {"m": 300, "realizations": 3}, "select"),   # a stream per row
        ("fixed_T", {"m": None, "t_total": 300 * NS, "realizations": 50}, "select"),
    ], ids=["fixed_m_words", "fixed_m_streams", "fixed_T"])
    def test_numpy_integer_seeds(self, chain, psi0, monkeypatch, seed, plain, mode, kw,
                                 drawn_by):
        # a numpy integer master seed gives the bits of the Python int it
        # equals, modulo 2**64, on both ways of reading the words; fixed T
        # runs a power law whose rows carry on past their first block
        dist = d2() if mode == "fixed_m" else PowerLawIntervals(mu0=1 * NS, alpha=1.5)
        calls = counted_draws(monkeypatch)
        ens = run_ensemble(make_config(chain, psi0, dist, mode=mode, master_seed=seed, **kw))
        assert calls[drawn_by] > 0 and calls["philox" if drawn_by == "select" else "select"] == 0
        assert same_ensemble(ens, run_ensemble(make_config(chain, psi0, dist, mode=mode,
                                                           master_seed=plain, **kw)))


LATTICE_LAWS = {
    "degenerate": DegenerateInterval(2e-9),
    "d2": DiscreteIntervals(np.array(D2_VALUES_S), np.array(D2_PROBS)),
    "d3": DiscreteIntervals(np.array(D3_VALUES_S), np.array(D3_PROBS)),
    "d4": DiscreteIntervals(np.array(D4_VALUES_S), np.array(D4_PROBS)),
}


def segment_sum(x):
    """``np.sum`` over each ``montecarlo._SEGMENT``-long segment of x (the
    last one shorter), the segment sums added left to right; ``np.sum``
    over x itself when x is at most one segment long."""
    step = montecarlo._SEGMENT
    total = x[:step].sum()
    for a in range(step, x.size, step):
        total = total + x[a:a + step].sum()
    return total


def replay(cfg, table=None):
    """Per-realization reference. A discrete law's row is replayed as its
    atom counts: the substream's uniforms, each atom by ``searchsorted``
    on float cumulative edges (checked against ``sample``), ``bincount``,
    then sum_a n_a (mu_a, ln q_a) added left to right in atom order over
    the visited atoms, with ln q from ``table`` (the kernel on the atoms
    by default). A
    power law's row is sampled, mapped by the kernel and summed by
    ``segment_sum``."""
    lam, w = phase_weights(cfg.hamiltonian, cfg.state)
    dist, m = cfg.dist, cfg.m
    totals, logs = [], []
    for i in range(cfg.realizations):
        if not isinstance(dist, DiscreteIntervals):
            mus = dist.sample(substream(cfg.master_seed, i), m)
            totals.append(segment_sum(mus))
            logs.append(segment_sum(log_survival_factors(lam, w, mus)))
            continue
        atoms = float_atoms(dist.probs, substream(cfg.master_seed, i).random(m))
        assert same_bits(dist.values[atoms], dist.sample(substream(cfg.master_seed, i), m))
        counts = np.bincount(atoms, minlength=dist.d).tolist()
        log_q = log_survival_factors(lam, w, dist.values) if table is None else table
        visited = [(n, mu, lq) for n, mu, lq in zip(counts, dist.values.tolist(), log_q.tolist())
                   if n]
        totals.append(sum(n * mu for n, mu, _ in visited))
        logs.append(sum(n * lq for n, _, lq in visited))
    return np.array(totals, dtype=float), np.array(logs, dtype=float)


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
        # philox_words, and the 1-row chunks and the 2-row tail of
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
        # the words whose uniforms are the last at or below a cumulative
        # edge and the first above it, and the least and greatest words,
        # are sampled as and counted into the atom of their uniforms on
        # float cumulative edges
        dist = DiscreteIntervals(np.arange(1.0, len(probs) + 1) * NS, np.array(probs))
        lam, w = phase_weights(chain, psi0)
        low = [math.floor(c * 2.0**53) << 11 for c in np.cumsum(probs)[:-1].tolist()]
        x = np.array([0, 2**64 - 1, *low, *(g + 2047 for g in low), *(g + 2048 for g in low)],
                     dtype=np.uint64)
        atoms = float_atoms(probs, uniforms_from_words(x))
        assert same_bits(dist.sample(FixedWords(x), x.size), dist.values[atoms])
        # one word per row: each row counts its one draw in its atom
        assert same_bits(dist.row_stats(x[:, None].copy(), lam, w, [1])[0], np.eye(dist.d)[atoms])
        # one row of all of them, as a (1, n) block and as a 1-D segment
        counts = np.bincount(atoms, minlength=dist.d)
        assert same_bits(dist.row_stats(x[None].copy(), lam, w, [x.size])[0], counts[None])
        assert same_bits(dist.row_stats(x.copy(), lam, w, [x.size])[0], counts)

    @pytest.mark.parametrize("m,rare,segment", [
        (5, 0.1, montecarlo._SEGMENT),  # short rows, drawn by philox_words
        (200, 0.005, 128),  # rows cut into segments of 128 and 72 draws
    ])
    def test_overlap_zero_atom(self, chain, psi0, monkeypatch, m, rare, segment):
        # ln q = -inf at the middle atom: a row that visits it has L = -inf,
        # one that does not a finite L, and no row NaN, as a plain
        # counts @ table would give from 0 * -inf
        monkeypatch.setattr(montecarlo, "_SEGMENT", segment)
        dist = DiscreteIntervals(np.array([1 * NS, 2 * NS, 3 * NS]),
                                 np.array([(1 - rare) / 2, rare, (1 - rare) / 2]))
        zero, kernel = dist.values[1], intervals.log_survival_factors
        monkeypatch.setattr(intervals, "log_survival_factors",
                            lambda lam, w, mus: np.where(mus == zero, -np.inf, kernel(lam, w, mus)))
        cfg = make_config(chain, psi0, dist, m=m, realizations=300, master_seed=17)
        ens = run_ensemble(cfg)
        table = intervals.log_survival_factors(*phase_weights(chain, psi0), dist.values)
        totals, logs = replay(cfg, table)
        visited = np.isneginf(ens.log_survivals)
        assert 0 < np.count_nonzero(visited) < cfg.realizations
        assert np.all(np.isfinite(ens.log_survivals[~visited]))
        assert same_bits(ens.total_times, totals)
        assert same_bits(ens.log_survivals, logs)

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
        # words and one comparison mask (9 bytes per draw), the records
        # run_ensemble keeps (m, total and log survival: 24 bytes per
        # realization, held once) and at most 2 MiB besides, for
        # philox_words' slabs, the atom counts and the rest; at 4 x 10^5
        # the records outweigh the chunk
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
            assert peak <= 9 * chunk_draws + 24 * n + 2 * 2**20

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


SEGMENT = montecarlo._SEGMENT
LONG_ROW_LAWS = ["d2", "d4", "degenerate", "power"]


def long_row_law(law):
    return LATTICE_LAWS.get(law, PowerLawIntervals(mu0=1 * NS, alpha=2.5))


class TestSegmentedRows:
    # a fixed-m row longer than _SEGMENT is read in segments of _SEGMENT
    # draws; its sums must be those of segment_sum over the whole row
    @pytest.mark.parametrize("law", LONG_ROW_LAWS)
    @pytest.mark.parametrize("m", [SEGMENT + 1, 2 * SEGMENT + 7, 5 * SEGMENT + 3])
    @pytest.mark.parametrize("per_chunk", [1, None])
    def test_bitwise_replay(self, chain, psi0, monkeypatch, law, m, per_chunk):
        cfg = make_config(chain, psi0, long_row_law(law), m=m, realizations=3, master_seed=99)
        if per_chunk is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK_TARGET", per_chunk)
        ens = run_ensemble(cfg)
        totals, logs = replay(cfg)
        assert np.array_equal(ens.ms, np.full(cfg.realizations, m))
        assert same_bits(ens.total_times, totals)
        assert same_bits(ens.log_survivals, logs)

    @pytest.mark.parametrize("law", LONG_ROW_LAWS)
    @pytest.mark.parametrize("segment", [128, 1000])
    @pytest.mark.parametrize("m", [129, 1001, 4099])
    def test_deep_trees(self, chain, psi0, monkeypatch, law, segment, m):
        monkeypatch.setattr(montecarlo, "_SEGMENT", segment)
        cfg = make_config(chain, psi0, long_row_law(law), m=m, realizations=3, master_seed=7)
        ens = run_ensemble(cfg)
        totals, logs = replay(cfg)
        assert same_bits(ens.total_times, totals)
        assert same_bits(ens.log_survivals, logs)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_one_table_per_long_row(self, chain, psi0, monkeypatch, cores):
        # a discrete row of 9 x _SEGMENT draws is read as 9 segments; its
        # ln q table is evaluated once for the row, not once per segment
        use_cores(monkeypatch, cores)
        sizes, kernel = [], intervals.log_survival_factors
        segments, count = [], DiscreteIntervals.row_stats

        def counted(lam, w, mus):
            sizes.append(mus.size)
            return kernel(lam, w, mus)

        def segment(self, u, lam, w, ends):
            segments.append(u.size)
            return count(self, u, lam, w, ends)

        monkeypatch.setattr(intervals, "log_survival_factors", counted)
        monkeypatch.setattr(DiscreteIntervals, "row_stats", segment)
        cfg = make_config(chain, psi0, d2(), m=9 * SEGMENT, realizations=3)
        run_ensemble(cfg)
        assert segments == [SEGMENT] * 9 * cfg.realizations
        assert sizes == [2] * cfg.realizations

    @pytest.mark.parametrize("cores", [1, 2, 5])
    def test_power_law_row_on_any_core_count(self, chain, psi0, monkeypatch, cores):
        # a power-law row of four segments, the last of 5 draws, has the
        # same bits on any core count; its segment sums, added in order,
        # stay within 4 ulp of np.sum over the whole row
        dist = PowerLawIntervals(mu0=1 * NS, alpha=2.5)
        cfg = make_config(chain, psi0, dist, m=3 * SEGMENT + 5, realizations=2, master_seed=13)
        totals, logs = replay(cfg)
        use_cores(monkeypatch, cores, max_parts=max(CORE_COUNTS))
        ens = run_ensemble(cfg)
        assert same_bits(ens.total_times, totals)
        assert same_bits(ens.log_survivals, logs)
        lam, w = phase_weights(chain, psi0)
        for i in range(cfg.realizations):
            mus = dist.sample(substream(cfg.master_seed, i), cfg.m)
            whole = (mus.sum(), log_survival_factors(lam, w, mus).sum())
            for got, exact in zip((ens.total_times[i], ens.log_survivals[i]), whole):
                assert abs(got - exact) <= 4 * np.spacing(abs(exact))

    def test_peak_memory_is_flat_in_m(self, chain, psi0, monkeypatch):
        # each part's peak is its segment buffer and one segment's
        # comparison mask, which do not grow with m; nor with the core
        # count, as a row runs in at most _MAX_PARTS parts. Whether two
        # parts overlap is for the scheduler to decide, so on many cores
        # each segment waits for the other part's, and both segment
        # buffers are always held; that pairs every segment only when both
        # parts hold as many, so the rows have 16 and 152 segments (10^7
        # draws would make 153)
        def peaks_at(cores):
            use_cores(monkeypatch, cores)
            peaks = {}
            for m in (10**6, 152 * SEGMENT):
                cfg = make_config(chain, psi0, d2(), m=m, realizations=1)
                tracemalloc.start()
                try:
                    run_ensemble(cfg)
                    peaks[m] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            return peaks

        one = peaks_at(1)
        both = threading.Barrier(2, timeout=60)
        count = DiscreteIntervals.row_stats

        def paired(self, u, lam, w, ends):
            both.wait()
            return count(self, u, lam, w, ends)

        monkeypatch.setattr(DiscreteIntervals, "row_stats", paired)
        two = peaks_at(64)
        assert one[152 * SEGMENT] <= 1.1 * one[10**6]
        assert two[152 * SEGMENT] <= 1.1 * two[10**6]
        assert two[10**6] > 1.5 * one[10**6]  # the parts did overlap
        assert max(*one.values(), *two.values()) < 4 * 2**20

    @pytest.mark.parametrize("law", ["d2", "power3"])
    def test_memory_held_per_segment_is_its_statistics(self, chain, psi0, monkeypatch, law):
        # a row's segment statistics go into one array per config and
        # chunk: 16 bytes a segment for one row of (count, count) or (sum
        # mu, sum ln q), and as much again for their running sum; a list
        # entry and a view per segment held about 500
        monkeypatch.setattr(montecarlo, "_SEGMENT", 128)
        use_cores(monkeypatch, 1)
        dist = d2() if law == "d2" else PowerLawIntervals(mu0=1 * NS, alpha=3.0)
        peaks = {}
        for segments in (100, 2000):
            cfg = make_config(chain, psi0, dist, m=128 * segments, realizations=1)
            tracemalloc.start()
            try:
                run_ensemble(cfg)
                peaks[segments] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (peaks[2000] - peaks[100]) / 1900 < 64


CORE_COUNTS = [1, 2, 3, 5]


def use_cores(monkeypatch, cores, max_parts=None):
    """Make montecarlo see ``cores`` usable cores; lift the part cap to
    ``max_parts`` where given, so more parts than it allows run."""
    monkeypatch.setattr(montecarlo, "_usable_cores", lambda: cores)
    if max_parts is not None:
        monkeypatch.setattr(montecarlo, "_MAX_PARTS", max_parts)


def spy_parts(monkeypatch):
    """Record the calling thread of every call of montecarlo._segment_stats,
    one per part of each chunk."""
    calls = []
    run = montecarlo._segment_stats

    def spied(*args):
        calls.append(threading.get_ident())
        return run(*args)

    monkeypatch.setattr(montecarlo, "_segment_stats", spied)
    return calls


def chunk_count(cfg):
    """How many chunks a fixed-m run of ``cfg`` cuts its realizations into."""
    rows = max(1, montecarlo._CHUNK_TARGET // cfg.m)
    return -(-cfg.realizations // rows)


class TestCoreParts:
    # a fixed-m chunk of many segments runs one part per usable core; any
    # core count must give the bits of the serial code
    @pytest.mark.parametrize("law", ["d2", "d4", "degenerate", "power3"])
    @pytest.mark.parametrize("segment,m", [
        (SEGMENT, SEGMENT + 1),  # two segments, fewer than most core counts
        (SEGMENT, 5 * SEGMENT + 3),
        (128, 4099),  # 33 segments, the last of 3 draws
    ])
    def test_long_rows(self, chain, psi0, monkeypatch, law, segment, m):
        monkeypatch.setattr(montecarlo, "_SEGMENT", segment)
        dist = LATTICE_LAWS.get(law, PowerLawIntervals(mu0=1 * NS, alpha=3.0))
        cfg = make_config(chain, psi0, dist, m=m, realizations=2, master_seed=31)
        totals, logs = replay(cfg)
        segments, chunks = -(-m // segment), chunk_count(cfg)
        calls = spy_parts(monkeypatch)
        for cores in CORE_COUNTS:
            use_cores(monkeypatch, cores, max_parts=max(CORE_COUNTS))
            calls.clear()
            ens = run_ensemble(cfg)
            assert same_bits(ens.total_times, totals)
            assert same_bits(ens.log_survivals, logs)
            # the caller runs one part of each chunk, helper threads the rest
            assert len(calls) == chunks * min(cores, segments)
            assert calls.count(threading.get_ident()) == chunks

    def test_parts_are_capped(self, chain, psi0, monkeypatch):
        # however many cores there are, a row runs in at most _MAX_PARTS
        use_cores(monkeypatch, 64)
        calls = spy_parts(monkeypatch)
        cfg = make_config(chain, psi0, d2(), m=9 * SEGMENT, realizations=3)
        run_ensemble(cfg)
        assert len(calls) == 3 * montecarlo._MAX_PARTS
        # with one part allowed, every segment runs in the calling thread and
        # no pool is made: an executor of zero workers would raise
        use_cores(monkeypatch, 64, max_parts=1)
        calls.clear()
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: (started.append(thread), start(thread))[1])
        ens = run_ensemble(cfg)
        assert calls == [threading.get_ident()] * 3 and started == []
        totals, logs = replay(cfg)
        assert same_bits(ens.total_times, totals)
        assert same_bits(ens.log_survivals, logs)

    @pytest.mark.parametrize("m", [129, 2000, 6400])
    @pytest.mark.parametrize("rows", [25, 131])
    def test_per_row_chunks(self, chain, psi0, monkeypatch, m, rows):
        # rows of at most _SEGMENT draws run one part per chunk, in the
        # calling thread
        cfg = make_config(chain, psi0, d2(), m=m, realizations=rows, master_seed=8)
        totals, logs = replay(cfg)
        calls = spy_parts(monkeypatch)
        for cores in CORE_COUNTS:
            use_cores(monkeypatch, cores, max_parts=max(CORE_COUNTS))
            ens = run_ensemble(cfg)
            assert same_bits(ens.total_times, totals)
            assert same_bits(ens.log_survivals, logs)
        assert calls == [threading.get_ident()] * (len(CORE_COUNTS) * chunk_count(cfg))

    def test_more_parts_than_cores_under_fast_thread_switches(self, chain, psi0, monkeypatch):
        # parts share only read-only inputs, also the laws of a group that
        # share draws; switching threads every 10 us with more parts than
        # this machine has cores must not move a bit
        power = PowerLawIntervals(mu0=1 * NS, alpha=3.0)
        cfgs = [make_config(chain, psi0, law, m=m, realizations=2, master_seed=5)
                for law, m in ((d2(), 3 * SEGMENT + 11), (d2(), 7 * SEGMENT + 5),
                               (power, 7 * SEGMENT + 5))]
        use_cores(monkeypatch, 1)
        serial = [run_ensemble(cfg) for cfg in cfgs]
        use_cores(monkeypatch, 7, max_parts=7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            parallel = montecarlo.run_ensembles(cfgs)
        finally:
            sys.setswitchinterval(interval)
        assert all(same_ensemble(a, b) for a, b in zip(serial, parallel))

    def test_helper_threads_end_with_the_run(self, chain, psi0, monkeypatch):
        use_cores(monkeypatch, 3, max_parts=3)
        before = threading.active_count()
        run_ensemble(make_config(chain, psi0, d2(), m=2 * SEGMENT + 7, realizations=3))
        assert threading.active_count() == before

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_a_failing_part_raises_its_own_error(self, chain, psi0, monkeypatch, where):
        use_cores(monkeypatch, 3, max_parts=3)
        cfg = make_config(chain, psi0, FailingLaw(D2_VALUES_S, D2_PROBS, where),
                          m=2 * SEGMENT + 7, realizations=3)
        before = threading.active_count()
        with pytest.raises(PartFault, match=where):
            run_ensemble(cfg)
        assert threading.active_count() == before


class PartFault(RuntimeError):
    pass


class FailingLaw(DiscreteIntervals):
    """The d2 law, but counting words raises ``PartFault`` in a helper
    thread (``where="helper"``) or in the calling one (``"caller"``)."""

    def __init__(self, values, probs, where):
        super().__init__(np.array(values), np.array(probs))
        object.__setattr__(self, "where", where)

    def row_stats(self, u, lam, w, ends):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (self.where == "caller"):
            raise PartFault(self.where)
        return super().row_stats(u, lam, w, ends)


def scalar_budget_state(draws, limit, total=0.0, comp=0.0):
    """(draws kept, total, comp) of the one-draw-at-a-time Neumaier stop
    rule, carried on from the state (total, comp)."""
    kept = []
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
    return kept, total, comp


def scalar_budget_rule(draws, limit):
    """Draws kept by the one-draw-at-a-time Neumaier stop rule."""
    return scalar_budget_state(draws, limit)[0]


def compensated_rows(monkeypatch):
    """Count the rows ``_kept_in_block`` hands to the compensated rule."""
    seen, compensated = [0], montecarlo._kept_compensated

    def counted(mus, *args):
        seen[0] += len(mus)
        return compensated(mus, *args)

    monkeypatch.setattr(montecarlo, "_kept_compensated", counted)
    return seen


def rows_stopping_at(rng, targets, width, total, last=False):
    """One row of ``width`` draws per target, carried on from ``total``,
    whose plain running sum reaches the target, to within its last
    rounding, at a random draw before the last, or at the last if
    ``last``: the draws before it are random, the one at it makes up the
    difference."""
    mus = rng.random((len(targets), width)) * 10.0 ** rng.integers(-3, 1, (len(targets), width))
    for row, target in zip(mus, targets):
        at = width if last else int(rng.integers(1, width))
        row[:at] *= (target - total) / 2 / row[:at].sum()
        row[at - 1] = target - np.cumsum(np.concatenate(([total], row[:at - 1])))[-1]
    assert np.all(mus > 0)
    return mus


def sampled_in_blocks(dist, rng):
    while True:
        yield from dist.sample(rng, 64).tolist()


def budget(t_total):
    """The limit a fixed-T run of budget ``t_total`` stops at: ``t_total``
    and the documented relative slack of 1e-12."""
    return t_total * (1.0 + 1e-12)


def first_block(cfg):
    """The draws in each fixed-T row's first block: ``_block_size`` of the
    budget over the law's mean, or 64 where the mean is infinite."""
    try:
        return montecarlo._block_size(budget(cfg.t_total) / cfg.dist.mean())
    except intervals.InfiniteMeanError:
        return 64


def blocks_reached(m, first):
    """(start, size) of each block a fixed-T row that keeps m draws runs:
    ``first`` draws, then each block twice the one before, at most
    ``_SEGMENT``, up to the block the row stops in. A row that keeps all
    of a block runs the next one, so a row ending on a block's end runs
    one more, keeping none of it."""
    start, size = 0, first
    while start <= m:
        yield start, size
        start, size = start + size, min(2 * size, montecarlo._SEGMENT)


def block_sum(x, first):
    """``np.sum`` over the part of x in each block a fixed-T row whose
    kept draws are x runs (``blocks_reached``), added left to right from
    0.0, as ``segment_sum`` adds fixed-m segments."""
    total = 0.0
    for start, size in blocks_reached(x.size, first):
        total = total + np.sum(x[start:start + size])
    return total


def replay_fixed_t(cfg):
    """Per-realization reference for fixed-T: substream, ``sample`` in
    64-draw blocks and the scalar stop rule, then the kernel, each
    statistic summed block by block (``block_sum``)."""
    lam, w = phase_weights(cfg.hamiltonian, cfg.state)
    limit, first = budget(cfg.t_total), first_block(cfg)
    ms, totals, logs = [], [], []
    for i in range(cfg.realizations):
        draws = sampled_in_blocks(cfg.dist, substream(cfg.master_seed, i))
        kept = np.asarray(scalar_budget_rule(draws, limit), dtype=float)
        ms.append(kept.size)
        totals.append(block_sum(kept, first))
        logs.append(block_sum(log_survival_factors(lam, w, kept), first))
    return np.array(ms), np.array(totals), np.array(logs)


class ReplayedDraws:
    """A waiting-time law that hands out the given draws, then ones, and
    has no finite mean, so a fixed-T run's first block is 64 draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def sample(self, rng, m):
        out, self.draws = (self.draws + [1.0] * m)[:m], self.draws[m:]
        return np.array(out)

    def mean(self):
        raise intervals.InfiniteMeanError("replayed draws")


FIXED_T_CASES = {
    "power1.5": (PowerLawIntervals(mu0=1 * NS, alpha=1.5), 300 * NS),
    "power2": (PowerLawIntervals(mu0=1 * NS, alpha=2.0), 300 * NS),
    "power3": (PowerLawIntervals(mu0=1 * NS, alpha=3.0), 2000 * NS),
    # no finite mean: the first block is 64, and later ones grow from it
    "power0.8": (PowerLawIntervals(mu0=1 * NS, alpha=0.8), 1000 * NS),
    "d2": (LATTICE_LAWS["d2"], 1000 * NS),
    # about 8 kept of a first block of 64: blocks mostly overrun
    "d2_20ns": (LATTICE_LAWS["d2"], 20 * NS),
    # 0.1 ns seven times sums above 0.7 ns in doubles: a tie the slack keeps
    "degenerate_tie": (DegenerateInterval(0.1 * NS), 0.7 * NS),
    # a tie at the first block's end: the next block holds the stop
    "degenerate_tie_64": (DegenerateInterval(0.1 * NS), 6.4 * NS),
    "below_smallest_atom": (DiscreteIntervals(np.array([1 * NS, 3 * NS]),
                                              np.array([0.5, 0.5])), 0.5 * NS),
}


class CountedDraws:
    """A waiting-time law that records the size of each ``sample`` call
    asked of ``dist``, and forwards its mean."""

    def __init__(self, dist):
        self.dist, self.sizes = dist, []

    @property
    def draws(self):
        return sum(self.sizes)

    def sample(self, rng, m):
        self.sizes.append(m)
        return self.dist.sample(rng, m)

    def mean(self):
        return self.dist.mean()


class TestFixedTStop:
    @pytest.mark.parametrize("case", FIXED_T_CASES)
    @pytest.mark.parametrize("short_blocks", [False, True])
    def test_bitwise_replay(self, chain, psi0, monkeypatch, case, short_blocks):
        dist, t_total = FIXED_T_CASES[case]
        if short_blocks:  # blocks of at most 128 draws: the stop rule crosses many
            monkeypatch.setattr(montecarlo, "_SEGMENT", 128)
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

    @pytest.mark.parametrize("case,size", [("power0.8", 64), ("power1.5", 112)])
    def test_each_drawn_draw_mapped_once(self, chain, psi0, monkeypatch, case, size):
        # ln q maps each block a row draws once, whole, overrun draws
        # included. The first block is 64 draws where the mean is
        # infinite, else 9/8 of t_total / mean (300 ns / 3 ns at alpha
        # 1.5) rounded up to a multiple of 4
        dist, t_total = FIXED_T_CASES[case]
        mapped, kernel = [], montecarlo.log_survival_factors

        def counted(lam, w, mus):
            mapped.append(np.size(mus))
            return kernel(lam, w, mus)

        monkeypatch.setattr(montecarlo, "log_survival_factors", counted)
        counted_law = CountedDraws(dist)
        cfg = make_config(chain, psi0, counted_law, mode="fixed_T", m=None, t_total=t_total,
                          realizations=30, master_seed=31337)
        ms = run_ensemble(cfg).ms
        assert first_block(cfg) == size
        assert np.any(ms > size)  # some rows carry on past their first block
        assert sum(mapped) == counted_law.draws
        assert counted_law.draws == sum(size for m in ms.tolist()
                                         for _, size in blocks_reached(m, first_block(cfg)))

    def test_masked_prefix_sums_match_each_row_summed_alone(self, chain, psi0):
        # fixed T sums each row's kept prefix where it lies in the stacked
        # block, by one masked reduction: every row, at lengths on both
        # sides of the pairwise loop's 8-way unroll and 128-entry blocks,
        # and up to a whole _SEGMENT, sums as np.add.reduce sums it alone
        lam, w = phase_weights(chain, psi0)
        kept = np.array([0, 0, 1, 7, 7, 7, 128, 128, 129, 129, 300, 1500, 2, 64,
                         8, 9, 127, 8193, SEGMENT])
        block = np.random.default_rng(5).random((kept.size, SEGMENT)) * 10 * NS
        logq = log_survival_factors(lam, w, block)
        prefix = np.arange(SEGMENT) < kept[:, None]
        totals = np.add.reduce(block, axis=1, where=prefix)
        logs = np.add.reduce(logq, axis=1, where=prefix)
        assert same_bits(totals, [np.add.reduce(row[:k]) for row, k in zip(block, kept)])
        assert same_bits(logs, [np.add.reduce(log_survival_factors(lam, w, row[:k]))
                                for row, k in zip(block, kept)])

    def test_kept_counts_match_scalar_rule_at_the_limit(self):
        # rows scaled so that a prefix sums to the limit up to round-off:
        # the stop decisions there hinge on the compensation term. The 500
        # rows of each width run as one stacked block, and cut in two, each
        # row carries its own state from the first part into the second
        rng = np.random.default_rng(2718)
        for width in (64, 192):
            mus = rng.random((500, width)) * 10.0 ** rng.integers(-3, 4, (500, width))
            k = rng.integers(1, width, 500)
            mus /= np.array([math.fsum(row[:n]) for row, n in zip(mus, k)])[:, None]
            expected = [len(scalar_budget_rule(row.tolist(), 1.0)) for row in mus]
            zeros = np.zeros(len(mus))
            assert montecarlo._kept_in_block(mus, zeros, zeros, 1.0)[0].tolist() == expected
            for cut in [c for c in (1, 7, 31, 63, 150) if c < width]:
                kept, total, comp = montecarlo._kept_in_block(mus[:, :cut], zeros, zeros, 1.0)
                rest = montecarlo._kept_in_block(mus[:, cut:], total, comp, 1.0)[0]
                assert np.where(kept == cut, cut + rest, kept).tolist() == expected

    @pytest.mark.parametrize("width", [64, 1500])
    @pytest.mark.parametrize("total, comp", [
        (0.0, 0.0),                          # a chunk's fresh rows
        (0.75, 4096 * 2.0**-53 * 0.75),      # carried on: |comp| at its bound
        (0.75, -4096 * 2.0**-53 * 0.75),     # after 4,096 draws
    ], ids=["fresh", "carried_plus", "carried_minus"])
    def test_kept_counts_match_scalar_rule_around_the_margin(self, monkeypatch, width, total,
                                                             comp):
        # rows whose plain prefix sum sits 0 to 64 ulps either side of the
        # limit or of the compensated tie at limit - comp, which the
        # compensated rule decides, and 1 to 16 ulps outside the margin,
        # which the plain sums decide; some stop at the block's last draw
        limit, ulp = 1.0, 2.0**-52
        margin = abs(comp) + (width + 8) * ulp * limit
        inside = [c + j * ulp for c in (limit, limit - comp) for j in range(-64, 65)]
        outside = [limit + side * (margin + j * ulp) for side in (-1, 1) for j in range(1, 17)]
        rng = np.random.default_rng(width)
        mus = np.concatenate([rows_stopping_at(rng, inside + outside, width, total, last)
                              for last in (False, True)])
        seen = compensated_rows(monkeypatch)
        rows = len(mus)
        kept, totals, comps = montecarlo._kept_in_block(mus, np.full(rows, total),
                                                        np.full(rows, comp), limit)
        assert 0 < seen[0] < rows  # both paths run
        whole = 0
        for row, n, t, c in zip(mus, kept.tolist(), totals.tolist(), comps.tolist()):
            expected = scalar_budget_state(row.tolist(), limit, total, comp)
            assert n == len(expected[0])
            if n == width:  # only a whole-block row's state is carried on
                whole += 1
                assert (t, c) == expected[1:]
        assert whole > 0

    @pytest.mark.parametrize("width", [64, 65, 66, 67])
    @pytest.mark.parametrize("total, comp", [
        (0.0, 0.0), (0.75, 100 * 2.0**-53), (0.75, -100 * 2.0**-53),
    ], ids=["fresh", "carried_plus", "carried_minus"])
    def test_grouped_sums_match_scalar_rule_at_every_offset(self, monkeypatch, width, total,
                                                            comp):
        # the plain sums run over groups of four draws, the last one short
        # where the width is not a multiple of 4. One row stops at each
        # draw s of the block, so at every offset of a group and at the
        # short last group: with the limit halfway through draw s, which
        # the plain sums decide, or where its plain prefix sum ends, which
        # the compensated rule decides. Rows of equal powers of two reach
        # the limit exactly at a group's end, or inside one where carried
        rng = np.random.default_rng(width)
        limit, rows = 1.0, []
        for s in range(width + 1):
            for halfway in (True, False):
                row = 0.5 + rng.random(width)
                before = np.cumsum(np.concatenate(([0.0], row)))[s]
                if 0 < s < width or s == 0 and halfway:
                    rows.append(row * (limit - total) / (before + halfway * row[s] / 2))
                elif halfway:
                    rows.append(row * (limit - total) / (before + 1.0))
        rows += [np.full(width, 2.0**-j) for j in range(2, 6)]
        mus = np.array(rows)
        seen = compensated_rows(monkeypatch)
        kept, totals, comps = montecarlo._kept_in_block(mus, np.full(len(mus), total),
                                                        np.full(len(mus), comp), limit)
        assert 0 < seen[0] < len(mus)  # both paths run
        assert {n % 4 for n in kept.tolist()} == {0, 1, 2, 3}
        assert width in kept  # a row keeps the whole block, short last group and all
        for row, n, t, c in zip(mus, kept.tolist(), totals.tolist(), comps.tolist()):
            expected = scalar_budget_state(row.tolist(), limit, total, comp)
            assert n == len(expected[0])
            if n == width:
                assert (t, c) == expected[1:]

    def test_group_sum_and_sequential_sum_either_side_of_the_edge(self, monkeypatch):
        # the group sum (x0 + x1) + (x2 + x3) rounds one ulp above the
        # sequential sum ((x0 + x1) + x2) + x3, and limit - margin falls
        # between them. The group's last running sum is its own prefix,
        # so the row crosses in that group, within the margin, and runs
        # the compensated rule, which keeps the tiny first draw of the
        # next group too. A second row, stopping well inside its first
        # group, does not
        x = [float.fromhex(h) for h in ("0x1.8d90982ccf2d5p-8", "0x1.758092bff1053p-1",
                                        "0x1.bd566c7ed2c18p-5", "0x1.ea3f4bd623828p-11")]
        limit = float.fromhex("0x1.94ebaa8b2d5a1p-1")
        width = 8
        edge = limit - (width + 8) * 2.0**-52 * limit
        assert ((x[0] + x[1]) + x[2]) + x[3] <= edge < (x[0] + x[1]) + (x[2] + x[3])
        mus = np.array([x + [2.0**-60] + [1.0] * 3, [0.1, 1.0] + [0.5] * 6])
        seen = compensated_rows(monkeypatch)
        zeros = np.zeros(2)
        kept = montecarlo._kept_in_block(mus, zeros, zeros, limit)[0]
        assert seen[0] == 1
        assert kept.tolist() == [5, 1]
        assert kept.tolist() == [len(scalar_budget_rule(row.tolist(), limit)) for row in mus]

    @settings(max_examples=200)
    @given(
        rows=st.integers(1, 6),
        width=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        carried=st.booleans(),
        ulps=st.integers(-200, 200),
    )
    def test_kept_in_block_matches_the_compensated_rule(self, rows, width, seed, carried, ulps):
        # random blocks, with a limit a few ulps off one row's prefix sum:
        # the plain decision and the compensated rule on every row agree on
        # every count and on the state of every row that keeps its block
        rng = np.random.default_rng(seed)
        mus = rng.random((rows, width)) * 10.0 ** rng.integers(-4, 2, (rows, width))
        total = rng.random(rows) * 10.0 if carried else np.zeros(rows)
        comp = total * rng.integers(-1000, 1001, rows) * 2.0**-53
        totals = np.cumsum(np.concatenate((total[:, None], mus), axis=1), axis=1)
        limit = float(totals[rng.integers(rows), rng.integers(width + 1)]) * (1 + ulps * 2.0**-52)
        expected = montecarlo._kept_compensated(mus, totals, comp, limit)
        kept, total, comp = montecarlo._kept_in_block(mus, total, comp, limit)
        assert np.array_equal(kept, expected[0])
        whole = kept == width
        assert same_bits(total[whole], expected[1][whole])
        assert same_bits(comp[whole], expected[2][whole])

    def test_plain_sums_decide_nearly_every_row(self, chain, psi0, monkeypatch):
        # the benchmark's law and budget: at most 1% of the rows need the
        # compensated rule
        seen = compensated_rows(monkeypatch)
        cfg = make_config(chain, psi0, PowerLawIntervals(mu0=1 * NS, alpha=3.0), mode="fixed_T",
                          m=None, t_total=2000 * NS, realizations=1000, master_seed=1)
        run_ensemble(cfg)
        assert seen[0] <= 10

    def test_draws_contain_the_stop_near_the_limit(self, chain, psi0):
        # budgets around the sum of a first block of 64 draws, where the
        # stop falls in that block or the next
        draws = PowerLawIntervals(mu0=1 * NS, alpha=1.5).sample(substream(5, 0), 64 + 128)
        first = math.fsum(draws[:64])
        steps, carried = range(-400, 41, 4), 0
        for step in steps:
            t_total = first * (1.0 + step * 2.0**-52) / (1.0 + 1e-12)
            cfg = make_config(chain, psi0, ReplayedDraws(draws), mode="fixed_T", m=None,
                              t_total=t_total, realizations=1)
            ens = run_ensemble(cfg)
            expected = np.array(scalar_budget_rule(draws.tolist(), budget(t_total)))
            assert ens.ms[0] == expected.size
            assert same_bits(ens.total_times[0], block_sum(expected, 64))
            carried += expected.size >= 64
        assert 0 < carried < len(steps)  # the stop falls in either block

    def test_draws_contain_the_stop_when_the_sum_rounds_up(self, chain, psi0):
        # the plain sum of 64 draws rounds above a limit within which the
        # compensated rule keeps all of them: the next block holds the stop
        rng = np.random.default_rng(7)
        cases = 0
        for _ in range(200):
            first = rng.random(64) * 10.0 ** rng.integers(-3, 4, 64)
            t_total = math.fsum(first) / (1.0 + 1e-12)
            limit = budget(t_total)
            if first.sum() > limit and len(scalar_budget_rule(first.tolist(), limit)) == 64:
                cases += 1
                cfg = make_config(chain, psi0, ReplayedDraws(first), mode="fixed_T", m=None,
                                  t_total=t_total, realizations=1)
                assert run_ensemble(cfg).ms[0] == 64
        assert cases >= 10

    def test_blocks_outgrow_the_first(self, chain, psi0):
        # 300 draws per row take one block sized from the mean: 340, the
        # expected 300 and an eighth more, rounded up to a multiple of 4
        counted = CountedDraws(DegenerateInterval(1 * NS))
        cfg = make_config(chain, psi0, counted, mode="fixed_T",
                          m=None, t_total=300 * NS, realizations=3)
        assert np.all(run_ensemble(cfg).ms == 300)
        assert counted.sizes == [340] * 3
        # a law with no finite mean starts at 64 and grows from there
        counted = CountedDraws(PowerLawIntervals(mu0=1 * NS, alpha=0.8))
        cfg = make_config(chain, psi0, counted, mode="fixed_T", m=None,
                          t_total=1000 * NS, realizations=30)
        ens = run_ensemble(cfg)
        assert counted.sizes[:30] == [64] * 30 and max(counted.sizes) > 64
        assert ens.ms.max() > 64

    @pytest.mark.parametrize("expected, first", [
        (50.0, 64), (109.9, 124), (110.0, 124), (1333.3, 1500), (1e7, SEGMENT),
    ])
    def test_first_block_from_the_mean(self, expected, first):
        # the whole part of the expected kept count and an eighth more, at
        # least 64 and at most _SEGMENT, rounded up to a multiple of 4
        assert montecarlo._block_size(expected) == first

    @pytest.mark.parametrize("case, segment, first", [
        ("power0.8", None, 64),   # no finite mean: one chunk of 30 rows of 64
        ("power1.5", 512, 112),   # 100 expected kept draws: chunks of 4 rows
    ])
    def test_chunks_mix_stopping_and_continuing_rows(self, chain, psi0, monkeypatch, case,
                                                     segment, first):
        # a row that keeps its whole first block carries on with the
        # chunk's other such rows, and selects its stream once per block
        # it runs, at the block's start
        dist, t_total = FIXED_T_CASES[case]
        if segment:
            monkeypatch.setattr(montecarlo, "_SEGMENT", segment)
        cfg = make_config(chain, psi0, dist, mode="fixed_T", m=None, t_total=t_total,
                          realizations=30, master_seed=31337)
        calls = counted_draws(monkeypatch)
        ens = run_ensemble(cfg)
        ms, totals, logs = replay_fixed_t(cfg)
        assert np.array_equal(ens.ms, ms)
        assert same_bits(ens.total_times, totals)
        assert same_bits(ens.log_survivals, logs)
        step = max(1, montecarlo._SEGMENT // first)
        chunks = [ens.ms[i:i + step] >= first for i in range(0, cfg.realizations, step)]
        assert any(0 < on.sum() < on.size for on in chunks)  # a chunk that mixes
        assert first_block(cfg) == first
        blocks = sum(1 for m in ens.ms.tolist() for _ in blocks_reached(m, first))
        assert blocks > cfg.realizations  # some rows run a second block
        assert calls == {"select": blocks, "philox": 0}

    @pytest.mark.parametrize("realizations, seed", [(40, 3), (1000, 1)])
    def test_one_sample_call_per_realization(self, chain, psi0, monkeypatch, realizations,
                                             seed):
        # the benchmark's law and budget: about 1,333 kept of a first block
        # of 1,500, so no row selects its stream twice
        calls = counted_draws(monkeypatch)
        counted = CountedDraws(PowerLawIntervals(mu0=1 * NS, alpha=3.0))
        cfg = make_config(chain, psi0, counted, mode="fixed_T", m=None, t_total=2000 * NS,
                          realizations=realizations, master_seed=seed)
        ens = run_ensemble(cfg)
        assert calls == {"select": realizations, "philox": 0}
        assert len(counted.sizes) == realizations
        assert counted.draws <= 1.25 * ens.ms.sum()

    @pytest.mark.parametrize("dist, t_total", [
        (PowerLawIntervals(mu0=1 * NS, alpha=3.0), 2000 * NS),  # about 1,333 kept
        (LATTICE_LAWS["d2"], 3000 * NS),                        # about 1,250 kept
    ], ids=["power3", "d2"])
    def test_draws_track_the_kept_count(self, chain, psi0, dist, t_total):
        # each next block is sized from the mean so far, not doubled:
        # doubling drew 2,048 per realization here (1.54 and 1.64 per kept)
        counted = CountedDraws(dist)
        cfg = make_config(chain, psi0, counted, mode="fixed_T", m=None, t_total=t_total,
                          realizations=200)
        ens = run_ensemble(cfg)
        assert counted.draws <= 1.25 * ens.ms.sum() + 64 * cfg.realizations

    @pytest.mark.parametrize("t_total", [2.4e6 * NS, 2.4e7 * NS], ids=["1e6_kept", "1e7_kept"])
    def test_peak_memory_of_one_long_row(self, chain, psi0, t_total):
        # one realization of about 10^6 or 10^7 kept draws holds one block
        # of at most _SEGMENT draws at a time, with its ln q and the stop
        # rule's temporaries, and sums each block where it lies
        cfg = make_config(chain, psi0, LATTICE_LAWS["d2"], mode="fixed_T", m=None,
                          t_total=t_total, realizations=1)
        tracemalloc.start()
        try:
            ens = run_ensemble(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.ms[0] > 0.9 * t_total / (2.4 * NS)
        assert peak < 4 * 2**20

    def test_peak_memory_is_flat_in_t(self, chain, psi0):
        # a law with no finite mean: one chunk of 512 first blocks of 64,
        # nearly every row carrying on, in blocks that double up to
        # _SEGMENT. A step stacks at most _SEGMENT draws, so the peak is
        # one such stack's block, ln q and stop-rule temporaries however
        # long the rows grow. At 30 and 300 us the rows reach steps that
        # fill a whole stack (at 3 us they do not, and peak 40% lower)
        peaks, kept = [], []
        for t_total in (3e4 * NS, 3e5 * NS):
            cfg = make_config(chain, psi0, PowerLawIntervals(mu0=1 * NS, alpha=0.8),
                              mode="fixed_T", m=None, t_total=t_total, realizations=512)
            tracemalloc.start()
            try:
                kept.append(run_ensemble(cfg).ms)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert np.count_nonzero(kept[0] >= 64) > 400
        assert kept[1].sum() > 2.5 * kept[0].sum() > 81_920
        assert peaks[1] <= 1.1 * peaks[0]

    def test_carried_rows_share_each_stop_rule_call(self, chain, psi0, monkeypatch):
        # about half the rows of alpha 1.5 at 300 ns keep their whole first
        # block of 112 draws. They step on together: one _kept_in_block call
        # per step and slice of at most _SEGMENT draws, not one per row
        calls, kept_in_block = [0], montecarlo._kept_in_block

        def counted(*args):
            calls[0] += 1
            return kept_in_block(*args)

        monkeypatch.setattr(montecarlo, "_kept_in_block", counted)
        dist, t_total = FIXED_T_CASES["power1.5"]
        cfg = make_config(chain, psi0, dist, mode="fixed_T", m=None, t_total=t_total,
                          realizations=2000, master_seed=1)
        ms = run_ensemble(cfg).ms
        first = first_block(cfg)
        chunk = SEGMENT // first
        expected = 0
        for start in range(0, cfg.realizations, chunk):
            for step, size in blocks_reached(int(ms[start:start + chunk].max()), first):
                running = int(np.count_nonzero(ms[start:start + chunk] >= step))
                expected += -(-running // max(1, SEGMENT // size))
        carried = int(np.count_nonzero(ms >= first))
        assert carried > 800
        assert calls[0] == expected <= 3 * -(-cfg.realizations // chunk)


def chunked_configs(chain, psi0, mode, m=40, **kw):
    if mode == "fixed_m":
        return make_config(chain, psi0, d2(), m=m, **kw)
    return make_config(chain, psi0, PowerLawIntervals(mu0=1 * NS, alpha=2.5),
                       mode="fixed_T", m=None, t_total=150 * NS, **kw)


def run_in_chunks(cfg, target):
    """``run_ensemble`` with fixed-m chunks of about ``target`` draws, or
    with fixed-T steps that stack at most ``target`` rows: ``_SEGMENT`` is
    then ``target`` first blocks of 104 draws. The fixed-T rows of
    ``chunked_configs`` keep at most 150 draws (no draw is below 1 ns),
    so each stops in its first block or in a second one of at least 104
    draws, and its blocks hold the same kept draws for any ``target``."""
    if cfg.mode == "fixed_m":
        with mock.patch.object(montecarlo, "_CHUNK_TARGET", target):
            return run_ensemble(cfg)
    assert first_block(cfg) == 104
    with mock.patch.object(montecarlo, "_SEGMENT", target * 104):
        return run_ensemble(cfg)


def same_ensemble(a, b) -> bool:
    return (np.array_equal(a.ms, b.ms) and same_bits(a.total_times, b.total_times)
            and same_bits(a.log_survivals, b.log_survivals))


class TestChunking:
    # fixed-m chunks hold about _CHUNK_TARGET draws: 1 and 7 give one
    # realization per chunk, 500 several. Fixed-T steps stack 1, 7 or 500
    # rows (257 rows run as one chunk by default)
    @pytest.mark.parametrize("mode", ["fixed_m", "fixed_T"])
    @pytest.mark.parametrize("target", [1, 7, 500])
    def test_chunk_size_invariance(self, chain, psi0, mode, target):
        cfg = chunked_configs(chain, psi0, mode, realizations=257)
        assert same_ensemble(run_ensemble(cfg), run_in_chunks(cfg, target))

    @pytest.mark.parametrize("segment", [4, 8, 500])
    def test_fixed_t_block_cap(self, chain, psi0, monkeypatch, segment):
        # a fixed-T block of at most 4 or 8 draws carries the stop rule
        # across many blocks, and 500 stacks four first blocks of 104: the
        # block cap moves the sums of rows that carry on, so the runs are
        # checked against the replay on the same blocks
        monkeypatch.setattr(montecarlo, "_SEGMENT", segment)
        cfg = chunked_configs(chain, psi0, "fixed_T", realizations=57)
        ens = run_ensemble(cfg)
        assert same_ensemble(ens, SurvivalEnsemble(cfg, *replay_fixed_t(cfg)))

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


def counted_draws(monkeypatch):
    """Count the calls of ``StreamFamily.select`` and of montecarlo's
    ``philox_words``, the two ways a fixed-m run draws its words, in any
    thread."""
    calls, lock = {"select": 0, "philox": 0}, threading.Lock()
    select, philox = montecarlo.StreamFamily.select, montecarlo.philox_words

    def counted_select(self, *args):
        with lock:
            calls["select"] += 1
        return select(self, *args)

    def counted_philox(*args):
        with lock:
            calls["philox"] += 1
        return philox(*args)

    monkeypatch.setattr(montecarlo.StreamFamily, "select", counted_select)
    monkeypatch.setattr(montecarlo, "philox_words", counted_philox)
    return calls


class WritingLaw(DiscreteIntervals):
    """The d2 law, but it writes into the words it is handed first."""

    def __init__(self):
        super().__init__(np.array(D2_VALUES_S), np.array(D2_PROBS))

    def row_stats(self, x, lam, w, ends):
        x[..., 0] = 2**63
        return super().row_stats(x, lam, w, ends)


class TestSharedDraws:
    # fixed-m configs that share (seed, n), at any m, read one block of
    # words per segment of a chunk; each must get the bits it gets alone
    def mixed_configs(self, chain, psi0, rabi):
        power = PowerLawIntervals(mu0=1 * NS, alpha=2.5)
        short = dict(m=20, realizations=300, master_seed=11)  # philox_words
        rows = dict(m=200, realizations=40, master_seed=11)  # one stream per row
        return [
            make_config(chain, psi0, d2(), **short),
            make_config(chain, psi0, power, mode="fixed_T", m=None, t_total=40 * NS,
                        realizations=30, master_seed=11),
            make_config(chain, psi0, LATTICE_LAWS["d4"], **rows),
            make_config(chain, psi0, power, **short),
            make_config(*rabi, LATTICE_LAWS["d3"], **short),  # another system
            make_config(chain, psi0, d2(), m=SEGMENT + 5, realizations=2, master_seed=11),
            make_config(chain, psi0, power, m=SEGMENT + 5, realizations=2, master_seed=11),
            make_config(chain, psi0, power, **rows),
            make_config(chain, psi0, LATTICE_LAWS["degenerate"], **rows),
            make_config(chain, psi0, d2(), **{**short, "master_seed": 12}),  # its own group
            make_config(chain, psi0, LATTICE_LAWS["d3"], mode="fixed_T", m=None,
                        t_total=60 * NS, realizations=30, master_seed=11),
            make_config(chain, psi0, LATTICE_LAWS["d3"], **{**short, "realizations": 299}),
            make_config(chain, psi0, LATTICE_LAWS["d4"], **short),
        ]

    def test_same_bits_as_one_at_a_time(self, chain, psi0, rabi, monkeypatch):
        # 150 draw-20 rows a chunk (two chunks, both drawn by
        # philox_words), 15 rows of 200 (three chunks, per-row streams)
        monkeypatch.setattr(montecarlo, "_CHUNK_TARGET", 3000)
        cfgs = self.mixed_configs(chain, psi0, rabi)
        together = montecarlo.run_ensembles(cfgs)
        assert [ens.config for ens in together] == cfgs
        assert all(ens.config is cfg for ens, cfg in zip(together, cfgs))
        for ens, cfg in zip(together, cfgs):
            assert same_ensemble(ens, run_ensemble(cfg))
            if cfg.mode == "fixed_m":
                totals, logs = replay(cfg)
                assert same_bits(ens.total_times, totals)
                assert same_bits(ens.log_survivals, logs)

    def test_no_configs(self):
        assert montecarlo.run_ensembles([]) == []

    def test_one_draw_per_chunk(self, chain, psi0, monkeypatch):
        calls = counted_draws(monkeypatch)
        laws = [d2(), LATTICE_LAWS["d4"], PowerLawIntervals(mu0=1 * NS, alpha=3.0)]
        montecarlo.run_ensembles([make_config(chain, psi0, law, m=20, realizations=300)
                                  for law in laws])
        assert calls == {"select": 0, "philox": 1}
        montecarlo.run_ensembles([make_config(chain, psi0, law, m=200, realizations=30)
                                  for law in laws])
        assert calls == {"select": 30, "philox": 1}

    @pytest.mark.parametrize("m,n", [(20, 300), (200, 30)])
    def test_every_reader_sees_the_same_read_only_block(self, chain, psi0, monkeypatch, m, n):
        # one reader per law object: the two configs of ``power``, at m and
        # m / 4, read the block once between them, and no reader may write
        seen = []
        for law in (DiscreteIntervals, PowerLawIntervals):
            def spied(self, u, lam, w, ends, count=law.row_stats):
                seen.append((u, u.flags.writeable))
                return count(self, u, lam, w, ends)
            monkeypatch.setattr(law, "row_stats", spied)
        power = PowerLawIntervals(mu0=1 * NS, alpha=3.0)
        cfgs = [make_config(chain, psi0, law, m=k, realizations=n)
                for law, k in ((power, m), (d2(), m // 2), (power, m // 4),
                               (PowerLawIntervals(mu0=1 * NS, alpha=2.5), m),
                               (LATTICE_LAWS["d3"], m // 2))]
        ensembles = montecarlo.run_ensembles(cfgs)
        assert [writeable for _, writeable in seen] == [False] * 4
        assert all(u is seen[0][0] for u, _ in seen)
        for ens, cfg in zip(ensembles, cfgs):
            assert np.array_equal(ens.ms, np.full(n, cfg.m))
            assert same_bits(ens.log_survivals, replay(cfg)[1])

    @pytest.mark.parametrize("cores", [1, 2])
    def test_mixed_m_group(self, chain, psi0, monkeypatch, cores):
        # a discrete, a power and a one-atom law, each at m = 20, 200 and
        # 4099, and a second power law at m = 200, read segments of 128
        # draws (the last of 3) in chunks of 2, 2 and 1 rows, the longest
        # rows in two parts on two cores. The second power law maps, in
        # the second segment, its rows' first 72 words alone
        monkeypatch.setattr(montecarlo, "_SEGMENT", 128)
        monkeypatch.setattr(montecarlo, "_CHUNK_TARGET", 2 * 4099)
        use_cores(monkeypatch, cores)
        laws = [d2(), PowerLawIntervals(mu0=1 * NS, alpha=2.5), LATTICE_LAWS["degenerate"]]
        cfgs = [make_config(chain, psi0, law, m=m, realizations=5, master_seed=43)
                for law in laws for m in (20, 200, 4099)]
        cfgs.append(make_config(chain, psi0, PowerLawIntervals(mu0=1 * NS, alpha=3.0), m=200,
                                realizations=5, master_seed=43))
        calls = counted_draws(monkeypatch)
        together = montecarlo.run_ensembles(cfgs)
        # each row's stream is selected once per segment, for all ten configs
        assert calls == {"select": 33 * 5, "philox": 0}
        for ens, cfg in zip(together, cfgs):
            assert same_ensemble(ens, run_ensemble(cfg))
            totals, logs = replay(cfg)
            assert np.array_equal(ens.ms, np.full(cfg.realizations, cfg.m))
            assert same_bits(ens.total_times, totals)
            assert same_bits(ens.log_survivals, logs)

    def test_prefix_view_sums_have_the_bits_of_a_contiguous_block(self):
        # a reader sums each config's rows as a prefix view mus[:, :e] of
        # its mapped block, where one config alone sums a contiguous
        # (rows, e) block; np.sum's pairwise reduction must give both the
        # same bits, though a left-to-right sum would not
        rng = np.random.default_rng(5)
        block = 1e-9 * (1.0 - rng.random((131, 6400))) ** -0.4
        ends = [1, 2, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 257, 1000, 3200, 6399, 6400]
        moved = 0
        for rows in (1, 2, 3, 8, 25, 40, 64, 131):
            for e in ends:
                view = block[:rows, :e]
                alone = np.ascontiguousarray(view)
                assert same_bits(view.sum(axis=-1), alone.sum(axis=-1))
                moved += not same_bits(alone.sum(axis=-1), np.cumsum(alone, axis=-1)[:, -1])
        assert moved > 0

    @pytest.mark.parametrize("m,n", [(20, 300), (200, 30), (SEGMENT + 5, 1)])
    @pytest.mark.parametrize("writer,readers", [(0, 2), (1, 2), (0, 1)])
    def test_a_law_that_writes_raises_in_any_position(self, chain, psi0, m, n, writer, readers):
        # first or last of two readers, or the only one, of a block drawn
        # by philox_words, one filled row by row, and a lone row's own words
        laws = [d2() for _ in range(readers)]
        laws[writer] = WritingLaw()
        cfgs = [make_config(chain, psi0, law, m=m, realizations=n) for law in laws]
        with pytest.raises(ValueError, match="read-only"):
            montecarlo.run_ensembles(cfgs)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_long_rows_share_draws(self, chain, psi0, monkeypatch, cores):
        # rows of 33 segments of 128 draws, the last of 3, cut into one
        # run per part: the two laws read each segment once between them
        monkeypatch.setattr(montecarlo, "_SEGMENT", 128)
        use_cores(monkeypatch, cores)
        laws = [d2(), PowerLawIntervals(mu0=1 * NS, alpha=3.0)]
        cfgs = [make_config(chain, psi0, law, m=4099, realizations=3, master_seed=41)
                for law in laws]
        calls = counted_draws(monkeypatch)
        alone = run_ensemble(cfgs[0])
        assert calls == {"select": 33 * 3, "philox": 0}
        together = montecarlo.run_ensembles(cfgs)
        assert calls == {"select": 2 * 33 * 3, "philox": 0}
        assert same_ensemble(together[0], alone)
        for ens, cfg in zip(together, cfgs):
            assert same_ensemble(ens, run_ensemble(cfg))
            totals, logs = replay(cfg)
            assert same_bits(ens.total_times, totals)
            assert same_bits(ens.log_survivals, logs)
        writers = [make_config(chain, psi0, law, m=4099, realizations=3, master_seed=41)
                   for law in (WritingLaw(), d2())]
        for order in (writers, writers[::-1]):
            with pytest.raises(ValueError, match="read-only"):
                montecarlo.run_ensembles(order)

    def test_fig3_draws_once(self, tmp_path, monkeypatch):
        # 49 laws, each on the same 25 realizations of m = 6400: one
        # stream per realization, not 49
        calls = counted_draws(monkeypatch)
        run_preset("fig3", seed=1, out_dir=str(tmp_path))
        assert calls == {"select": 25, "philox": 0}

    @pytest.mark.parametrize("name", ["fig1-d2", "fig1-d3", "fig1-d4"])
    def test_fig1_draws_once(self, tmp_path, monkeypatch, name):
        # one law at the eight m of the sweep, 25 realizations each: one
        # stream per realization, read up to m = 6400, not eight
        calls = counted_draws(monkeypatch)
        run_preset(name, seed=1, out_dir=str(tmp_path))
        assert calls == {"select": 25, "philox": 0}

    def test_fig4_draws_once(self, tmp_path, monkeypatch):
        # three power laws at the eight m of the sweep: one stream per
        # realization, not 24, and each law maps every draw once, so the
        # kernel sees 3 x 25 x 6400 of them
        calls = counted_draws(monkeypatch)
        mapped, running = [], []
        kernel, run = intervals.log_survival_factors, presets.run_ensembles

        def counted(lam, w, mus):
            if running:  # not the quadrature's calls
                mapped.append(mus.size)
            return kernel(lam, w, mus)

        def simulated(cfgs):
            running.append(True)
            try:
                return run(cfgs)
            finally:
                running.clear()

        monkeypatch.setattr(intervals, "log_survival_factors", counted)
        monkeypatch.setattr(presets, "run_ensembles", simulated)
        run_preset("fig4", seed=1, out_dir=str(tmp_path))
        assert calls == {"select": 25, "philox": 0}
        assert sum(mapped) == 3 * 25 * 6400

    def test_peak_memory_of_a_power_law_sweep(self, chain, psi0):
        # fig4's group, three power laws at the eight m of the sweep on
        # 25 realizations, holds one block of words and one law's working
        # set, as one power law at m = 6400 alone does: every law maps
        # slabs of its rows, never a copy of the whole block, so one law
        # alone holds its 1.22 MiB of words and little more
        def peak(cfgs):
            tracemalloc.start()
            try:
                montecarlo.run_ensembles(cfgs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        laws = [PowerLawIntervals(mu0=1 * NS, alpha=alpha) for alpha in (2.5, 3.0, 4.0)]
        sweep = [make_config(chain, psi0, law, m=m, realizations=25, master_seed=3)
                 for law in laws for m in (50, 100, 200, 400, 800, 1600, 3200, 6400)]
        alone = peak([make_config(chain, psi0, laws[0], m=6400, realizations=25,
                                  master_seed=3)])
        assert alone < 2 * 2**20
        assert peak(sweep) <= 1.1 * alone


class TestOneAtomLaws:
    # a one-atom law's row_stats counts only piece lengths, yet its run
    # draws one word block per segment, as a run of any other law does
    @pytest.mark.parametrize("m,n", [(20, 300), (6400, 25), (SEGMENT + 3, 2)])
    def test_draws_like_two_atoms_and_same_bits(self, chain, psi0, monkeypatch, m, n):
        laws = [LATTICE_LAWS["degenerate"], DiscreteIntervals(np.array([3 * NS]), np.ones(1))]
        cfgs = [make_config(chain, psi0, law, m=m, realizations=n) for law in laws]
        calls = counted_draws(monkeypatch)
        ensembles = montecarlo.run_ensembles(cfgs)
        one_atom = dict(calls)
        calls.update(select=0, philox=0)
        montecarlo.run_ensembles([make_config(chain, psi0, d2(), m=m, realizations=n)])
        assert one_atom == calls
        alone = run_ensemble(cfgs[0])
        assert same_ensemble(alone, ensembles[0])
        for ens, cfg in zip(ensembles, cfgs):
            assert np.array_equal(ens.ms, np.full(n, m))
            totals, logs = replay(cfg)
            assert same_bits(ens.total_times, totals)
            assert same_bits(ens.log_survivals, logs)

    def test_a_group_with_two_atoms_draws(self, chain, psi0, monkeypatch):
        calls = counted_draws(monkeypatch)
        montecarlo.run_ensembles([make_config(chain, psi0, law, m=20, realizations=300)
                                  for law in (LATTICE_LAWS["degenerate"], d2())])
        assert calls == {"select": 0, "philox": 1}


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
        l_star = survival_stats_for(d2(), chain, psi0, m).log_p_star
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
        assert summ.effective_sample_size == 8  # identical records weigh alike

    @pytest.mark.parametrize("m,ess", [(10, 2104.478), (1000, 1.007556)])
    def test_effective_sample_size(self, chain, psi0, m, ess):
        # atoms (0.2, 1) us at p = (0.5, 0.5): at m = 1000 one realization
        # carries the sample ln<P>, which is 51 nats above ln<P> itself
        law = DiscreteIntervals(np.array([0.2 * US, 1 * US]), np.array([0.5, 0.5]))
        ens = run_ensemble(make_config(chain, psi0, law, m=m, realizations=10_000,
                                       master_seed=3))
        summ = ensemble_summary(ens)
        p = np.exp(ens.log_survivals - ens.log_survivals.max())  # P^2 would underflow
        assert summ.effective_sample_size == pytest.approx(p.sum() ** 2 / (p * p).sum(),
                                                           rel=1e-12, abs=0.0)
        assert summ.effective_sample_size == pytest.approx(ess, rel=1e-6, abs=0.0)

    def test_summaries_compare_and_hash_by_their_scalars(self, chain, psi0):
        ens = run_ensemble(make_config(chain, psi0, d2(), m=30, realizations=8))
        first, second = ensemble_summary(ens), ensemble_summary(ens)
        assert first == second and hash(first) == hash(second)

    def test_mean_survival_matches_analytic(self, chain, psi0):
        m, n = 100, 100_000
        cfg = make_config(chain, psi0, d2(), m=m, realizations=n, master_seed=5150)
        ens = run_ensemble(cfg)
        summ = ensemble_summary(ens)
        stats = survival_stats_for(d2(), chain, psi0, m)
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

    @pytest.mark.parametrize("n", [montecarlo._SUM_BLOCK + 1, 2 * montecarlo._SUM_BLOCK + 5])
    def test_blocked_sums_have_the_bits_of_one_list(self, chain, psi0, n):
        # fsum rounds the exact sum once, so blocks cut anywhere, the last
        # one short, give the bits of the whole list
        rng = np.random.default_rng(n)
        ens = hand_built(chain, psi0, -rng.exponential(2e-3, n) - 1e-4 * rng.random(n))
        ens.total_times[:] = rng.random(n) * 1e-7
        summ = ensemble_summary(ens)
        logs = ens.log_survivals
        shifted = logs - logs.max()
        total = math.fsum(np.exp(shifted).tolist())
        log_mean = logs.max() + intervals._log_mean_q(
            math.fsum((-np.expm1(shifted)).tolist()) / n, math.log(total / n))
        assert same_bits(summ.log_mean_survival, log_mean)
        assert same_bits(summ.log_geometric_mean, math.fsum(logs.tolist()) / n)
        assert same_bits(summ.mean_total_time, math.fsum(ens.total_times.tolist()) / n)
        weights = np.exp(shifted)
        assert same_bits(summ.effective_sample_size, total * total / float(weights @ weights))


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
        prob = LdProblem.for_system(chain, psi0, d2())
        from zenosim import rate_function_I

        checked = 0
        for x, rate, count in zip(est.centers, est.rates, est.counts):
            if count < 100:
                continue
            assert abs(rate - rate_function_I(prob, float(x))) <= 0.05
            checked += 1
        assert checked >= 5


def hand_built(chain, psi0, logs, m=20):
    """A fixed-m ensemble with the given log survivals."""
    logs = np.array(logs, dtype=float)
    return montecarlo.SurvivalEnsemble(
        config=make_config(chain, psi0, d2(), m=m, realizations=logs.size),
        ms=np.full(logs.size, m, dtype=np.int64),
        total_times=np.full(logs.size, m * 2 * NS),
        log_survivals=logs,
    )


class TestNonFiniteRecords:
    def logs(self, bad):
        logs = -np.linspace(0.1, 3.0, 120)
        logs[[4, 50, 51, 119][:bad]] = -math.inf
        return logs

    @pytest.mark.parametrize("bad", [1, 3])
    def test_variance_and_rate_are_typed_errors(self, chain, psi0, bad):
        ens = hand_built(chain, psi0, self.logs(bad))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            summ = ensemble_summary(ens)
            with pytest.raises(NonFiniteRecordsError, match=f"{bad} of 120 are not"):
                summ.variance_intensive_log
            with pytest.raises(NonFiniteRecordsError, match=f"{bad} of 120 are not"):
                empirical_rate(ens, bins=5)
        assert summ.log_geometric_mean == -math.inf
        assert math.isfinite(summ.log_mean_survival)
        assert 1.0 <= summ.effective_sample_size <= 120 - bad

    def test_every_record_minus_infinity(self, chain, psi0):
        ens = hand_built(chain, psi0, [-math.inf] * 30)
        summ = ensemble_summary(ens)
        assert summ.log_mean_survival == summ.log_median == -math.inf
        assert summ.effective_sample_size == 0.0
        with pytest.raises(NonFiniteRecordsError, match="30 of 30"):
            summ.variance_intensive_log
        with pytest.raises(NonFiniteRecordsError, match="30 of 30"):
            empirical_rate(ens, bins=3)

    @pytest.mark.parametrize("mode, kw", [("fixed_m", dict(m=50)),
                                          ("fixed_T", dict(m=None, t_total=2000 * NS))])
    def test_the_heaviest_power_laws_give_finite_records(self, chain, psi0, mode, kw):
        # alpha = 0.06 still draws up to 1 ns 2^(53/0.06), about 1e257 s,
        # a finite double; below 53/1024 the law cannot be made
        cfg = make_config(chain, psi0, PowerLawIntervals(mu0=1 * NS, alpha=0.06), mode=mode,
                          realizations=2000, master_seed=1, **kw)
        ens = run_ensemble(cfg)
        assert np.all(np.isfinite(ens.total_times)) and np.all(np.isfinite(ens.log_survivals))
        summ = ensemble_summary(ens)
        assert all(math.isfinite(x) for x in (summ.log_mean_survival, summ.log_geometric_mean,
                                              summ.log_median, summ.mean_total_time))

    def test_finite_records_are_unchanged(self, chain, psi0):
        ens = hand_built(chain, psi0, self.logs(0))
        summ = ensemble_summary(ens)
        assert summ.variance_intensive_log == float(np.var(ens.log_survivals / 20, ddof=1))
        assert empirical_rate(ens, bins=5).counts.sum() == 120
        # fsum over a list is the correctly rounded sum of the array too
        assert summ.log_geometric_mean == math.fsum(ens.log_survivals) / 120
        assert summ.mean_total_time == math.fsum(ens.total_times) / 120
