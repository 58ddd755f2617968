"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
per-criterion PASS lines on stdout).
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    CHAIN_COUPLING,
    D2_PROBS,
    D2_VALUES_S,
    D3_PROBS,
    D3_VALUES_S,
    D4_PROBS,
    D4_VALUES_S,
    NS,
    US,
    binomial_rate_enumeration,
    chain_matrix,
    taylor_propagator,
    two_level_q,
)

from zenosim import (
    DegenerateInterval,
    DiscreteIntervals,
    EnsembleConfig,
    LdProblem,
    PowerLawIntervals,
    contracted_rate,
    cramer_rate,
    disorder_gain,
    empirical_rate,
    equally_spaced_survival,
    evolve_sequence,
    log_survival_factor,
    propagator,
    qze_condition,
    rate_curve,
    rate_function_I,
    run_ensemble,
    survival_stats,
    survival_stats_for,
    survival_trace,
    zeno_time,
)
from zenosim import montecarlo
from zenosim.presets import run_preset
from zenosim.rng import substream

OMEGA = CHAIN_COUPLING


def _passed(num: int, detail: str) -> None:
    print(f"[PASS] criterion {num:2d}: {detail}")


def d2_dist() -> DiscreteIntervals:
    return DiscreteIntervals(np.array(D2_VALUES_S), np.array(D2_PROBS))


def test_criterion_01_propagator_matches_extended_precision_oracle(chain):
    start = time.perf_counter()
    h = chain_matrix()
    rng = substream(20250101, 0)
    mus = rng.uniform(0.0, 10 * NS, size=200)
    worst = 0.0
    for mu in mus:
        u = propagator(chain.spec, float(mu))
        reference = taylor_propagator(h, float(mu))
        worst = max(worst, float(np.max(np.abs(u - reference))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    _passed(1, f"200 propagators within {worst:.2e} of the series oracle "
               f"({elapsed:.2f}s)")


def test_criterion_02_trace_equals_product(chain, psi0):
    dist = d2_dist()
    worst = 0.0
    for i in range(100):
        rng = substream(20250102, i)
        m = int(rng.integers(1, 51))
        mus = dist.sample(rng, m)
        fast = evolve_sequence(chain, psi0, mus).survival
        full = survival_trace(chain, psi0, mus)
        rel = abs(fast - full) / fast
        worst = max(worst, rel)
    assert worst <= 1e-10
    _passed(2, f"100 sequences, worst trace/product relative gap {worst:.2e}")


def test_criterion_03_two_level_closed_form(rabi):
    h, psi = rabi
    worst = 0.0
    from zenosim import survival_factor

    for mu in np.linspace(0.0, 10.0 / OMEGA, 100):
        got = survival_factor(h, psi, float(mu))
        worst = max(worst, abs(got - float(two_level_q(OMEGA, mu))))
    tz = zeno_time(h, psi)
    tz_err = abs(tz - 1.0 / OMEGA) * OMEGA
    assert worst <= 1e-12
    assert tz_err <= 1e-12
    _passed(3, f"q=cos^2 within {worst:.1e}; tau_Z off by {tz_err:.1e} relative")


def test_criterion_04_rate_function_cross_validation(chain, psi0):
    prob = LdProblem.for_system(chain, psi0, d2_dist(), 100)
    curve = rate_curve(prob, points=200, method="explicit")
    worst = 0.0
    for x, rate in zip(curve.xs, curve.rates):
        worst = max(worst, abs(float(rate) - cramer_rate(prob, float(x))))
    at_star = rate_function_I(prob, survival_stats(prob).log_p_star / prob.m)
    convexity = float(np.min(np.diff(curve.rates, 2)))
    assert worst <= 1e-10
    assert at_star <= 1e-12
    assert convexity >= -1e-9
    _passed(4, f"constructions agree to {worst:.2e}; I(x*)={at_star:.1e}; "
               f"min second difference {convexity:.1e}")


def test_criterion_05_exact_enumeration_vs_monte_carlo(chain, psi0):
    start = time.perf_counter()
    m, n, bins = 20, 1_000_000, 21
    dist = DiscreteIntervals(np.array(D2_VALUES_S), np.array([0.5, 0.5]))
    lq1 = log_survival_factor(chain, psi0, D2_VALUES_S[0])
    lq2 = log_survival_factor(chain, psi0, D2_VALUES_S[1])
    xs_exact, probs_exact, rates_exact = binomial_rate_enumeration(0.5, lq1, lq2, m)
    # the enumeration itself is the shifted -(1/m) ln P(L)
    recomputed = -np.log(probs_exact) / m
    assert np.allclose(rates_exact, recomputed - recomputed.min(), atol=1e-14)

    cfg = EnsembleConfig(
        dist=dist, hamiltonian=chain, state=psi0, mode="fixed_m",
        realizations=n, master_seed=20250105, m=m,
    )
    ens = run_ensemble(cfg)
    est = empirical_rate(ens, bins=bins)

    # aggregate exact probabilities into the same bins, then compare the
    # shifted rates on every bin holding at least 100 samples
    edges = est.bin_edges
    exact_bin_prob = np.zeros(edges.size - 1)
    for x, p in zip(xs_exact, probs_exact):
        idx = min(max(np.searchsorted(edges, x, side="right") - 1, 0),
                  edges.size - 2)
        exact_bin_prob[idx] += p
    centers_all = 0.5 * (edges[:-1] + edges[1:])
    occ_idx = np.searchsorted(centers_all, est.centers)
    assert np.array_equal(centers_all[occ_idx], est.centers)
    exact_rates = -np.log(exact_bin_prob[occ_idx]) / m
    exact_rates -= exact_rates.min()

    heavy = est.counts >= 100
    worst = float(np.max(np.abs(est.rates[heavy] - exact_rates[heavy])))
    checked = int(np.sum(heavy))
    elapsed = time.perf_counter() - start
    assert checked >= 10
    assert worst <= 0.02
    assert elapsed < 60.0
    _passed(5, f"{checked} populated bins, worst |MC - enumeration| = "
               f"{worst:.4f} ({elapsed:.1f}s)")


def test_criterion_06_concentration_around_typical_value(chain, psi0):
    m, n = 2000, 100
    dist = d2_dist()
    prob = LdProblem.for_system(chain, psi0, dist, m)
    l_star_per_m = survival_stats(prob).log_p_star / m
    mean_lq = float(np.dot(dist.probs, prob.logq))
    var_lq = float(np.dot(dist.probs, prob.logq**2)) - mean_lq**2
    sigma = math.sqrt(var_lq / m)

    cfg = EnsembleConfig(
        dist=dist, hamiltonian=chain, state=psi0, mode="fixed_m",
        realizations=n, master_seed=20250106, m=m,
    )
    ens = run_ensemble(cfg)
    within = int(np.sum(np.abs(ens.log_survivals / m - l_star_per_m) <= 3 * sigma))
    assert within >= 95
    _passed(6, f"{within}/100 realizations within three sigma of the typical value")


def test_criterion_07_jensen_gap(chain, psi0):
    m = 2000
    gaps = {}
    for label, values, probs in (
        ("d=2", D2_VALUES_S, D2_PROBS),
        ("d=3", D3_VALUES_S, D3_PROBS),
        ("d=4", D4_VALUES_S, D4_PROBS),
    ):
        dist = DiscreteIntervals(np.array(values), np.array(probs))
        stats = survival_stats(LdProblem.for_system(chain, psi0, dist, m))
        gaps[label] = stats.log_jensen_gap
        assert stats.log_jensen_gap >= 1e-12
    pl_stats = survival_stats_for(PowerLawIntervals(1 * NS, 3.0), chain, psi0, m)
    gaps["powerlaw"] = pl_stats.log_jensen_gap
    assert pl_stats.log_jensen_gap >= 1e-12
    deg_stats = survival_stats_for(DegenerateInterval(2 * NS), chain, psi0, m)
    assert abs(deg_stats.log_jensen_gap) <= 1e-12
    _passed(7, "strict gaps " + ", ".join(
        f"{k}={v:.2e}" for k, v in gaps.items()) + "; degenerate gap 0")


def test_criterion_08_log_affinity_in_probability(chain, psi0):
    p1s = np.linspace(0.01, 0.99, 50)
    xs = []
    for p1 in p1s:
        dist = DiscreteIntervals(np.array(D2_VALUES_S), np.array([p1, 1 - p1]))
        prob = LdProblem.for_system(chain, psi0, dist, 6400)
        xs.append(survival_stats(prob).log_p_star / prob.m)
    coeffs = np.polyfit(p1s, xs, 1)
    residual = float(np.max(np.abs(np.polyval(coeffs, p1s) - np.asarray(xs))))
    assert residual <= 1e-12
    _passed(8, f"affine fit residual {residual:.2e}")


def test_criterion_09_zeno_limit(chain, psi0):
    total = 10.0 / OMEGA
    rel_errors = []
    exacts = []
    for k in range(3, 9):
        res = equally_spaced_survival(chain, psi0, 2.0**-k / OMEGA, total)
        rel_errors.append(res.relative_difference)
        exacts.append(res.exact)
    assert all(a > b for a, b in zip(rel_errors, rel_errors[1:]))
    assert rel_errors[-1] <= 1e-2
    assert all(b > a for a, b in zip(exacts, exacts[1:]))
    _passed(9, f"relative error falls {rel_errors[0]:.1e} -> {rel_errors[-1]:.1e}; "
               f"survival climbs to {exacts[-1]:.4f}")


def test_criterion_10_stochastic_freezing_condition(chain, psi0):
    m = 100
    errs = []
    for mu0 in (1e-1 / OMEGA, 1e-2 / OMEGA, 1e-3 / OMEGA):
        dist = PowerLawIntervals(mu0, 3.0)
        stats = survival_stats_for(dist, chain, psi0, m)
        m_delta = m * qze_condition(dist, chain, psi0).delta_mean
        errs.append(abs(stats.log_p_star + m_delta) / m_delta)
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 0.05
    _passed(10, f"|ln P* + m<delta>|/(m<delta>) falls {errs[0]:.3f} -> "
                f"{errs[-1]:.3f} at mu0 = 1e-3/Omega")


def test_criterion_11_disorder_enhancement(chain, psi0):
    start = time.perf_counter()
    # fixed mean 2.4 mu0 with mu0 = 10 us: an enhancement window in p1 exists
    ratios = [
        disorder_gain(chain, psi0, float(p1), 10 * US, 24 * US, 100).ratio
        for p1 in np.linspace(0.005, 0.995, 199)
    ]
    assert max(ratios) > 1.0
    # deep freezing regime: disorder hurts at mu1 = 1 ns
    zeno = disorder_gain(chain, psi0, 0.99, 1 * NS, 2.4 * NS, 100)
    assert zeno.ratio < 1.0
    scale_ratios = [
        disorder_gain(chain, psi0, 0.99, mu1 * NS, 2.4 * mu1 * NS, 100).ratio
        for mu1 in np.linspace(1.0, 250.0, 250)
    ]
    elapsed = time.perf_counter() - start
    assert max(scale_ratios) > 1.0
    assert elapsed < 5.0
    _passed(11, f"enhancement window found (max ratio {max(ratios):.2f}); "
                f"freezing regime ratio {zeno.ratio:.3f} < 1; "
                f"scale sweep max {max(scale_ratios):.2f} ({elapsed:.2f}s)")


def test_criterion_12_contraction(chain, psi0):
    prob = LdProblem.for_system(chain, psi0, d2_dist(), 100)
    lo, hi = float(prob.logq.min()), float(prob.logq.max())
    span = hi - lo
    worst = 0.0
    for x in np.linspace(lo + 0.01 * span, hi - 0.01 * span, 20):
        contracted = contracted_rate(prob, float(x))
        marginal = rate_function_I(prob, float(x))
        worst = max(worst, abs(contracted - marginal))
    assert worst <= 1e-12
    _passed(12, f"20 x-values, worst |contracted - marginal| = {worst:.2e}")


def test_criterion_13_determinism(chain, psi0, tmp_path, monkeypatch):
    first = run_preset("fig2", seed=20250113, out_dir=str(tmp_path / "a"))
    second = run_preset("fig2", seed=20250113, out_dir=str(tmp_path / "b"))
    with open(first["csv"], "rb") as fa, open(second["csv"], "rb") as fb:
        assert fa.read() == fb.read()

    cfg = EnsembleConfig(
        dist=d2_dist(), hamiltonian=chain, state=psi0, mode="fixed_m",
        realizations=100, master_seed=20250113, m=2000,
    )
    default = run_ensemble(cfg)
    monkeypatch.setattr(montecarlo, "_CHUNK_TARGET", 7 * cfg.m)
    chunked = run_ensemble(cfg)
    assert np.array_equal(default.log_survivals, chunked.log_survivals)
    assert np.array_equal(default.total_times, chunked.total_times)
    _passed(13, "byte-identical preset reruns; one chunk == chunks of 7 realizations")
