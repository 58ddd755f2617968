import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    CHAIN_COUPLING,
    CHAIN_OMEGAS,
    D2_PROBS,
    D2_VALUES_S,
    US,
    chain_matrix,
    expectation_variance,
    expm_log_q,
    one_excitation_log_q,
    one_excitation_spectrum,
    one_excitation_state,
    overlap_amplitude,
    same_bits,
    two_level_q,
    xx_chain_matrix,
)

from zenosim import (
    DimensionMismatchError,
    DiscreteIntervals,
    Hamiltonian,
    NotNormalizedError,
    PowerLawIntervals,
    PureState,
    UnderflowWarning,
    ZeroVarianceError,
    build_chain_hamiltonian,
    delta_of_mu,
    entangled_initial_state,
    evolve_sequence,
    log_survival_factor,
    log_survival_factors,
    survival_factor,
    survival_trace,
    zeno_time,
)
from zenosim import intervals
from zenosim.dynamics import EmptySpectrumError, phase_weights, survival_minima
from zenosim.rng import substream

OMEGA = CHAIN_COUPLING


class TestChainHamiltonian:
    def test_single_level(self):
        h = build_chain_hamiltonian([1.5e5], 9e9)
        assert h.matrix.shape == (1, 1)
        assert h.matrix[0, 0] == pytest.approx(1.5e5)

    def test_benchmark_entries(self, chain):
        expected = chain_matrix()
        assert np.max(np.abs(chain.matrix - expected)) == 0.0

    def test_two_level_symmetric_eigenvalues(self):
        h = build_chain_hamiltonian([0.0, 0.0], OMEGA)
        assert h.spec.eigenvalues == pytest.approx([-OMEGA, OMEGA], rel=1e-14, abs=0.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptySpectrumError):
            build_chain_hamiltonian([], OMEGA)


class TestInitialState:
    def test_default_amplitudes(self):
        psi = entangled_initial_state()
        r = 0.7071067811865476
        assert psi.amplitudes == pytest.approx([r, 0.0, r], abs=1e-16)

    def test_separable_limit(self):
        psi = entangled_initial_state(1.0, 0.0)
        assert psi.amplitudes == pytest.approx([1.0, 0.0, 0.0])

    def test_general_superposition(self):
        psi = entangled_initial_state(0.6, 0.8)
        assert psi.amplitudes == pytest.approx([0.6, 0.0, 0.8])

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalizedError):
            entangled_initial_state(0.6, 0.7)
        with pytest.raises(NotNormalizedError):
            PureState(np.array([1.0, 1.0]))


class TestSurvivalFactor:
    def test_zero_interval(self, chain, psi0):
        assert survival_factor(chain, psi0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_two_level_rabi_grid(self, rabi):
        h, psi = rabi
        for mu in np.linspace(0.0, 10.0 / OMEGA, 100):
            assert survival_factor(h, psi, float(mu)) == pytest.approx(
                float(two_level_q(OMEGA, mu)), abs=1e-12
            )

    def test_matches_taylor_oracle(self, chain, psi0):
        amp = overlap_amplitude(chain_matrix(), psi0.amplitudes, 1e-9)
        assert survival_factor(chain, psi0, 1e-9) == pytest.approx(
            abs(amp) ** 2, abs=1e-12
        )

    def test_in_unit_interval_on_grid(self, chain, psi0):
        for mu in np.linspace(0.0, 10.0 / OMEGA, 257):
            q = survival_factor(chain, psi0, float(mu))
            assert 0.0 <= q <= 1.0

    def test_dimension_mismatch(self, chain):
        with pytest.raises(DimensionMismatchError):
            survival_factor(chain, PureState(np.array([1.0, 0.0])), 1e-9)


class TestDelta:
    def test_zero_interval(self, chain, psi0):
        assert delta_of_mu(chain, psi0, 0.0) == 0.0

    def test_two_level_sine_squared(self, rabi):
        h, psi = rabi
        for mu in np.linspace(0.0, 5.0 / OMEGA, 50):
            assert delta_of_mu(h, psi, float(mu)) == pytest.approx(
                float(np.sin(OMEGA * mu) ** 2), abs=1e-12
            )

    def test_small_mu_leading_term(self, chain, psi0):
        tz = zeno_time(chain, psi0)
        mu = 0.1e-9
        ratio = delta_of_mu(chain, psi0, mu) / (mu / tz) ** 2
        assert 0.99 <= ratio <= 1.01

    def test_small_mu_law_monotone(self, chain, psi0):
        tz = zeno_time(chain, psi0)
        devs = []
        for k in range(4, 11):
            mu = 2.0**-k / OMEGA
            devs.append(abs(delta_of_mu(chain, psi0, mu) * tz**2 / mu**2 - 1.0))
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-4


class TestEvolveSequence:
    def test_all_zero_intervals(self, chain, psi0):
        res = evolve_sequence(chain, psi0, [0.0, 0.0, 0.0])
        assert res.survival == pytest.approx(1.0, abs=1e-14)
        assert res.total_time == 0.0

    def test_two_level_double_interval(self, rabi):
        h, psi = rabi
        mu = 0.3 / OMEGA
        res = evolve_sequence(h, psi, [mu, mu])
        assert res.survival == pytest.approx(np.cos(OMEGA * mu) ** 4, rel=1e-12, abs=0.0)

    def test_survival_is_product_of_factors(self, chain, psi0):
        rng = substream(7, 0)
        dist = DiscreteIntervals(np.array(D2_VALUES_S), np.array(D2_PROBS))
        mus = dist.sample(rng, 40)
        res = evolve_sequence(chain, psi0, mus)
        prod = 1.0
        for f in res.factors:
            prod *= f
        assert res.survival == pytest.approx(prod, rel=1e-12, abs=0.0)
        assert res.total_time == float(sum(mus.tolist()))

    def test_trace_equals_product_on_sampled_sequences(self, chain, psi0):
        dist = DiscreteIntervals(np.array(D2_VALUES_S), np.array(D2_PROBS))
        for i in range(10):
            mus = dist.sample(substream(42, i), 25)
            res = evolve_sequence(chain, psi0, mus)
            tr = survival_trace(chain, psi0, mus)
            assert abs(tr - res.survival) <= 1e-10 * res.survival

    @settings(max_examples=60)
    @given(n=st.integers(1, 8), data=st.data())
    def test_trace_equals_product_on_random_systems(self, n, data):
        parts = st.floats(-1.0, 1.0)
        a = data.draw(arrays(float, (2, n, n), elements=parts))
        matrix = a[0] + 1j * a[1]
        h = Hamiltonian.from_matrix(matrix + matrix.conj().T)  # eigenvalues within 4n
        amps = data.draw(arrays(float, (2, n), elements=parts).filter(
            lambda v: float(np.sum(v * v)) > 1e-3))
        amps = amps[0] + 1j * amps[1]
        psi = PureState(amps / np.linalg.norm(amps))
        mus = data.draw(arrays(float, st.integers(1, 6), elements=st.floats(0.0, 2.0)))
        product = math.exp(evolve_sequence(h, psi, mus).log_survival)
        # both paths carry absolute round-off up to about 1e-14 at n = 8
        assert abs(survival_trace(h, psi, mus) - product) <= 1e-13 + 1e-12 * product

    def test_permutation_invariance(self, chain, psi0):
        rng = substream(3, 1)
        mus = np.array(D2_VALUES_S)[rng.integers(0, 2, size=30)]
        base = evolve_sequence(chain, psi0, mus).survival
        for seed in range(5):
            shuffled = mus.copy()
            substream(99, seed).shuffle(shuffled)
            assert evolve_sequence(chain, psi0, shuffled).survival == pytest.approx(
                base, rel=1e-12, abs=0.0
            )

    def test_log_and_linear_domains_agree(self, chain, psi0):
        mus = np.full(50, 2e-9)
        res = evolve_sequence(chain, psi0, mus)
        assert math.log(res.survival) == pytest.approx(res.log_survival, rel=1e-10, abs=0.0)

    def test_underflow_warns_and_log_survives(self, rabi):
        h, psi = rabi
        mu = (np.pi / 2 - 1e-4) / OMEGA  # q ~ 1e-8 per interval
        with pytest.warns(UnderflowWarning):
            res = evolve_sequence(h, psi, np.full(60, mu))
        assert res.survival == 0.0
        assert res.log_survival == pytest.approx(60 * math.log(1e-8), rel=1e-3, abs=0.0)

    def test_empty_sequence_rejected(self, chain, psi0):
        with pytest.raises(ValueError):
            evolve_sequence(chain, psi0, [])
        with pytest.raises(ValueError):
            evolve_sequence(chain, psi0, [-1e-9])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", [
    lambda h, psi, x: log_survival_factor(h, psi, x),
    lambda h, psi, x: survival_factor(h, psi, x),
    lambda h, psi, x: delta_of_mu(h, psi, x),
    lambda h, psi, x: evolve_sequence(h, psi, [1e-9, x]),
    lambda h, psi, x: survival_trace(h, psi, [1e-9, x]),
], ids=["log_survival_factor", "survival_factor", "delta_of_mu", "evolve_sequence",
        "survival_trace"])
def test_non_finite_interval_rejected(chain, psi0, call, bad):
    with pytest.raises(ValueError, match="finite"):
        call(chain, psi0, bad)


class TestZenoTime:
    def test_eigenstate_raises(self, chain):
        v = chain.spec.eigenvectors[:, 0]
        with pytest.raises(ZeroVarianceError):
            zeno_time(chain, PureState(v))

    def test_degenerate_eigenstate_raises(self, psi0):
        # uncoupled levels of one energy: psi0 weighs two of them
        with pytest.raises(ZeroVarianceError):
            zeno_time(build_chain_hamiltonian([2 * math.pi * 1e4] * 3, 0.0), psi0)

    def test_two_level(self, rabi):
        h, psi = rabi
        assert zeno_time(h, psi) == pytest.approx(1.0 / OMEGA, rel=1e-12, abs=0.0)

    def test_matches_expectation_oracle(self, chain, psi0):
        var = expectation_variance(chain_matrix(), psi0.amplitudes)
        assert zeno_time(chain, psi0) == pytest.approx(var**-0.5, rel=1e-12, abs=0.0)


class TestLogSurvivalFactor:
    def test_tiny_interval_precision(self, chain, psi0):
        mu = 1e-12
        delta = delta_of_mu(chain, psi0, mu)
        assert log_survival_factor(chain, psi0, mu) == pytest.approx(
            -delta, rel=1e-9, abs=0.0
        )

    def test_matches_plain_log_for_moderate_q(self, chain, psi0):
        mu = 2.0 / OMEGA
        q = survival_factor(chain, psi0, mu)
        assert log_survival_factor(chain, psi0, mu) == pytest.approx(
            math.log(q), rel=1e-12, abs=0.0
        )


#: a near-zero of q on the default chain (q ~ e^-27), where forming
#: 1 - delta loses most digits
NEAR_ZERO_MU = 19.397003015 * US


class TestLogSurvivalKernel:
    """``log_survival_factors`` is the one ln q; the helpers only read it."""

    @pytest.fixture(scope="class")
    def grid(self):
        return np.concatenate([
            np.linspace(0.0, 20 * US, 20_001),
            np.geomspace(1e-15, 1e-9, 61),
            [NEAR_ZERO_MU],
        ])

    @pytest.fixture(scope="class")
    def values(self, chain, psi0, grid):
        return log_survival_factors(*phase_weights(chain, psi0), grid)

    def test_scalar_helpers_are_bitwise_the_kernel(self, chain, psi0, grid, values):
        scalar = np.array([log_survival_factor(chain, psi0, float(mu)) for mu in grid])
        assert np.array_equal(scalar, values)
        for mu, lq in zip(grid[::97].tolist(), values[::97].tolist()):
            assert survival_factor(chain, psi0, mu) == math.exp(lq)
            assert delta_of_mu(chain, psi0, mu) == -math.expm1(lq)

    @pytest.mark.parametrize("size", [1, 7, 4096])
    def test_independent_of_chunk_size(self, chain, psi0, grid, values, size):
        lam, w = phase_weights(chain, psi0)
        chunks = [log_survival_factors(lam, w, grid[i : i + size])
                  for i in range(0, grid.size, size)]
        assert np.array_equal(np.concatenate(chunks), values)

    def test_nonpositive_and_never_nan(self, rabi, values):
        assert not np.any(np.isnan(values))
        assert np.all(values <= 0.0)
        h, psi = rabi
        exact_zero = log_survival_factor(h, psi, (math.pi / 2) / OMEGA)
        assert not math.isnan(exact_zero) and exact_zero <= 0.0
        assert exact_zero < -60.0

    def test_matches_matrix_exponential_oracle(self, chain, psi0, grid, values):
        pick = np.concatenate([np.arange(1, 20_001, 700), np.arange(20_001, grid.size)])
        h, psi = chain_matrix(), psi0.amplitudes
        worst = max(abs(lq / expm_log_q(h, psi, mu) - 1.0)
                    for mu, lq in zip(grid[pick].tolist(), values[pick].tolist()))
        assert worst <= 1e-9


class TestSurvivalMinima:
    def test_two_level_minima_are_the_zeros(self, rabi):
        h, psi = rabi  # q = cos^2(Omega mu)
        lam, w = phase_weights(h, psi)
        grid = np.linspace(0.0, 10 * math.pi / OMEGA, 161)
        minima = survival_minima(lam, w, grid)
        expected = (np.arange(10) + 0.5) * math.pi / OMEGA
        np.testing.assert_allclose(minima, expected, rtol=1e-14)

    def test_chain_minima_are_zeros_of_the_matrix_exponential(self, chain, psi0):
        lam, w = phase_weights(chain, psi0)
        period = 2 * math.pi / float(lam.max() - lam.min())
        minima = survival_minima(lam, w, np.arange(0.0, 40 * period, period / 8))
        assert minima.size == 40  # the state weighs two levels: one zero a period
        for mu in minima[[0, 1, 17, 39]].tolist():
            assert expm_log_q(chain_matrix(), psi0.amplitudes, mu) < -40.0

    def test_grid_without_a_minimum(self, rabi):
        h, psi = rabi
        lam, w = phase_weights(h, psi)
        grid = np.linspace(0.0, 0.4 * math.pi / OMEGA, 9)  # q falls throughout
        assert survival_minima(lam, w, grid).size == 0


def all_pairs_log_q(lam, w, mus):
    """The kernel with no level dropped: every pair j < k of the given
    levels adds its term, and every level its amplitude."""
    mus = np.asarray(mus, dtype=float)
    j, k = np.triu_indices(lam.size, 1)
    delta = np.zeros(mus.shape)
    term = np.empty(mus.shape)
    for half_gap, pair_w in zip((0.5 * (lam[k] - lam[j])).tolist(),
                                (4.0 * w[j] * w[k]).tolist()):
        np.multiply(half_gap, mus, out=term)
        np.sin(term, out=term)
        np.square(term, out=term)
        term *= pair_w
        delta += term
    far = delta >= 0.5
    out = np.negative(delta, out=delta)
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


def all_pairs_minima(lam, w, grid):
    """``survival_minima`` with every pair j < k in the derivative."""
    j, k = np.triu_indices(lam.size, 1)
    gaps = lam[k] - lam[j]
    terms = list(zip(gaps.tolist(), (-2.0 * w[j] * w[k] * gaps).tolist()))

    def rising(mus):
        return sum(coeff * np.sin(gap * mus) for gap, coeff in terms) >= 0.0

    grid = np.asarray(grid, dtype=float)
    up = rising(grid)
    at = np.flatnonzero(~up[:-1] & up[1:])
    lo, hi = grid[at], grid[at + 1]
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        up = rising(mid)
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        mid = 0.5 * (lo + hi)
    return hi


def four_level_state(weights):
    """The four-level chain and the state with the given eigenvector weights;
    ``eigh`` leaves a weight near 1e-32 where one is 0."""
    h = build_chain_hamiltonian([0.0, 1.0e6, 2.5e5, 7.0e5], OMEGA)
    return h, PureState(h.spec.eigenvectors @ np.sqrt(np.array(weights)))


#: (h, psi0) of each system whose support may drop levels
SKIPPED_PAIRS_SYSTEMS = {
    # (1, 0, 1)/sqrt(2) has no overlap with the middle eigenvector: 1 pair of 3
    "default": lambda chain, psi0: (chain, psi0),
    # an eigenstate of the uncoupled chain: one level, no pair, no decay
    "eigenstate": lambda chain, psi0: (
        build_chain_hamiltonian(CHAIN_OMEGAS, 0.0),
        PureState(np.array([0.0, 1.0, 0.0], dtype=complex))),
    # orthogonal to the third of four eigenvectors: 3 pairs of 6
    "d4_one_zero": lambda chain, psi0: four_level_state([0.1, 0.2, 0.0, 0.7]),
    # orthogonal to the first eigenvector: the support starts at lam_1
    "d4_first_zero": lambda chain, psi0: four_level_state([0.0, 0.3, 0.2, 0.5]),
    # no zero weight, w about (0.216, 0.498, 0.287): nothing dropped
    "no_zero": lambda chain, psi0: (
        chain, PureState(np.array([1.0, 0.0, 0.0], dtype=complex))),
    # six pairs, added in the row-major order of np.triu_indices
    "d4_no_zero": lambda chain, psi0: four_level_state([0.1, 0.2, 0.3, 0.4]),
}

#: intervals that cross both branches of the kernel on the chains above
SKIPPED_PAIRS_MUS = np.concatenate([np.linspace(0.0, 20 * US, 20_001),
                                    np.geomspace(1e-15, 1e-9, 61), [NEAR_ZERO_MU]])
#: a grid with dozens of minima of q on the chains above
SKIPPED_PAIRS_GRID = np.arange(0.0, 40 * US, 0.1 * US)


def support_and_full(system, chain, psi0):
    """``phase_weights`` of a system, and every level with its ``eigh``
    weight, round-off included."""
    h, psi = SKIPPED_PAIRS_SYSTEMS[system](chain, psi0)
    full_w = np.abs(h.spec.eigenvectors.conj().T @ psi.amplitudes) ** 2
    return phase_weights(h, psi), (h.spec.eigenvalues, full_w)


class TestSupport:
    """``phase_weights`` drops the levels ``eigh`` leaves with round-off
    weight; ln q and the minima of q on that support keep the bits of
    every pair over the full weights."""

    @pytest.mark.parametrize("system", SKIPPED_PAIRS_SYSTEMS)
    def test_kernel_keeps_the_all_pairs_bits(self, chain, psi0, system):
        (lam, w), (full_lam, full_w) = support_and_full(system, chain, psi0)
        mus = SKIPPED_PAIRS_MUS
        expected = all_pairs_log_q(full_lam, full_w, mus)
        got = log_survival_factors(lam, w, mus)
        if system == "eigenstate":
            assert lam.size == 1 and np.all(expected == 0.0)
        else:  # both branches of the kernel are crossed
            assert 0.2 < np.mean(expected <= math.log(0.5)) < 0.8
        if system == "d4_first_zero":
            # the amplitude of the far branch takes its phases from lam_1,
            # the support's lowest level, not lam_0: q keeps its value to
            # round-off, not its bits
            near = expected > math.log(0.5)
            assert same_bits(got[near], expected[near])
            np.testing.assert_allclose(np.exp(got), np.exp(expected), rtol=0.0, atol=1e-14)
        else:
            assert same_bits(got, expected)
        assert same_bits(log_survival_factors(lam, w, mus[:1]), expected[:1])

    @pytest.mark.parametrize("system", SKIPPED_PAIRS_SYSTEMS)
    def test_minima_keep_the_all_pairs_bits(self, chain, psi0, system):
        (lam, w), (full_lam, full_w) = support_and_full(system, chain, psi0)
        grid = SKIPPED_PAIRS_GRID
        minima = survival_minima(lam, w, grid)
        assert (minima.size == 0) == (system == "eigenstate")
        assert same_bits(minima, all_pairs_minima(full_lam, full_w, grid))

    @pytest.mark.parametrize("system", SKIPPED_PAIRS_SYSTEMS)
    def test_zero_padded_input_keeps_its_bits(self, chain, psi0, system):
        # the full levels with the support's weights and exact zeros
        # elsewhere: each zero adds a signed zero to a sum that starts at
        # +0.0 (delta, Im a, dq/dmu) or at w_0 >= 0 (Re a), which leaves it
        (lam, w), (full_lam, full_w) = support_and_full(system, chain, psi0)
        padded = np.where(np.isin(full_lam, lam), full_w, 0.0)
        assert np.count_nonzero(padded) == lam.size
        mus, grid = SKIPPED_PAIRS_MUS, SKIPPED_PAIRS_GRID
        assert same_bits(log_survival_factors(full_lam, padded, mus),
                         all_pairs_log_q(full_lam, padded, mus))
        assert same_bits(survival_minima(full_lam, padded, grid),
                         all_pairs_minima(full_lam, padded, grid))

    def test_default_state_weighs_two_levels(self, chain, psi0):
        lam, w = phase_weights(chain, psi0)
        assert same_bits(lam, chain.spec.eigenvalues[[0, 2]])
        np.testing.assert_allclose(w, [0.5, 0.5], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0])
    def test_minima_keep_the_all_pairs_bits_on_fig4_panels(self, chain, psi0, alpha):
        # the panel edges fig4's quadrature searches for minima of q
        grids = []

        def recorded(lam, w, grid):
            grids.append(np.array(grid))
            return survival_minima(lam, w, grid)

        lam, w = phase_weights(chain, psi0)
        with mock.patch.object(intervals, "survival_minima", recorded):
            PowerLawIntervals(mu0=1e-9, alpha=alpha).log_q_moments(lam, w)
        (grid,) = grids
        minima = survival_minima(lam, w, grid)
        assert minima.size >= 3
        assert same_bits(minima, all_pairs_minima(lam, w, grid))

    def test_minima_of_an_eigenstate(self):
        lam, w = np.array([-1.0, 0.0, 2.0]), np.array([0.0, 1.0, 0.0])
        grid = np.linspace(0.0, 10.0, 101)
        assert same_bits(survival_minima(lam, w, grid), all_pairs_minima(lam, w, grid))


#: the 8-qubit XX chain: hopping 2 pi 100 kHz, field 2 pi 30 kHz on each qubit
XX_QUBITS, XX_COUPLING, XX_FIELD = 8, 2 * math.pi * 100e3, 2 * math.pi * 30e3
#: one-excitation states by their site amplitudes
XX_STATES = {
    "w": [1.0 / math.sqrt(XX_QUBITS)] * XX_QUBITS,  # odd modes only: 4 levels
    "edge": [1.0] + [0.0] * (XX_QUBITS - 1),  # every mode: 8 levels
}


class TestXXChain:
    """One-excitation states of a 256-level XX chain against the closed form
    of their sector (``oracles.one_excitation_spectrum``): ``phase_weights``
    keeps only the modes they weigh."""

    @pytest.fixture(scope="class")
    def xx(self):
        return Hamiltonian.from_matrix(xx_chain_matrix(XX_QUBITS, XX_COUPLING, XX_FIELD))

    @staticmethod
    def support(xx, state):
        return phase_weights(xx, PureState(one_excitation_state(XX_STATES[state])))

    @pytest.mark.parametrize("state,size", [("w", XX_QUBITS // 2), ("edge", XX_QUBITS)])
    def test_support_is_the_weighted_modes(self, xx, state, size):
        lam, w = self.support(xx, state)
        assert lam.size == size
        levels = sorted(one_excitation_spectrum(XX_STATES[state], XX_COUPLING, XX_FIELD))
        assert len(levels) == size
        np.testing.assert_allclose(lam, [float(e) for e, _ in levels],
                                   rtol=0.0, atol=1e-14 * XX_QUBITS * XX_COUPLING)
        np.testing.assert_allclose(w, [float(p) for _, p in levels], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("state", sorted(XX_STATES))
    def test_kernel_matches_the_closed_form(self, xx, state):
        lam, w = self.support(xx, state)
        period = 2 * math.pi / float(lam[-1] - lam[0])
        mus = np.concatenate([np.geomspace(1e-6 * period, period, 40),
                              np.linspace(0.0, 10 * period, 201)[1:]])
        got = log_survival_factors(lam, w, mus)
        np.testing.assert_allclose(
            got, one_excitation_log_q(XX_STATES[state], XX_COUPLING, XX_FIELD, mus),
            rtol=1e-9, atol=0.0)
        far = np.mean(got <= math.log(0.5))
        if state == "w":  # q >= (2 w_max - 1)^2 > 1/2: the far branch is never taken
            assert w.max() > 0.89 and far == 0.0
        else:
            assert 0.2 < far < 0.8

    def test_w_state_keeps_the_all_pairs_bits(self, xx):
        lam, w = self.support(xx, "w")
        full_w = np.abs(xx.spec.eigenvectors.conj().T
                        @ one_excitation_state(XX_STATES["w"])) ** 2
        assert full_w.size == 256 and np.sum(full_w > 0.0) > 200  # round-off weights
        mus = np.geomspace(1e-12, 1e-4, 50)
        assert same_bits(log_survival_factors(lam, w, mus),
                         all_pairs_log_q(xx.spec.eigenvalues, full_w, mus))
