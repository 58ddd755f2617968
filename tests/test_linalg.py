import numpy as np
import pytest

from oracles import chain_matrix, characteristic_cubic_eigenvalues, taylor_propagator

from zenosim.linalg import NotHermitianError, hermitian_eig, propagator

OMEGA = 2.0 * np.pi * 100e3


def random_hermitian(rng, n):
    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (x + x.conj().T)


def test_identity_spectrum():
    spec = hermitian_eig(np.eye(3))
    assert spec.eigenvalues == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)
    v = spec.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(3)) < 1e-12


def test_symmetric_two_level():
    spec = hermitian_eig([[0.0, OMEGA], [OMEGA, 0.0]])
    assert spec.eigenvalues == pytest.approx([-OMEGA, OMEGA], rel=1e-14, abs=0.0)


def test_chain_eigenvalues_match_cubic_roots():
    h = chain_matrix()
    spec = hermitian_eig(h)
    expected = characteristic_cubic_eigenvalues(h)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(spec.eigenvalues - expected)) < 1e-10 * scale


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitianError):
        hermitian_eig([[0.0, 1.0], [0.5, 0.0]])


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_zero_matrix_and_single_level():
    spec = hermitian_eig(np.zeros((4, 4)))
    assert np.all(spec.eigenvalues == 0.0)
    spec1 = hermitian_eig([[2.5]])
    assert spec1.eigenvalues == pytest.approx([2.5])


@pytest.mark.parametrize("seed", range(8))
def test_decomposition_invariants_random(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    a = random_hermitian(rng, n)
    if seed % 2:
        a = a @ a.conj().T + a  # widen the spectrum, keep Hermitian
    spec = hermitian_eig(a)
    v = spec.eigenvectors
    norm_a = np.linalg.norm(a)
    assert np.all(np.diff(spec.eigenvalues) >= 0)
    assert np.linalg.norm(v.conj().T @ v - np.eye(n)) < 1e-12
    assert np.linalg.norm(spec.reconstruct() - a) < 1e-10 * norm_a
    # eigenvalue sum is the trace
    assert np.sum(spec.eigenvalues) == pytest.approx(
        float(np.trace(a).real), rel=1e-10, abs=1e-10 * norm_a
    )


def test_degenerate_spectrum_still_orthonormal():
    a = np.kron(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))  # doubled eigenvalues
    spec = hermitian_eig(a)
    assert spec.eigenvalues == pytest.approx([-1.0, -1.0, 3.0, 3.0], rel=1e-12, abs=0.0)
    v = spec.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(4)) < 1e-12
    assert np.linalg.norm(spec.reconstruct() - a) < 1e-10 * np.linalg.norm(a)


def test_determinism():
    rng = np.random.default_rng(11)
    a = random_hermitian(rng, 9)
    s1 = hermitian_eig(a)
    s2 = hermitian_eig(a)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.eigenvectors, s2.eigenvectors)


def test_propagator_zero_time_is_identity(chain):
    u = propagator(chain.spec, 0.0)
    assert np.linalg.norm(u - np.eye(3)) < 1e-14


def test_propagator_diagonal_hamiltonian():
    w1, w2 = 2.0e5, -3.0e5
    spec = hermitian_eig(np.diag([w1, w2]))
    mu = 2.3e-6
    u = propagator(spec, mu)
    expected = np.diag([np.exp(-1j * w1 * mu), np.exp(-1j * w2 * mu)])
    # eigenvalues are sorted, so compare as operators
    assert np.max(np.abs(u - expected)) < 1e-14


def test_propagator_matches_taylor_oracle(chain):
    h = chain_matrix()
    u = propagator(chain.spec, 1e-9)
    expected = taylor_propagator(h, 1e-9)
    assert np.max(np.abs(u - expected)) < 1e-12


def test_propagator_negative_time_rejected(chain):
    with pytest.raises(ValueError):
        propagator(chain.spec, -1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_propagator_group_property_and_unitarity(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 8))
    spec = hermitian_eig(random_hermitian(rng, n))
    mu1, mu2 = rng.uniform(0.0, 2.0, size=2)
    u1, u2 = propagator(spec, mu1), propagator(spec, mu2)
    u12 = propagator(spec, mu1 + mu2)
    assert np.linalg.norm(u1 @ u2 - u12) < 1e-10
    assert np.linalg.norm(u1.conj().T @ u1 - np.eye(n)) < 1e-10
    assert abs(abs(np.linalg.det(u1)) - 1.0) < 1e-10
