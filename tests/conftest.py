import os
import sys
from pathlib import Path

# one BLAS thread, as the benchmark runs: OpenBLAS reads this once, when
# numpy loads it, and its thread start-up costs the first large eigensolve
# about a second (the XX chain's fixture)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from oracles import (
    CHAIN_COUPLING,
    CHAIN_OMEGAS,
    chain_matrix,
    powerlaw_expect_log_q,
    two_level_expect_log_q,
)

from zenosim import PureState, build_chain_hamiltonian, entangled_initial_state

# property tests draw the same examples on every run, take as long as they
# need, and keep no example database on disk
settings.register_profile("zenosim", derandomize=True, deadline=None, database=None)
settings.load_profile("zenosim")


@pytest.fixture(scope="session")
def chain():
    """The benchmark 3-level chain Hamiltonian."""
    return build_chain_hamiltonian(CHAIN_OMEGAS, CHAIN_COUPLING)


@pytest.fixture(scope="session")
def psi0():
    return entangled_initial_state()


@pytest.fixture(scope="session")
def rabi():
    """Two-level pure-coupling system and its ground basis state."""
    h = build_chain_hamiltonian([0.0, 0.0], CHAIN_COUPLING)
    return h, PureState(np.array([1.0, 0.0], dtype=complex))


@pytest.fixture(scope="session")
def powerlaw_log_q_oracle():
    """E[ln q] of the benchmark chain from (1, 0, 1)/sqrt(2) under the
    power law (mu0, alpha), each value computed once per session: from the
    40-digit quadrature oracle for alpha > 2, whose cut needs it, and from
    the two-level series oracle (the state weighs two levels) otherwise."""
    cache = {}
    psi = np.array([1.0, 0.0, 1.0], dtype=complex)  # normalized by the oracle

    def value(mu0: float, alpha: float) -> float:
        if (mu0, alpha) not in cache:
            oracle = powerlaw_expect_log_q if alpha > 2.0 else two_level_expect_log_q
            cache[mu0, alpha] = oracle(chain_matrix(), psi, mu0, alpha)
        return cache[mu0, alpha]

    return value
