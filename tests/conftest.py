import os

# one BLAS thread, as CI's env sets, before numpy loads: small dense
# products slow down sharply when BLAS threads oversubscribe a loaded host
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from triring import CompositeSpace, build_hamiltonian, build_liouvillian, collapse_operators, steady_state
from triring.cli import baseline_params, run_point


def pytest_configure(config):
    # resolving this filter's category imports scipy, and with it numpy, so
    # it is added here, after the pin above, rather than in pyproject.toml
    # with the other filters, which pytest resolves before any conftest loads
    config.addinivalue_line("filterwarnings", "error::scipy.sparse.SparseEfficiencyWarning")


@pytest.fixture(scope="session")
def fig2_params():
    return baseline_params()


@pytest.fixture(scope="session")
def fig2_point_555(fig2_params):
    """Both-direction observables at the canonical working point, dims (5,5,5)."""
    return run_point(fig2_params, dims=(5, 5, 5))


@pytest.fixture(scope="session")
def fig2_point_444(fig2_params):
    return run_point(fig2_params, dims=(4, 4, 4))


@pytest.fixture(scope="session")
def fig2_state_555(fig2_params):
    """Forward-drive steady state with its generator, dims (5,5,5)."""
    space = CompositeSpace((5, 5, 5))
    hamiltonian = build_hamiltonian(fig2_params, space)
    c_ops = collapse_operators(fig2_params, space)
    liouv = build_liouvillian(hamiltonian, c_ops)
    rho = steady_state(liouv)
    return hamiltonian, c_ops, liouv, rho


def random_density_matrix(rng, dim):
    """Random full-rank density matrix."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)
