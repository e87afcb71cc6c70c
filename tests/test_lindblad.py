import concurrent.futures
import dataclasses
import inspect
import math
import re
import time
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import triring.lindblad as lindblad
from triring import (
    CompositeSpace,
    DensityMatrix,
    DriveSide,
    InvalidDimensionError,
    MODE_A,
    NoConvergenceError,
    NonPhysicalStateError,
    NonUniqueSteadyStateError,
    Operator,
    SpaceMismatchError,
    Superoperator,
    SteadyStateMethod,
    SteadyStateOptions,
    StepTooLargeError,
    SystemParams,
    annihilation,
    build_hamiltonian,
    build_liouvillian,
    collapse_operators,
    correlation_g_n,
    evolve,
    number,
    steady_state,
    trace_violation,
    unvec,
    vec,
)
from triring.cli import baseline_params, run_point, two_cavity_params
from conftest import random_density_matrix


def zero_operator(dims):
    space = CompositeSpace(dims)
    return Operator(space, np.zeros((space.dim, space.dim)))


def lindblad_rhs_dense(h, c_list, rho):
    """Direct matrix-form evaluation of the master-equation right side."""
    out = -1j * (h @ rho - rho @ h)
    for c in c_list:
        cd = c.conj().T
        out += c @ rho @ cd - 0.5 * (cd @ c @ rho + rho @ cd @ c)
    return out


class TestVectorization:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert np.array_equal(unvec(vec(m), 4), m)

    def test_column_stacking(self):
        m = np.array([[1, 2], [3, 4]])
        assert np.array_equal(vec(m), [1, 3, 2, 4])


class TestLiouvillian:
    def test_zero_for_trivial_model(self):
        liouv = build_liouvillian(zero_operator((2, 2, 2)), [])
        assert liouv.data.nnz == 0
        assert liouv.dim == 64

    def test_two_level_decay_action(self):
        a = annihilation(2)
        liouv = build_liouvillian(zero_operator((2,)), [a])
        ground = np.zeros((2, 2), dtype=complex)
        ground[0, 0] = 1.0
        excited = np.zeros((2, 2), dtype=complex)
        excited[1, 1] = 1.0
        assert np.abs(liouv.data @ vec(ground)).max() == 0.0
        np.testing.assert_allclose(
            liouv.data @ vec(excited), vec(ground - excited), atol=1e-14
        )

    def test_matches_matrix_form_oracle(self):
        # oracle: evaluate the dissipative right side directly in matrix form
        rng = np.random.default_rng(42)
        space = CompositeSpace((2, 2, 2))
        d = space.dim
        h_raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = Operator(space, 0.5 * (h_raw + h_raw.conj().T))
        c1 = Operator(space, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        c2 = Operator(space, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        liouv = build_liouvillian(h, [c1, c2])
        rho = random_density_matrix(rng, d)
        got = unvec(liouv.data @ vec(rho), d)
        want = lindblad_rhs_dense(h.data, [c1.data, c2.data], rho)
        np.testing.assert_allclose(got, want, atol=1e-12)
        # trace conservation of the flow for this random state
        assert abs(np.trace(got)) < 1e-12

    def test_trace_preservation_invariant(self, fig2_params):
        space = CompositeSpace((4, 4, 4))
        h = build_hamiltonian(fig2_params, space)
        liouv = build_liouvillian(h, collapse_operators(fig2_params, space))
        assert trace_violation(liouv) < 1e-10

    def test_space_mismatch_rejected(self):
        with pytest.raises(SpaceMismatchError):
            build_liouvillian(zero_operator((2, 2, 2)), [annihilation(2)])


def scipy_sum(hamiltonian, c_ops):
    """The chain of scipy kron and add calls build_liouvillian matches."""
    d = hamiltonian.space.dim
    eye = sp.identity(d, format="csr", dtype=complex)
    h = sp.csr_matrix(hamiltonian.data)
    liouv = -1j * (sp.kron(eye, h, format="csr") - sp.kron(h.T, eye, format="csr"))
    for op in c_ops:
        c = sp.csr_matrix(op.data)
        cdc = (c.conj().T @ c).tocsr()
        liouv = liouv + sp.kron(c.conj(), c, format="csr")
        liouv = liouv - 0.5 * sp.kron(eye, cdc, format="csr")
        liouv = liouv - 0.5 * sp.kron(cdc.T, eye, format="csr")
    return liouv.tocsr()


def ordered_sum(hamiltonian, c_ops):
    """build_liouvillian's documented sum, formed densely: each scaled kron
    term added in order, from zero, at the entries it stores, and entries
    that end exactly zero dropped.  The terms are scipy's kron products: a
    numpy complex product may round differently (a fused multiply-add) in
    another loop, so how each term is formed is part of its bits."""
    d = hamiltonian.space.dim
    eye = sp.identity(d, format="csr", dtype=complex)
    h = sp.csr_matrix(hamiltonian.data)
    terms = [(eye, h, -1j), (h.T, eye, 1j)]
    for op in c_ops:
        c = sp.csr_matrix(op.data)
        cdc = (c.conj().T @ c).tocsr()
        terms += [(c.conj(), c, 1), (eye, cdc, -0.5), (cdc.T, eye, -0.5)]
    total = np.zeros((d * d, d * d), dtype=complex)
    for a, b, scale in terms:
        term = sp.kron(a, b, format="coo")
        total[term.row, term.col] += scale * term.data
    return sp.csr_matrix(total)


def assert_same_bits(got, want):
    assert type(got) is type(want)
    assert got.shape == want.shape
    assert got.indptr.dtype == want.indptr.dtype
    assert got.indices.dtype == want.indices.dtype
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    # compared as bit patterns, so a -0.0 where scipy has +0.0 fails too
    assert got.data.dtype == want.data.dtype
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def assert_same_up_to_zero_signs(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    # == compares -0.0 and +0.0 equal; every other bit pattern must match
    assert np.array_equal(got.data, want.data)


def assert_assembles(h, c_ops):
    """An operator outside the ring model: the documented sum bit for bit,
    scipy's chain up to the sign of a component that ends exactly zero."""
    got = build_liouvillian(h, c_ops).data
    assert_same_bits(got, ordered_sum(h, c_ops))
    assert_same_up_to_zero_signs(got, scipy_sum(h, c_ops))


def assert_ring_model_bits(params, dims):
    space = CompositeSpace(dims)
    h, c_ops = build_hamiltonian(params, space), collapse_operators(params, space)
    assert_same_bits(build_liouvillian(h, c_ops).data, scipy_sum(h, c_ops))


def ring_model(dims, drive, kappa_b):
    base = two_cavity_params() if dims[1] == 1 else baseline_params()
    params = dataclasses.replace(
        base, drive=drive, kappa_b=kappa_b, delta_a=0.0, delta_b=0.0, delta_c=0.0
    )
    space = CompositeSpace(dims)
    return build_hamiltonian(params, space), collapse_operators(params, space)


def random_operator(rng, space, density, entries=None):
    """Sparse complex operator; ``entries`` draws both parts from a small set
    (signed zeros included), so sums cancel exactly and zeros carry signs."""
    d = space.dim
    shape = (d, d)
    if entries is None:
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    else:
        m = np.empty(shape, dtype=complex)
        m.real = rng.choice(entries, size=shape)
        m.imag = rng.choice(entries, size=shape)
    m[rng.random(shape) > density] = 0
    return Operator(space, m)


def random_system_params(rng, dims):
    """Ring-model parameters over the validated ranges; without a bridge
    level the bridge couplings and loss vanish, as in two_cavity_params."""
    bridge = dims[1] > 1
    return SystemParams(
        delta_a=rng.normal(), delta_c=rng.normal(), delta_b=rng.normal(),
        u_a=rng.uniform(0.0, 10.0), u_c=rng.uniform(0.0, 10.0),
        j_ab=rng.uniform(0.0, 2.0) * bridge, j_bc=rng.uniform(0.0, 2.0) * bridge,
        j_ac=rng.uniform(0.0, 2.0), theta=rng.uniform(-math.pi, math.pi),
        omega=rng.uniform(0.0, 0.5), drive=list(DriveSide)[rng.integers(2)],
        kappa_a=rng.uniform(1.0, 3.0), kappa_c=rng.uniform(1.0, 3.0),
        kappa_b=rng.choice([0.0, rng.uniform(0.1, 3.0)]) * bridge,
    )


SMALL_PARTS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0])


@pytest.fixture
def builds(monkeypatch):
    """The union structures build_liouvillian builds, from an empty cache."""
    built = []
    union = lindblad._union_structure

    def counting(n, terms):
        built.append(union(n, terms))
        return built[-1]

    monkeypatch.setattr(lindblad, "_STRUCTURES", OrderedDict())
    monkeypatch.setattr(lindblad, "_union_structure", counting)
    return built


class TestAssembly:
    """build_liouvillian against scipy's kron chain: bit for bit on the ring
    model, up to the signs of zeros on other operators."""

    @pytest.mark.parametrize("kappa_b", [0.0, 1.7])
    @pytest.mark.parametrize("drive", list(DriveSide))
    @pytest.mark.parametrize("dims", [(4, 1, 4), (3, 3, 3), (4, 4, 4)])
    def test_ring_model(self, dims, drive, kappa_b):
        h, c_ops = ring_model(dims, drive, kappa_b)
        assert_same_bits(build_liouvillian(h, c_ops).data, scipy_sum(h, c_ops))

    # the shapes sweeps and scenarios assemble: the default 5^3 at the
    # baseline working point, scenarios at 4^3 and two-cavity 4x1x4, and the
    # convergence check's 6^3
    @pytest.mark.parametrize("drive", list(DriveSide))
    @pytest.mark.parametrize("params, dims", [
        (baseline_params(), (5, 5, 5)),
        (baseline_params(), (4, 4, 4)),
        (two_cavity_params(), (4, 1, 4)),
        (baseline_params(), (6, 6, 6)),
    ], ids=["5^3", "4^3", "4x1x4", "6^3"])
    def test_ring_model_at_traffic_shapes(self, params, dims, drive):
        assert_ring_model_bits(dataclasses.replace(params, drive=drive), dims)

    @pytest.mark.parametrize("drive", list(DriveSide))
    @pytest.mark.parametrize("kappa_b", [0.0, 0.05, 1.0, 1.7])
    @pytest.mark.parametrize("dims", [(4, 4, 4), (5, 5, 5), (3, 4, 3), (4, 1, 4)])
    def test_heff_equals_dense_rebuild(self, dims, kappa_b, drive):
        # H_eff formed from the assembly's sparse C'C has the bits of the
        # dense H - 0.5j C'C, subtracted in list order
        base = two_cavity_params() if dims[1] == 1 else baseline_params()
        params = dataclasses.replace(base, kappa_b=kappa_b, drive=drive)
        space = CompositeSpace(dims)
        h, c_ops = build_hamiltonian(params, space), collapse_operators(params, space)
        want = h.data.astype(complex, copy=True)
        for op in c_ops:
            want -= 0.5j * (op.data.conj().T @ op.data)
        heff = build_liouvillian(h, c_ops).components
        assert heff.space == space
        assert np.array_equal(heff.data.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("seed", range(50))
    def test_random_ring_model_params(self, seed):
        rng = np.random.default_rng(seed)
        dims = [(2, 2, 2), (3, 3, 3), (4, 4, 4), (3, 1, 3), (5, 1, 5), (2, 3, 4), (4, 3, 2)][seed % 7]
        assert_ring_model_bits(random_system_params(rng, dims), dims)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_non_normal_operators(self, seed):
        rng = np.random.default_rng(seed)
        space = CompositeSpace([(2,), (3,), (2, 2), (2, 3)][seed % 4])
        h = random_operator(rng, space, 0.5)
        c_ops = []
        for _ in range(1 + seed % 3):
            # upper triangular with a nonzero corner: never normal
            c = np.triu(random_operator(rng, space, 0.6).data)
            c[0, 0], c[0, -1] = 0.7 - 0.2j, 1.1 + 0.4j
            c_ops.append(Operator(space, c))
            assert not np.allclose(c @ c.conj().T, c.conj().T @ c)
        assert_assembles(h, c_ops)

    @pytest.mark.parametrize("seed", range(40))
    def test_exact_cancellations_and_signed_zeros(self, seed):
        rng = np.random.default_rng(seed)
        space = CompositeSpace([(2,), (3,), (2, 2)][seed % 3])
        h = random_operator(rng, space, rng.uniform(0.1, 1.0), SMALL_PARTS)
        c_ops = [
            random_operator(rng, space, rng.uniform(0.1, 0.8), SMALL_PARTS)
            for _ in range(rng.integers(1, 4))
        ]
        assert_assembles(h, c_ops)

    @pytest.mark.parametrize("h, c", [
        # an entry only a jump term stores, where scipy adds it to an exact +0
        (np.zeros((2, 2)), [[-1.0, 1.0], [0.0, 0.0]]),
        # a diagonal entry that cancels to zero and is dropped between two
        # dissipator terms: the next one starts from +0, not from -0
        (np.diag([0.0, 1.5j]), np.diag([-1.0, 1.0])),
    ])
    def test_signed_zero_cases(self, h, c):
        space = CompositeSpace((2,))
        assert_assembles(Operator(space, h), [Operator(space, np.asarray(c))])

    def test_zero_sign_differs_from_scipy(self):
        # H_22 = 0.5j lands on two entries only kron(I, H) stores: scipy's
        # chain keeps the -0 imaginary part of (0.5j - 0) * -1j, the sum adds
        # -1j * 0.5j to +0 and gives +0
        space = CompositeSpace((3,))
        h = Operator(space, [[0, 0, 0], [0, 0, 0], [1 - 0.5j, 0, 0.5j]])
        assert_assembles(h, [])
        got, want = build_liouvillian(h, []).data, scipy_sum(h, [])
        differs = (got.data.view(np.int64) != want.data.view(np.int64)).reshape(-1, 2)
        assert got.data[differs.any(axis=1)].tolist() == [0.5, 0.5]
        assert not np.signbit(got.data.imag[differs.any(axis=1)]).any()
        assert np.signbit(want.data.imag[differs.any(axis=1)]).all()

    @pytest.mark.parametrize("c_ops", [
        [number(4)],
        [zero_operator((4,))],
        [annihilation(4), zero_operator((4,)), number(4)],
        [],
    ], ids=["number", "zero", "mixed", "none"])
    def test_special_collapse_lists(self, c_ops):
        a = annihilation(4)
        h = 0.3 * number(4) + 0.1 * (a + a.dag())
        assert_assembles(h, c_ops)

    def test_two_patterns_cached_and_reused(self, builds):
        # kappa_b = 0 drops a jump operator: two more patterns, and both
        # kappa_b > 0 patterns stay cached beside them
        for kappa_b, count in [(2.5, 2), (0.0, 4), (0.05, 4), (0.1, 4)]:
            run_point(baseline_params(kappa_b=kappa_b), dims=(3, 3, 3))
            assert len(builds) == count
        # a fifth pattern evicts the one used least recently (kappa_b = 0,
        # drive left), not the one stored first (kappa_b = 2.5, drive left)
        build_liouvillian(*ring_model((2, 2, 2), DriveSide.LEFT, 1.0))
        run_point(baseline_params(kappa_b=1.0), dims=(3, 3, 3))
        assert len(builds) == 5
        assert len(lindblad._STRUCTURES) == 4

    def test_convergence_check_keeps_both_sizes(self, builds):
        # each point assembles left at 3^3 and 4^3, then right at both: four
        # patterns, built once per jump-operator list and reused by kappa_b = 1
        for kappa_b in (0.0, 0.5, 1.0):
            run_point(baseline_params(kappa_b=kappa_b), dims=(3, 3, 3),
                      convergence_check=True)
        assert [len(indptr) - 1 for indptr, _, _ in builds] == [27 ** 2, 64 ** 2] * 4
        assert len(lindblad._STRUCTURES) == 4

    @pytest.mark.parametrize("zeros_dropped", [False, True])
    def test_returned_arrays_are_copies(self, builds, zeros_dropped):
        a = annihilation(3)
        # without jumps, H_kk - H_kk cancels on the diagonal of L wherever H
        # has a diagonal entry, so the result is smaller than the union
        h = 0.3 * number(3) + a + a.dag() if zeros_dropped else a
        want = ordered_sum(h, [])
        first = build_liouvillian(h, []).data
        assert_same_bits(first, want)
        [(_, union, _)] = builds
        assert (first.nnz < len(union)) == zeros_dropped
        for array in (first.indptr, first.indices, first.data):
            array[:] = 0
        assert_same_bits(build_liouvillian(h, []).data, want)
        assert len(builds) == 1

    def test_threads_share_the_cache(self, builds):
        # six patterns over two sizes, more than the cache holds, so the
        # threads evict and rebuild what the other one is using
        models = [ring_model((3, 3, 3), drive, kappa_b)
                  for drive in DriveSide for kappa_b in (0.0, 1.0)]
        models += [ring_model((4, 4, 4), drive, 1.0) for drive in DriveSide]
        wants = [scipy_sum(h, c_ops) for h, c_ops in models]

        def assemble(task):
            for i in range(40):
                k = (task + i) % len(models)
                assert_same_bits(build_liouvillian(*models[k]).data, wants[k])

        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            # result() raises a worker's exception, so a failed task fails here
            for future in [pool.submit(assemble, task) for task in range(4)]:
                future.result()
        assert len(lindblad._STRUCTURES) <= 4


class TestConstrainedSystem:
    """L with row k applied as the trace row equals the vstack-built matrix."""

    @staticmethod
    def vstacked(liouv, k):
        d = liouv.space.dim
        n = d * d
        matrix = liouv.data.tocsr()
        trace_row = sp.csr_matrix(
            (np.ones(d, dtype=complex), (np.zeros(d, dtype=int), np.arange(d) * (d + 1))),
            shape=(1, n),
        )
        return sp.vstack([matrix[:k], trace_row, matrix[k + 1 :]], format="csr")

    @staticmethod
    def assert_same_products(constrained, matrix, seed):
        rng = np.random.default_rng(seed)
        n = matrix.shape[0]
        for shape in [(n,), (n, 1)]:
            x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            got, want = constrained @ x, matrix @ x
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("liouv, k", [
        # pumping |0> into |1> empties |0><0| alone: the first row
        (lambda: build_liouvillian(
            zero_operator((3,)),
            [Operator(CompositeSpace((3,)), [[0, 0, 0], [1, 0, 0], [0, 0, 0]])],
        ), 0),
        # decay empties the top level fastest: the last row
        (lambda: build_liouvillian(zero_operator((3,)), [annihilation(3)]), 8),
        # the middle level decays into both others: a row in between
        (lambda: build_liouvillian(
            zero_operator((3,)),
            [Operator(CompositeSpace((3,)), [[0, 1, 0], [0, 0, 0], [0, 1, 0]])],
        ), 4),
    ], ids=["first", "last", "middle"])
    def test_matches_vstack(self, liouv, k):
        liouv = liouv()
        constrained, rhs = lindblad._constrained_system(liouv)
        assert np.flatnonzero(rhs).tolist() == [k]
        self.assert_same_products(constrained, self.vstacked(liouv, k), seed=k)

    @staticmethod
    def diagonal_cases(d):
        """Diagonal entries on which the sum's order or start shows in the bits."""
        rng = np.random.default_rng(d)
        zeros = rng.choice([0.0, -0.0], size=(2, d))
        decades = 10.0 ** rng.integers(-250, 250, size=(2, d))
        decades *= rng.choice([-1.0, 1.0], size=(2, d))
        spread = rng.normal(size=(2, d)) * 10.0 ** rng.integers(-20, 20, size=(2, d))
        spread[:, ::3] = zeros[:, ::3]
        # large terms that cancel, so each small one is lost or kept by the order
        cancelling = np.tile([1.0, 1e17, -1e17, 3.0], (2, d // 4 + 1))[:, :d]
        return {
            "negative zeros": np.full(d, complex(-0.0, -0.0)),
            "signed zeros": zeros[0] + 1j * zeros[1],
            "decades": decades[0] + 1j * decades[1],
            "zeros among spread magnitudes": spread[0] + 1j * spread[1],
            "cancelling": cancelling[0] + 1j * cancelling[1][::-1],
        }

    def test_trace_row_sums_in_index_order(self, fig2_params):
        space = CompositeSpace((3, 3, 3))
        h = build_hamiltonian(fig2_params, space)
        liouv = build_liouvillian(h, collapse_operators(fig2_params, space))
        constrained, rhs = lindblad._constrained_system(liouv)
        (k,) = np.flatnonzero(rhs)
        matrix = self.vstacked(liouv, k)
        d = space.dim
        diag_positions = np.arange(d) * (d + 1)
        reorderings = {
            "no zero start": lambda v: np.add.accumulate(v)[-1],
            "reversed": lambda v: np.add.accumulate(v[::-1])[-1] + 0,
            "pairwise": np.sum,
            "compensated": lambda v: complex(math.fsum(v.real), math.fsum(v.imag)),
        }
        told_apart = set()
        rng = np.random.default_rng(1)
        for name, diagonal in self.diagonal_cases(d).items():
            x = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
            x[diag_positions] = diagonal
            for shape in [(d * d,), (d * d, 1)]:
                got = constrained @ x.reshape(shape)
                want = matrix @ x.reshape(shape)
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), name
            bits = np.complex128(want[k]).tobytes()
            told_apart |= {
                other for other, total in reorderings.items()
                if np.complex128(total(diagonal)).tobytes() != bits
            }
        # every other order or start of the sum gives other bits on some case
        assert told_apart == set(reorderings)

    def test_ring_model_solve_matches_vstack(self, fig2_params):
        space = CompositeSpace((3, 3, 3))
        h = build_hamiltonian(fig2_params, space)
        liouv = build_liouvillian(h, collapse_operators(fig2_params, space))
        constrained, rhs = lindblad._constrained_system(liouv)
        (k,) = np.flatnonzero(rhs)
        matrix = self.vstacked(liouv, k)
        self.assert_same_products(constrained, matrix, seed=0)
        preconditioner = lindblad._no_jump_preconditioner(liouv)
        got = lindblad._gmres_refined(constrained, rhs, preconditioner)
        want = lindblad._gmres_refined(matrix, rhs, preconditioner)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestSteadyState:
    def test_vacuum_for_undriven_decay(self):
        liouv = build_liouvillian(zero_operator((4,)), [annihilation(4)])
        rho = steady_state(liouv)
        assert rho.data[0, 0].real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho.data).sum() == pytest.approx(1.0, abs=1e-10)

    def test_coherent_fixed_point(self):
        # linear driven cavity: alpha = -i omega / (i delta + kappa / 2)
        a = annihilation(8)
        h = 0.1 * (a + a.dag())
        rho = steady_state(build_liouvillian(h, [a]))
        alpha = np.trace(rho.data @ a.data)
        occupation = np.trace(rho.data @ (a.dag() @ a).data).real
        assert alpha == pytest.approx(-0.2j, abs=1e-6)
        assert occupation == pytest.approx(0.04, abs=1e-6)

    def test_diagnostics_and_invariants(self, fig2_state_555):
        _, _, liouv, rho = fig2_state_555
        diag = rho.diagnostics
        assert diag is not None
        assert diag.residual <= diag.residual_bound
        assert abs(np.trace(rho.data) - 1.0) < 1e-10
        assert np.abs(rho.data - rho.data.conj().T).max() < 1e-10
        assert diag.min_eigenvalue > -1e-8

    def test_residual_satisfies_contract(self, fig2_state_555):
        _, _, liouv, rho = fig2_state_555
        residual = np.linalg.norm(liouv.data @ vec(rho.data))
        bound = 1e-10 * liouv.norm_fro() * np.linalg.norm(vec(rho.data))
        assert residual <= bound
        assert rho.diagnostics.residual_bound == (
            lindblad.RESIDUAL_TOL * liouv.norm_fro() * np.linalg.norm(vec(rho.data))
        )

    def test_null_space_agrees_with_trace_constrained(self):
        a = annihilation(6)
        h = 0.3 * number(6) + 0.1 * (a + a.dag())
        liouv = build_liouvillian(h, [a])
        rho_tc = steady_state(liouv)
        rho_ns = steady_state(
            liouv, SteadyStateOptions(method=SteadyStateMethod.NULL_SPACE)
        )
        assert np.linalg.norm(rho_tc.data - rho_ns.data) < 1e-10

    def test_degenerate_kernel_detected(self):
        # pure dephasing preserves every Fock population separately
        liouv = build_liouvillian(zero_operator((6,)), [number(6)])
        with pytest.raises(NonUniqueSteadyStateError):
            steady_state(liouv, SteadyStateOptions(method=SteadyStateMethod.NULL_SPACE))

    @pytest.mark.parametrize("method, expected", [
        (SteadyStateMethod.TRACE_CONSTRAINED, SteadyStateMethod.TRACE_CONSTRAINED),
        ("trace-constrained", SteadyStateMethod.TRACE_CONSTRAINED),
        ("null-space", SteadyStateMethod.NULL_SPACE),
    ])
    def test_method_takes_the_enum_or_its_value(self, method, expected):
        assert SteadyStateOptions(method=method).method is expected
        a = annihilation(4)
        liouv = build_liouvillian(0.1 * (a + a.dag()), [a])
        rho = steady_state(liouv, SteadyStateOptions(method=method))
        assert rho.diagnostics.method == expected.value

    @pytest.mark.parametrize("method", ["bogus", "TRACE_CONSTRAINED", None, 0])
    def test_unknown_method_refused(self, method):
        message = (
            "method must be a SteadyStateMethod or one of "
            f"['trace-constrained', 'null-space'], got {method!r}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            SteadyStateOptions(method=method)

    def test_null_space_refuses_generators_above_its_limit(self, monkeypatch, fig2_params):
        space = CompositeSpace((4, 4, 4))
        h = build_hamiltonian(fig2_params, space)
        liouv = build_liouvillian(h, collapse_operators(fig2_params, space))

        def no_dense_copy(*args, **kwargs):
            raise AssertionError("the null-space method made a dense copy of L")

        monkeypatch.setattr(type(liouv.data), "toarray", no_dense_copy)
        start = time.perf_counter()
        with pytest.raises(InvalidDimensionError) as exc:
            steady_state(liouv, SteadyStateOptions(method=SteadyStateMethod.NULL_SPACE))
        assert time.perf_counter() - start < 0.1
        assert str(exc.value).endswith(
            "D^2 = 4096 at mode dims (4, 4, 4) exceeds its limit of "
            f"{lindblad._DENSE_NULLSPACE_LIMIT}"
        )

    def test_one_state_eigendecomposition_per_solve(self, monkeypatch, fig2_params):
        space = CompositeSpace((3, 3, 3))
        h = build_hamiltonian(fig2_params, space)
        liouv = build_liouvillian(h, collapse_operators(fig2_params, space))
        eigvalsh, eig = np.linalg.eigvalsh, np.linalg.eig
        shapes, eigs = [], []

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        def counting_eig(a):
            eigs.append(a)
            return eig(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        opts = [None, SteadyStateOptions(method=SteadyStateMethod.NULL_SPACE)]
        states = [steady_state(liouv, o) for o in opts]
        assert shapes.count((space.dim, space.dim)) == len(opts)
        # the preconditioner's one eig, of the generator's own H_eff; the
        # null-space method takes none
        assert len(eigs) == 1 and eigs[0] is liouv.components.data
        for rho in states:
            # the diagnostic describes the returned state itself
            assert rho.diagnostics.min_eigenvalue == eigvalsh(rho.data).min()


def driven_cavity():
    a = annihilation(6)
    return build_liouvillian(0.3 * number(6) + 0.1 * (a + a.dag()), [a])


class TestSteadyStateFailures:
    """Each way the GMRES path can fail raises, with no second solver behind it."""

    @pytest.fixture(autouse=True)
    def no_spsolve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(spla, "spsolve", lambda *a, **k: calls.append(a))
        yield
        assert calls == []

    @staticmethod
    def assert_preconditioner_failure(liouv, reason):
        """The solve stops at the preconditioner and points to the null-space
        method, which solves the same generator."""
        with pytest.raises(NoConvergenceError, match="at the preconditioner") as exc:
            steady_state(liouv)
        assert reason in str(exc.value)
        assert str(exc.value).endswith("try the null-space method")
        steady_state(liouv, SteadyStateOptions(method=SteadyStateMethod.NULL_SPACE))

    def test_preconditioner_unavailable(self):
        liouv = driven_cavity()
        bare = Superoperator(liouv.space, liouv.data)  # the same L without its H_eff
        assert bare.components is None
        self.assert_preconditioner_failure(bare, "the generator carries no H_eff")

    @pytest.mark.parametrize("info, fill, shown", [
        (1, 0.0, r"info=1, finite=True"),
        (-1, 0.0, r"info=-1, finite=True"),
        (0, np.nan, r"info=0, finite=False"),
    ])
    def test_gmres_failure(self, monkeypatch, info, fill, shown):
        monkeypatch.setattr(
            spla, "gmres", lambda matrix, rhs, **kw: (np.full_like(rhs, fill), info)
        )
        with pytest.raises(NoConvergenceError, match=r"at the GMRES run \(" + shown):
            steady_state(driven_cavity())

    def test_gmres_failure_above_null_space_limit(self, monkeypatch, fig2_state_555):
        _, _, liouv, _ = fig2_state_555
        monkeypatch.setattr(
            spla, "gmres", lambda matrix, rhs, **kw: (np.zeros_like(rhs), 1)
        )
        with pytest.raises(NoConvergenceError, match=r"at the GMRES run \(info=1") as exc:
            steady_state(liouv)
        assert "try the null-space method" not in str(exc.value)
        assert str(exc.value).endswith(
            "D^2 = 15625 is too large for the null-space method "
            f"(limit {lindblad._DENSE_NULLSPACE_LIMIT})"
        )

    def test_eigendecomposition_failure(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        # the null-space method that the message points to needs no eig
        monkeypatch.setattr(np.linalg, "eig", fail)
        self.assert_preconditioner_failure(
            driven_cavity(), "eigendecomposition of H_eff failed: Eigenvalues did not converge"
        )

    def test_ill_conditioned_eigenvectors(self):
        # H_eff = [[-i/2, -i], [0, -i/2]] is a Jordan block, an exceptional
        # point of the lossy two-level system: its eigenvectors coincide
        space = CompositeSpace((2,))
        h = Operator(space, [[0, -0.5j], [0.5j, 0]])
        c = Operator(space, [[1, 1], [0, 0]])
        liouv = build_liouvillian(h, [c])
        assert np.array_equal(liouv.components.data, [[-0.5j, -1j], [0, -0.5j]])
        self.assert_preconditioner_failure(liouv, "eigenvectors of H_eff have cond")

    def test_operator_type_error_propagates_from_one_gmres_call(self, monkeypatch):
        def broken(x):
            raise TypeError("operator bug")

        calls = []
        gmres = spla.gmres
        monkeypatch.setattr(spla, "gmres", lambda *a, **kw: calls.append(kw) or gmres(*a, **kw))
        operator = spla.LinearOperator((4, 4), matvec=broken, dtype=complex)
        with pytest.raises(TypeError, match="^operator bug$"):
            lindblad._gmres(operator, np.ones(4, dtype=complex), None, rtol=1e-11)
        assert len(calls) == 1
        assert calls[0]["rtol"] == 1e-11
        assert "tol" not in calls[0]

    @pytest.mark.parametrize("info, fill", [(1, 0.5), (-1, 0.5), (0, np.nan)])
    def test_failed_refinement_round_keeps_previous_iterate(self, monkeypatch, info, fill):
        first = np.array([0.5 + 1e-3j, 0.25])
        runs = iter([(first.copy(), 0), (np.full(2, fill, dtype=complex), info)])
        monkeypatch.setattr(lindblad, "_gmres", lambda *a, **kw: next(runs))
        x = lindblad._gmres_refined(2.0 * np.eye(2), np.ones(2, dtype=complex), None)
        assert x.tobytes() == first.tobytes()
        assert next(runs, None) is None  # one refinement round, then stop

    def test_zero_trace_candidate(self):
        liouv = driven_cavity()
        raw = vec(np.diag([1.0, -1.0] + [0.0] * (liouv.space.dim - 2)))
        with pytest.raises(NoConvergenceError, match=r"\(near-\)zero trace"):
            lindblad._finalize(liouv, raw, "trace-constrained")

    def test_residual_above_bound(self, monkeypatch):
        refined = lindblad._gmres_refined

        def perturbed(constrained, rhs, preconditioner):
            return refined(constrained, rhs, preconditioner) + 1e-6

        monkeypatch.setattr(lindblad, "_gmres_refined", perturbed)
        with pytest.raises(NoConvergenceError, match="at the acceptance check") as exc:
            steady_state(driven_cavity())
        assert "exceeds bound" in str(exc.value)
        assert exc.value.residual > exc.value.bound > 0


# The trace constraint replaces the diagonal row with the largest |L_kk|, which
# leaves the constrained system ill-conditioned.  These are the gates of the
# change that puts it on the vacuum row instead (ROADMAP item 1); that change
# removes the marker.  With raises=AssertionError, a RuntimeWarning turned into
# an error cannot pass as the expected failure.
trace_row_gate = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 1: the trace replaces the largest-|L_kk| row",
)


class TestTraceRowConditioning:
    @trace_row_gate
    def test_one_ulp_of_the_generator_leaves_g3_in_place(self):
        params = baseline_params(kappa_b=1.45, drive="right")
        space = CompositeSpace((4, 4, 4))
        liouv = build_liouvillian(
            build_hamiltonian(params, space), collapse_operators(params, space)
        )
        g3 = correlation_g_n(steady_state(liouv), MODE_A, 3)
        moves = []
        for seed in range(4):
            # the real part of one entry in ten moves one ulp up or down
            rng = np.random.default_rng(seed)
            data = liouv.data.copy()
            picked = rng.random(data.nnz) < 0.1
            towards = np.where(rng.random(np.count_nonzero(picked)) < 0.5, -np.inf, np.inf)
            values = data.data[picked]
            data.data[picked] = np.nextafter(values.real, towards) + 1j * values.imag
            rho = steady_state(Superoperator(space, data, liouv.components))
            moves.append(abs(correlation_g_n(rho, MODE_A, 3) - g3) / g3)
        assert max(moves) < 1e-9

    @trace_row_gate
    def test_g3_at_its_converged_value(self):
        # the converged g3 here is 3.31211e-4; the largest-|L_kk| row gives 2.0763e-4
        result = run_point(baseline_params(kappa_b=1.70), dims=(5, 5, 5), directions="right")
        assert result.g3_bwd == pytest.approx(3.31211e-4, rel=1e-6)

    @trace_row_gate
    def test_weak_drive_g2_at_its_limit(self):
        # the reciprocal two-cavity point: both sides read the same g2, whose
        # weak-drive limit is 0.01166456494, and the same T
        result = run_point(two_cavity_params(omega=1e-5), dims=(3, 1, 3))
        assert result.g2_fwd == pytest.approx(0.01166456494, rel=1e-6)
        assert result.g2_bwd == pytest.approx(0.01166456494, rel=1e-6)
        assert result.t_fwd == pytest.approx(result.t_bwd, rel=0, abs=1e-12)


class TestDensityMatrix:
    def test_enforcement_normalizes(self):
        rng = np.random.default_rng(1)
        raw = 3.0 * random_density_matrix(rng, 4)
        rho = DensityMatrix.from_array(CompositeSpace((4,)), raw)
        assert np.trace(rho.data).real == pytest.approx(1.0, abs=1e-12)

    def test_from_array_takes_no_options(self):
        assert list(inspect.signature(DensityMatrix.from_array).parameters) == ["space", "data"]

    def test_shape_must_match_the_space(self):
        with pytest.raises(SpaceMismatchError, match=r"shape \(3, 3\), space dimension is 4"):
            DensityMatrix(CompositeSpace((2, 2)), np.eye(3) / 3)

    # a non-square array used to fail inside the hermitization with numpy's
    # broadcast error
    @pytest.mark.parametrize("shape", [(3, 4), (2, 8), (4,)])
    def test_from_array_checks_the_shape_first(self, shape):
        shown = re.escape(f"shape {shape}, space dimension is 4")
        with pytest.raises(SpaceMismatchError, match=shown):
            DensityMatrix.from_array(CompositeSpace((2, 2)), np.ones(shape))

    def test_non_hermitian_rejected_without_enforcement(self):
        bad = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NonPhysicalStateError):
            DensityMatrix(CompositeSpace((2,)), bad).validate()

    def test_negative_eigenvalue_rejected(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(NonPhysicalStateError):
            DensityMatrix(CompositeSpace((2,)), bad).validate()

    @pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("from_array", [False, True])
    def test_non_finite_entries_rejected(self, entry, from_array):
        # every comparison with nan is false, so nan passed each check
        bad = np.array([[entry, 0.0], [0.0, 1.0]], dtype=complex)
        with np.errstate(all="ignore"), pytest.raises(NonPhysicalStateError):
            if from_array:
                DensityMatrix.from_array(CompositeSpace((2,)), bad)
            else:
                DensityMatrix(CompositeSpace((2,)), bad).validate()

    @pytest.mark.parametrize("diagonal", [[0.0, 0.0], [0.5, -0.5], [-0.5, -0.5]])
    def test_trace_that_cannot_be_renormalized_rejected(self, diagonal):
        # a zero trace gave an all-nan "valid" state; a negative one would
        # flip the matrix's sign
        data = np.diag(diagonal).astype(complex)
        with pytest.raises(NonPhysicalStateError, match="cannot be renormalized"):
            DensityMatrix.from_array(CompositeSpace((2,)), data)


class TestEvolve:
    def test_fock_state_decay(self):
        # <n>(t) = exp(-t) for a one-photon state under unit-rate decay
        space = CompositeSpace((4,))
        one = np.zeros((4, 4), dtype=complex)
        one[1, 1] = 1.0
        rho0 = DensityMatrix(space, one)
        rho_t = evolve(zero_operator((4,)), [annihilation(4)], rho0, 1.0, 1e-3)
        occupation = np.trace(rho_t.data @ number(4).data).real
        assert occupation == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_remainder_step_reaches_t_final(self):
        # 333 steps of 0.003 and a last one of 0.001: stopping at t = 0.999
        # would miss exp(-1) by 3.7e-4
        space = CompositeSpace((4,))
        one = np.zeros((4, 4), dtype=complex)
        one[1, 1] = 1.0
        rho0 = DensityMatrix(space, one)
        rho_t = evolve(zero_operator((4,)), [annihilation(4)], rho0, t_final=1.0, dt=0.003)
        occupation = np.trace(rho_t.data @ number(4).data).real
        assert occupation == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_state_on_another_space_rejected(self):
        rho0 = DensityMatrix(CompositeSpace((3,)), np.diag([1.0, 0.0, 0.0]).astype(complex))
        with pytest.raises(SpaceMismatchError, match="initial state space"):
            evolve(zero_operator((4,)), [], rho0, t_final=1.0, dt=0.1)

    def test_undriven_ring_empties(self, fig2_params):
        import dataclasses

        params = dataclasses.replace(fig2_params, omega=0.0)
        space = CompositeSpace((2, 2, 2))
        h = build_hamiltonian(params, space)
        c_ops = collapse_operators(params, space)
        rng = np.random.default_rng(3)
        rho0 = DensityMatrix.from_array(space, random_density_matrix(rng, space.dim))
        rho_t = evolve(h, c_ops, rho0, t_final=20.0, dt=0.005)
        assert rho_t.data[0, 0].real > 1 - 1e-6

    def test_agrees_with_direct_solve_small_ring(self, fig2_params):
        space = CompositeSpace((3, 2, 3))
        h = build_hamiltonian(fig2_params, space)
        c_ops = collapse_operators(fig2_params, space)
        rho_ss = steady_state(build_liouvillian(h, c_ops))
        vacuum = np.zeros((space.dim, space.dim), dtype=complex)
        vacuum[0, 0] = 1.0
        rho0 = DensityMatrix(space, vacuum)
        rho_t = evolve(h, c_ops, rho0, t_final=40.0, dt=0.01)
        assert np.linalg.norm(rho_t.data - rho_ss.data) < 1e-5

    def test_unstable_step_rejected(self):
        space = CompositeSpace((4,))
        h = Operator(space, 50.0 * (annihilation(4).data + annihilation(4).data.conj().T))
        vacuum = np.zeros((4, 4), dtype=complex)
        vacuum[0, 0] = 1.0
        rho0 = DensityMatrix(space, vacuum)
        with pytest.raises(StepTooLargeError):
            evolve(h, [annihilation(4)], rho0, t_final=5.0, dt=0.5)

    def test_nan_trace_is_a_step_too_large(self):
        # the trace is nan after the first step; the run went on and ended
        # in a bare LinAlgError
        space = CompositeSpace((3,))
        a = annihilation(3).data
        h = Operator(space, 1e200 * (a + a.conj().T))
        rho0 = DensityMatrix(space, np.diag([1.0, 0.0, 0.0]).astype(complex))
        with np.errstate(all="ignore"), pytest.raises(StepTooLargeError, match="nan"):
            evolve(h, [], rho0, t_final=3.0, dt=1.0)

    def test_step_count_must_be_finite(self):
        rho0 = DensityMatrix(CompositeSpace((2,)), np.diag([1.0, 0.0]).astype(complex))
        for t_final, dt in [(1e308, 1e-308), (1e300, 1e-10)]:
            with pytest.raises(ValueError, match="t_final / dt must be a finite number"):
                evolve(zero_operator((2,)), [], rho0, t_final=t_final, dt=dt)

    def test_steps_not_listed_up_front(self):
        # the unstable first step fails before a million-step list would be
        # built (8 MB of pointers)
        space = CompositeSpace((4,))
        h = Operator(space, 50.0 * (annihilation(4).data + annihilation(4).data.conj().T))
        vacuum = np.zeros((4, 4), dtype=complex)
        vacuum[0, 0] = 1.0
        rho0 = DensityMatrix(space, vacuum)
        tracemalloc.start()
        try:
            with pytest.raises(StepTooLargeError):
                evolve(h, [annihilation(4)], rho0, t_final=0.5e6, dt=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_step_validation(self):
        rho0 = DensityMatrix(CompositeSpace((2,)), np.diag([1.0, 0.0]).astype(complex))
        for t_final, dt in [(1.0, 0.0), (0.5, 1.0), (1.0, math.nan), (math.inf, 0.1),
                            (1.0, True), ("1.0", 0.1)]:
            with pytest.raises(ValueError):
                evolve(zero_operator((2,)), [], rho0, t_final=t_final, dt=dt)
