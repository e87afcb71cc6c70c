import itertools

import numpy as np
import pytest

from triring import (
    CompositeSpace,
    DensityMatrix,
    InvalidDimensionError,
    InvalidEmbeddingError,
    ModeSpace,
    Operator,
    SpaceMismatchError,
    adjoint,
    annihilation,
    basis_index,
    basis_state,
    build_liouvillian,
    creation,
    embed,
    evolve,
    expectation,
    identity,
    number,
    tensor,
)


def random_operator(rng, dim):
    data = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator(CompositeSpace((dim,)), data)


class TestSpaces:
    def test_mode_space_rejects_small_dims(self):
        for dim in (1, 0, -3):
            with pytest.raises(InvalidDimensionError):
                ModeSpace(dim)

    def test_composite_space_dim(self):
        space = CompositeSpace((5, 5, 5))
        assert space.dim == 125
        assert space.n_modes == 3

    def test_composite_allows_padding_modes(self):
        assert CompositeSpace((5, 1, 1)).dim == 5

    def test_composite_rejects_empty_and_zero(self):
        with pytest.raises(InvalidDimensionError):
            CompositeSpace(())
        with pytest.raises(InvalidDimensionError):
            CompositeSpace((3, 0))

    @pytest.mark.parametrize("dims", [(3.7, 1, 3), ("4", 4, 4), (True, 2), (3, None)])
    def test_composite_rejects_non_integral_dims(self, dims):
        message = r"^mode_dims\[\d\] must be a whole number >= 1, got "
        with pytest.raises(InvalidDimensionError, match=message):
            CompositeSpace(dims)

    def test_composite_normalizes_integral_dims(self):
        space = CompositeSpace((np.int64(3), 1.0, 4))
        assert space.mode_dims == (3, 1, 4)
        assert all(type(d) is int for d in space.mode_dims)

    def test_operator_shape_checked(self):
        with pytest.raises(SpaceMismatchError):
            Operator(CompositeSpace((3,)), np.zeros((2, 2)))


class TestAnnihilation:
    def test_dim2(self):
        assert np.array_equal(annihilation(2).data, [[0, 1], [0, 0]])

    def test_dim3(self):
        expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])
        assert np.array_equal(annihilation(3).data, expected)

    def test_number_operator_identity(self):
        for dim in range(2, 9):
            a = annihilation(dim)
            np.testing.assert_allclose(
                (adjoint(a) @ a).data, number(dim).data, atol=1e-13
            )

    def test_rejects_small_dim(self):
        with pytest.raises(InvalidDimensionError):
            annihilation(1)

    def test_truncated_commutator(self):
        # [a, a'] is the identity except the top level, where the truncation
        # leaves 1 - dim instead
        for dim in range(2, 9):
            a, ad = annihilation(dim).data, creation(dim).data
            comm = np.diag(a @ ad - ad @ a)
            expected = np.ones(dim)
            expected[-1] = 1 - dim
            np.testing.assert_allclose(comm, expected, atol=1e-13)
            off_diag = (a @ ad - ad @ a) - np.diag(comm)
            assert np.abs(off_diag).max() == 0.0


class TestNumber:
    def test_examples(self):
        assert np.array_equal(number(2).data, np.diag([0.0, 1.0]))
        assert np.array_equal(number(5).data, np.diag([0.0, 1, 2, 3, 4]))


class TestAdjoint:
    def test_involution_exact(self):
        rng = np.random.default_rng(7)
        op = random_operator(rng, 4)
        assert np.array_equal(adjoint(adjoint(op)).data, op.data)

    def test_matrix_element(self):
        assert adjoint(annihilation(3)).data[2, 1] == np.sqrt(2)

    def test_anti_linearity(self):
        op = 1j * identity(3)
        assert np.array_equal(adjoint(op).data, -1j * np.eye(3))


class TestTensor:
    def test_identity_case(self):
        result = tensor(identity(2), identity(3))
        assert np.array_equal(result.data, np.eye(6))
        assert result.space.mode_dims == (2, 3)

    def test_diagonal_case(self):
        result = tensor(number(2), identity(2))
        assert np.array_equal(result.data, np.diag([0.0, 0, 1, 1]))

    def test_mixed_product_property(self):
        # oracle: direct 4x4 multiplication of explicitly built Kronecker blocks
        rng = np.random.default_rng(21)
        a, b, c, d = (random_operator(rng, 2) for _ in range(4))
        left = (tensor(a, b) @ tensor(c, d)).data
        direct = np.zeros((4, 4), dtype=complex)
        kron_ac = np.zeros((4, 4), dtype=complex)
        kron_bd = b.data @ d.data
        ac = a.data @ c.data
        for i in range(2):
            for j in range(2):
                direct[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = ac[i, j] * kron_bd
        np.testing.assert_allclose(left, direct, atol=1e-13)
        np.testing.assert_allclose(left, tensor(a @ c, b @ d).data, atol=1e-13)

    def test_associativity(self):
        # exact whenever entry products involve at most two nontrivial
        # factors (identity blocks contribute exact ones)
        a, b = annihilation(3), number(4)
        assert np.array_equal(
            tensor(tensor(a, b), identity(2)).data,
            tensor(a, tensor(b, identity(2))).data,
        )
        # general operators agree to one ulp (float multiply reassociation)
        rng = np.random.default_rng(3)
        x, y, z = (random_operator(rng, 2) for _ in range(3))
        np.testing.assert_allclose(
            tensor(tensor(x, y), z).data,
            tensor(x, tensor(y, z)).data,
            rtol=1e-15, atol=0,
        )


class TestEmbed:
    def test_first_mode(self):
        space = CompositeSpace((2, 2))
        embedded = embed(annihilation(2), 0, space)
        assert np.array_equal(embedded.data, tensor(annihilation(2), identity(2)).data)

    def test_eigenvalue_on_basis_state(self):
        space = CompositeSpace((2, 2))
        n1 = embed(number(2), 1, space)
        state = basis_state(space, (0, 1))
        np.testing.assert_allclose(n1.data @ state, state)

    def test_distinct_modes_commute(self):
        space = CompositeSpace((3, 3))
        a = embed(annihilation(3), 0, space)
        c = embed(annihilation(3), 1, space)
        assert np.abs((a @ c - c @ a).data).max() == 0.0

    def test_spectrum_multiplicity(self):
        space = CompositeSpace((3, 2, 2))
        embedded = embed(number(3), 0, space)
        got = np.sort(np.linalg.eigvalsh(embedded.data))
        expected = np.sort(np.repeat([0.0, 1.0, 2.0], space.dim // 3))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidEmbeddingError):
            embed(annihilation(3), 0, CompositeSpace((2, 2)))

    def test_index_out_of_range(self):
        message = r"^mode index 2 out of range for 2 modes$"
        for index in (2, 2.0, np.int64(2)):
            with pytest.raises(InvalidEmbeddingError, match=message):
                embed(annihilation(2), index, CompositeSpace((2, 2)))

    def test_multimode_operand_rejected(self):
        op = tensor(identity(2), identity(2))
        with pytest.raises(InvalidEmbeddingError):
            embed(op, 0, CompositeSpace((2, 2, 2)))


class TestBasis:
    def test_index_ordering_matches_kron(self):
        # mode 0 is the most significant index
        space = CompositeSpace((3, 2, 4))
        assert basis_index(space, (0, 0, 0)) == 0
        assert basis_index(space, (0, 0, 1)) == 1
        assert basis_index(space, (0, 1, 0)) == 4
        assert basis_index(space, (1, 0, 0)) == 8
        assert basis_index(space, (2, 1, 3)) == 2 * 8 + 4 + 3

    def test_state_vector(self):
        space = CompositeSpace((2, 2))
        vec = basis_state(space, (1, 0))
        assert vec[2] == 1.0 and np.count_nonzero(vec) == 1

    def test_occupation_out_of_range(self):
        with pytest.raises(InvalidEmbeddingError):
            basis_index(CompositeSpace((2, 2)), (2, 0))

    @pytest.mark.parametrize("occupations", [(0,), (0, 0, 0)])
    def test_occupation_count_must_match_the_modes(self, occupations):
        message = f"expected 2 occupation numbers, got {len(occupations)}"
        with pytest.raises(InvalidEmbeddingError, match=message):
            basis_index(CompositeSpace((2, 2)), occupations)

    @pytest.mark.parametrize("dims, strides", [
        ((3, 2, 4), (8, 4, 1)),
        ((3, 1, 2, 4), (8, 8, 4, 1)),
        ((5,), (1,)),
    ])
    def test_occupation_table_matches_basis_index(self, dims, strides):
        space = CompositeSpace(dims)
        assert space.strides == strides
        table = space.occupations
        assert table.shape == (space.n_modes, space.dim)
        assert [basis_index(space, column) for column in table.T] == list(range(space.dim))

    def test_occupation_table_is_read_only_and_shared(self):
        space = CompositeSpace((2, 3))
        with pytest.raises(ValueError, match="read-only"):
            space.occupations[0, 0] = 1
        with pytest.raises(ValueError):
            space.occupations.flags.writeable = True
        assert space.occupations is space.occupations
        assert space == CompositeSpace((2, 3))

    @pytest.mark.parametrize("dims", [(2, 3, 4), (3, 1, 2), (1, 1, 1), (4, 1, 4), (5, 5, 5)])
    def test_transitions_match_brute_force(self, dims):
        # every state n with a photon in ``lower`` whose image
        # n - e_lower (+ e_raise) is inside the box, in flat-index order
        space = CompositeSpace(dims)
        modes = range(len(dims))
        pairs = [(x, y) for x in modes for y in (None, *modes) if y != x]
        for lower, raise_ in pairs:
            expected = []
            for n in itertools.product(*(range(d) for d in dims)):
                image = list(n)
                image[lower] -= 1
                if raise_ is not None:
                    image[raise_] += 1
                if image[lower] >= 0 and (raise_ is None or image[raise_] < dims[raise_]):
                    expected.append((basis_index(space, image), basis_index(space, n)))
            rows, cols = space._transitions(lower, raise_)
            assert list(zip(rows.tolist(), cols.tolist())) == expected, (lower, raise_)
            assert np.all(np.diff(cols) > 0)
            if dims[lower] == 1:
                assert rows.size == cols.size == 0


class TestOperatorAlgebra:
    def test_space_mismatch_raises(self):
        with pytest.raises(SpaceMismatchError):
            identity(2) + identity(3)

    # one rule for every site: the refusal names both spaces
    @pytest.mark.parametrize("site, message", [
        ("operator +", "operands act on different spaces: (2,) vs (3,)"),
        ("expectation", "state and operator spaces differ: (3,) vs (2,)"),
        ("build_liouvillian", "collapse operator space does not match the Hamiltonian: (3,) vs (2,)"),
        ("evolve", "initial state space does not match the Hamiltonian: (3,) vs (2,)"),
    ])
    def test_every_same_space_refusal_names_both_spaces(self, site, message):
        rho = DensityMatrix(CompositeSpace((3,)), np.diag([1.0, 0.0, 0.0]))
        calls = {
            "operator +": lambda: identity(2) + identity(3),
            "expectation": lambda: expectation(rho, identity(2)),
            "build_liouvillian": lambda: build_liouvillian(identity(2), [annihilation(3)]),
            "evolve": lambda: evolve(identity(2), [], rho, t_final=1.0, dt=0.1),
        }
        with pytest.raises(SpaceMismatchError) as info:
            calls[site]()
        assert str(info.value) == message

    def test_scalar_and_matmul(self):
        a = annihilation(3)
        assert np.array_equal((2.0 * a).data, 2.0 * a.data)
        assert np.array_equal((a @ a.dag()).data, a.data @ a.data.conj().T)
