import math

import numpy as np
import pytest

from triring import (
    CompositeSpace,
    DensityMatrix,
    DriveSide,
    InsufficientPopulationError,
    InvalidDimensionError,
    Operator,
    SpaceMismatchError,
    SystemParams,
    UndefinedRatioError,
    UndefinedTransmissionError,
    annihilation,
    build_liouvillian,
    correlation_g_n,
    expectation,
    isolation,
    mean_occupation,
    nonreciprocal_ratio,
    number,
    partial_trace,
    photon_distribution,
    poisson_reference,
    steady_state,
    transmission,
)
from conftest import random_density_matrix


def fock_density(space, occupations):
    from triring import basis_index

    rho = np.zeros((space.dim, space.dim), dtype=complex)
    idx = basis_index(space, occupations)
    rho[idx, idx] = 1.0
    return DensityMatrix.from_array(space, rho, enforce=False)


def coherent_cavity_state(dim=8, delta=0.0, kappa=1.0, omega=0.1):
    a = annihilation(dim)
    h = delta * number(dim) + omega * (a + a.dag())
    return steady_state(build_liouvillian(h, [math.sqrt(kappa) * a]))


class TestExpectation:
    def test_vacuum(self):
        space = CompositeSpace((3,))
        rho = fock_density(space, (0,))
        assert expectation(rho, number(3)) == 0

    def test_fock_two(self):
        space = CompositeSpace((5,))
        rho = fock_density(space, (2,))
        assert expectation(rho, number(5)) == pytest.approx(2.0)

    def test_hermitian_observable_is_real(self):
        rng = np.random.default_rng(9)
        space = CompositeSpace((4,))
        rho = DensityMatrix.from_array(space, random_density_matrix(rng, 4))
        value = expectation(rho, number(4))
        assert abs(value.imag) < 1e-12

    def test_space_mismatch(self):
        rho = fock_density(CompositeSpace((3,)), (0,))
        with pytest.raises(SpaceMismatchError):
            expectation(rho, number(4))


class TestPartialTrace:
    def test_basis_state(self):
        space = CompositeSpace((2, 2, 2))
        rho = fock_density(space, (0, 1, 0))
        reduced = partial_trace(rho, 1)
        assert np.array_equal(reduced.data, np.diag([0.0, 1.0]))

    def test_product_state_factors(self):
        rng = np.random.default_rng(17)
        parts = [random_density_matrix(rng, d) for d in (2, 3, 2)]
        joint = np.kron(np.kron(parts[0], parts[1]), parts[2])
        rho = DensityMatrix.from_array(CompositeSpace((2, 3, 2)), joint, enforce=False)
        np.testing.assert_allclose(partial_trace(rho, 2).data, parts[2], atol=1e-13)
        np.testing.assert_allclose(partial_trace(rho, 1).data, parts[1], atol=1e-13)

    def test_trace_preserved(self):
        rng = np.random.default_rng(23)
        space = CompositeSpace((3, 2, 2))
        rho = DensityMatrix.from_array(space, random_density_matrix(rng, space.dim))
        for mode in range(3):
            assert abs(np.trace(partial_trace(rho, mode).data) - 1) < 1e-12

    def test_invalid_mode(self):
        rho = fock_density(CompositeSpace((2, 2)), (0, 0))
        with pytest.raises(ValueError):
            partial_trace(rho, 2)


class TestPhotonDistribution:
    def test_vacuum(self):
        space = CompositeSpace((2, 3, 2))
        rho = fock_density(space, (0, 0, 0))
        dist = photon_distribution(rho, 1)
        assert np.array_equal(dist, [1.0, 0.0, 0.0])

    def test_coherent_state_is_poissonian(self):
        rho = coherent_cavity_state()
        dist = photon_distribution(rho, 0)
        mean = mean_occupation(rho, 0)
        reference = poisson_reference(mean, 3)
        np.testing.assert_allclose(dist[:4], reference, atol=1e-6)

    def test_normalization(self):
        rng = np.random.default_rng(31)
        space = CompositeSpace((4, 3))
        rho = DensityMatrix.from_array(space, random_density_matrix(rng, 12))
        for mode in range(2):
            assert photon_distribution(rho, mode).sum() == pytest.approx(1.0, abs=1e-8)


class TestPoissonReference:
    def test_zero_mean(self):
        assert np.array_equal(poisson_reference(0.0, 3), [1.0, 0, 0, 0])

    def test_unit_mean(self):
        assert poisson_reference(1.0, 1)[1] == pytest.approx(math.exp(-1.0))

    def test_partial_sums_approach_one(self):
        partial = poisson_reference(1.0, 3).sum()
        nearly_all = poisson_reference(1.0, 40).sum()
        assert partial < 1.0
        assert nearly_all == pytest.approx(1.0, abs=1e-12)

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            poisson_reference(-0.1, 3)

    @pytest.mark.parametrize("mean, m_max, message", [
        (float("nan"), 3, "mean must be a finite number"),
        (float("inf"), 3, "mean must be a finite number"),
        (True, 3, "mean must be a number"),
        ("0.5", 3, "mean must be a number"),
        (0.5, 2.5, "m_max must be a whole number >= 0, got 2.5"),
        (0.5, "3", "m_max must be a whole number >= 0, got '3'"),
        (0.5, True, "m_max must be a whole number >= 0, got True"),
        (0.5, -1, "m_max must be a whole number >= 0, got -1"),
    ])
    def test_invalid_inputs_rejected(self, mean, m_max, message):
        with pytest.raises(ValueError, match=message):
            poisson_reference(mean, m_max)

    def test_integral_float_m_max(self):
        assert np.array_equal(poisson_reference(0.5, 4.0), poisson_reference(0.5, 4))

    # scipy.stats.poisson.pmf's log form; only this test imports scipy.special
    @staticmethod
    def _scipy_weights(mean, m_max):
        from scipy import special

        k = np.arange(m_max + 1)
        return np.exp(special.xlogy(k, mean) - special.gammaln(k + 1) - mean)

    MEANS = (0.0, 1e-300, 1e-12, 0.3, 1.0, 7.0)

    @pytest.mark.parametrize("mean", MEANS)
    def test_equals_scipy_bit_for_bit_up_to_12(self, mean):
        # m! is exact in a double up to 12!, where gammaln is log(m!)
        for m_max in range(13):
            ours = poisson_reference(mean, m_max)
            assert ours.tobytes() == self._scipy_weights(mean, m_max).tobytes()

    @pytest.mark.parametrize("mean", MEANS)
    def test_agrees_with_scipy_up_to_60(self, mean):
        # beyond 12 gammaln and log(m!) may differ by an ulp, which moves the
        # weight by an ulp of its logarithm: 5.7e-14 relative at mean 0.3,
        # m = 60, where the logarithm is -261
        ours, theirs = poisson_reference(mean, 60), self._scipy_weights(mean, 60)
        assert np.array_equal(ours == 0, theirs == 0)
        nonzero = theirs != 0
        log_weight = np.abs(np.log(theirs[nonzero]))
        tolerance = 1e-14 * np.maximum(1.0, log_weight) * theirs[nonzero]
        assert np.all(np.abs(ours[nonzero] - theirs[nonzero]) <= tolerance)


class TestTransmission:
    def test_formula_arithmetic(self):
        space = CompositeSpace((2, 1, 2))
        diag = np.zeros(4)
        idx0 = 0          # |0, 0>
        idx1 = 1          # |0, 1>: one photon in mode c
        diag[idx0] = 0.99
        diag[idx1] = 0.01
        rho = DensityMatrix.from_array(space, np.diag(diag).astype(complex), enforce=False)
        params = SystemParams(omega=0.1, kappa_a=1.0, kappa_c=1.0, drive=DriveSide.LEFT)
        assert transmission(rho, params) == pytest.approx(1.0, abs=1e-12)

    def test_zero_drive_rejected(self):
        rho = fock_density(CompositeSpace((2, 1, 2)), (0, 0, 0))
        with pytest.raises(UndefinedTransmissionError):
            transmission(rho, SystemParams(omega=0.0))

    def test_drive_side_selects_output_mode(self):
        space = CompositeSpace((2, 1, 2))
        # |0, 0>, |0, 1> and |1, 0> of modes (a, c): <n_a> = 0.02, <n_c> = 0.01
        rho = DensityMatrix.from_array(
            space, np.diag([0.97, 0.01, 0.02, 0.0]).astype(complex), enforce=False
        )
        left = SystemParams(omega=0.1, drive=DriveSide.LEFT)
        right = SystemParams(omega=0.1, drive=DriveSide.RIGHT)
        assert transmission(rho, left) == pytest.approx(1.0)
        assert transmission(rho, right) == pytest.approx(2.0)

    def test_population_floor(self):
        # an empty output mode: <n_out> = 0 is below any resolvable occupation
        rho = fock_density(CompositeSpace((2, 1, 2)), (1, 0, 0))
        with pytest.raises(InsufficientPopulationError, match="below the floor"):
            transmission(rho, SystemParams(omega=0.1, drive=DriveSide.LEFT))


class TestCorrelations:
    def test_coherent_light(self):
        rho = coherent_cavity_state()
        assert correlation_g_n(rho, 0, 2) == pytest.approx(1.0, abs=1e-6)
        assert correlation_g_n(rho, 0, 3) == pytest.approx(1.0, abs=1e-5)

    def test_single_photon_blocks_pairs(self):
        rho = fock_density(CompositeSpace((5,)), (1,))
        assert correlation_g_n(rho, 0, 2) == 0.0

    def test_kerr_blockade_truncation_oracle(self):
        # refine the truncation as an independent check of the quotient
        values = {}
        for dim in (8, 20):
            a = annihilation(dim)
            h = 5.0 * (a.dag() @ a.dag() @ a @ a) + 0.1 * (a + a.dag())
            rho = steady_state(build_liouvillian(h, [a]))
            values[dim] = correlation_g_n(rho, 0, 2)
        assert abs(values[8] - values[20]) / values[20] < 0.005

    def test_population_floor(self):
        rho = fock_density(CompositeSpace((4,)), (0,))
        with pytest.raises(InsufficientPopulationError):
            correlation_g_n(rho, 0, 2)

    def test_order_needs_more_levels_than_n(self):
        # with three levels a^3 = 0 on every state: g3 would read 0
        rho = fock_density(CompositeSpace((3,)), (1,))
        assert correlation_g_n(rho, 0, 2) == 0.0
        with pytest.raises(InvalidDimensionError, match="more than 3 levels on mode 0"):
            correlation_g_n(rho, 0, 3)

    def test_order_validation(self):
        rho = fock_density(CompositeSpace((4,)), (1,))
        with pytest.raises(ValueError):
            correlation_g_n(rho, 0, 0)

    def test_weak_drive_distribution_consistency(self, fig2_point_444):
        # g2 ~ 2 P2 / P1^2 whenever the three-photon tail is negligible
        for dist, g2 in (
            (fig2_point_444.p_m_fwd, fig2_point_444.g2_fwd),
            (fig2_point_444.p_m_bwd, fig2_point_444.g2_bwd),
        ):
            assert dist[3] < 0.01 * dist[2]
            assert 2 * dist[2] / dist[1] ** 2 == pytest.approx(g2, rel=0.1)


class TestScalarMeasures:
    def test_isolation(self):
        assert isolation(1.0, 0.0) == 1.0
        assert isolation(0.3, 0.3) == 0.0

    def test_ratio_examples(self):
        assert nonreciprocal_ratio(1.0, 1.0) == 0.0
        assert nonreciprocal_ratio(1.0, 3.0) == pytest.approx(0.5)
        assert nonreciprocal_ratio(1e-6, 1e3) == pytest.approx(1.0, abs=1e-5)

    def test_ratio_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f, b = rng.uniform(0, 10, size=2)
            if f + b == 0:
                continue
            assert 0.0 <= nonreciprocal_ratio(f, b) <= 1.0

    def test_undefined_ratio(self):
        with pytest.raises(UndefinedRatioError):
            nonreciprocal_ratio(0.0, 0.0)
