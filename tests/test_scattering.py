import dataclasses
import math

import numpy as np
import pytest

from triring import (
    InvalidRateError,
    LinearModel,
    ResonanceSingularityError,
    SingularDenominatorError,
    TransmissionDirection,
    UnsupportedAsymmetryError,
    drift_matrix,
    optimal_condition,
    scattering_matrix,
    transmission_closed_form,
)

SQ2 = math.sqrt(2) / 2


def random_models(rng, count):
    for _ in range(count):
        yield LinearModel(
            j_ab=float(rng.uniform(0.0, 1.5)),
            j_bc=0.0,  # replaced below for symmetric cases
            j_ac=float(rng.uniform(0.0, 1.5)),
            theta=float(rng.uniform(-math.pi, math.pi)),
            kappa_a=float(rng.uniform(0.3, 2.0)),
            kappa_c=float(rng.uniform(0.3, 2.0)),
            kappa_b=float(rng.uniform(0.0, 2.0)),
        )


def symmetric_random_models(rng, count):
    for model in random_models(rng, count):
        yield dataclasses.replace(model, j_bc=model.j_ab)


class TestDriftMatrix:
    def test_decoupled_unit_losses(self):
        model = LinearModel(kappa_a=1.0, kappa_c=1.0, kappa_b=1.0)
        assert np.array_equal(drift_matrix(model), -0.5j * np.eye(3))

    def test_zero_phase_is_symmetric(self):
        model = LinearModel(
            j_ab=0.4, j_bc=0.7, j_ac=0.9, theta=0.0,
            kappa_a=1.0, kappa_c=0.5, kappa_b=0.2,
        )
        m = drift_matrix(model)
        assert np.array_equal(m, m.T)

    def test_coupling_phases(self):
        model = LinearModel(
            j_ab=SQ2, j_bc=SQ2, j_ac=SQ2, theta=-math.pi / 4,
            kappa_a=1.0, kappa_c=1.0, kappa_b=1.0,
        )
        m = drift_matrix(model)
        assert m[0, 1] == pytest.approx(SQ2 * np.exp(1j * math.pi / 4))
        assert m[1, 0] == pytest.approx(SQ2 * np.exp(-1j * math.pi / 4))
        assert m[0, 2] == m[2, 0] == SQ2

    def test_loss_validation(self):
        with pytest.raises(InvalidRateError):
            LinearModel(kappa_a=-1.0)

    @pytest.mark.parametrize("name, value, match", [
        ("kappa_b", float("nan"), "kappa_b must be a finite number, got nan"),
        ("j_ac", float("inf"), "j_ac must be a finite number, got inf"),
        ("theta", True, "theta must be a number, got True"),
        ("omega_a", "x", "omega_a must be a number, got 'x'"),
        ("kappa_a", "1", "kappa_a must be a number, got '1'"),
    ])
    def test_values_must_be_finite_numbers(self, name, value, match):
        with pytest.raises(InvalidRateError, match=f"^{match}$"):
            LinearModel(**{name: value})

    def test_values_stored_as_floats(self):
        model = LinearModel(kappa_a=np.int64(1), kappa_b=2)
        assert type(model.kappa_a) is float and model.kappa_a == 1.0
        assert type(model.kappa_b) is float and model.kappa_b == 2.0


class TestScatteringMatrix:
    def test_decoupled_port_reflects_with_unit_modulus(self):
        # spectator cavities detuned so the response matrix stays invertible
        model = LinearModel(
            omega_c=5.0, omega_b=5.0, kappa_a=1.0, kappa_c=0.0, kappa_b=0.0
        )
        s = scattering_matrix(model, omega=0.0)
        assert s.data[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert abs(s.data[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_lossless_on_resonance_is_singular(self):
        model = LinearModel(kappa_a=0.0, kappa_c=0.0, kappa_b=0.0)
        with pytest.raises(ResonanceSingularityError):
            scattering_matrix(model, omega=0.0)

    def test_matches_closed_form_on_random_sets(self):
        rng = np.random.default_rng(11)
        for model in symmetric_random_models(rng, 50):
            delta = float(rng.uniform(-3.0, 3.0))
            t_fwd, t_bwd = transmission_closed_form(model, delta)
            s = scattering_matrix(model, delta)
            assert abs(s.forward - t_fwd) < 1e-12
            assert abs(s.backward - t_bwd) < 1e-12

    def test_gamma_variant_disagrees_away_from_unit_loss(self):
        model = LinearModel(
            j_ab=SQ2, j_bc=SQ2, j_ac=SQ2, theta=-math.pi / 4,
            kappa_a=0.5, kappa_c=0.5, kappa_b=0.5,
        )
        t_fwd, _ = transmission_closed_form(model, -0.25)
        s_gamma = scattering_matrix(model, -0.25, variant="gamma")
        assert abs(s_gamma.forward - t_fwd) > 1e-3

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            scattering_matrix(LinearModel(), 0.0, variant="cube")

    def test_rows_are_unit_power(self):
        # every loss channel is a port, so S is unitary: row sums of
        # |S_ij|^2 equal one (and in particular never exceed 1 + 1e-9)
        rng = np.random.default_rng(5)
        for model in symmetric_random_models(rng, 20):
            s = scattering_matrix(model, float(rng.uniform(-2, 2)))
            sums = (np.abs(s.data) ** 2).sum(axis=1)
            assert np.all(sums <= 1 + 1e-9)
            np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_sign_folding_equivalence(self):
        # a negative direct coupling is the same network as a phase shift by pi
        base = dict(j_ab=0.6, j_bc=0.6, kappa_a=1.0, kappa_c=0.7, kappa_b=0.4)
        minus = LinearModel(j_ac=-0.8, theta=0.3, **base)
        folded = LinearModel(j_ac=0.8, theta=0.3 + math.pi, **base)
        np.testing.assert_allclose(
            scattering_matrix(minus, 0.4).data,
            scattering_matrix(folded, 0.4).data,
            atol=1e-12,
        )


class TestClosedForm:
    def test_hand_derived_point(self):
        # theta = -pi/4, unit losses, J = j_ac = sqrt(2)/2, delta = -1/2:
        # forward numerator |1/2 + i/2|^2 equals |D|^2 = |-1/2 + i/2|^2 and
        # the backward numerator cancels exactly
        model = LinearModel(
            j_ab=SQ2, j_bc=SQ2, j_ac=SQ2, theta=-math.pi / 4,
            kappa_a=1.0, kappa_c=1.0, kappa_b=1.0,
        )
        t_fwd, t_bwd = transmission_closed_form(model, -0.5)
        assert t_fwd == pytest.approx(1.0, abs=1e-12)
        assert t_bwd == pytest.approx(0.0, abs=1e-12)

    def test_zero_phase_is_reciprocal(self):
        model = LinearModel(
            j_ab=0.5, j_bc=0.5, j_ac=0.8, theta=0.0,
            kappa_a=1.0, kappa_c=1.0, kappa_b=0.7,
        )
        for delta in np.linspace(-3, 3, 25):
            t_fwd, t_bwd = transmission_closed_form(model, float(delta))
            assert abs(t_fwd - t_bwd) < 1e-12

    def test_pi_phase_is_reciprocal(self):
        model = LinearModel(
            j_ab=0.5, j_bc=0.5, j_ac=0.8, theta=math.pi,
            kappa_a=1.0, kappa_c=1.0, kappa_b=0.7,
        )
        for delta in np.linspace(-3, 3, 25):
            t_fwd, t_bwd = transmission_closed_form(model, float(delta))
            assert abs(t_fwd - t_bwd) < 1e-12

    def test_phase_negation_swaps_directions(self):
        rng = np.random.default_rng(13)
        for model in symmetric_random_models(rng, 10):
            delta = float(rng.uniform(-2, 2))
            fwd, bwd = transmission_closed_form(model, delta)
            flipped = dataclasses.replace(model, theta=-model.theta)
            fwd2, bwd2 = transmission_closed_form(flipped, delta)
            assert abs(fwd - bwd2) < 1e-12
            assert abs(bwd - fwd2) < 1e-12

    def test_asymmetric_couplings_rejected(self):
        with pytest.raises(UnsupportedAsymmetryError):
            transmission_closed_form(LinearModel(j_ab=0.5, j_bc=0.6), 0.0)

    def test_detuned_cavities_rejected(self):
        with pytest.raises(UnsupportedAsymmetryError):
            transmission_closed_form(LinearModel(omega_a=1.0), 0.0)

    def test_singular_denominator(self):
        model = LinearModel(kappa_a=0.0, kappa_c=0.0, kappa_b=0.0)
        with pytest.raises(SingularDenominatorError):
            transmission_closed_form(model, 0.0)


class TestOptimalConditionsThroughSMatrix:
    def test_forward_and_backward_targets(self):
        for theta in np.linspace(-math.pi + 0.1, math.pi - 0.1, 23):
            if abs(math.sin(theta)) < 0.05:
                continue
            for direction, targets in (
                (TransmissionDirection.FORWARD, (1.0, 0.0)),
                (TransmissionDirection.BACKWARD, (0.0, 1.0)),
            ):
                cond = optimal_condition(direction, float(theta), 1.0)
                s = scattering_matrix(cond.as_linear_model(), cond.delta)
                assert abs(s.forward - targets[0]) < 1e-12, (direction, theta)
                assert abs(s.backward - targets[1]) < 1e-12, (direction, theta)
