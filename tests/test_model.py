import dataclasses
import itertools
import math

import numpy as np
import pytest

import triring.model as model
from triring import (
    CompositeSpace,
    DegeneratePhaseError,
    DensityMatrix,
    DriveSide,
    InvalidRateError,
    InvalidSpaceError,
    MODE_A,
    MODE_B,
    MODE_C,
    SystemParams,
    TransmissionDirection,
    UnsupportedAsymmetryError,
    annihilation,
    basis_index,
    build_hamiltonian,
    collapse_operators,
    drift_matrix,
    embed,
    from_system_params,
    number,
    optimal_condition,
    phase_matching_residual,
    transmission,
)
from triring.cli import Axis, SweepSpec, run_sweep

SQ2 = math.sqrt(2) / 2


class TestSystemParams:
    def test_ports_must_be_lossy(self):
        with pytest.raises(InvalidRateError):
            SystemParams(kappa_a=0.0)
        with pytest.raises(InvalidRateError):
            SystemParams(kappa_c=-1.0)

    def test_negative_bridge_loss_rejected(self):
        with pytest.raises(InvalidRateError):
            SystemParams(kappa_b=-0.1)

    def test_negative_coupling_rejected(self):
        with pytest.raises(InvalidRateError):
            SystemParams(j_ac=-0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(SystemParams) if f.name != "drive"]
    )
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(InvalidRateError, match=f"^{name} must be a finite number"):
            SystemParams(**{name: value})

    @pytest.mark.parametrize("name, value, shown", [
        ("omega", True, "True"), ("j_ac", "x", "'x'"), ("theta", None, "None"),
        ("delta_a", "0.5", "'0.5'"),
    ])
    def test_values_must_be_numbers(self, name, value, shown):
        with pytest.raises(InvalidRateError, match=f"^{name} must be a number, got {shown}$"):
            SystemParams(**{name: value})

    def test_values_stored_as_floats(self):
        params = SystemParams(kappa_b=1, omega=np.float64(0.1), delta_a=np.float32(0.5))
        assert type(params.kappa_b) is float and params.kappa_b == 1.0
        assert type(params.omega) is float and type(params.delta_a) is float
        assert params == SystemParams(kappa_b=1.0, omega=0.1, delta_a=0.5)

    def test_weak_drive_warning(self):
        with pytest.warns(UserWarning, match="weak-drive") as record:
            SystemParams(omega=0.6, kappa_a=1.0, kappa_c=1.0)
        assert [w.filename for w in record] == [__file__]
        # a sweep's copies, made by dataclasses.replace, warn at the caller too
        with pytest.warns(UserWarning, match="weak-drive") as built:
            spec = SweepSpec(
                axes=(Axis("omega", 0.1, 0.8, 2),), fixed=SystemParams(), dims=(2, 1, 2)
            )
        with pytest.warns(UserWarning, match="weak-drive") as swept:
            run_sweep(spec)
        assert {w.filename for w in [*built, *swept]} == {__file__}

    @pytest.mark.parametrize("side", list(DriveSide))
    def test_drive_given_by_name(self, side):
        named = SystemParams(omega=0.1, drive=side.value)
        assert named.drive is side
        assert named == SystemParams(omega=0.1, drive=side)
        space = CompositeSpace((2, 2, 2))
        other = DriveSide.RIGHT if side is DriveSide.LEFT else DriveSide.LEFT
        h = build_hamiltonian(named, space).data
        same = build_hamiltonian(SystemParams(omega=0.1, drive=side), space).data
        mirrored = build_hamiltonian(SystemParams(omega=0.1, drive=other), space).data
        assert np.array_equal(h, same)
        assert not np.array_equal(h, mirrored)

    @pytest.mark.parametrize("drive", ["up", "LEFT", None, 0])
    def test_unknown_drive_rejected(self, drive):
        message = r"^drive must be a DriveSide or one of \['left', 'right'\], got "
        with pytest.raises(InvalidRateError, match=message):
            SystemParams(omega=0.1, drive=drive)


class TestDriveSide:
    @pytest.mark.parametrize("side, driven, output", [
        (DriveSide.LEFT, MODE_A, MODE_C),
        (DriveSide.RIGHT, MODE_C, MODE_A),
    ])
    def test_driven_and_output_modes(self, side, driven, output):
        assert (side.driven_mode, side.output_mode) == (driven, output)
        # the drive term alone is omega (d' + d) on the driven mode
        space = CompositeSpace((3, 2, 3))
        params = SystemParams(omega=0.1, drive=side)
        d = embed(annihilation(3), driven, space).data
        assert np.array_equal(build_hamiltonian(params, space).data, 0.1 * (d + d.conj().T))
        # transmission reads the output mode: one photon there with
        # probability 0.01, and twice that in the driven mode
        occupied = np.zeros(space.dim)
        for mode, p in ((output, 0.01), (driven, 0.02)):
            occupied[basis_index(space, tuple(int(m == mode) for m in range(3)))] = p
        occupied[0] = 1.0 - occupied.sum()
        rho = DensityMatrix(space, np.diag(occupied).astype(complex))
        assert transmission(rho, params) == pytest.approx(1.0, rel=1e-12)


class TestHamiltonian:
    def test_single_surviving_term(self):
        space = CompositeSpace((3, 3, 3))
        h = build_hamiltonian(SystemParams(delta_a=1.0), space)
        expected = embed(number(3), 0, space)
        np.testing.assert_allclose(h.data, expected.data, atol=1e-14)

    def test_hermitian_exactly(self, fig2_params):
        h = build_hamiltonian(fig2_params, CompositeSpace((5, 5, 5)))
        assert np.abs(h.data - h.data.conj().T).max() == 0.0

    def test_kerr_energy_on_padded_space(self):
        # <2| u n(n-1) |2> = 5 * 2 * 1 on the single nontrivial factor
        space = CompositeSpace((5, 1, 1))
        h = build_hamiltonian(SystemParams(u_a=5.0), space)
        idx = basis_index(space, (2, 0, 0))
        assert h.data[idx, idx] == pytest.approx(10.0, abs=1e-12)

    def test_space_must_have_three_modes(self):
        with pytest.raises(InvalidSpaceError):
            build_hamiltonian(SystemParams(), CompositeSpace((3, 3)))

    @pytest.mark.parametrize("params, dims, shown", [
        (dict(j_ab=0.7), (4, 1, 4), "j_ab acts on mode b"),
        (dict(j_bc=0.7), (4, 1, 4), "j_bc acts on mode b"),
        (dict(j_ac=0.7), (1, 4, 4), "j_ac acts on mode a"),
        (dict(j_ac=0.7), (4, 4, 1), "j_ac acts on mode c"),
        (dict(omega=0.1), (1, 3, 3), "omega (drive 'left') acts on mode a"),
        (dict(omega=0.1, drive="right"), (3, 3, 1), "omega (drive 'right') acts on mode c"),
    ])
    def test_coupled_or_driven_one_level_mode_refused(self, params, dims, shown):
        # named before a ladder operator is built on the one level
        with pytest.raises(InvalidSpaceError) as exc:
            build_hamiltonian(SystemParams(**params), CompositeSpace(dims))
        assert str(exc.value) == (
            f"{shown}, which has one level at mode dims {dims}; "
            "a coupled or driven mode needs at least 2"
        )

    def test_detuning_and_kerr_vanish_on_one_level(self):
        # the two-cavity shape: the bridge keeps its detuning, nothing couples
        # to it, and the undriven side may be one level too
        params = SystemParams(delta_a=0.5, delta_b=0.5, delta_c=0.5, u_a=5.0, u_c=5.0,
                              j_ac=0.0, omega=0.1, drive="right")
        h = build_hamiltonian(params, CompositeSpace((1, 1, 4)))
        assert h.data.shape == (4, 4)
        assert build_hamiltonian(params, CompositeSpace((4, 1, 4))).data.shape == (16, 16)

    def test_drive_swap_changes_only_drive_term(self, fig2_params):
        space = CompositeSpace((4, 4, 4))
        import dataclasses

        left = build_hamiltonian(
            dataclasses.replace(fig2_params, drive=DriveSide.LEFT), space
        )
        right = build_hamiltonian(
            dataclasses.replace(fig2_params, drive=DriveSide.RIGHT), space
        )
        a = embed(annihilation(4), 0, space)
        c = embed(annihilation(4), 2, space)
        drive_diff = fig2_params.omega * (
            a.data + a.data.conj().T - c.data - c.data.conj().T
        )
        assert np.abs(left.data - right.data - drive_diff).max() == 0.0

    def test_single_excitation_block_matches_drift_matrix(self):
        # undriven, Kerr-free: the one-photon block in (a, c, b) port order
        # equals the Hermitian part of the linearized drift matrix
        params = SystemParams(
            delta_a=0.7, delta_c=0.7, delta_b=0.7,
            j_ab=SQ2, j_bc=SQ2, j_ac=SQ2, theta=-math.pi / 4,
            kappa_a=1.0, kappa_c=1.0, kappa_b=0.8,
        )
        space = CompositeSpace((3, 3, 3))
        h = build_hamiltonian(params, space)
        rows = [
            basis_index(space, occ)
            for occ in ((1, 0, 0), (0, 0, 1), (0, 1, 0))  # a, c, b excitations
        ]
        block = h.data[np.ix_(rows, rows)]
        m = drift_matrix(from_system_params(params))
        hermitian_part = 0.5 * (m + m.conj().T)
        np.testing.assert_allclose(block, hermitian_part, atol=1e-12)


def dense_product_operators(params, space):
    """H and the collapse operators as dense products of ladder operators
    form them, built here with ``embed(annihilation(d), mode, space)``: the
    reference the occupation-table entries must match bit for bit.  The
    detuning and Kerr terms are a'a and a'a'aa evaluated left to right,
    skipped where the coefficient is zero or the mode has one level; the
    hops are raise-first, coeff (x @ y'), in a matrix of their own that is
    added once with its adjoint; the drive is omega (d + d').  No drive,
    hop or diagonal entry overlaps another, so the order of the three
    changes no bit.  Each collapse operator is sqrt(rate) times the
    lowering operator, in the order (a, c, b), skipping a zero rate or a
    one-level mode."""
    def lowering(mode):
        return embed(annihilation(space.mode_dims[mode]), mode, space).data

    h = np.zeros((space.dim, space.dim), dtype=complex)
    if params.omega != 0.0:
        d = lowering(params.drive.driven_mode)
        h += params.omega * (d + d.conj().T)
    for coeff, mode in (
        (params.delta_a, MODE_A), (params.delta_b, MODE_B), (params.delta_c, MODE_C),
    ):
        if coeff != 0.0 and space.mode_dims[mode] > 1:
            a = lowering(mode)
            h += coeff * (a.conj().T @ a)
    for coeff, mode in ((params.u_a, MODE_A), (params.u_c, MODE_C)):
        if coeff != 0.0 and space.mode_dims[mode] > 1:
            a = lowering(mode)
            ad = a.conj().T
            h += coeff * (ad @ ad @ a @ a)
    coupling = np.zeros_like(h)
    for _, coeff, x, y in model._couplings(params):
        if coeff != 0.0:
            coupling += coeff * (lowering(x) @ lowering(y).conj().T)
    if params.j_ac != 0.0 or params.j_ab != 0.0 or params.j_bc != 0.0:
        h = h + (coupling + coupling.conj().T)
    c_ops = [
        math.sqrt(rate) * lowering(mode)
        for rate, mode in (
            (params.kappa_a, MODE_A), (params.kappa_c, MODE_C), (params.kappa_b, MODE_B),
        )
        if rate != 0.0 and space.mode_dims[mode] > 1
    ]
    return h, c_ops


def built_operators(params, space):
    return (
        build_hamiltonian(params, space).data,
        [c.data for c in collapse_operators(params, space)],
    )


def same_bits(built, expected):
    """Whether two (H, collapse operators) pairs agree bit for bit; uint64
    views make signed zeros count."""
    (h, c_ops), (h_ref, c_ref) = built, expected
    return len(c_ops) == len(c_ref) and all(
        np.array_equal(a.view(np.uint64), b.view(np.uint64))
        for a, b in zip([h, *c_ops], [h_ref, *c_ref])
    )


def axis_end_hamiltonian_cases(fig2_params):
    """(params, dims) at the ends of the scenarios' delta and theta axes,
    both sides, on the shapes they use: the ring at dims 4 and 5 and the
    two-cavity (d, 1, d) with the bridge uncoupled.  kappa_b, the third
    axis, does not enter H."""
    cases = []
    for delta, theta, side in itertools.product((-3.0, 3.0), (0.0, math.pi), DriveSide):
        params = dataclasses.replace(
            fig2_params, delta_a=delta, delta_c=delta, delta_b=delta, theta=theta, drive=side
        )
        two_cavity = dataclasses.replace(params, j_ab=0.0, j_bc=0.0)
        cases += [(params, (4, 4, 4)), (params, (5, 5, 5))]
        cases += [(two_cavity, (4, 1, 4)), (two_cavity, (5, 1, 5))]
    return cases


def random_hamiltonian_cases():
    """300 seeded random parameter sets on the scenarios' shapes and two
    uneven ones; a coupling is zero one time in four, and the bridge is
    never coupled where it has one level."""
    rng = np.random.default_rng(20)
    shapes = [(4, 4, 4), (5, 5, 5), (4, 1, 4), (5, 1, 5), (3, 4, 3), (2, 3, 2)]
    cases = []
    for k in range(300):
        dims = shapes[k % len(shapes)]
        j = rng.uniform(0.0, 2.0, 3) * (rng.random(3) > 0.25)
        if dims[1] == 1:
            j[:2] = 0.0
        params = SystemParams(
            delta_a=rng.uniform(-3, 3), delta_c=rng.uniform(-3, 3), delta_b=rng.uniform(-3, 3),
            u_a=rng.uniform(-6, 6), u_c=rng.uniform(-6, 6),
            j_ab=j[0], j_bc=j[1], j_ac=j[2], theta=rng.uniform(-math.pi, math.pi),
            omega=rng.uniform(0.0, 0.5) * (rng.random() > 0.1),
            drive=rng.choice(["left", "right"]),
        )
        cases.append((params, dims))
    return cases


class TestOccupationNumberTerms:
    def test_bits_match_dense_product_formula(self, fig2_params):
        # each entry of H and of a collapse operator is one product of
        # sqrt(n) entries, so the occupation table moves no bit; H does not
        # depend on the loss rates, so the cases draw them separately
        signed_zeros = dataclasses.replace(
            fig2_params, delta_a=-0.0, delta_b=-0.0, delta_c=-0.0, u_a=-0.0, j_ab=-0.0
        )
        cases = axis_end_hamiltonian_cases(fig2_params) + random_hamiltonian_cases() + [
            (fig2_params, (6, 6, 6)),
            (signed_zeros, (4, 4, 4)),
            (dataclasses.replace(signed_zeros, u_c=-0.0, j_bc=-0.0, j_ac=-0.0), (4, 1, 4)),
        ]
        rates = np.random.default_rng(24).uniform(1.0, 3.0, (len(cases), 3))
        rates[::4, 2] = 0.0  # no bridge loss
        for (params, dims), (kappa_a, kappa_c, kappa_b) in zip(cases, rates):
            params = dataclasses.replace(
                params, kappa_a=kappa_a, kappa_c=kappa_c, kappa_b=kappa_b
            )
            space = CompositeSpace(dims)
            expected = dense_product_operators(params, space)
            assert same_bits(built_operators(params, space), expected), (params, dims)

    def test_no_term_builds_a_ladder_operator(self, monkeypatch):
        # every term reads the occupation table, as a basis capped in total
        # photon number would supply it; (2, 4, 3) is a shape no other test
        # builds, so no cache of embedded operators could hide a call
        params = SystemParams(
            delta_a=0.7, delta_b=-1.3, delta_c=0.4, u_a=5.0, u_c=-2.5,
            j_ab=0.6, j_bc=0.9, j_ac=0.8, theta=2.1, omega=0.2, drive="right", kappa_b=0.7,
        )
        space = CompositeSpace((2, 4, 3))
        expected = dense_product_operators(params, space)
        assert len(expected[1]) == 3

        def refuse(op, mode, target):
            raise AssertionError(f"ladder operator of mode {mode} embedded")

        monkeypatch.setattr(model, "embed", refuse)
        assert same_bits(built_operators(params, space), expected)

    @pytest.mark.parametrize("dims", [(4, 4, 4), (4, 1, 4)])
    def test_detuning_and_kerr_use_no_ladder_operator(self, monkeypatch, dims):
        # the diagonal terms read occupation numbers alone, as a basis
        # capped in total photon number would supply them; on (4, 1, 4)
        # the bridge detuning sits on the one-level mode
        def refuse(op, mode, target):
            raise AssertionError(f"ladder operator of mode {mode} embedded")

        monkeypatch.setattr(model, "embed", refuse)
        params = SystemParams(delta_a=0.7, delta_b=-1.3, delta_c=0.4, u_a=5.0, u_c=-2.5)
        space = CompositeSpace(dims)
        h = build_hamiltonian(params, space).data
        n = np.indices(dims).reshape(3, -1)
        expected = (
            0.7 * n[0] - 1.3 * n[1] + 0.4 * n[2] + 5.0 * n[0] * (n[0] - 1) - 2.5 * n[2] * (n[2] - 1)
        )
        np.testing.assert_allclose(h, np.diag(expected), rtol=1e-14, atol=1e-14)


class TestCollapseOperators:
    def test_zero_bridge_loss_omitted(self):
        space = CompositeSpace((2, 2, 2))
        ops = collapse_operators(SystemParams(kappa_b=0.0), space)
        assert len(ops) == 2

    def test_first_operator_is_port_a(self):
        space = CompositeSpace((2, 2, 2))
        ops = collapse_operators(SystemParams(kappa_a=1.0, kappa_b=0.5), space)
        assert len(ops) == 3
        expected = embed(annihilation(2), 0, space)
        assert np.array_equal(ops[0].data, expected.data)

    def test_rate_scaling(self):
        space = CompositeSpace((2, 2, 2))
        ops = collapse_operators(SystemParams(kappa_a=4.0), space)
        row = basis_index(space, (0, 1, 1))
        col = basis_index(space, (1, 1, 1))
        assert ops[0].data[row, col] == 2.0

    def test_each_call_returns_fresh_writable_arrays(self, fig2_params):
        space = CompositeSpace((3, 2, 3))
        first = collapse_operators(fig2_params, space)
        second = collapse_operators(fig2_params, space)
        for a, b in zip(first, second):
            assert a.data.flags.writeable and b.data.flags.writeable
            assert not np.shares_memory(a.data, b.data)
        before = second[0].data.copy()
        first[0].data[:] = 0.0
        assert np.array_equal(second[0].data, before)

    def test_padded_bridge_mode_dropped(self):
        space = CompositeSpace((3, 1, 3))
        ops = collapse_operators(SystemParams(kappa_b=1.0), space)
        assert len(ops) == 2


class TestOptimalCondition:
    def test_forward_at_minus_quarter_pi(self):
        cond = optimal_condition(TransmissionDirection.FORWARD, -math.pi / 4, 1.0)
        assert cond.delta == pytest.approx(-0.5, abs=1e-15)
        assert cond.j_ac == pytest.approx(SQ2, abs=1e-15)
        assert cond.j == cond.j_ac
        assert cond.kappa_b == 1.0
        assert not cond.phase_folded
        assert cond.theta == pytest.approx(-math.pi / 4)

    def test_backward_at_minus_quarter_pi_folds_sign(self):
        cond = optimal_condition(TransmissionDirection.BACKWARD, -math.pi / 4, 1.0)
        assert cond.delta == pytest.approx(0.5, abs=1e-15)
        assert cond.j_ac == pytest.approx(SQ2, abs=1e-15)
        assert cond.phase_folded
        assert cond.theta == pytest.approx(3 * math.pi / 4)

    def test_forward_at_minus_half_pi(self):
        cond = optimal_condition(TransmissionDirection.FORWARD, -math.pi / 2, 1.0)
        assert cond.delta == pytest.approx(0.0, abs=1e-15)
        assert cond.j_ac == pytest.approx(0.5, abs=1e-15)
        assert cond.kappa_b == 1.0

    def test_degenerate_phases(self):
        for theta in (0.0, math.pi, -math.pi):
            with pytest.raises(DegeneratePhaseError):
                optimal_condition(TransmissionDirection.FORWARD, theta, 1.0)

    @pytest.mark.parametrize("theta, kappa, match", [
        (float("nan"), 1.0, "theta must be a finite number"),
        (-math.pi / 4, float("inf"), "kappa must be a finite number"),
        (True, 1.0, "theta must be a number, got True"),
    ])
    def test_inputs_must_be_finite_numbers(self, theta, kappa, match):
        with pytest.raises(InvalidRateError, match=match):
            optimal_condition(TransmissionDirection.FORWARD, theta, kappa)

    def test_kappa_must_be_positive(self):
        with pytest.raises(InvalidRateError):
            optimal_condition(TransmissionDirection.FORWARD, -math.pi / 4, 0.0)

    @pytest.mark.parametrize("direction", list(TransmissionDirection))
    def test_direction_value_is_its_member(self, direction):
        # a value must not fall through to the backward formulas
        assert optimal_condition(direction.value, 0.5, 1.0) == optimal_condition(direction, 0.5, 1.0)

    @pytest.mark.parametrize("direction", ["sideways", "Forward", None, DriveSide.LEFT])
    def test_unknown_direction_refused(self, direction):
        with pytest.raises(InvalidRateError, match=r"^direction must be a TransmissionDirection"):
            optimal_condition(direction, 0.5, 1.0)


class TestPhaseMatching:
    def _params_from(self, cond):
        return SystemParams(
            j_ab=cond.j, j_bc=cond.j, j_ac=cond.j_ac, theta=cond.theta,
            kappa_a=cond.kappa_b, kappa_c=cond.kappa_b, kappa_b=cond.kappa_b,
        )

    def test_optimal_point_is_matched(self):
        cond = optimal_condition(TransmissionDirection.FORWARD, -math.pi / 4, 1.0)
        amp, phase = phase_matching_residual(self._params_from(cond), cond.delta)
        assert abs(amp) < 1e-12
        assert phase < 1e-12

    def test_matched_on_dense_phase_grid(self):
        for direction in TransmissionDirection:
            for theta in np.linspace(0.05, math.pi - 0.05, 41):
                cond = optimal_condition(direction, float(theta), 1.0)
                amp, phase = phase_matching_residual(
                    self._params_from(cond), cond.delta
                )
                assert abs(amp) < 1e-12, (direction, theta)
                assert phase < 1e-12, (direction, theta)

    def test_zero_phase_cannot_match(self):
        params = SystemParams(j_ab=SQ2, j_bc=SQ2, j_ac=SQ2, theta=0.0, kappa_b=1.0)
        _, phase = phase_matching_residual(params, 1.0)
        assert phase == pytest.approx(math.pi - math.atan2(0.5, 1.0))
        assert phase > 0.1

    def test_zero_coupling_amplitude(self):
        params = SystemParams(j_ab=0.5, j_bc=0.5, j_ac=0.0, kappa_b=1.0)
        amp, _ = phase_matching_residual(params, 0.3)
        assert amp == pytest.approx(-0.25)

    def test_asymmetric_bridge_rejected(self):
        params = SystemParams(j_ab=0.5, j_bc=0.6)
        with pytest.raises(UnsupportedAsymmetryError):
            phase_matching_residual(params, 0.0)

    @pytest.mark.parametrize("delta, match", [
        (float("inf"), "delta must be a finite number, got inf"),
        (float("nan"), "delta must be a finite number, got nan"),
        ("0.5", "delta must be a number, got '0.5'"),
    ])
    def test_probe_offset_must_be_a_finite_number(self, delta, match):
        params = SystemParams(j_ab=SQ2, j_bc=SQ2, j_ac=SQ2, theta=-math.pi / 4, kappa_b=1.0)
        with pytest.raises(InvalidRateError, match=f"^{match}$"):
            phase_matching_residual(params, delta)


class TestBaselineParams:
    def test_canonical_values(self, fig2_params):
        assert fig2_params.delta_a == fig2_params.delta_c == fig2_params.delta_b == 0.5
        assert fig2_params.j_ab == fig2_params.j_bc == fig2_params.j_ac == pytest.approx(SQ2)
        assert fig2_params.theta == pytest.approx(-math.pi / 4)
        assert fig2_params.u_a == fig2_params.u_c == 5.0
        assert fig2_params.omega == 0.1
        assert fig2_params.kappa_a == fig2_params.kappa_c == fig2_params.kappa_b == 1.0

    def test_baseline_sits_on_forward_optimum(self, fig2_params):
        cond = optimal_condition(
            TransmissionDirection.FORWARD, fig2_params.theta, fig2_params.kappa_a
        )
        assert cond.delta == pytest.approx(-fig2_params.delta_a)
        assert cond.j_ac == pytest.approx(fig2_params.j_ac)
        assert cond.kappa_b == fig2_params.kappa_b
