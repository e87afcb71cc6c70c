"""Acceptance suite.

Each test prints one PASS/FAIL line per criterion (run with ``pytest -s``
to see them) and asserts every gate at its stated tolerance.
"""

import math

import numpy as np
import pytest

from triring import (
    CompositeSpace,
    DensityMatrix,
    LinearModel,
    TransmissionDirection,
    build_hamiltonian,
    build_liouvillian,
    collapse_operators,
    evolve,
    optimal_condition,
    poisson_reference,
    scattering_matrix,
    steady_state,
    transmission_closed_form,
    vec,
)
from triring.cli import (
    Axis,
    SweepSpec,
    baseline_params,
    emit_sweep,
    run_point,
    run_sweep,
    scenario,
    two_cavity_params,
)

SQ2 = math.sqrt(2) / 2


def report(criterion, ok, detail):
    print(f"\nCRITERION {criterion} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok


def close_rel(got, want, rel, floor=1e-12):
    return abs(got - want) <= rel * abs(want) + floor


def test_criterion_1_linear_limit_matches_closed_form():
    """Kerr-free, weakly driven: master-equation transmissions reproduce the
    analytic network to 0.1% relative (probe offset = minus the detuning)."""
    worst = 0.0
    for delta in (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0):
        for kappa_b in (0.5, 1.0, 1.5):
            params = baseline_params(
                delta_a=delta, delta_c=delta, delta_b=delta,
                kappa_b=kappa_b, u_a=0.0, u_c=0.0, omega=0.01,
            )
            result = run_point(params, dims=(4, 4, 4))
            model = LinearModel(
                j_ab=params.j_ab, j_bc=params.j_bc, j_ac=params.j_ac,
                theta=params.theta, kappa_a=params.kappa_a,
                kappa_c=params.kappa_c, kappa_b=params.kappa_b,
            )
            t_fwd, t_bwd = transmission_closed_form(model, -delta)
            for got, want, n_out, error in (
                (result.t_fwd, t_fwd, result.n_c_fwd, result.error_fwd),
                (result.t_bwd, t_bwd, result.n_a_bwd, result.error_bwd),
            ):
                if got is None:
                    # an isolated output (delta = 0.5, kappa_b = 1) is below
                    # the population floor, so T is flagged; the occupation
                    # the record keeps still gives it, to compare
                    assert "below the floor" in error, (delta, kappa_b)
                    got = params.kappa_a * params.kappa_c * n_out / params.omega ** 2
                assert close_rel(got, want, 1e-3), (delta, kappa_b)
                if want > 1e-9:
                    worst = max(worst, abs(got - want) / want)
    assert report(
        1, worst < 1e-3,
        f"linear-limit oracle equivalence: worst relative error {worst:.3e} < 1e-3",
    )


def test_criterion_2_optimal_condition_exactness():
    """Complete one-way transmission points hit (1, 0) / (0, 1) to 1e-12."""
    worst = 0.0
    for theta in np.linspace(-math.pi + 0.1, math.pi - 0.1, 29):
        if abs(math.sin(theta)) < 0.05:
            continue
        for direction, (want_fwd, want_bwd) in (
            (TransmissionDirection.FORWARD, (1.0, 0.0)),
            (TransmissionDirection.BACKWARD, (0.0, 1.0)),
        ):
            cond = optimal_condition(direction, float(theta), 1.0)
            s = scattering_matrix(cond.as_linear_model(), cond.delta)
            worst = max(worst, abs(s.forward - want_fwd), abs(s.backward - want_bwd))
            assert abs(s.forward - want_fwd) < 1e-12
            assert abs(s.backward - want_bwd) < 1e-12

    # hand-derived point: theta = -pi/4, kappa = 1, delta = -1/2 -> (1, 0)
    model = LinearModel(
        j_ab=SQ2, j_bc=SQ2, j_ac=SQ2, theta=-math.pi / 4,
        kappa_a=1.0, kappa_c=1.0, kappa_b=1.0,
    )
    t_fwd, t_bwd = transmission_closed_form(model, -0.5)
    assert abs(t_fwd - 1.0) < 1e-12 and abs(t_bwd) < 1e-12
    assert report(
        2, worst < 1e-12,
        f"optimal-condition exactness through the S-matrix: worst error {worst:.3e} < 1e-12",
    )


def test_criterion_3_nonreciprocal_transmission(fig2_point_555):
    """Canonical point: near-complete forward and blocked backward
    transmission; isolation peaks at (delta, kappa_b) = (0.5, 1)."""
    res = fig2_point_555
    ok_point = res.t_fwd > 0.85 and res.t_bwd < 0.05

    grid = SweepSpec(
        axes=(Axis("delta", -1.0, 2.0, 13), Axis("kappa_b", 0.25, 1.75, 7)),
        fixed=baseline_params(),
        dims=(4, 4, 4),
        outputs=("isolation",),
        name="isolation_grid",
    )
    result = run_sweep(grid, jobs=1)
    iso = result.columns.index("isolation")
    best = max(result.rows, key=lambda row: row[iso])
    cell = (0.25 + 1e-9, 0.25 + 1e-9)
    ok_argmax = abs(best[0] - 0.5) <= cell[0] and abs(best[1] - 1.0) <= cell[1]

    assert report(
        3, ok_point and ok_argmax,
        f"nonreciprocal transmission: T_fwd={res.t_fwd:.3f} > 0.85, "
        f"T_bwd={res.t_bwd:.4f} < 0.05; isolation argmax at "
        f"(delta={best[0]:.2f}, kappa_b={best[1]:.2f}) within one cell of (0.5, 1)",
    )


def test_criterion_4_nonreciprocal_single_photon_blockade(fig2_point_555):
    """Canonical point: blockade forward, bunching backward, contrast >= 1e3,
    nonreciprocal ratio above 0.99."""
    res = fig2_point_555
    contrast = res.g2_bwd / res.g2_fwd
    ok = (
        res.g2_fwd < 0.1
        and res.g2_bwd > 10.0
        and contrast >= 1e3
        and res.ratio > 0.99
    )
    assert report(
        4, ok,
        f"nonreciprocal 1PB: g2_fwd={res.g2_fwd:.4f} < 0.1, g2_bwd={res.g2_bwd:.1f} > 10, "
        f"achieved contrast {contrast:.3e} >= 1e3, ratio={res.ratio:.5f} > 0.99",
    )


def test_criterion_5_nonreciprocal_two_photon_blockade():
    """Raised bridge loss: single-photon blockade forward, two-photon
    blockade backward, with the two-photon peak visible in mode a's
    distribution against its Poisson reference."""
    res = run_point(baseline_params(kappa_b=1.25), dims=(5, 5, 5))
    reference = poisson_reference(res.n_a_bwd, len(res.p_m_bwd) - 1)
    ok = (
        res.g2_fwd < 1.0
        and res.g2_bwd > 1.0
        and res.g3_bwd < 1.0
        and res.p_m_bwd[2] > reference[2]
        and res.p_m_bwd[3] < reference[3]
    )
    assert report(
        5, ok,
        f"nonreciprocal 2PB at kappa_b=1.25: g2_fwd={res.g2_fwd:.4f} < 1, "
        f"g2_bwd={res.g2_bwd:.3f} > 1, g3_bwd={res.g3_bwd:.3f} < 1; "
        f"P2={res.p_m_bwd[2]:.3e} > poisson {reference[2]:.3e}, "
        f"P3={res.p_m_bwd[3]:.3e} < poisson {reference[3]:.3e}",
    )


def test_criterion_6a_phase_reversal_at_quarter_pi():
    """theta = pi/4 reverses the nonreciprocity of the canonical point."""
    res = run_point(baseline_params(theta=math.pi / 4), dims=(5, 5, 5))
    ok = (
        res.t_fwd < 0.05
        and res.t_bwd > 0.85
        and res.g2_fwd > 10.0
        and res.g2_bwd < 0.1
    )
    assert report(
        "6a", ok,
        f"phase reversal at theta=pi/4: T_fwd={res.t_fwd:.4f} < 0.05, "
        f"T_bwd={res.t_bwd:.3f} > 0.85, g2_fwd={res.g2_fwd:.1f} > 10, "
        f"g2_bwd={res.g2_bwd:.4f} < 0.1",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "theta = 3pi/4 does not mirror the theta = pi/4 point at fixed "
        "delta = 0.5, kappa_b = 1, j_ac = sqrt(2)/2 > 0: the closed-form "
        "transmissions give T_fwd < T_bwd for every theta in (0, pi) at "
        "these parameters (both give 2cos-free numerators |1+e^{i(phi_z "
        "+- theta)}|^2 with phi_z in (0, pi)), and the full master equation "
        "agrees, yielding (T_fwd, T_bwd) = (0.20, 0.40). The mirror point "
        "sits at theta = 7pi/4 (equivalently -pi/4), which "
        "test_phase_reversal_mirror_at_seven_quarter_pi verifies."
    ),
)
def test_criterion_6b_phase_reversal_mirror_at_three_quarter_pi():
    """theta = 3pi/4 mirror gate, kept faithful although the model cannot
    satisfy it (see the xfail reason)."""
    res = run_point(baseline_params(theta=3 * math.pi / 4), dims=(5, 5, 5))
    ok = (
        res.t_fwd > 0.85
        and res.t_bwd < 0.05
        and res.g2_fwd < 0.1
        and res.g2_bwd > 10.0
    )
    report(
        "6b", ok,
        f"stated mirror at theta=3pi/4: T_fwd={res.t_fwd:.4f} (needs > 0.85), "
        f"T_bwd={res.t_bwd:.4f} (needs < 0.05), g2_fwd={res.g2_fwd:.4f}, "
        f"g2_bwd={res.g2_bwd:.4f}",
    )
    assert ok


def test_phase_reversal_mirror_at_seven_quarter_pi():
    """The exact mirror of the theta = pi/4 point lives one half-turn away."""
    res = run_point(baseline_params(theta=7 * math.pi / 4), dims=(5, 5, 5))
    assert res.t_fwd > 0.85
    assert res.t_bwd < 0.05
    assert res.g2_fwd < 0.1
    assert res.g2_bwd > 10.0


def test_criterion_7_two_cavity_reciprocity():
    """Without the bridge cavity both directions are identical: transmissions
    to 1e-8 absolute and correlations to 1e-6 relative across the detuning
    range."""
    worst_t, worst_g2 = 0.0, 0.0
    for delta in np.linspace(-3.0, 3.0, 13):
        params = two_cavity_params(
            delta_a=float(delta), delta_c=float(delta), delta_b=float(delta)
        )
        res = run_point(params, dims=(5, 1, 5))
        worst_t = max(worst_t, abs(res.t_fwd - res.t_bwd))
        worst_g2 = max(worst_g2, abs(res.g2_fwd - res.g2_bwd) / res.g2_bwd)
    ok = worst_t < 1e-8 and worst_g2 < 1e-6
    assert report(
        7, ok,
        f"two-cavity reciprocity: max |T_fwd - T_bwd| = {worst_t:.3e} < 1e-8, "
        f"max relative g2 difference = {worst_g2:.3e} < 1e-6",
    )


def test_criterion_8_solver_integrity(fig2_state_555, fig2_point_444, fig2_point_555):
    """Trace, positivity, residual, time-domain cross-check, and truncation
    convergence on the canonical point."""
    hamiltonian, c_ops, liouv, rho = fig2_state_555
    trace_defect = abs(np.trace(rho.data) - 1.0)
    min_eig = float(np.linalg.eigvalsh(rho.data).min())
    residual = float(np.linalg.norm(liouv.data @ vec(rho.data)))
    bound = 1e-10 * liouv.norm_fro() * float(np.linalg.norm(vec(rho.data)))

    # independent time-domain route at the same parameters, dims (4,4,4)
    params = baseline_params()
    space4 = CompositeSpace((4, 4, 4))
    h4 = build_hamiltonian(params, space4)
    c4 = collapse_operators(params, space4)
    rho_direct = steady_state(build_liouvillian(h4, c4))
    vacuum = np.zeros((space4.dim, space4.dim), dtype=complex)
    vacuum[0, 0] = 1.0
    rho0 = DensityMatrix(space4, vacuum)
    rho_rk4 = evolve(h4, c4, rho0, t_final=50.0, dt=0.01)
    frobenius = float(np.linalg.norm(rho_rk4.data - rho_direct.data))

    drifts = {
        "T_fwd": abs(fig2_point_444.t_fwd - fig2_point_555.t_fwd) / fig2_point_555.t_fwd,
        "T_bwd": abs(fig2_point_444.t_bwd - fig2_point_555.t_bwd) / fig2_point_555.t_bwd,
        "g2_fwd": abs(fig2_point_444.g2_fwd - fig2_point_555.g2_fwd) / fig2_point_555.g2_fwd,
        "g2_bwd": abs(fig2_point_444.g2_bwd - fig2_point_555.g2_bwd) / fig2_point_555.g2_bwd,
    }
    worst_drift = max(drifts.values())

    ok = (
        trace_defect < 1e-10
        and min_eig > -1e-8
        and residual <= bound
        and frobenius < 1e-5
        and worst_drift < 0.02
    )
    assert report(
        8, ok,
        f"solver integrity: |tr-1|={trace_defect:.2e} < 1e-10, min eig={min_eig:.2e} > -1e-8, "
        f"residual {residual:.2e} <= {bound:.2e}, RK4-vs-direct Frobenius {frobenius:.2e} < 1e-5, "
        f"truncation drift {worst_drift:.2e} < 0.02",
    )


def test_criterion_9_determinism(tmp_path):
    """Byte-identical CSV on repetition; parallel equals serial exactly."""
    spec = SweepSpec(
        axes=(Axis("delta", -1.0, 1.0, 4),),
        fixed=two_cavity_params(),
        dims=(3, 1, 3),
        name="det",
    )
    emit_sweep(run_sweep(spec, jobs=1), tmp_path / "serial")
    emit_sweep(run_sweep(spec, jobs=2), tmp_path / "parallel")
    emit_sweep(run_sweep(spec, jobs=1), tmp_path / "again")
    serial = (tmp_path / "serial" / "det.csv").read_bytes()
    parallel = (tmp_path / "parallel" / "det.csv").read_bytes()
    again = (tmp_path / "again" / "det.csv").read_bytes()

    scenario("conditions-check", out_dir=tmp_path / "s1")
    scenario("conditions-check", out_dir=tmp_path / "s2")
    first = (tmp_path / "s1" / "conditions_check.csv").read_bytes()
    second = (tmp_path / "s2" / "conditions_check.csv").read_bytes()

    ok = serial == parallel == again and first == second
    assert report(
        9, ok,
        "determinism: repeated runs byte-identical, parallel == serial "
        f"({len(serial)} sweep bytes, {len(first)} scenario bytes)",
    )
