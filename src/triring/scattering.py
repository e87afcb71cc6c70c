"""Linearized input-output theory of the three-port ring.

With the Kerr terms dropped, the Langevin equations for the mode vector
u = (a, c, b) read du/dt = -i M u + sqrt(Gamma) u_in with a non-Hermitian
drift matrix M and Gamma = diag(kappa_a, kappa_c, kappa_b).  Fourier
transforming and applying u_out = -u_in + sqrt(Gamma) u gives the
frequency-domain scattering matrix

    S(w) = -i sqrt(Gamma) (M - w I)^-1 sqrt(Gamma) - I.

This module is the independent analytic oracle for the master-equation
pipeline: in the weak-drive linear limit the full simulation must
reproduce |S_21|^2 and |S_12|^2.

Port ordering here is (a, c, b); composite-space mode ordering elsewhere
is (a, b, c).  ``PORT_TO_MODE``/``MODE_TO_PORT`` give the bridge.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    InvalidRateError,
    ResonanceSingularityError,
    SingularDenominatorError,
    UnsupportedAsymmetryError,
)
from .fock import _finite_float

if TYPE_CHECKING:  # pragma: no cover
    from .model import SystemParams

__all__ = [
    "PORT_A",
    "PORT_C",
    "PORT_B",
    "PORT_TO_MODE",
    "MODE_TO_PORT",
    "LinearModel",
    "SMatrix",
    "drift_matrix",
    "scattering_matrix",
    "transmission_closed_form",
    "from_system_params",
]

PORT_A, PORT_C, PORT_B = 0, 1, 2

# port p of the scattering matrix is composite-space mode PORT_TO_MODE[p]
PORT_TO_MODE = (0, 2, 1)
MODE_TO_PORT = (0, 2, 1)


@dataclass(frozen=True)
class LinearModel:
    """Kerr-free ring: bare frequencies, couplings, phase, and losses.

    Frequencies may be left at zero with detuning carried by the probe
    offset instead.  ``j_ac`` may be signed here; a sign flip is the same
    network as ``|j_ac|`` with ``theta`` shifted by pi.
    """

    omega_a: float = 0.0
    omega_c: float = 0.0
    omega_b: float = 0.0
    j_ab: float = 0.0
    j_bc: float = 0.0
    j_ac: float = 0.0
    theta: float = 0.0
    kappa_a: float = 1.0
    kappa_c: float = 1.0
    kappa_b: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = _finite_float(getattr(self, f.name), f.name, InvalidRateError)
            object.__setattr__(self, f.name, value)
        for name in ("kappa_a", "kappa_c", "kappa_b"):
            if getattr(self, name) < 0:
                raise InvalidRateError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )


@dataclass(frozen=True)
class SMatrix:
    """3x3 scattering matrix at one probe frequency, port order (a, c, b)."""

    omega: float
    data: np.ndarray = field(repr=False)

    @property
    def forward(self) -> float:
        """Transmission a -> c, |S_21|^2."""
        return float(abs(self.data[PORT_C, PORT_A]) ** 2)

    @property
    def backward(self) -> float:
        """Transmission c -> a, |S_12|^2."""
        return float(abs(self.data[PORT_A, PORT_C]) ** 2)


def drift_matrix(model: LinearModel) -> np.ndarray:
    """Non-Hermitian drift matrix M in port order (a, c, b)."""
    coupling = model.j_ac * cmath.exp(1j * model.theta)
    return np.array(
        [
            [model.omega_a - 0.5j * model.kappa_a, coupling.conjugate(), model.j_ab],
            [coupling, model.omega_c - 0.5j * model.kappa_c, model.j_bc],
            [model.j_ab, model.j_bc, model.omega_b - 0.5j * model.kappa_b],
        ],
        dtype=complex,
    )


def scattering_matrix(model: LinearModel, omega: float, variant: str = "sqrt") -> SMatrix:
    """Scattering matrix S(omega) of the linearized ring.

    ``variant`` selects the trailing loss factor: "sqrt" (default) uses
    sqrt(Gamma) on both sides, which follows from the input-output relation
    and reproduces the closed-form transmissions; "gamma" uses a full Gamma
    on the right and is kept only for comparison (it disagrees with the
    closed forms whenever the losses differ from one).
    """
    if variant not in ("sqrt", "gamma"):
        raise ValueError(f"variant must be 'sqrt' or 'gamma', got {variant!r}")
    sqrt_gamma = np.diag(
        np.sqrt([model.kappa_a, model.kappa_c, model.kappa_b])
    ).astype(complex)
    right = sqrt_gamma if variant == "sqrt" else sqrt_gamma @ sqrt_gamma
    a = drift_matrix(model) - omega * np.eye(3, dtype=complex)
    try:
        green = np.linalg.solve(a, right)
    except np.linalg.LinAlgError as exc:
        raise ResonanceSingularityError(
            f"response matrix is singular at probe frequency {omega}; "
            "a lossless decoupled mode is on resonance"
        ) from exc
    data = -1j * (sqrt_gamma @ green) - np.eye(3, dtype=complex)
    return SMatrix(omega=omega, data=data)


def transmission_closed_form(model: LinearModel, delta: float) -> tuple[float, float]:
    """Closed-form transmissions (a -> c, c -> a) at probe offset ``delta``.

    Valid for resonant cavities (equal bare frequencies) with symmetric
    bridge couplings j_ab == j_bc == J:

        T_fwd = |sqrt(ka kc) [J^2 + e^{+i theta} j_ac z_b] / D|^2
        T_bwd = |sqrt(ka kc) [J^2 + e^{-i theta} j_ac z_b] / D|^2

    with z_o = delta + i kappa_o / 2 and the cubic denominator

        D = 2 cos(theta) J^2 j_ac + j_ac^2 z_b + J^2 z_c - z_a (z_b z_c - J^2),

    which is exactly det(M - w I) at delta = w - w_0.
    """
    if model.j_ab != model.j_bc:
        raise UnsupportedAsymmetryError(
            f"closed form assumes j_ab == j_bc, got {model.j_ab} and {model.j_bc}"
        )
    if not (model.omega_a == model.omega_c == model.omega_b):
        raise UnsupportedAsymmetryError(
            "closed form assumes resonant cavities (equal bare frequencies), got "
            f"({model.omega_a}, {model.omega_c}, {model.omega_b})"
        )
    j = model.j_ab
    j_ac = model.j_ac
    z_a = complex(delta, 0.5 * model.kappa_a)
    z_c = complex(delta, 0.5 * model.kappa_c)
    z_b = complex(delta, 0.5 * model.kappa_b)
    denom = (
        2.0 * math.cos(model.theta) * j**2 * j_ac
        + j_ac**2 * z_b
        + j**2 * z_c
        - z_a * (z_b * z_c - j**2)
    )
    if denom == 0:
        raise SingularDenominatorError(
            f"transmission denominator vanished at delta = {delta}"
        )
    root = math.sqrt(model.kappa_a * model.kappa_c)
    num_fwd = -1j * root * (j**2 + cmath.exp(1j * model.theta) * j_ac * z_b)
    num_bwd = -1j * root * (j**2 + cmath.exp(-1j * model.theta) * j_ac * z_b)
    return float(abs(num_fwd / denom) ** 2), float(abs(num_bwd / denom) ** 2)


def from_system_params(params: "SystemParams") -> LinearModel:
    """Linear model with bare frequencies set to the rotating-frame detunings.

    With omega_o := delta_o, evaluating the scattering matrix at probe
    frequency 0 probes offset delta = -Delta, which is exactly where the
    master-equation drive sits.  The drift matrix of the result also equals
    the single-excitation block of the undriven, Kerr-free Hamiltonian
    minus (i/2) diag(kappa), in (a, c, b) port order.
    """
    return LinearModel(
        omega_a=params.delta_a,
        omega_c=params.delta_c,
        omega_b=params.delta_b,
        j_ab=params.j_ab,
        j_bc=params.j_bc,
        j_ac=params.j_ac,
        theta=params.theta,
        kappa_a=params.kappa_a,
        kappa_c=params.kappa_c,
        kappa_b=params.kappa_b,
    )
