"""Driven three-cavity ring: its parameters, Hamiltonian and collapse operators.

Two Kerr-nonlinear cavities (a and c) are coupled directly with a complex
amplitude ``j_ac * exp(i*theta)`` and indirectly through a lossy linear
bridge cavity b.  Composite-space mode ordering is fixed globally as
``(a, b, c)`` = indices ``(0, 1, 2)``; the ring is driven through cavity
a ("left") or cavity c ("right").

All energies and rates are expressed in one common unit; the port loss
``kappa`` is the natural choice.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import InvalidRateError, InvalidSpaceError
# embed is unused: bench/tracing.py wraps it, tests/test_bench_contract.py pins it
from .fock import CompositeSpace, Operator, _finite_float, _member, embed

__all__ = [
    "MODE_A",
    "MODE_B",
    "MODE_C",
    "DriveSide",
    "SystemParams",
    "build_hamiltonian",
    "collapse_operators",
]

MODE_A, MODE_B, MODE_C = 0, 1, 2

# Above this fraction of the weakest port loss the weak-drive assumptions
# behind the transmission normalization start to degrade.
WEAK_DRIVE_FRACTION = 0.5


class DriveSide(Enum):
    """Which port carries the probe laser: the one place that says which
    mode a side drives and which mode it reads.  Driving left is the
    forward direction (a -> c), driving right the backward one (c -> a)."""

    LEFT = "left"
    RIGHT = "right"

    @property
    def driven_mode(self) -> int:
        """The mode the drive term omega (d' + d) acts on: a or c."""
        return MODE_A if self is DriveSide.LEFT else MODE_C

    @property
    def output_mode(self) -> int:
        """The mode whose occupation gives T and whose g<n> are read: the
        other port, c or a."""
        return MODE_C if self is DriveSide.LEFT else MODE_A


@dataclass(frozen=True)
class SystemParams:
    """Rotating-frame parameters of the driven ring.

    ``delta_*`` are cavity detunings from the drive frequency, ``u_*`` the
    Kerr strengths of the nonlinear cavities, ``j_*`` non-negative coupling
    magnitudes, ``theta`` the phase of the direct a-c coupling, ``omega``
    the drive amplitude, ``drive`` the driven port (a :class:`DriveSide`
    or its value, ``"left"`` or ``"right"``), and ``kappa_*`` the cavity
    loss rates.
    """

    delta_a: float = 0.0
    delta_c: float = 0.0
    delta_b: float = 0.0
    u_a: float = 0.0
    u_c: float = 0.0
    j_ab: float = 0.0
    j_bc: float = 0.0
    j_ac: float = 0.0
    theta: float = 0.0
    omega: float = 0.0
    drive: DriveSide = DriveSide.LEFT
    kappa_a: float = 1.0
    kappa_c: float = 1.0
    kappa_b: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "drive", _member(DriveSide, self.drive, "drive", InvalidRateError))
        for f in fields(self):
            if f.name != "drive":
                value = _finite_float(getattr(self, f.name), f.name, InvalidRateError)
                object.__setattr__(self, f.name, value)
        if self.kappa_a <= 0 or self.kappa_c <= 0:
            raise InvalidRateError(
                "the input-output ports must be lossy: kappa_a and kappa_c must be > 0, "
                f"got {self.kappa_a} and {self.kappa_c}"
            )
        if self.kappa_b < 0:
            raise InvalidRateError(f"kappa_b must be >= 0, got {self.kappa_b}")
        for name in ("j_ab", "j_bc", "j_ac"):
            if getattr(self, name) < 0:
                raise InvalidRateError(
                    f"{name} is a coupling magnitude and must be >= 0, got {getattr(self, name)}"
                )
        if self.omega < 0:
            raise InvalidRateError(f"omega must be >= 0, got {self.omega}")
        if self.omega > WEAK_DRIVE_FRACTION * min(self.kappa_a, self.kappa_c):
            warnings.warn(
                f"omega = {self.omega} exceeds {WEAK_DRIVE_FRACTION} * min(kappa_a, kappa_c); "
                "results leave the weak-drive regime the observables assume",
                stacklevel=_caller_stacklevel(),
            )


# the files a weak-drive warning looks past: this package, the dataclasses
# module and the __init__ a dataclass generates
_INTERNAL_FILES = (os.path.dirname(__file__) + os.sep, dataclasses.__file__, "<string>")


def _caller_stacklevel() -> int:
    """The ``warnings.warn`` stacklevel, for the function that calls this
    one, of the first frame outside ``_INTERNAL_FILES``, so a copy made by
    ``dataclasses.replace`` inside a sweep also warns at the caller's line.
    Python 3.12's ``skip_file_prefixes`` does the same."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_INTERNAL_FILES):
        frame, level = frame.f_back, level + 1
    return level


def _occupations(space: CompositeSpace) -> np.ndarray:
    """The space's occupation table, one row per mode (a, b, c);
    :class:`InvalidSpaceError` unless the space has three modes."""
    if space.n_modes != 3:
        raise InvalidSpaceError(
            f"the ring model needs exactly 3 modes (a, b, c), got {space.n_modes}"
        )
    return space.occupations


def _couplings(params: SystemParams) -> tuple:
    """Each hop term coeff y' x as (parameter name, coeff, x, y): x is the
    mode the hop lowers, y the mode it raises."""
    return (
        ("j_ac", params.j_ac * cmath.exp(1j * params.theta), MODE_A, MODE_C),
        ("j_ab", params.j_ab, MODE_A, MODE_B),
        ("j_bc", params.j_bc, MODE_C, MODE_B),
    )


def _check_levels(
    params: SystemParams, mode_dims: tuple[int, ...], sides, error: type[Exception]
) -> None:
    """``error`` naming the parameter and the mode where a nonzero coupling
    couples a one-level mode, or a drive side in ``sides`` drives one while
    omega is nonzero.  Detuning and Kerr terms vanish on one level, so they
    never conflict."""
    acting = [(name, (x, y)) for name, coeff, x, y in _couplings(params) if coeff != 0.0]
    if params.omega != 0.0:
        for side in sides:
            acting.append((f"omega (drive {side.value!r})", (side.driven_mode,)))
    for name, modes in acting:
        for mode in modes:
            if mode_dims[mode] == 1:
                raise error(
                    f"{name} acts on mode {'abc'[mode]}, which has one level at mode "
                    f"dims {mode_dims}; a coupled or driven mode needs at least 2"
                )


def build_hamiltonian(params: SystemParams, space: CompositeSpace) -> Operator:
    """Rotating-frame Hamiltonian on the (a, b, c) composite space.

    H = delta_a n_a + delta_c n_c + delta_b n_b
        + u_a a'a'aa + u_c c'c'cc
        + (j_ac e^{i theta} c'a + j_ab b'a + j_bc b'c + h.c.)
        + omega (d' + d),  d the drive side's ``driven_mode``.

    Every term reads the occupation table n, not a ladder operator, and
    takes its positions from the space's ``_transitions``.  The
    detuning and Kerr terms add s*s and ((s*r)*r)*s onto the diagonal
    (s = sqrt(n), r = sqrt(n - 1)); the hop y'x adds coeff * (sqrt(n_y + 1)
    * sqrt(n_x)) at (n - e_x + e_y, n) and its conjugate at the transposed
    position; the drive adds omega * sqrt(n_d) at (n - e_d, n) and
    (n, n - e_d).  Each entry is the one product that the dense a'a,
    a'a'aa, coeff (y' @ x) or omega (d + d') forms there, and no two terms
    share an entry, so H has their bits, signed zeros included.  A hop
    forms no intermediate state, so a total-photon cap keeps every hop.

    Padded dimension-1 modes are legal as long as nothing couples to them
    or drives them (their n is 0); a nonzero coupling or drive on one is an
    :class:`InvalidSpaceError` naming the parameter and the mode.  The
    result is Hermitian to exact floating-point equality because every
    non-diagonal term is added together with its explicit adjoint.
    """
    n = _occupations(space)
    _check_levels(params, space.mode_dims, (params.drive,), InvalidSpaceError)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    diag = h.reshape(-1)[:: space.dim + 1]  # a writable view
    s, r = np.sqrt(n), np.sqrt(np.maximum(n - 1, 0))
    number, kerr = s * s, ((s * r) * r) * s  # n and n(n-1), as a'a and a'a'aa form them
    for coeff, term in (
        (params.delta_a, number[MODE_A]),
        (params.delta_b, number[MODE_B]),
        (params.delta_c, number[MODE_C]),
        (params.u_a, kerr[MODE_A]),
        (params.u_c, kerr[MODE_C]),
    ):
        diag += coeff * term

    for _, coeff, x, y in _couplings(params):
        if coeff != 0.0:
            rows, cols = space._transitions(x, y)
            hop = coeff * (np.sqrt(n[y, cols] + 1) * s[x, cols])
            h[rows, cols] += hop
            h[cols, rows] += hop.conj()

    if params.omega != 0.0:
        d = params.drive.driven_mode
        rows, cols = space._transitions(d)
        drive = params.omega * s[d, cols]
        h[rows, cols] += drive
        h[cols, rows] += drive

    return Operator(space, h)


def collapse_operators(params: SystemParams, space: CompositeSpace) -> list[Operator]:
    """Collapse operators sqrt(kappa_o) o for o in (a, c, b).

    The loss term (kappa/2) * (2 o rho o' - {o'o, rho}) equals the standard
    dissipator with collapse operator sqrt(kappa) o, so this list feeds the
    usual Lindblad form directly.  A zero rate drops the operator from the
    list (only kappa_b may vanish); both conventions give the same
    Liouvillian.

    Each is a fresh array with sqrt(kappa_o) * sqrt(n_o) at (n - e_o, n),
    n the occupation table: the one product sqrt(kappa_o) times the
    embedded lowering operator forms there, so the bits match.
    """
    n = _occupations(space)
    out = []
    for rate, mode in (
        (params.kappa_a, MODE_A),
        (params.kappa_c, MODE_C),
        (params.kappa_b, MODE_B),
    ):
        if rate == 0.0 or space.mode_dims[mode] == 1:
            # zero operator either way; keep the sparse assembly clean
            continue
        rows, cols = space._transitions(mode)
        data = np.zeros((space.dim, space.dim), dtype=complex)
        data[rows, cols] = math.sqrt(rate) * np.sqrt(n[mode, cols])
        out.append(Operator(space, data))
    return out
