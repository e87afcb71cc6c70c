"""Steady-state observables: transmissions, correlations, distributions.

Transmission normalizes the output photon flux by the input power,
T = kappa_a * kappa_c * <n_out> / omega^2, read on the drive side's
``output_mode`` (drive a -> read c, drive c -> read a).  Correlation
functions are computed on intracavity operators; under the input-output
relation the output-field correlators are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientPopulationError,
    InvalidDimensionError,
    UndefinedRatioError,
    UndefinedTransmissionError,
)
from .fock import CompositeSpace, Operator, _finite_float, _mode_index, _same_space, _whole_number
from .lindblad import DensityMatrix, _check_state
from .model import SystemParams

__all__ = [
    "POPULATION_FLOOR",
    "PointResult",
    "expectation",
    "partial_trace",
    "photon_distribution",
    "mean_occupation",
    "transmission",
    "correlation_g_n",
    "poisson_reference",
    "isolation",
    "nonreciprocal_ratio",
]

# below this mean occupation round-off swamps it: T and g^(n) read noise
POPULATION_FLOOR = 1e-12


def _check_floor(mean: float, mode: int, reading: str) -> None:
    if mean < POPULATION_FLOOR:
        raise InsufficientPopulationError(
            f"mode {mode} occupation {mean:.3e} is below the floor {POPULATION_FLOOR:.0e}; {reading}"
        )


def expectation(rho: DensityMatrix, op: Operator) -> complex:
    """tr(rho A)."""
    _same_space(rho.space, op.space, "state and operator spaces differ")
    return complex(np.einsum("ij,ji->", rho.data, op.data))


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduced single-mode density matrix of mode ``keep``, a whole number
    below the number of modes (else ``ValueError``).  The diagonal
    observables do not call it; its diagonal is their reference."""
    dims = rho.space.mode_dims
    n = len(dims)
    keep = _mode_index(keep, n, ValueError)
    reshaped = rho.data.reshape(dims + dims)
    row = list(range(n))
    col = [i if i != keep else n for i in range(n)]
    reduced = np.einsum(reshaped, row + col, [keep, n])
    rho = DensityMatrix(CompositeSpace((dims[keep],)), reduced)
    rho.validate()
    return rho


def photon_distribution(rho: DensityMatrix, mode: int) -> np.ndarray:
    """P_m for m = 0 ... dim-1 of the given mode: diag(rho) summed over the
    space's occupation table in flat-index order, with the bits of
    :func:`partial_trace`'s diagonal.  The summed diagonal, imaginary part
    included, passes the density-matrix check (else
    :class:`NonPhysicalStateError`); ``mode`` is a whole number below the
    number of modes, else ``ValueError``."""
    space = rho.space
    mode = _mode_index(mode, space.n_modes, ValueError)
    occupation, levels = space.occupations[mode], space.mode_dims[mode]
    diagonal = np.diagonal(rho.data)
    p = np.bincount(occupation, weights=diagonal.real, minlength=levels)
    imag = np.bincount(occupation, weights=diagonal.imag, minlength=levels)
    _check_state(np.diag(p + 1j * imag))
    return p


def mean_occupation(rho: DensityMatrix, mode: int) -> float:
    """<n> of one mode, evaluated from its photon distribution; ``mode``
    follows :func:`photon_distribution`'s rule."""
    p = photon_distribution(rho, mode)
    return float(np.arange(p.size) @ p)


def transmission(rho: DensityMatrix, params: SystemParams) -> float:
    """Transmission coefficient for the steady state under ``params.drive``.

    Drive left: T = kappa_a kappa_c <n_c> / omega^2 (a -> c).
    Drive right: same prefactor with <n_a> (c -> a).  Below the population
    floor it raises :class:`InsufficientPopulationError`.
    """
    if params.omega == 0:
        raise UndefinedTransmissionError(
            "transmission is undefined at zero drive amplitude (division by omega^2)"
        )
    out_mode = params.drive.output_mode
    n_out = mean_occupation(rho, out_mode)
    _check_floor(n_out, out_mode, "T would read round-off")
    return float(params.kappa_a * params.kappa_c * n_out / params.omega**2)


def correlation_g_n(rho: DensityMatrix, mode: int, n: int) -> float:
    """Equal-time n-th order correlation g^(n)(0) = <a'^n a^n> / <a'a>^n.

    Both moments are diagonal in the mode's Fock basis, so they reduce to
    factorial moments of the photon distribution.  Raises
    :class:`InsufficientPopulationError` below the population floor to
    keep destructive-interference points from producing silent 0/0, and
    :class:`InvalidDimensionError` where the mode has n or fewer levels.
    ``n`` is a whole number >= 1 and ``mode`` one below the number of
    modes, else ``ValueError``.
    """
    n = _whole_number(n, "correlation order", ValueError, minimum=1)
    mode = _mode_index(mode, rho.space.n_modes, ValueError)
    p = photon_distribution(rho, mode)
    # there a^n = 0 on every state, so g^(n) would read 0 whatever the physics
    if p.size <= n:
        raise InvalidDimensionError(
            f"g^({n}) needs more than {n} levels on mode {mode}, which has {p.size}"
        )
    m = np.arange(p.size, dtype=float)
    mean = float(m @ p)
    _check_floor(mean, mode, f"g^({n}) would divide by ~0")
    falling = np.ones_like(m)
    for k in range(n):
        falling = falling * (m - k)
    return float(falling @ p) / mean**n


def poisson_reference(mean: float, m_max: int) -> np.ndarray:
    """Poisson weights exp(-mean) mean^m / m! for m = 0 ... m_max.

    Evaluated in the log form exp(m log(mean) - log(m!) - mean) that
    scipy.stats.poisson.pmf uses, with numpy and ``math`` alone: up to
    m_max = 12, where m! is exact in a double, the weights equal scipy's
    ``exp(xlogy(m, mean) - gammaln(m + 1) - mean)`` bit for bit; above it
    gammaln may differ from log(m!) by an ulp.  A zero mean gives
    [1, 0, ..., 0].  A negative or non-finite ``mean`` and an ``m_max``
    that is not a whole number >= 0 raise ``ValueError``.
    """
    mean = _finite_float(mean, "mean", ValueError)
    if mean < 0:
        raise ValueError(f"mean must be >= 0, got {mean}")
    m_max = _whole_number(m_max, "m_max", ValueError)
    m = np.arange(m_max + 1, dtype=float)
    if mean == 0:
        # log(0) is -inf, and 0 * -inf would make the m = 0 weight nan
        return (m == 0).astype(float)
    log_factorial = np.array([math.log(math.factorial(k)) for k in range(m.size)])
    return np.exp(m * math.log(mean) - log_factorial - mean)


def isolation(t_fwd: float, t_bwd: float) -> float:
    """Classical nonreciprocity measure |T_fwd - T_bwd|; ``ValueError``
    unless both are finite numbers."""
    return abs(
        _finite_float(t_fwd, "t_fwd", ValueError) - _finite_float(t_bwd, "t_bwd", ValueError)
    )


def nonreciprocal_ratio(g2_fwd: float, g2_bwd: float) -> float:
    """Normalized contrast |(g2_fwd - g2_bwd) / (g2_fwd + g2_bwd)| in [0, 1].

    Defined where both g2 are finite and >= 0 and their sum is positive.
    Round-off can make a g2 negative: a sum <= 0 is refused first, then a
    negative or non-finite g2, each with :class:`UndefinedRatioError`.
    """
    total = g2_fwd + g2_bwd
    if total <= 0:
        raise UndefinedRatioError(
            f"nonreciprocal ratio is undefined: g2_fwd + g2_bwd = {total} is not positive"
        )
    for name, g2 in (("g2_fwd", g2_fwd), ("g2_bwd", g2_bwd)):
        # nan fails the comparison too
        if not 0 <= g2 < math.inf:
            raise UndefinedRatioError(
                f"nonreciprocal ratio is undefined: {name} = {g2} is not a finite number >= 0"
            )
    return abs((g2_fwd - g2_bwd) / total)


@dataclass(frozen=True)
class PointResult:
    """Everything measured at one parameter point, both drive directions.

    ``fwd`` quantities are for drive left (output mode c), ``bwd`` for
    drive right (output mode a).  Fields are None when a direction was not
    requested or failed, and g<n> is None unless the output mode has more
    than n levels; failures are described in ``error_fwd`` /
    ``error_bwd`` and never replaced by fabricated values.
    """

    t_fwd: float | None = None
    t_bwd: float | None = None
    g2_fwd: float | None = None
    g2_bwd: float | None = None
    g3_fwd: float | None = None
    g3_bwd: float | None = None
    isolation: float | None = None
    ratio: float | None = None
    p_m_fwd: tuple[float, ...] | None = None
    p_m_bwd: tuple[float, ...] | None = None
    n_a_fwd: float | None = None
    n_b_fwd: float | None = None
    n_c_fwd: float | None = None
    n_a_bwd: float | None = None
    n_b_bwd: float | None = None
    n_c_bwd: float | None = None
    residual_fwd: float | None = None
    residual_bwd: float | None = None
    drift_t_fwd: float | None = None
    drift_t_bwd: float | None = None
    drift_g2_fwd: float | None = None
    drift_g2_bwd: float | None = None
    drift_g3_fwd: float | None = None
    drift_g3_bwd: float | None = None
    error_fwd: str | None = None
    error_bwd: str | None = None
    notes: str | None = None
