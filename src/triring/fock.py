"""Dense operator algebra on truncated multi-mode Fock spaces.

Every operator carries the composite space it acts on, so dimension
mismatches surface as errors instead of silent broadcasting.  Mode 0 is
the leftmost Kronecker factor: for ``A = tensor(B, C)`` the matrix
element convention is ``A[i*dC + k, j*dC + l] = B[i, j] * C[k, l]``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import prod

import numpy as np

from .errors import InvalidDimensionError, InvalidEmbeddingError, SpaceMismatchError

__all__ = [
    "ModeSpace",
    "CompositeSpace",
    "Operator",
    "annihilation",
    "creation",
    "number",
    "identity",
    "tensor",
    "embed",
    "adjoint",
    "basis_index",
    "basis_state",
]


def _is_integral(value) -> bool:
    # bool is an int subclass, and 4.0 is as good as 4; 4.7 and "4" are not
    if isinstance(value, bool):
        return False
    return isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and value.is_integer()
    )


def _whole_number(value, what: str, error: type[Exception], minimum: int = 0) -> int:
    """``value`` as an int; ``error`` naming ``what`` unless it is a whole
    number >= ``minimum``.  The integer twin of :func:`_finite_float`: 4.0
    and ``np.int64(4)`` are 4; a bool, a string and 4.5 are refused."""
    if not _is_integral(value) or value < minimum:
        raise error(f"{what} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


def _mode_index(mode, n_modes: int, error: type[Exception]) -> int:
    """``mode`` as an int; ``error`` unless it is a whole number below
    ``n_modes``.  Messages print the normalized index (1, not 1.0)."""
    mode = _whole_number(mode, "mode index", error)
    if mode >= n_modes:
        raise error(f"mode index {mode} out of range for {n_modes} modes")
    return mode


def _flag(value, what: str, error: type[Exception]) -> bool:
    """``value`` itself; ``error`` naming ``what`` unless it is a bool."""
    # bool() would turn the string "false" into True
    if not isinstance(value, bool):
        raise error(f"{what} must be true or false, got {value!r}")
    return value


def _finite_float(value, what: str, error: type[Exception]) -> float:
    """``value`` as a float; ``error`` naming ``what`` unless it is a finite number."""
    # float() would turn True/False into 1.0/0.0 and read "0.1"; a number
    # given as a JSON string is refused, as the integer inputs refuse "3"
    if isinstance(value, (bool, np.bool_, str, bytes)):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise error(f"{what} must be a number, got {value!r}") from None
    # json reads NaN, Infinity and -Infinity
    if not math.isfinite(number):
        raise error(f"{what} must be a finite number, got {value!r}")
    return number


def _member(enum, value, what: str, error: type[Exception]):
    """``enum(value)``: a member or its value; ``error`` naming ``what``
    and the values the enum takes otherwise."""
    try:
        return enum(value)
    except ValueError:
        raise error(
            f"{what} must be a {enum.__name__} or one of "
            f"{[m.value for m in enum]}, got {value!r}"
        ) from None


def _square(space: CompositeSpace, data, what: str) -> np.ndarray:
    """``data`` as a complex array; :class:`SpaceMismatchError` naming
    ``what`` unless it is ``space.dim x space.dim``."""
    data = np.asarray(data, dtype=complex)
    d = space.dim
    if data.shape != (d, d):
        raise SpaceMismatchError(f"{what} has shape {data.shape}, space dimension is {d}")
    return data


def _same_space(space: CompositeSpace, other: CompositeSpace, what: str) -> None:
    """:class:`SpaceMismatchError` naming ``what`` and both spaces unless
    ``space == other``."""
    if space != other:
        raise SpaceMismatchError(f"{what}: {space.mode_dims} vs {other.mode_dims}")


@dataclass(frozen=True)
class ModeSpace:
    """A single bosonic mode keeping the Fock states |0> ... |dim-1>."""

    dim: int

    def __post_init__(self):
        # ladder operators need at least the levels |0> and |1>
        dim = _whole_number(self.dim, "mode dim", InvalidDimensionError, minimum=2)
        object.__setattr__(self, "dim", dim)


@dataclass(frozen=True)
class CompositeSpace:
    """Ordered tensor product of truncated modes.

    Dimension-1 entries are allowed as padding for decoupled modes;
    ladder operators cannot be built on them.  Every entry must be a whole
    number >= 1 (4.0 and ``np.int64(4)`` are stored as 4), else
    :class:`InvalidDimensionError`.

    The space is the one place that knows the basis layout: basis state
    |n_0, n_1, ...> sits at flat index sum_k n_k * ``strides[k]``, and
    ``occupations`` tabulates every state's n_k in flat-index order.  The
    model builds its operators from that table and places their entries
    with ``_transitions``; the diagonal observables sum ``diag(rho)`` over
    the table.
    """

    mode_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.mode_dims)
        if not dims:
            raise InvalidDimensionError("a composite space needs at least one mode")
        dims = tuple(
            _whole_number(d, f"mode_dims[{k}]", InvalidDimensionError, minimum=1)
            for k, d in enumerate(dims)
        )
        object.__setattr__(self, "mode_dims", dims)

    @classmethod
    def single(cls, dim: int) -> "CompositeSpace":
        return cls((ModeSpace(dim).dim,))

    @property
    def dim(self) -> int:
        return prod(self.mode_dims)

    @property
    def n_modes(self) -> int:
        return len(self.mode_dims)

    @property
    def strides(self) -> tuple[int, ...]:
        """Each mode's step in the flat index: mode 0 is the slowest, so
        lowering mode k maps basis state i to i - ``strides[k]``."""
        return tuple(prod(self.mode_dims[k + 1:]) for k in range(self.n_modes))

    @cached_property
    def occupations(self) -> np.ndarray:
        """``n_modes x dim`` integer table: column i holds the occupation
        numbers of basis state i.  Formed once per space and read-only, as
        every operator and observable on the space shares it."""
        table = np.indices(self.mode_dims)
        # on the array that owns the data, so the view cannot be made writeable
        table.flags.writeable = False
        return table.reshape(self.n_modes, -1)

    def _transitions(self, lower: int, raise_: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)``: ``cols`` the ascending flat indices of every
        state n with a photon in mode ``lower`` and, if ``raise_`` is given,
        room for one more in mode ``raise_``; ``rows`` those of
        n - e_lower (+ e_raise).  The box's cap n < mode_dims - 1 lives here."""
        n = self.occupations
        mask = n[lower] > 0
        step = self.strides[lower]
        if raise_ is not None:
            mask &= n[raise_] < self.mode_dims[raise_] - 1
            step -= self.strides[raise_]
        cols = np.flatnonzero(mask)
        return cols - step, cols


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix tagged with its composite space."""

    space: CompositeSpace
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _square(self.space, self.data, "operator data"))

    def dag(self) -> "Operator":
        return adjoint(self)

    def _same_space(self, other: "Operator"):
        _same_space(self.space, other.space, "operands act on different spaces")

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._same_space(other)
        return Operator(self.space, self.data + other.data)

    def __sub__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._same_space(other)
        return Operator(self.space, self.data - other.data)

    def __neg__(self):
        return Operator(self.space, -self.data)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return Operator(self.space, self.data * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._same_space(other)
        return Operator(self.space, self.data @ other.data)


def annihilation(dim: int) -> Operator:
    """Single-mode lowering operator with <m-1| a |m> = sqrt(m)."""
    space = CompositeSpace.single(dim)
    return Operator(space, np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1))


def creation(dim: int) -> Operator:
    """Adjoint of :func:`annihilation`."""
    return adjoint(annihilation(dim))


def number(dim: int) -> Operator:
    """Occupation operator diag(0, 1, ..., dim-1)."""
    space = CompositeSpace.single(dim)
    return Operator(space, np.diag(np.arange(dim, dtype=float)))


def identity(dim: int) -> Operator:
    """Identity on one mode; ``dim`` is a whole number >= 1, else
    :class:`InvalidDimensionError`."""
    dim = _whole_number(dim, "identity dim", InvalidDimensionError, minimum=1)
    return Operator(CompositeSpace((dim,)), np.eye(dim, dtype=complex))


def adjoint(op: Operator) -> Operator:
    """Conjugate transpose."""
    return Operator(op.space, op.data.conj().T.copy())


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; the result space concatenates the operand modes."""
    space = CompositeSpace(a.space.mode_dims + b.space.mode_dims)
    return Operator(space, np.kron(a.data, b.data))


def embed(op: Operator, mode_index: int, space: CompositeSpace) -> Operator:
    """Lift a single-mode operator to ``space``, acting as identity elsewhere.

    ``mode_index`` is a whole number below ``space.n_modes``, else
    :class:`InvalidEmbeddingError`.
    """
    if op.space.n_modes != 1:
        raise InvalidEmbeddingError(
            f"only single-mode operators can be embedded, got {op.space.n_modes} modes"
        )
    mode_index = _mode_index(mode_index, space.n_modes, InvalidEmbeddingError)
    if op.space.mode_dims[0] != space.mode_dims[mode_index]:
        raise InvalidEmbeddingError(
            f"operator dimension {op.space.mode_dims[0]} does not match "
            f"mode {mode_index} dimension {space.mode_dims[mode_index]}"
        )
    factors = [
        op.data if k == mode_index else np.eye(d, dtype=complex)
        for k, d in enumerate(space.mode_dims)
    ]
    return Operator(space, reduce(np.kron, factors))


def basis_index(space: CompositeSpace, occupations) -> int:
    """Flat index of the basis state |n_0, n_1, ...> in ``space``.

    Each occupation is a whole number below its mode's truncation, else
    :class:`InvalidEmbeddingError`.
    """
    occ = tuple(occupations)
    if len(occ) != space.n_modes:
        raise InvalidEmbeddingError(
            f"expected {space.n_modes} occupation numbers, got {len(occ)}"
        )
    idx = 0
    for k, (n, d, stride) in enumerate(zip(occ, space.mode_dims, space.strides)):
        n = _whole_number(n, f"occupation of mode {k}", InvalidEmbeddingError)
        if n >= d:
            raise InvalidEmbeddingError(f"occupation {n} outside truncation {d}")
        idx += n * stride
    return idx


def basis_state(space: CompositeSpace, occupations) -> np.ndarray:
    """Unit column vector for the basis state |n_0, n_1, ...>."""
    vec = np.zeros(space.dim, dtype=complex)
    vec[basis_index(space, occupations)] = 1.0
    return vec
