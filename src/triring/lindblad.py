"""Liouvillian construction, steady states, and a time-domain cross-check.

Vectorization is column-stacking throughout: vec(X) stacks the columns of
X, so vec(A X B) = (B^T kron A) vec(X).  With collapse operators C_k the
generator of d vec(rho)/dt = L vec(rho) is

    L = -i (I kron H - H^T kron I)
        + sum_k [ conj(C_k) kron C_k
                  - 1/2 I kron (C_k' C_k)
                  - 1/2 (C_k' C_k)^T kron I ].

``build_liouvillian`` adds these terms, each scaled, in this order (the H
part, then each C_k's three terms in list order) entry by entry from zero,
in one vectorized numpy pass on the union of the terms' positions, and
drops the entries that end exactly zero.  The union depends only on D and
the sparsity patterns of H, C_k and C_k'C_k, so the four unions used last
are kept in one least-recently-used cache.

The default steady-state solver replaces one Liouvillian row by the trace
functional and solves the resulting nonsingular sparse system with GMRES,
preconditioned by the exact inverse of the no-jump part of the generator
(a few dense D x D products per iteration).  It has no second path, so
a solve runs in bounded time and memory and a failure raises
``NoConvergenceError``.  A null-space extraction, a dense SVD of L up to
a fixed D^2, is kept as an independent method.  ``evolve`` integrates the
master equation in matrix form (never touching the superoperator),
providing a cross-check that shares no code path with the algebraic solvers.

scipy is imported by the functions that use it, on their first call, so
importing this module (and the package's CLI) loads none of it.  Each call
still looks ``scipy.sparse.linalg.gmres`` and ``numpy.linalg.eig`` up as
module attributes, so a patched attribute is the one that runs.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    InvalidDimensionError,
    NoConvergenceError,
    NonPhysicalStateError,
    NonUniqueSteadyStateError,
    SpaceMismatchError,
    StepTooLargeError,
)
from .fock import CompositeSpace, Operator, _finite_float, _flag

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "DensityMatrix",
    "Superoperator",
    "SteadyStateMethod",
    "SteadyStateOptions",
    "SolveDiagnostics",
    "vec",
    "unvec",
    "build_liouvillian",
    "trace_violation",
    "steady_state",
    "evolve",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_FLOOR = -1e-8

# largest D^2 the null-space method accepts: with one BLAS thread its dense
# SVD took 4.2 s and 287 MB at 1296 (3x4x3), but 116 s and 2.2 GB at 4096
_DENSE_NULLSPACE_LIMIT = 1296


class SteadyStateMethod(Enum):
    TRACE_CONSTRAINED = "trace-constrained"
    NULL_SPACE = "null-space"


@dataclass(frozen=True)
class SteadyStateOptions:
    """How :func:`steady_state` solves.

    ``method`` is a :class:`SteadyStateMethod` or its value
    (``"trace-constrained"``, ``"null-space"``), ``residual_tol`` a finite
    number > 0 and ``hermitize`` a bool; anything else is a ``ValueError``.
    """

    method: SteadyStateMethod = SteadyStateMethod.TRACE_CONSTRAINED
    residual_tol: float = 1e-10
    hermitize: bool = True

    def __post_init__(self):
        object.__setattr__(self, "method", SteadyStateMethod(self.method))
        _flag(self.hermitize, "hermitize", ValueError)
        tol = self.residual_tol
        # nan and inf share the message of <= 0: each lets any candidate pass
        if isinstance(tol, numbers.Real) and not 0 < tol < np.inf:
            raise ValueError(f"residual_tol must be finite and > 0, got {tol}")
        object.__setattr__(self, "residual_tol", _finite_float(tol, "residual_tol", ValueError))


@dataclass
class SolveDiagnostics:
    """Per-solve bookkeeping: residual and the corrections applied post-solve."""

    method: str
    residual: float
    residual_bound: float
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a space."""

    space: CompositeSpace
    data: np.ndarray = field(repr=False)
    diagnostics: SolveDiagnostics | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        d = self.space.dim
        if data.shape != (d, d):
            raise SpaceMismatchError(
                f"density matrix has shape {data.shape}, space dimension is {d}"
            )
        object.__setattr__(self, "data", data)

    @classmethod
    def from_array(
        cls,
        space: CompositeSpace,
        data: np.ndarray,
        *,
        enforce: bool = True,
        diagnostics: SolveDiagnostics | None = None,
    ) -> "DensityMatrix":
        """Wrap an array, optionally hermitizing and renormalizing the trace."""
        data = np.asarray(data, dtype=complex)
        if enforce:
            data = 0.5 * (data + data.conj().T)
            data = data / np.trace(data).real
        rho = cls(space, data, diagnostics)
        rho.validate()
        return rho

    def validate(self) -> None:
        _check_state(self.data)


def _check_state(data: np.ndarray) -> float:
    """Check hermiticity, trace and positivity; return the smallest eigenvalue."""
    herm = float(np.abs(data - data.conj().T).max())
    if herm >= HERMITICITY_TOL:
        raise NonPhysicalStateError(
            f"density matrix is not Hermitian: max |rho - rho'| = {herm:.3e}"
        )
    tr = complex(np.trace(data))
    if abs(tr - 1.0) >= TRACE_TOL:
        raise NonPhysicalStateError(
            f"density matrix trace deviates from one by {abs(tr - 1.0):.3e}"
        )
    lo = float(np.linalg.eigvalsh(0.5 * (data + data.conj().T)).min())
    if lo <= POSITIVITY_FLOOR:
        raise NonPhysicalStateError(
            f"density matrix has eigenvalue {lo:.3e} below the positivity floor"
        )
    return lo


@dataclass(frozen=True)
class Superoperator:
    """Sparse D^2 x D^2 generator acting on column-stacked density matrices.

    ``components`` optionally keeps the (H, collapse operators) the
    generator was assembled from; the steady-state solver uses them to
    build a no-jump preconditioner and never needs them for correctness.
    """

    space: CompositeSpace
    data: sp.csr_matrix = field(repr=False)
    components: tuple[Operator, tuple[Operator, ...]] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def dim(self) -> int:
        return self.space.dim ** 2

    def norm_fro(self) -> float:
        return float(np.sqrt((np.abs(self.data.data) ** 2).sum()))


def vec(matrix: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(matrix).reshape(-1, order="F")


def unvec(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(vector).reshape((dim, dim), order="F")


# the union structures (indptr, indices, per-term positions) last used, keyed
# by D^2 and the factor patterns, least recent first; four hold both drive
# sides of a point at its dims and at the dims + 1 of its convergence re-solve
_STRUCTURES: OrderedDict[tuple, tuple] = OrderedDict()


def _kron_values(a, b) -> np.ndarray:
    """The stored entries of kron(A, B), in scipy's COO order, formed with
    the expression (and so the numpy loop) scipy's kron uses."""
    x, y = a.data, b.data
    return (x.repeat(len(y)).reshape(len(x), len(y)) * y).ravel()


def _union_structure(n: int, terms: list) -> tuple:
    """CSR indptr/indices of the union of the kron(A, B) patterns, and where
    each product of each term lands in it (int32, in scipy's kron order)."""
    sizes = [a.nnz * b.nnz for a, b, _ in terms]
    stops = np.cumsum(sizes, dtype=np.int64)
    keys = np.empty(int(stops[-1]), dtype=np.int64)
    for (a, b, _), stop, size in zip(terms, stops, sizes):
        a, b = a.tocoo(), b.tocoo()
        d = b.shape[0]
        key = a.row.astype(np.int64)[:, None] * d + b.row
        key *= n
        key += a.col.astype(np.int64)[:, None] * d + b.col
        keys[stop - size : stop] = key.ravel()
    # a stable argsort instead of np.unique(return_inverse=True): same
    # result, a fraction of the time and no larger transient memory
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    rank = np.cumsum(first, dtype=np.int32)
    rank -= 1
    where = np.empty(len(order), dtype=np.int32)
    where[order] = rank
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return indptr.astype(np.int32), (keys % n).astype(np.int32), np.split(where, stops[:-1])


def _structure(n: int, terms: list) -> tuple:
    """The union structure for these terms' factor patterns, cached or built."""
    key = (n, *(p.tobytes() for a, b, _ in terms for m in (a, b) for p in (m.indptr, m.indices)))
    # each step is one dict operation: a concurrent call may rebuild a
    # structure another call has popped, but never sees a broken entry
    entry = _STRUCTURES.pop(key, None)
    if entry is None:
        entry = _union_structure(n, terms)
    _STRUCTURES[key] = entry
    while len(_STRUCTURES) > 4:
        _STRUCTURES.popitem(last=False)
    return entry


def build_liouvillian(hamiltonian: Operator, c_ops: list[Operator]) -> Superoperator:
    """Assemble the sparse Lindblad generator from H and collapse operators.

    L is the sum of these scaled Kronecker terms, added entry by entry from
    zero in this order:

        -1j kron(I, H),  +1j kron(H^T, I),
        then for each C in list order:
          kron(conj(C), C),  -0.5 kron(I, C'C),  -0.5 kron((C'C)^T, I)

    with entries that end exactly zero dropped.  Each term is formed as
    scipy's kron forms it, C'C with scipy's sparse product.  The order is
    part of the contract: on the ring model's operators the result equals,
    bit for bit, scipy's chain ``-1j * (kron(I, H) - kron(H^T, I))``, then
    ``+ kron(conj(C), C) - 0.5 kron(I, C'C) - 0.5 kron((C'C)^T, I)`` per C.
    On other operators it has that chain's structure and nonzero
    components, but a component that ends exactly zero may differ in sign.

    The terms are added on the union of their positions, which depends only
    on D and the sparsity patterns of H, C and C'C; a sweep does not change
    them.  The four unions used last are kept in one least-recently-used
    cache, and a miss costs about as long as scipy's chain.  The returned
    matrix owns copies of the cached arrays.
    """
    import scipy.sparse as sp

    space = hamiltonian.space
    for op in c_ops:
        if op.space != space:
            raise SpaceMismatchError(
                "collapse operator space does not match the Hamiltonian: "
                f"{op.space.mode_dims} vs {space.mode_dims}"
            )
    d = space.dim
    n = d * d
    eye = sp.identity(d, format="csr", dtype=complex)
    h = sp.csr_matrix(hamiltonian.data)
    terms = [(eye, h, -1j), (h.T, eye, 1j)]
    for op in c_ops:
        c = sp.csr_matrix(op.data)
        cdc = (c.conj().T @ c).tocsr()
        terms += [(c.conj(), c, 1), (eye, cdc, -0.5), (cdc.T, eye, -0.5)]
    indptr, indices, positions = _structure(n, terms)

    # each term is formed only when it is added, to bound the memory held
    values = np.zeros(len(indices), dtype=complex)
    for (a, b, scale), where in zip(terms, positions):
        values[where] += scale * _kron_values(a, b)
    keep = values != 0
    if keep.all():
        indptr, indices = indptr.copy(), indices.copy()
    else:
        values, indices = values[keep], indices[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr].astype(np.int32)
    liouv = sp.csr_matrix((values, indices, indptr), shape=(n, n))
    return Superoperator(space, liouv, (hamiltonian, tuple(c_ops)))


def _trace_vector(dim: int) -> np.ndarray:
    v = np.zeros(dim * dim, dtype=complex)
    v[np.arange(dim) * (dim + 1)] = 1.0
    return v


def trace_violation(liouv: Superoperator) -> float:
    """Norm of vec(I)' L relative to ||L||_F; zero for a trace-preserving L."""
    d = liouv.space.dim
    row = liouv.data.T @ _trace_vector(d).conj()
    return float(np.linalg.norm(row) / max(liouv.norm_fro(), 1e-300))


def _finalize(
    liouv: Superoperator,
    raw: np.ndarray,
    opts: SteadyStateOptions,
    method: str,
) -> DensityMatrix:
    d = liouv.space.dim
    rho = unvec(raw, d)
    herm_defect = float(np.abs(rho - rho.conj().T).max())
    if opts.hermitize:
        rho = 0.5 * (rho + rho.conj().T)
    tr = complex(np.trace(rho))
    trace_defect = abs(tr - 1.0)
    if abs(tr) < 1e-14:
        raise NoConvergenceError(
            "steady-state candidate has (near-)zero trace and cannot be normalized",
            residual=float("inf"),
        )
    rho = rho / tr.real if opts.hermitize else rho / tr
    x = vec(rho)
    residual = float(np.linalg.norm(liouv.data @ x))
    bound = opts.residual_tol * liouv.norm_fro() * float(np.linalg.norm(x))
    if not np.isfinite(residual) or residual > bound:
        raise NoConvergenceError(
            f"steady-state residual {residual:.3e} exceeds bound {bound:.3e}",
            residual=residual,
            bound=bound,
        )
    diag = SolveDiagnostics(
        method=method,
        residual=residual,
        residual_bound=bound,
        hermiticity_defect=herm_defect,
        trace_defect=trace_defect,
        min_eigenvalue=_check_state(rho),
    )
    return DensityMatrix(liouv.space, rho, diag)


def _constrained_system(liouv: Superoperator):
    """Trace-constrained linear system (A, b) with A nonsingular for a
    generator whose kernel is one-dimensional.

    Only rows at density-matrix diagonal positions carry the left-kernel
    dependency sum_i L[i*(d+1), :] = 0; replacing any other row leaves
    that dependency in place and the constrained system singular.  Among
    the eligible rows the one with the largest diagonal magnitude is
    swapped for the trace functional.  A is applied as L x with entry k
    overwritten by the sum of x over the diagonal positions, so it holds no
    second copy of L.  For finite x that entry has the same bits as the
    matrix with row k replaced: a sparse row product adds the entries in
    index order to a zero accumulator, as the running sum plus 0 does (the
    0 turns an all-negative-zero sum into +0).  The built-in ``sum`` would
    not do: from Python 3.12 on it compensates float sums.
    """
    import scipy.sparse.linalg as spla

    d = liouv.space.dim
    n = d * d
    matrix = liouv.data.tocsr()
    diag_positions = np.arange(d) * (d + 1)
    k = int(diag_positions[np.argmax(np.abs(matrix.diagonal()[diag_positions]))])

    def apply(x):
        y = matrix @ x
        y[k] = np.add.accumulate(x[diag_positions])[-1] + 0
        return y

    constrained = spla.LinearOperator((n, n), matvec=apply, dtype=complex)
    rhs = np.zeros(n, dtype=complex)
    rhs[k] = 1.0
    return constrained, rhs


def _no_jump_preconditioner(liouv: Superoperator):
    """Exact inverse of the no-jump generator as a LinearOperator.

    With H_eff = H - (i/2) sum_k C_k'C_k diagonalized as V diag(lam) V^-1,
    the no-jump part L0(rho) = -i (H_eff rho - rho H_eff') inverts in a few
    dense D x D products: rho = V [ (V^-1 B V^-dag) / (-i (lam_i -
    conj(lam_j))) ] V'.  Near-zero denominators (undamped pairs) are
    clamped, which only weakens the preconditioner, never the solution.
    Raises ``NoConvergenceError`` naming the preconditioner step when the
    generator carries no H and collapse operators, or when H_eff has no
    usable eigendecomposition.
    """
    import scipy.sparse.linalg as spla

    if liouv.components is None:
        raise _no_convergence(
            liouv.dim, "preconditioner (the generator carries no H and collapse operators)"
        )
    hamiltonian, c_ops = liouv.components
    d = liouv.space.dim
    heff = hamiltonian.data.astype(complex, copy=True)
    for op in c_ops:
        heff -= 0.5j * (op.data.conj().T @ op.data)
    try:
        lam, v = np.linalg.eig(heff)
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise _no_convergence(
            liouv.dim, f"preconditioner (eigendecomposition of H_eff failed: {exc})"
        ) from exc
    cond = np.linalg.cond(v)
    if cond > 1e8:
        raise _no_convergence(
            liouv.dim, f"preconditioner (eigenvectors of H_eff have cond {cond:.1e} > 1e8)"
        )
    denom = -1j * (lam[:, None] - lam[None, :].conj())
    floor = 1e-6 * max(float(np.abs(denom).max()), 1.0)
    small = np.abs(denom) < floor
    if small.any():
        denom = np.where(small, floor, denom)
    v_dag = v.conj().T
    v_inv_dag = v_inv.conj().T

    def apply(y):
        b = y.reshape((d, d), order="F")
        x = v @ ((v_inv @ b @ v_inv_dag) / denom) @ v_dag
        return x.reshape(-1, order="F")

    n = d * d
    return spla.LinearOperator((n, n), matvec=apply, dtype=complex)


@functools.cache
def _gmres_rtol_keyword() -> str:
    """gmres's relative-tolerance keyword, chosen once, at the first solve.

    scipy < 1.12 spells it 'tol'.  Read from scipy's version rather than
    from the signature of ``gmres``, which a tracer or a test may have
    replaced by a wrapper when the first solve runs.
    """
    import scipy

    return "rtol" if np.lib.NumpyVersion(scipy.__version__) >= "1.12.0" else "tol"


def _gmres(constrained, rhs, preconditioner, rtol):
    import scipy.sparse.linalg as spla

    return spla.gmres(
        constrained, rhs, M=preconditioner, atol=0.0, restart=200, maxiter=5,
        **{_gmres_rtol_keyword(): rtol},
    )


def _no_convergence(n: int, step: str, residual=float("inf"), bound=None) -> NoConvergenceError:
    if n <= _DENSE_NULLSPACE_LIMIT:
        hint = "try the null-space method"
    else:
        hint = f"D^2 = {n} is too large for the null-space method (limit {_DENSE_NULLSPACE_LIMIT})"
    message = f"trace-constrained solve failed at the {step}; {hint}"
    return NoConvergenceError(message, residual, bound)


def _gmres_refined(constrained, rhs, preconditioner):
    """GMRES plus iterative refinement.

    Correlation tails (g3 at deep-blockade points) sit many orders below
    the leading density-matrix entries, so the solve is refined until the
    constrained residual is near machine precision, not just below the
    acceptance bound.  A failed first run raises; a failed refinement round
    keeps the previous iterate.
    """
    x, info = _gmres(constrained, rhs, preconditioner, rtol=1e-11)
    finite = bool(np.all(np.isfinite(x)))
    if info != 0 or not finite:
        raise _no_convergence(len(rhs), f"GMRES run (info={info}, finite={finite})")
    norm_rhs = float(np.linalg.norm(rhs))
    for _ in range(3):
        residual = rhs - constrained @ x
        if float(np.linalg.norm(residual)) <= 1e-14 * norm_rhs:
            break
        dx, info = _gmres(constrained, residual, preconditioner, rtol=1e-8)
        if info != 0 or not np.all(np.isfinite(dx)):
            break
        x = x + dx
    return x


def _solve_trace_constrained(liouv: Superoperator, opts: SteadyStateOptions) -> DensityMatrix:
    constrained, rhs = _constrained_system(liouv)
    preconditioner = _no_jump_preconditioner(liouv)
    x = _gmres_refined(constrained, rhs, preconditioner)
    try:
        return _finalize(liouv, x, opts, SteadyStateMethod.TRACE_CONSTRAINED.value)
    except NoConvergenceError as exc:
        raise _no_convergence(
            liouv.dim, f"acceptance check ({exc})", exc.residual, exc.bound
        ) from exc


def _solve_null_space(liouv: Superoperator, opts: SteadyStateOptions) -> DensityMatrix:
    n = liouv.dim
    if n > _DENSE_NULLSPACE_LIMIT:
        raise InvalidDimensionError(
            f"the null-space method takes a dense SVD of L; D^2 = {n} at mode dims "
            f"{liouv.space.mode_dims} exceeds its limit of {_DENSE_NULLSPACE_LIMIT}"
        )
    _, sigma, vh = np.linalg.svd(liouv.data.toarray())
    tol = max(1e-10 * sigma[0], 1e-300)
    kernel_dim = int(np.count_nonzero(sigma < tol))
    if kernel_dim > 1:
        raise NonUniqueSteadyStateError(
            f"Liouvillian kernel is {kernel_dim}-dimensional; "
            "the steady state is not unique"
        )
    return _finalize(liouv, vh[-1].conj(), opts, SteadyStateMethod.NULL_SPACE.value)


def steady_state(
    liouv: Superoperator, opts: SteadyStateOptions | None = None
) -> DensityMatrix:
    """Solve L vec(rho) = 0 with tr(rho) = 1.

    The returned state is hermitized and trace-renormalized, carries
    :class:`SolveDiagnostics`, and passes the density-matrix checks (run
    once per solve).  The trace-constrained method is preconditioned GMRES
    alone: it raises :class:`NoConvergenceError` naming the failed step
    (preconditioner, GMRES run, or a residual above ``residual_tol *
    ||L||_F * ||vec(rho)||``).  The null-space method raises
    :class:`InvalidDimensionError` above its dense-SVD size limit and
    :class:`NonUniqueSteadyStateError` when the kernel is degenerate.
    """
    opts = opts or SteadyStateOptions()
    if opts.method is SteadyStateMethod.TRACE_CONSTRAINED:
        return _solve_trace_constrained(liouv, opts)
    return _solve_null_space(liouv, opts)


def evolve(
    hamiltonian: Operator,
    c_ops: list[Operator],
    rho0: DensityMatrix,
    t_final: float,
    dt: float,
) -> DensityMatrix:
    """Fixed-step RK4 integration of the master equation in matrix form.

    Intentionally independent of :func:`build_liouvillian` so long-time
    integration can cross-check the direct steady-state solve.  The trace
    is renormalized whenever it drifts beyond 1e-12 in a step; a per-step
    drift above 1e-6 aborts with :class:`StepTooLargeError`.
    """
    dt = _finite_float(dt, "dt", ValueError)
    t_final = _finite_float(t_final, "t_final", ValueError)
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if t_final < dt:
        raise ValueError(f"t_final must be >= dt, got {t_final} < {dt}")
    n_full = int(_finite_float(t_final / dt, "t_final / dt", ValueError))
    space = hamiltonian.space
    if rho0.space != space:
        raise SpaceMismatchError("initial state space does not match the Hamiltonian")
    h = hamiltonian.data
    cs = [op.data for op in c_ops]
    cdags = [c.conj().T for c in cs]
    cdcs = [cd @ c for c, cd in zip(cs, cdags)]

    def rhs(rho):
        out = -1j * (h @ rho - rho @ h)
        for c, cdag, cdc in zip(cs, cdags, cdcs):
            out += c @ rho @ cdag - 0.5 * (cdc @ rho + rho @ cdc)
        return out

    rho = rho0.data.copy()
    remainder = t_final - n_full * dt
    # one step at a time: a long run builds no list of its steps first
    steps = itertools.repeat(dt, n_full)
    if remainder > 1e-12 * dt:
        steps = itertools.chain(steps, (remainder,))
    for h_step in steps:
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * h_step * k1)
        k3 = rhs(rho + 0.5 * h_step * k2)
        k4 = rhs(rho + h_step * k3)
        rho = rho + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        tr = np.trace(rho).real
        drift = abs(tr - 1.0)
        if drift > 1e-6:
            raise StepTooLargeError(
                f"trace drifted by {drift:.3e} in one step of size {h_step}; "
                "reduce dt"
            )
        if drift > 1e-12:
            rho = rho / tr
    return DensityMatrix.from_array(space, rho, enforce=True)
