"""Preconditioned conjugate gradients; ``precond`` is None (plain CG) or an
object with an ``apply(r)`` method, such as those of preconditioners.py.

The solver starts from the zero initial guess and stops when the true
(unpreconditioned) relative residual ||r_k|| / ||r_0|| drops to the
requested tolerance; preconditioning only redirects the search directions.
Hitting the iteration cap, or a search direction along which the operator
is not positive definite, returns the current iterate with the report's
``reason`` saying so, never an exception.  A non-finite right-hand side is
rejected before iterating; a finite one is scaled by a power of two to a
largest entry in [1/2, 1), so that no norm or inner product under- or
overflows.  The dense baseline is ``np.linalg.solve`` on
``assembly.materialize_dense``.

The solve holds the OpenBLAS that numpy links to one thread in the calling
thread.  OpenBLAS splits ddot over its pool above 10000 entries, and the
woken pool then spins on a second core between the solver's reductions.
On a 2-vCPU x86-64 host the M = 16383 / M = 8191 solve-time ratio of
``test_asymptotic_cost_of_pcg`` exceeded its 2.6 limit in 4 of 8 runs with
the default pool of two and stayed at or below 2.54 in 8 of 8 runs with
one thread.  One thread also gives every reduction the rounding of
single-threaded runs, whatever the pool size.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class SolveReport:
    """Iteration count, per-iteration relative residuals, wall time, reason.

    ``reason`` is "converged", "max_iter" or "breakdown" (p.Ap not positive).
    """

    iterations: int
    relative_residuals: np.ndarray
    wall_time: float
    reason: str

    @property
    def converged(self) -> bool:
        return self.reason == "converged"


@functools.cache
def _numpy_openblas():
    """numpy's bundled OpenBLAS, opened with ctypes, or None.

    numpy's wheels ship it as ``numpy.libs/libscipy_openblas*``; a numpy
    linked to another BLAS has no such library.
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            continue
    return None


@functools.cache
def _openblas_threads_local():
    """``openblas_set_num_threads_local`` of numpy's bundled OpenBLAS, or None.

    It sets the pool size for the calling thread only and returns the
    previous size.
    """
    setter = getattr(_numpy_openblas(), "openblas_set_num_threads_local", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


@contextlib.contextmanager
def _one_blas_thread():
    setter = _openblas_threads_local()
    previous = setter(1) if setter else None
    try:
        yield
    finally:
        if setter:
            setter(previous)


def check_stopping_rule(tol: float, max_iter: int | None) -> None:
    """Raise ValueError unless 0 < tol < 1 and max_iter is None or at least 1.

    A tolerance of 0, below 0 or NaN is never met, so PCG would run until
    it breaks down; one of 1 or more is met before any progress.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must be finite and in (0, 1), got {tol}")
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"max_iter must be None or at least 1, got {max_iter}")


@_one_blas_thread()
def pcg_solve(op, F, precond, tol: float = 1e-9, max_iter: int | None = None):
    """Preconditioned conjugate gradients for s.p.d. systems.

    ``op`` is an assembled OperatorMatrix.  ``precond`` is None (plain CG)
    or an object whose ``apply`` method applies an s.p.d. approximation of
    the inverse; anything else raises TypeError.  Deterministic; the factor
    matrices never appear explicitly.  The updates of x, r and p are in
    place, through one work vector, with the same rounding as the
    out-of-place expressions.
    """
    check_stopping_rule(tol, max_iter)
    F = np.asarray(F, dtype=float)
    if not np.all(np.isfinite(F)):
        raise ValueError("right-hand side has non-finite entries")
    apply_m = getattr(precond, "apply", None)
    if apply_m is None and precond is not None:
        raise TypeError(f"cannot interpret {type(precond)!r} as a preconditioner")
    if max_iter is None:
        max_iter = 4 * F.size + 100

    # A power of two scales every iterate exactly; x is scaled back on return.
    e = math.frexp(float(np.max(np.abs(F), initial=0.0)))[1]
    F = np.ldexp(F, -e)

    start = time.perf_counter()
    x = np.zeros_like(F)
    r = F.copy()
    r0 = float(np.linalg.norm(r))
    if r0 == 0.0:
        return x, SolveReport(0, np.empty(0), time.perf_counter() - start, "converged")

    z = apply_m(r) if apply_m else r
    p = z.copy()
    work = np.empty_like(F)
    rz = float(r @ z)
    residuals = []
    converged = False
    k = 0
    while k < max_iter:
        Ap = op.matvec(p)
        curvature = float(p @ Ap)
        if not 0.0 < curvature < math.inf:
            break  # not positive definite along p: stop unconverged
        alpha = rz / curvature
        x += np.multiply(p, alpha, out=work)
        r -= np.multiply(Ap, alpha, out=work)
        k += 1
        rel = float(np.linalg.norm(r)) / r0
        residuals.append(rel)
        if rel <= tol:
            converged = True
            break
        z = apply_m(r) if apply_m else r
        rz_new = float(r @ z)
        p *= rz_new / rz
        np.add(z, p, out=p)
        rz = rz_new
    # Breakdown leaves the loop before k reaches the cap.
    reason = "converged" if converged else "max_iter" if k >= max_iter else "breakdown"
    return np.ldexp(x, e), SolveReport(k, np.asarray(residuals), time.perf_counter() - start,
                                       reason)
