#!/usr/bin/env python3
"""Fast solvers: FFT matvec, conjugate gradients, and the two preconditioners.

The stiffness matrix supports O(M log M) products through circulant
embedding, so Krylov iteration beats Gaussian elimination by orders of
magnitude once M grows.  Plain CG needs O(h^{-beta/2})-ish iterations; the
diagonally compensated banded Cholesky and the closest-circulant
preconditioner both collapse that to a few dozen or less.
"""

import time

import numpy as np

from templap import (
    Grid,
    SchemeParams,
    assemble_operator,
    build_band_compensated_ichol,
    build_tchan_precond,
    example1_f,
    materialize_dense,
    pcg_solve,
)

params = SchemeParams(beta=1.5, lam=0.5, s=1, s1=1)

print("solver comparison (problem 1 source, tolerance 1e-9)\n")
print(f"{'M':>6} {'CG':>12} {'PCG banded':>14} {'PCG circulant':>15} {'Gauss':>10}")
for J in (10, 11, 12):
    M = 2 ** J - 1
    grid = Grid(0.0, 1.0, M)
    op = assemble_operator(params, grid)
    F = example1_f(params, grid)

    _, plain = pcg_solve(op, F, None)
    _, banded = pcg_solve(op, F, build_band_compensated_ichol(op, k=10))
    _, circ = pcg_solve(op, F, build_tchan_precond(op))

    start = time.perf_counter()
    np.linalg.solve(materialize_dense(op), F)
    gauss_time = time.perf_counter() - start

    fmt = lambda rep: f"{rep.iterations:4d} it {rep.wall_time*1e3:6.1f}ms"
    print(f"{M:>6} {fmt(plain):>12} {fmt(banded):>14} {fmt(circ):>15} "
          f"{gauss_time*1e3:8.1f}ms")

# The circulant preconditioner works because it clusters the spectrum near 1.
import scipy.linalg

grid = Grid(0.0, 1.0, 255)
op = assemble_operator(params, grid)
H = materialize_dense(op)
C = build_tchan_precond(op)
B = scipy.linalg.circulant(C.first_col)
ev_raw = np.linalg.eigvalsh(H)
ev_pre = scipy.linalg.eigvalsh(H, (B + B.T) / 2)
print(f"\nspectrum at M=255: raw in [{ev_raw[0]:.3f}, {ev_raw[-1]:.3f}], "
      f"preconditioned in [{ev_pre[0]:.3f}, {ev_pre[-1]:.3f}]")
print(f"preconditioned eigenvalues within [0.5, 1.5]: "
      f"{100 * np.mean((ev_pre >= 0.5) & (ev_pre <= 1.5)):.1f}%")
