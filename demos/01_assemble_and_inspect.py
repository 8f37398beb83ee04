#!/usr/bin/env python3
"""Assemble the tempered fractional Laplacian stiffness matrix and inspect it.

The matrix is dense (the operator is nonlocal) but highly structured: a
diagonal plus a symmetric Toeplitz part, so 2M floats describe the whole
thing.  This script builds a small operator, verifies the M-matrix sign
pattern and diagonal dominance by eye, shows the off-diagonal decay, and
writes the binary system dump used for cross-implementation diffing.
"""

import os
import tempfile

import numpy as np

from templap import (
    BoundarySpec,
    Grid,
    SchemeParams,
    assemble_operator,
    assemble_rhs,
    materialize_dense,
    offdiag_row_sums,
    read_system_dump,
    write_system_dump,
)

params = SchemeParams(beta=0.5, lam=3.0, s=1, s1=1)
grid = Grid(0.0, 1.0, 15)
op = assemble_operator(params, grid)

print(f"order beta={params.beta}, tempering lam={params.lam}, "
      f"selectors (s, s1)=({params.s}, {params.s1})")
print(f"grid: ({grid.a}, {grid.b}) with M={grid.M} interior nodes, h={grid.h:.4f}")
print(f"normalization constant applied to the operator: {params.cbeta:.10f}")

print("\ndiagonal entries (all positive, palindromic):")
print(np.array2string(op.diag, precision=4))
print("\nToeplitz column, lags 1..6 (all negative, decaying like m^-(1+beta)):")
print(np.array2string(op.toeplitz_col[1:7], precision=6))

surplus = op.diag + offdiag_row_sums(op.toeplitz_col) - op.tails
print(f"\nrow sums minus kernel tails (strict dominance margin): "
      f"min = {surplus.min():.6f} > 0")

dense = materialize_dense(op)
print(f"dense symmetric check: {np.array_equal(dense, dense.T)}")

# Exterior data enters the load vector through kernel-weighted integrals.
g = lambda y: np.where((np.asarray(y) >= -0.5) & (np.asarray(y) <= 0.0), 1.0, 0.0)
boundary = BoundarySpec(exterior_g=g, u_a=1.0, u_b=0.0, support=(-0.5, 1.0))
F = assemble_rhs(np.ones(grid.M), boundary, params, grid)
print(f"\nload vector with exterior data (first three rows): {F[:3]}")

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "templap_system.tflap")
    write_system_dump(path, op, F)
    diag, col, load = read_system_dump(path)
print("binary dump round trip: "
      f"{np.array_equal(diag, op.diag) and np.array_equal(load, F)}")
