"""Circulant and banded preconditioners: construction, contracts, effect."""

import numpy as np
import pytest
import scipy.linalg

from templap import (
    Grid,
    SchemeParams,
    assemble_operator,
    build_band_compensated_ichol,
    build_tchan_precond,
    cg_solve,
    extreme_eigs,
    materialize_dense,
    pcg_solve,
)
from templap.preconditioners import tchan_column


def example_op(beta=0.5, lam=0.5, M=255):
    s, s1 = (0, 0) if beta < 1 else (1, 1)
    grid = Grid(0.0, 1.0, M)
    return assemble_operator(SchemeParams(beta=beta, lam=lam, s=s, s1=s1), grid)


class TestTChanColumn:
    def test_four_point_example(self):
        c = tchan_column(np.array([2.0, 1.0, 0.5, 0.25]))
        np.testing.assert_allclose(c, [2.0, 0.8125, 0.5, 0.8125], rtol=1e-15)

    def test_constant_column_is_fixed_point(self):
        np.testing.assert_allclose(tchan_column(np.ones(7)), np.ones(7), rtol=1e-15)


class TestCirculant:
    def test_apply_matvec_round_trip(self):
        op = example_op()
        C = build_tchan_precond(op)
        B = scipy.linalg.circulant(C.first_col)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(op.M)
        np.testing.assert_allclose(C.apply(B @ v), v, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(B @ C.apply(v), v, rtol=1e-12, atol=1e-12)

    def test_spectrum_strictly_positive(self):
        for beta in (0.5, 1.0, 1.5):
            op = example_op(beta=beta, lam=3.0)
            C = build_tchan_precond(op)
            assert np.all(C.spectrum > 0.0)

    def test_indefinite_surrogate_rejected_with_index(self):
        from templap.assembly import OperatorMatrix

        grid = Grid(0.0, 1.0, 8)
        params = SchemeParams(beta=0.5, s=0, s1=0)
        col = np.zeros(8)
        col[1] = -5.0  # dominates the tiny averaged diagonal: indefinite circulant
        zeros = np.zeros(8)
        doctored = OperatorMatrix(diag=np.full(8, 0.1), toeplitz_col=col,
                                  tails_left=zeros, tails_right=zeros,
                                  params=params, grid=grid)
        with pytest.raises(ValueError, match="index"):
            build_tchan_precond(doctored)

    def test_eigenvalue_clustering_quantified(self):
        op = example_op(beta=0.5, lam=0.5, M=255)
        C = build_tchan_precond(op)
        H = materialize_dense(op)
        B = scipy.linalg.circulant(C.first_col)
        B = (B + B.T) / 2.0
        ev = scipy.linalg.eigvalsh(H, B)
        fraction = np.mean((ev >= 0.5) & (ev <= 1.5))
        assert fraction >= 0.90


class TestBandedCholesky:
    def test_row_sum_compensation(self):
        op = example_op(beta=0.5, lam=0.5, M=255)
        P = build_band_compensated_ichol(op, k=10)
        ones = np.ones(op.M)
        np.testing.assert_allclose(P.band_matvec(ones.copy()), op.matvec(ones),
                                   rtol=1e-12)

    def test_full_bandwidth_is_exact_inverse(self):
        op = example_op(beta=0.5, lam=1.0, M=32)
        P = build_band_compensated_ichol(op, k=op.M - 1)
        F = np.linspace(1.0, 2.0, op.M)
        _, rep = pcg_solve(op, F, P, tol=1e-10)
        assert rep.iterations <= 3

    def test_bandwidth_contract(self):
        op = example_op(M=31)
        for bad in (0, 31, 40):
            with pytest.raises(ValueError):
                build_band_compensated_ichol(op, k=bad)

    def test_nonpositive_pivot_raises(self):
        from templap.assembly import OperatorMatrix

        grid = Grid(0.0, 1.0, 8)
        params = SchemeParams(beta=0.5, s=0, s1=0)
        col = np.zeros(8)
        col[1] = -2.0
        zeros = np.zeros(8)
        sick = OperatorMatrix(diag=np.full(8, 0.5), toeplitz_col=col,
                              tails_left=zeros, tails_right=zeros,
                              params=params, grid=grid)
        with pytest.raises(ValueError, match="pivot"):
            build_band_compensated_ichol(sick, k=2)

    def test_conditioning_improvement(self):
        op = example_op(beta=0.5, lam=0.5, M=255)
        P = build_band_compensated_ichol(op, k=10)
        H = materialize_dense(op)
        G = np.zeros_like(H)
        for j in range(P.bandwidth + 1):
            vals = P.band[j, :op.M - j]
            G += np.diag(vals, -j)
            if j:
                G += np.diag(vals, j)
        lmin_h, lmax_h = extreme_eigs(H)
        ev = scipy.linalg.eigvalsh(H, G)
        cond_raw = lmax_h / lmin_h
        cond_pre = ev[-1] / ev[0]
        assert cond_raw / cond_pre >= 10.0


class TestEndToEnd:
    def test_circulant_iteration_counts_flat_across_levels(self):
        # The smooth-solution benchmark at beta = 0.5, lam = 0.5 takes eleven
        # circulant-preconditioned iterations, essentially independent of M.
        from templap import example1_f

        p = SchemeParams(beta=0.5, lam=0.5, s=0, s1=0)
        for J in (12, 13, 14):
            grid = Grid(0.0, 1.0, 2 ** J - 1)
            op = assemble_operator(p, grid)
            _, rep = pcg_solve(op, example1_f(p, grid), build_tchan_precond(op),
                               tol=1e-9)
            assert rep.converged
            assert abs(rep.iterations - 11) <= 3, (J, rep.iterations)

    def test_both_preconditioners_beat_plain_cg(self):
        op = example_op(beta=1.5, lam=0.5, M=511)
        F = np.ones(op.M)
        _, plain = cg_solve(op, F, tol=1e-9)
        _, ic = pcg_solve(op, F, build_band_compensated_ichol(op, 10), tol=1e-9)
        _, tc = pcg_solve(op, F, build_tchan_precond(op), tol=1e-9)
        assert ic.iterations < plain.iterations
        assert tc.iterations < plain.iterations
        assert plain.converged and ic.converged and tc.converged
