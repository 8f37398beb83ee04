"""Conjugate gradient behavior and the dense baseline."""

from types import SimpleNamespace

import numpy as np
import pytest

from templap import (
    Grid,
    OperatorMatrix,
    SchemeParams,
    assemble_operator,
    build_tchan_precond,
    materialize_dense,
    pcg_solve,
)
from templap.solvers import _openblas_threads_local


def diagonal_operator(diag):
    diag = np.asarray(diag, dtype=float)
    M = diag.size
    grid = Grid(0.0, 1.0, M)
    params = SchemeParams(beta=0.5, s=0, s1=0)
    zeros = np.zeros(M)
    return OperatorMatrix(diag=diag, toeplitz_col=zeros.copy(), tails_left=zeros,
                          tails_right=zeros, params=params, grid=grid)


class TestCG:
    def test_identity_system_converges_immediately(self):
        op = diagonal_operator(np.ones(16))
        F = np.arange(1.0, 17.0)
        U, rep = pcg_solve(op, F, None, tol=1e-12)
        assert rep.iterations == 1
        assert rep.converged and rep.reason == "converged"
        np.testing.assert_allclose(U, F, rtol=1e-12)

    def test_finite_termination_four_distinct_eigenvalues(self):
        diag = np.repeat([1.0, 2.0, 5.0, 10.0], 8)
        op = diagonal_operator(diag)
        rng = np.random.default_rng(0)
        F = rng.standard_normal(32)
        U, rep = pcg_solve(op, F, None, tol=1e-12)
        assert rep.iterations <= 4
        np.testing.assert_allclose(U, F / diag, rtol=1e-10)

    def test_iteration_cap_flags_not_raises(self):
        grid = Grid(0.0, 1.0, 63)
        op = assemble_operator(SchemeParams(beta=1.5, lam=0.0, s=1, s1=1), grid)
        F = np.ones(grid.M)
        for cap in (1, 3):
            U, rep = pcg_solve(op, F, None, tol=1e-14, max_iter=cap)
            assert rep.iterations == cap
            assert not rep.converged and rep.reason == "max_iter"
            assert np.all(np.isfinite(U))

    @pytest.mark.parametrize("tol, max_iter", [(0.0, None), (-1.0, None), (float("nan"), None),
                                               (float("inf"), None), (1.0, None),
                                               (1e-9, 0), (1e-9, -3)])
    def test_rejects_a_stopping_rule_that_cannot_work(self, tol, max_iter):
        # A tolerance of 0, below 0 or NaN is never met; one of 1 or more,
        # or a cap below one iteration, ends the solve before it starts.
        with pytest.raises(ValueError):
            pcg_solve(diagonal_operator(np.ones(8)), np.ones(8), None, tol=tol, max_iter=max_iter)

    def test_zero_rhs(self):
        op = diagonal_operator(np.ones(8))
        U, rep = pcg_solve(op, np.zeros(8), None)
        assert rep.iterations == 0 and rep.reason == "converged"
        np.testing.assert_array_equal(U, np.zeros(8))

    def test_residual_sequence_contract(self):
        grid = Grid(0.0, 1.0, 127)
        op = assemble_operator(SchemeParams(beta=0.5, lam=0.5, s=0, s1=0), grid)
        _, rep = pcg_solve(op, np.ones(grid.M), None, tol=1e-9)
        assert rep.converged and rep.relative_residuals[-1] <= 1e-9
        assert len(rep.relative_residuals) == rep.iterations


class TestPCG:
    def test_exact_inverse_preconditioner_two_iterations(self):
        grid = Grid(0.0, 1.0, 31)
        op = assemble_operator(SchemeParams(beta=0.5, lam=1.0, s=0, s1=0), grid)
        dense = materialize_dense(op)
        inv = np.linalg.inv(dense)
        F = np.sin(np.arange(grid.M, dtype=float))
        exact = SimpleNamespace(apply=lambda r: inv @ r)
        _, rep = pcg_solve(op, F, precond=exact, tol=1e-10)
        assert rep.iterations <= 2

    def test_all_solvers_agree_with_direct(self):
        grid = Grid(0.0, 1.0, 255)
        op = assemble_operator(SchemeParams(beta=0.5, lam=0.5, s=0, s1=0), grid)
        F = np.cos(np.linspace(0.0, 3.0, grid.M))
        U_direct = np.linalg.solve(materialize_dense(op), F)
        U_pcg, rep = pcg_solve(op, F, build_tchan_precond(op), tol=1e-9)
        U_cg, rep_cg = pcg_solve(op, F, None, tol=1e-9)
        assert rep.converged and rep_cg.converged
        for U in (U_pcg, U_cg):
            rel = np.linalg.norm(U - U_direct) / np.linalg.norm(U_direct)
            assert rel <= 1e-7

    def test_plain_cg_needs_about_a_thousand_iterations_for_steep_orders(self):
        # At beta = 1.5 the spectrum spreads like h^{-1.5}, so unpreconditioned
        # CG at M = 4095 lands in the low thousands of iterations.
        from templap import example1_f

        grid = Grid(0.0, 1.0, 4095)
        params = SchemeParams(beta=1.5, lam=0.5, s=1, s1=1)
        op = assemble_operator(params, grid)
        _, rep = pcg_solve(op, example1_f(params, grid), None, tol=1e-9)
        assert rep.converged
        assert 1000 <= rep.iterations <= 3000

    def test_rejects_unknown_precond_type(self):
        # A preconditioner is None or an object with ``apply``; a bare
        # callable is not one.
        op = diagonal_operator(np.ones(8))
        for precond in (1234, lambda r: r):
            with pytest.raises(TypeError):
                pcg_solve(op, np.ones(8), precond=precond)

    def test_rejects_nonfinite_rhs_before_iterating(self):
        op = diagonal_operator(np.ones(8))
        for bad in (np.nan, np.inf):
            F = np.ones(8)
            F[3] = bad
            with pytest.raises(ValueError, match="non-finite"):
                pcg_solve(op, F, precond=None)

    def test_nonpositive_curvature_stops_unconverged(self):
        # p.Ap = 0 on the first direction: stop with the report flagged
        # instead of dividing by zero.
        op = diagonal_operator(np.zeros(8))
        U, rep = pcg_solve(op, np.ones(8), None)
        assert not rep.converged and rep.reason == "breakdown"
        assert rep.iterations == 0 and len(rep.relative_residuals) == 0
        np.testing.assert_array_equal(U, np.zeros(8))

    def test_openblas_held_to_one_thread_during_the_solve(self):
        # Each setter call returns the calling thread's previous pool size:
        # 1 inside the solve, the caller's own size again after it, also
        # when the solve raises.
        setter = _openblas_threads_local()
        if setter is None:
            pytest.skip("numpy is not linked to its bundled OpenBLAS")
        seen = []

        class Probe:
            def apply(self, r):
                seen.append(setter(1))
                return r

        before = setter(2)
        try:
            _, rep = pcg_solve(diagonal_operator(np.arange(1.0, 9.0)), np.ones(8), Probe())
            after_solve = setter(2)
            with pytest.raises(ValueError):
                pcg_solve(diagonal_operator(np.ones(8)), np.full(8, np.nan), Probe())
            after_error = setter(2)
        finally:
            setter(before)
        assert rep.converged and seen and set(seen) == {1}
        assert after_solve == after_error == 2


class TestDense:
    def test_direct_residual_quality(self):
        grid = Grid(0.0, 1.0, 255)
        op = assemble_operator(SchemeParams(beta=1.5, lam=3.0, s=1, s1=1), grid)
        dense = materialize_dense(op)
        F = np.ones(grid.M)
        U = np.linalg.solve(dense, F)
        assert np.linalg.norm(dense @ U - F) / np.linalg.norm(F) <= 1e-12
