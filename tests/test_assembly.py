"""Stiffness matrix and load vector: structure, oracles, and serialization."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from templap import (
    BoundarySpec,
    Grid,
    SchemeParams,
    assemble_operator,
    assemble_rhs,
    assembly,
    materialize_dense,
    offdiag_row_sums,
    read_system_dump,
    write_system_dump,
)
from templap.assembly import _exterior_load_profile
from templap.problems import example2_exterior


def sample_params():
    return [
        SchemeParams(beta=0.5, lam=0.0, s=0, s1=0),
        SchemeParams(beta=0.5, lam=3.0, s=1, s1=1),
        SchemeParams(beta=1.0, lam=0.5, s=0, s1=1),
        SchemeParams(beta=1.0, lam=2.0, s=1, s1=1),
        SchemeParams(beta=1.5, lam=0.0, s=1, s1=1),
        SchemeParams(beta=1.5, lam=1.0, s=0, s1=1),
    ]


class TestMatrixStructure:
    @pytest.mark.parametrize("p", sample_params(), ids=lambda p: f"b{p.beta}l{p.lam}s{p.s}{p.s1}")
    def test_m_matrix_sign_pattern_and_dominance(self, p):
        grid = Grid(0.0, 1.0, 63)
        op = assemble_operator(p, grid)
        assert np.all(op.toeplitz_col[1:] < 0.0)
        assert np.all(op.diag > 0.0)
        surplus = op.diag + offdiag_row_sums(op.toeplitz_col) - (op.tails_left + op.tails_right)
        assert np.all(surplus > 0.0)

    def test_diagonal_palindrome(self):
        grid = Grid(0.0, 1.0, 32)
        for p in sample_params():
            op = assemble_operator(p, grid)
            np.testing.assert_allclose(op.diag, op.diag[::-1], rtol=1e-13)

    def test_offdiagonal_decay_bound(self):
        grid = Grid(0.0, 1.0, 511)
        for p in sample_params():
            op = assemble_operator(p, grid)
            m = np.arange(2, grid.M)
            mags = -op.toeplitz_col[2:]
            envelope = m ** (-1.0 - p.beta) * np.exp(-p.lam * m * grid.h)
            C = 1.5 * (mags[0] / envelope[0])
            assert np.all(mags <= C * envelope)

    def test_gershgorin_floor(self):
        grid = Grid(0.0, 1.0, 63)
        for p in sample_params():
            op = assemble_operator(p, grid)
            floors = op.diag + offdiag_row_sums(op.toeplitz_col)
            assert np.all(floors > np.min(op.tails_left + op.tails_right))

    @pytest.mark.parametrize("beta,lam", [(0.5, 0.5), (1.5, 3.0)])
    def test_eigenvalue_scaling_across_levels(self, beta, lam):
        s, s1 = (0, 0) if beta < 1 else (1, 1)
        p = SchemeParams(beta=beta, lam=lam, s=s, s1=s1)
        lmins, lmaxs, hs = [], [], []
        for M in (31, 63, 127, 255):
            grid = Grid(0.0, 1.0, M)
            ev = np.linalg.eigvalsh(materialize_dense(assemble_operator(p, grid)))
            lmins.append(ev[0])
            lmaxs.append(ev[-1])
            hs.append(grid.h)
        assert max(lmins) / min(lmins) <= 2.0
        slope = -np.polyfit(np.log(hs), np.log(lmaxs), 1)[0]
        assert abs(slope - beta) <= 0.1


class TestBruteForceOracle:
    def test_full_system_small_grid(self):
        p = SchemeParams(beta=0.5, lam=1.3, s=1, s1=1)
        grid = Grid(0.0, 1.0, 7)
        M, h, xg = grid.M, grid.h, grid.nodes
        beta, lam, s, s1 = p.beta, p.lam, p.s, p.s1

        def q(f, lo, hi):
            return scipy.integrate.quad(f, lo, hi, epsabs=1e-14, epsrel=1e-13)[0]

        def A(kind, i, k):
            x_i, y0, y1 = xg[i], xg[k - 1], xg[k]
            f = {
                1: lambda y: (y1 - y) * (x_i - y) ** (s - 1 - beta),
                2: lambda y: (y - y0) * (x_i - y) ** (s - 1 - beta),
                3: lambda y: (y1 - y) * (y - x_i) ** (s - 1 - beta),
                4: lambda y: (y - y0) * (y - x_i) ** (s - 1 - beta),
            }[kind]
            return q(f, y0, y1) / h ** (s + 1)

        w_sing = h ** (-beta) * math.exp(-lam * h) / (s1 + 1 - beta)
        eps = lambda m: math.exp(-lam * m * h) / float(m) ** s

        def brute(i, j):
            if j == i:
                x_i = xg[i]
                tails = q(lambda t: math.exp(-lam * t) * t ** (-1 - beta), x_i, np.inf) \
                    + q(lambda t: math.exp(-lam * t) * t ** (-1 - beta), 1.0 - x_i, np.inf)
                acc = tails + 2.0 * w_sing
                for k in range(1, i):
                    acc += A(1, i, k) * eps(i - k + 1) + A(2, i, k) * eps(i - k)
                for k in range(i + 2, M + 2):
                    acc += A(3, i, k) * eps(k - 1 - i) + A(4, i, k) * eps(k - i)
                return acc
            if j == i - 1:
                return -(w_sing + A(2, i, i - 1) * math.exp(-lam * h))
            if j == i + 1:
                return -(w_sing + A(3, i, i + 2) * math.exp(-lam * h))
            if j < i:
                return -(A(1, i, j + 1) + A(2, i, j)) * eps(i - j)
            return -(A(3, i, j + 1) + A(4, i, j)) * eps(j - i)

        op = assemble_operator(p, grid)
        dense = materialize_dense(op) / p.cbeta
        for i in range(1, M + 1):
            for j in range(1, M + 1):
                assert dense[i - 1, j - 1] == pytest.approx(brute(i, j), rel=1e-9)


class TestBoundaryLoads:
    def test_zero_data_short_circuits(self):
        grid = Grid(0.0, 1.0, 7)
        p = SchemeParams(beta=0.5, lam=1.0, s=0, s1=0)
        for side in ("left", "right"):
            load = _exterior_load_profile(BoundarySpec(), p, grid, side)
            np.testing.assert_array_equal(load, np.zeros(grid.M))

    def test_left_piece_closed_form(self):
        # integral of (-2y)(1/2 - y)^{-3/2} over [-1/2, 0] equals 6 - 4 sqrt(2)
        p = SchemeParams(beta=0.5, lam=0.0, s=0, s1=0)
        grid = Grid(0.0, 1.0, 7)  # x_4 = 1/2
        boundary = BoundarySpec(exterior_g=example2_exterior, support=(-0.5, 1.5))
        d1 = _exterior_load_profile(boundary, p, grid, "left")[3]
        d2 = _exterior_load_profile(boundary, p, grid, "right")[3]
        assert d1 == pytest.approx(6.0 - 4.0 * math.sqrt(2.0), rel=1e-10)
        assert d2 > 0.0

    @pytest.mark.parametrize("beta", [0.05, 0.5, 1.0, 1.5, 1.95])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 3.0, 30.0])
    def test_tempered_loads_match_adaptive_quadrature(self, beta, lam):
        # g(y) e^{-lam |x - y|} |x - y|^{-1-beta} over each exterior piece.
        p = SchemeParams(beta=beta, lam=lam, s=1, s1=1)
        grid = Grid(0.0, 1.0, 15)
        boundary = BoundarySpec(exterior_g=example2_exterior, support=(-0.5, 1.5))
        pieces = {"left": (-0.5, 0.0), "right": (1.0, 1.5)}
        for side, (lo, hi) in pieces.items():
            load = _exterior_load_profile(boundary, p, grid, side)
            for i in (1, 8, 15):
                x = grid.interior[i - 1]
                integrand = lambda y: float(example2_exterior(y)) \
                    * math.exp(-lam * abs(x - y)) * abs(x - y) ** (-1.0 - beta)
                ref, _ = scipy.integrate.quad(integrand, lo, hi, epsabs=0.0,
                                              epsrel=1e-13, limit=200)
                assert load[i - 1] == pytest.approx(ref, rel=1e-10), (side, i)

    def test_disjoint_support_gives_zero_left_load(self):
        g_right = lambda y: np.where((np.asarray(y) >= 1.0) & (np.asarray(y) <= 1.5),
                                     1.0, 0.0)
        boundary = BoundarySpec(exterior_g=g_right, support=(0.0, 1.5))
        p = SchemeParams(beta=0.5, lam=0.5, s=0, s1=0)
        grid = Grid(0.0, 1.0, 7)
        d1 = _exterior_load_profile(boundary, p, grid, "left")
        d2 = _exterior_load_profile(boundary, p, grid, "right")
        for i in (1, 4, 7):
            assert d1[i - 1] == 0.0
            assert d2[i - 1] > 0.0

    def test_panel_doubling_self_check(self, monkeypatch):
        p = SchemeParams(beta=1.5, lam=3.0, s=1, s1=1)
        grid = Grid(0.0, 1.0, 63)
        boundary = BoundarySpec(exterior_g=example2_exterior, support=(-0.5, 1.5))
        assert assembly.PANEL_POINTS == 16
        coarse = _exterior_load_profile(boundary, p, grid, "left")
        monkeypatch.setattr(assembly, "PANEL_POINTS", 32)
        fine = _exterior_load_profile(boundary, p, grid, "left")
        np.testing.assert_allclose(coarse, fine, rtol=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BoundarySpec(exterior_g=lambda y: np.ones_like(y))  # no support
        with pytest.raises(ValueError):
            BoundarySpec(exterior_g=lambda y: np.ones_like(y), support=(-1.0, 2.0))


class TestLoadVector:
    def test_plain_source_when_no_boundary_terms(self):
        grid = Grid(0.0, 1.0, 15)
        p = SchemeParams(beta=0.7, lam=1.0, s=0, s1=0)
        f = np.sin(np.pi * grid.interior)
        F = assemble_rhs(f, BoundarySpec(), p, grid)
        np.testing.assert_array_equal(F, f)

    def test_endpoint_lift_rows(self):
        from templap.coefficients import boundary_left_profile, singular_cell_weight

        grid = Grid(0.0, 1.0, 15)
        p = SchemeParams(beta=1.5, lam=0.7, s=1, s1=1)
        ua, ub = 2.0, -3.0
        F = assemble_rhs(np.zeros(grid.M), BoundarySpec(u_a=ua, u_b=ub), p, grid)
        M, h, lam, s = grid.M, grid.h, p.lam, p.s
        w_sing = singular_cell_weight(p, grid)
        bl = boundary_left_profile(np.arange(2, M + 1), p, grid)
        damp = lambda m: math.exp(-lam * m * h) / float(m) ** s
        want_row1 = p.cbeta * (w_sing * ua + bl[M - 2] * damp(M) * ub)
        want_row5 = p.cbeta * (bl[5 - 2] * damp(5) * ua + bl[M - 5 - 1] * damp(M + 1 - 5) * ub)
        want_rowM = p.cbeta * (w_sing * ub + bl[M - 2] * damp(M) * ua)
        assert F[0] == pytest.approx(want_row1, rel=1e-13)
        assert F[4] == pytest.approx(want_row5, rel=1e-13)
        assert F[M - 1] == pytest.approx(want_rowM, rel=1e-13)

    def test_symmetric_data_palindromic_load(self):
        grid = Grid(0.0, 1.0, 16)
        p = SchemeParams(beta=0.5, lam=2.0, s=1, s1=1)
        x = grid.interior
        f = (x * (1 - x)) ** 2
        sym_g = lambda y: np.where((np.abs(np.asarray(y) - 0.5) >= 0.5)
                                   & (np.abs(np.asarray(y) - 0.5) <= 1.0),
                                   1.0, 0.0)
        boundary = BoundarySpec(exterior_g=sym_g, u_a=1.0, u_b=1.0, support=(-0.5, 1.5))
        F = assemble_rhs(f, boundary, p, grid)
        np.testing.assert_allclose(F, F[::-1], rtol=1e-12)

    def test_rejects_nonfinite_and_mis_sized(self):
        grid = Grid(0.0, 1.0, 7)
        p = SchemeParams(beta=0.5, s=0, s1=0)
        with pytest.raises(ValueError):
            assemble_rhs(np.zeros(5), BoundarySpec(), p, grid)
        with pytest.raises(ValueError):
            assemble_rhs(np.full(7, np.nan), BoundarySpec(), p, grid)


class TestDenseAndDump:
    def test_layout_and_bitwise_symmetry(self):
        grid = Grid(0.0, 1.0, 3)
        p = SchemeParams(beta=0.5, lam=1.0, s=0, s1=0)
        op = assemble_operator(p, grid)
        dense = materialize_dense(op)
        assert dense[0, 2] == op.toeplitz_col[2]
        assert np.array_equal(dense, dense.T)

    def test_cap_refusal(self):
        grid = Grid(0.0, 1.0, assembly.DENSE_CAP + 1)
        op = assemble_operator(SchemeParams(beta=0.5, s=0, s1=0), grid)
        with pytest.raises(ValueError):
            materialize_dense(op)

    def test_matvec_against_dense(self):
        grid = Grid(0.0, 1.0, 256)
        p = SchemeParams(beta=1.5, lam=0.5, s=1, s1=1)
        op = assemble_operator(p, grid)
        dense = materialize_dense(op)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(grid.M)
        got, want = op.matvec(v), dense @ v
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_dump_round_trip(self, tmp_path):
        grid = Grid(0.0, 1.0, 15)
        p = SchemeParams(beta=1.0, lam=2.0, s=1, s1=1)
        op = assemble_operator(p, grid)
        F = assemble_rhs(np.ones(grid.M), BoundarySpec(), p, grid)
        path = tmp_path / "system.tflap"
        write_system_dump(path, op, F)
        diag, col, load = read_system_dump(path)
        np.testing.assert_array_equal(diag, op.diag)
        np.testing.assert_array_equal(col, op.toeplitz_col)
        np.testing.assert_array_equal(load, F)

    def test_dump_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
        with pytest.raises(ValueError):
            read_system_dump(path)
