"""Stiffness matrix and load vector: structure and oracles."""

import math
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from templap import (
    BoundarySpec,
    Grid,
    SchemeParams,
    assemble_operator,
    assemble_rhs,
    assembly,
    materialize_dense,
    offdiag_row_sums,
)
from templap.assembly import PANEL_POINTS, _exterior_loads
from templap.problems import example2_exterior
from templap.quadrature import geometric_breakpoints, panel_quadrature_points


def sample_params():
    return [
        SchemeParams(beta=0.5, lam=0.0, s=0, s1=0),
        SchemeParams(beta=0.5, lam=3.0, s=1, s1=1),
        SchemeParams(beta=1.0, lam=0.5, s=0, s1=1),
        SchemeParams(beta=1.0, lam=2.0, s=1, s1=1),
        SchemeParams(beta=1.5, lam=0.0, s=1, s1=1),
        SchemeParams(beta=1.5, lam=1.0, s=0, s1=1),
    ]


def direct_loads(boundary, params, grid):
    """Each row's direct sum over each exterior piece's panel points: the loads' oracle.

    The points are the loads' own (panels graded away from each endpoint,
    the first of width min(h, 1/lam)), and so are the distances: d = x - a
    from the left piece and d reversed from the right one.
    """
    a, b, h, lam, beta = grid.a, grid.b, grid.h, params.lam, params.beta
    lo, hi = boundary.support
    first_width = min(h, 1.0 / lam) if lam > 0.0 else h
    d = grid.interior - a
    loads = []
    for dist, extent, sign, end in ((d, a - lo, -1.0, a), (d[::-1], hi - b, 1.0, b)):
        edges = geometric_breakpoints(0.0, extent, first_width)
        pts, wts = panel_quadrature_points(edges[:-1], edges[1:], PANEL_POINTS)
        t = dist[:, None] + pts
        kernel = np.exp(-lam * t - (1.0 + beta) * np.log(t))
        loads.append(kernel @ (wts * boundary.exterior_g(end + sign * pts)))
    return loads


class TestMatrixStructure:
    @pytest.mark.parametrize("p", sample_params(), ids=lambda p: f"b{p.beta}l{p.lam}s{p.s}{p.s1}")
    def test_m_matrix_sign_pattern_and_dominance(self, p):
        grid = Grid(0.0, 1.0, 63)
        op = assemble_operator(p, grid)
        assert np.all(op.toeplitz_col[1:] < 0.0)
        assert np.all(op.diag > 0.0)
        surplus = op.diag + offdiag_row_sums(op.toeplitz_col) - op.tails
        assert np.all(surplus > 0.0)

    @pytest.mark.parametrize("beta,lam,b,M,s", [(1e-20, 1.0, 1.0, 4, 0), (1.5, 300.0, 20.0, 7, 1)])
    def test_degenerate_operator_gives_a_reason(self, beta, lam, b, M, s):
        # beta = 1e-20: the diagonal rounds to -2.5e-17 at both ends.
        # lam h = 750: the whole operator underflows to 0.
        with pytest.raises(ValueError, match=r"row 0 has diagonal .*beta below about 1e-15"):
            assemble_operator(SchemeParams(beta=beta, lam=lam, s=s, s1=s), Grid(0.0, b, M))

    @pytest.mark.xfail(strict=True, reason="the (1, 1) pair weights lose their sign within "
                       "about 2e-13 of beta = 1 (the closed forms divide by beta - 1)")
    @pytest.mark.parametrize("beta", [1.0 - 2.0 ** -52, 1.0 + 2.0 ** -52])
    def test_sign_pattern_next_to_beta_one(self, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # beta within 1e-6 of 1
            op = assemble_operator(SchemeParams(beta=beta, s=1, s1=1), Grid(0.0, 1.0, 209))
        assert np.all(op.toeplitz_col[1:] < 0.0)

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
            assert np.all(floors > np.min(op.tails))

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
        for load in _exterior_loads(BoundarySpec(), p, grid):
            np.testing.assert_array_equal(load, np.zeros(grid.M))

    def test_left_piece_closed_form(self):
        # integral of (-2y)(1/2 - y)^{-3/2} over [-1/2, 0] equals 6 - 4 sqrt(2)
        p = SchemeParams(beta=0.5, lam=0.0, s=0, s1=0)
        grid = Grid(0.0, 1.0, 7)  # x_4 = 1/2
        boundary = BoundarySpec(exterior_g=example2_exterior, support=(-0.5, 1.5))
        d1, d2 = (load[3] for load in _exterior_loads(boundary, p, grid))
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
        for (side, (lo, hi)), load in zip(pieces.items(), _exterior_loads(boundary, p, grid)):
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
        d1, d2 = _exterior_loads(boundary, p, grid)
        for i in (1, 4, 7):
            assert d1[i - 1] == 0.0
            assert d2[i - 1] > 0.0

    def test_panel_doubling_self_check(self, monkeypatch):
        p = SchemeParams(beta=1.5, lam=3.0, s=1, s1=1)
        grid = Grid(0.0, 1.0, 63)
        boundary = BoundarySpec(exterior_g=example2_exterior, support=(-0.5, 1.5))
        assert assembly.PANEL_POINTS == 16
        coarse = _exterior_loads(boundary, p, grid)
        monkeypatch.setattr(assembly, "PANEL_POINTS", 32)
        fine = _exterior_loads(boundary, p, grid)
        np.testing.assert_allclose(coarse, fine, rtol=1e-12)

    @pytest.mark.parametrize("M", [16, 256, 1024, 4096])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 3.0, 30.0, 300.0])
    @pytest.mark.parametrize("beta", [0.05, 0.5, 0.999, 1.0, 1.5, 1.95])
    def test_loads_match_closed_forms(self, beta, lam, M):
        # Both of problem 2's pieces are 2p at distance p >= 0 from their
        # endpoint, so each side's load at distance d is
        #   2 int_d^{d+1/2} (t - d) e^{-lam t} t^{-1-beta} dt = 2 (J_1 - d J_0),
        # with J_k the integral of t^{k-1-beta} e^{-lam t}: J_1 from gammainc
        # and J_0 from J_1 by parts.  Measured worst 3.1e-14 over every row,
        # at lam = 300: lam times the rounding of the nodes x_i to doubles,
        # and on the right, g at b + p rounded to a double.
        p = SchemeParams(beta=beta, lam=lam, s=1, s1=1)
        grid = Grid(0.0, 1.0, M)
        boundary = BoundarySpec(exterior_g=example2_exterior, support=(-0.5, 1.5))
        left, right = _exterior_loads(boundary, p, grid)
        # Every row at M = 16; above, the direct rows and every band's rows
        # near its ends and middle, on both sides (row i of the right side
        # sits at the left side's distance of row M+1-i).
        j = np.arange(1, M + 1) if M == 16 else np.unique(np.concatenate(
            [np.arange(1, 27)] + [np.r_[k - 1:k + 2, 3 * k // 2] for k in 24 * 2 ** np.arange(10)
                                  if k < M] + [np.arange(M - 2, M + 1)]))
        j = j[j <= M]
        with mpmath.workdps(40):
            lam_, beta_ = mpmath.mpf(lam), mpmath.mpf(beta)
            want = []
            for ji in j:
                u = mpmath.mpf(int(ji)) / (M + 1)
                v = u + mpmath.mpf(1) / 2
                if lam == 0.0:
                    J1 = mpmath.log(v / u) if beta == 1.0 else \
                        (v ** (1 - beta_) - u ** (1 - beta_)) / (1 - beta_)
                else:
                    J1 = lam_ ** (beta_ - 1) * mpmath.gammainc(1 - beta_, lam_ * u, lam_ * v)
                J0 = (u ** -beta_ * mpmath.exp(-lam_ * u) - v ** -beta_ * mpmath.exp(-lam_ * v)
                      - lam_ * J1) / beta_
                want.append(float(2 * (J1 - u * J0)))
        want = np.array(want)
        np.testing.assert_allclose(left[j - 1], want, rtol=5e-14, atol=0.0)
        np.testing.assert_allclose(right[M - j], want, rtol=5e-14, atol=0.0)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(beta=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True, allow_subnormal=False),
           lam=st.floats(0.0, 300.0, allow_subnormal=False), M=st.integers(3, 2000),
           a=st.floats(-5.0, 5.0), length=st.floats(0.1, 10.0),
           extents=st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-3, 3.0))] * 2),
           jumps=st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)),
           heights=st.tuples(*[st.floats(0.5, 2.0)] * 4))
    def test_loads_match_direct_sums_anywhere(self, beta, lam, M, a, length, extents, jumps,
                                              heights):
        # Pieces of unequal extents (either possibly empty), g with a jump
        # inside each, on any interval: the interpolated loads against each
        # row's direct sum over the same panel points.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # beta within 1e-6 of 1
            p = SchemeParams(beta=beta, lam=lam, s=1, s1=1)
        grid = Grid(a, a + length, M)
        lo, hi = grid.a - extents[0], grid.b + extents[1]
        cut_left, cut_right = grid.a - jumps[0] * extents[0], grid.b + jumps[1] * extents[1]

        def g(y):
            y = np.asarray(y, dtype=float)
            return np.select([(y >= lo) & (y < cut_left), (y >= cut_left) & (y <= grid.a),
                              (y >= grid.b) & (y < cut_right), (y >= cut_right) & (y <= hi)],
                             heights, 0.0)

        boundary = BoundarySpec(exterior_g=g, support=(lo, hi))
        d = grid.interior - grid.a
        for got, want, dist, extent in zip(_exterior_loads(boundary, p, grid),
                                           direct_loads(boundary, p, grid),
                                           (d, d[::-1]), extents):
            if extent == 0.0:
                np.testing.assert_array_equal(got, 0.0)
                continue
            # Each direct term rounds its exponent, lam t + (1 + beta) ln t,
            # to a double: a relative error of about eps times its size.
            tol = 4e-15 * (8.0 + lam * dist + (1.0 + beta) * np.abs(np.log(dist)))
            assert np.all(np.abs(got - want) <= tol * want + 1e-290)

    def test_a_row_on_a_node_takes_the_node_value(self, monkeypatch):
        # With h = 2^-8 the first band is [24h, 48h], and its midpoint 36h is
        # a row: move the middle node there, with barycentric weights for the
        # moved node set.
        nodes = assembly.CHEBYSHEV_NODES.copy()
        nodes[nodes.size // 2] = 0.0
        weights = [1.0 / np.prod(np.delete(x - nodes, j)) for j, x in enumerate(nodes)]
        monkeypatch.setattr(assembly, "CHEBYSHEV_NODES", nodes)
        monkeypatch.setattr(assembly, "CHEBYSHEV_WEIGHTS", np.array(weights))
        p = SchemeParams(beta=0.5, lam=3.0, s=1, s1=1)
        grid = Grid(0.0, 1.0, 2 ** 8 - 1)
        boundary = BoundarySpec(exterior_g=example2_exterior, support=(-0.5, 1.5))
        for got, want in zip(_exterior_loads(boundary, p, grid), direct_loads(boundary, p, grid)):
            np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_kernel_cost_is_logarithmic_in_M(self, monkeypatch):
        # At M = 2^14 the loads sample the kernel at n (1 + ceil(log2(M / n)))
        # distances at most, not at 2 M, and call g once per load vector.
        p = SchemeParams(beta=1.5, lam=3.0, s=1, s1=1)
        grid = Grid(0.0, 1.0, 2 ** 14)
        calls = []
        boundary = BoundarySpec(exterior_g=lambda y: calls.append(np.size(y)) or example2_exterior(y),
                                support=(-0.5, 1.5))
        calls.clear()
        sweeps = []
        real = assembly.row_block_quadrature
        monkeypatch.setattr(assembly, "row_block_quadrature",
                            lambda integrand, shape, weights:
                            sweeps.append((shape, weights.shape)) or real(integrand, shape, weights))
        F = assemble_rhs(np.zeros(grid.M), boundary, p, grid)
        n = assembly.LOAD_NODES
        (rows,), (columns, points) = sweeps[0][0], sweeps[0][1]
        assert len(sweeps) == 1 and len(calls) == 1 and columns == 2
        assert rows <= n * (1 + math.ceil(math.log2(grid.M / n)))
        assert calls[0] == points
        assert np.all(F > 0.0)

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


class TestDense:
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
