"""The three benchmark problems: manufactured sources and exact solutions.

Problem 1: u(x) = x^2 (1-x) on (0, 1) with zero exterior data.  The source
is u's image under the operator, closed form in the kernel tails and
moments: no quadrature, and one code path for all lam >= 0.

Problem 2: exterior data -2x on [-1/2, 0] and 2x - 2 on [1, 3/2], interior
solution (x - x^2)^2.  The quartic's Taylor expansion is exact, so the source
is closed form in the kernel tails and moments: no quadrature, and one code
path for every beta and lam.

Problem 3: constant source f = 1 on (-r, r) with absorbing exterior (the
mean first exit time of a tempered stable particle).  For lam = 0 the
solution is known in closed form; for lam > 0 convergence is measured by
successive refinement.
"""

from __future__ import annotations

import math

import numpy as np

from .assembly import BoundarySpec, level_tails
from .core import Grid, SchemeParams
from .reference import reference_apply_operator  # noqa: F401  (a call site the benchmark tracer wraps)
from .tails import expint, log_power, pole_pair, power_series, tail_profile

EXAMPLE2_SUPPORT = (-0.5, 1.5)


def example1_exact(x):
    return x * x * (1.0 - x)


def example1_f(params: SchemeParams, grid: Grid) -> np.ndarray:
    """Source manufactured from u = x^2 (1 - x) on (0, 1).

    Writes the kernel integral of u as u(x)(tail sum) plus boundary power
    terms plus two incomplete integrals of linear polynomials against
    e^{-lam t} t^{1-beta}, c m_2 - m_3 and m_3 + c m_2 in the kernel moments
    (``_moments``); for beta = 1 the kernel powers collapse to elementary
    integrals plus a difference of exponential integral tails.  The tails
    are the level's ``level_tails``, which the diagonal reuses and the
    moments start from.  Every term is evaluated once on the distances x to
    the left endpoint and reversed for the distances 1 - x to the right one:
    one moment sweep serves both incomplete integrals, and beta = 1 takes
    one E_1 sweep (``expint``).  Where h is a power of two, 1 - x is exactly
    x reversed; elsewhere the two differ by rounding.  Scaled by the
    normalization constant, as the operator is.
    """
    if (grid.a, grid.b) != (0.0, 1.0):
        raise ValueError("the manufactured source for problem 1 lives on (0, 1)")
    beta, lam = params.beta, params.lam
    x = grid.interior
    u = example1_exact(x)
    up = 2.0 * x - 3.0 * x * x
    T = level_tails(params, grid)
    tails = T + T[::-1]

    if not params.is_log_case:
        # int_0^d (c - t) e^{-lam t} t^{1-beta} dt = c m_2(d) - m_3(d) on d = x;
        # the right side's (t + c) gives m_3 + c m_2, on 1 - x as x reversed.
        m2, m3, _ = _moments(x, T, params)
        cL = 3.0 * x - 1.0 + lam * up / (1.0 - beta)
        cR = (3.0 * x - 1.0 - lam * up / (1.0 - beta))[::-1]
        power = x ** (1.0 - beta) * np.exp(-lam * x)
        f = (u * tails
             + up / (1.0 - beta) * (power - power[::-1])
             + (cL * m2 - m3)
             + (m3 + cR * m2)[::-1])
    else:
        if lam == 0.0:
            moment0 = x
            moment1 = x * x / 2.0
            log_tail = np.log(x)
            tail_diff = log_tail - log_tail[::-1]
        else:
            moment0 = -np.expm1(-lam * x) / lam
            moment1 = (-np.expm1(-lam * x) - lam * x * np.exp(-lam * x)) / lam ** 2
            e1 = expint(1, lam * x)
            tail_diff = e1[::-1] - e1
        f = (u * tails
             + (-moment1 + (3.0 * x - 1.0) * moment0)
             + (moment1[::-1] + (3.0 * x - 1.0) * moment0[::-1])
             + up * tail_diff)
    return params.cbeta * f


def example2_extension(y) -> np.ndarray:
    """The exact solution of problem 2 on all of R (interior plus exterior)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    left = (y >= -0.5) & (y <= 0.0)
    right = (y >= 1.0) & (y <= 1.5)
    inside = (y > 0.0) & (y < 1.0)
    out[left] = -2.0 * y[left]
    out[right] = 2.0 * y[right] - 2.0
    out[inside] = (y[inside] - y[inside] ** 2) ** 2
    return out


def example2_exterior(y) -> np.ndarray:
    """Exterior data of problem 2 (zero inside the domain)."""
    y = np.asarray(y, dtype=float)
    return np.where((y > 0.0) & (y < 1.0), 0.0, example2_extension(y))


def example2_setup(params: SchemeParams, grid: Grid):
    """Source, boundary data, and exact interior values for problem 2.

    The quartic's Taylor expansion is exact, so the source is closed form in
    the kernel moments (``_first_moment``, ``_moments``):

        f / c_beta = u (T(x) + T(1-x)) - u' (T_1(x) - T_1(1-x))
                     - sum_{k=2..4} u^(k) / k! (m_k(1-x) + (-1)^k m_k(x))
                     - 2 (T_1(x) - T_1(x+1/2)) + 2x (T(x) - T(x+1/2))
                     - 2 (T_1(1-x) - T_1(3/2-x)) + 2(1-x) (T(1-x) - T(3/2-x)),

    the last two lines being the linear exterior pieces.  T(x) and T(1-x)
    are the level's ``level_tails``, which the diagonal reuses, and one more
    tail sweep gives T(x + 1/2) and, reversed, T(3/2 - x).  The extension is
    symmetric under y -> 1 - y, so f is combined on the lower half of the
    nodes and mirrored.
    """
    if (grid.a, grid.b) != (0.0, 1.0):
        raise ValueError("problem 2 lives on (0, 1)")
    x = grid.interior
    M = grid.M
    half = (M + 1) // 2
    T = level_tails(params, grid)
    Th = tail_profile(x + 0.5, params)
    (v, c), (vh, ch) = _first_moment(x, T, params), _first_moment(x + 0.5, Th, params)
    inner = (v - v[::-1]) + (c - c[::-1])  # T_1(x) - T_1(1-x)
    outer = (v - vh) + (c - ch)  # T_1(x) - T_1(x+1/2); reversed, T_1(1-x) - T_1(3/2-x)
    m2, m3, m4 = _moments(x, T, params)

    def sides(w):  # w at x and at 1 - x (or x + 1/2 and 3/2 - x), lower half
        return w[:half], w[::-1][:half]

    (Tx, Tr), (Thx, Thr), (outer_x, outer_r) = map(sides, (T, Th, outer))
    (m2x, m2r), (m3x, m3r), (m4x, m4r) = map(sides, (m2, m3, m4))
    y = x[:half]
    f = np.empty(M)
    f[:half] = params.cbeta * (
        (y - y * y) ** 2 * (Tx + Tr)
        - (2.0 * y - 6.0 * y * y + 4.0 * y ** 3) * inner[:half]
        - (1.0 - 6.0 * y + 6.0 * y * y) * (m2r + m2x)
        - (4.0 * y - 2.0) * (m3r - m3x)
        - (m4r + m4x)
        - 2.0 * outer_x + 2.0 * y * (Tx - Thx)
        - 2.0 * outer_r + 2.0 * (1.0 - y) * (Tr - Thr))
    f[half:] = f[:M - half][::-1]
    boundary = BoundarySpec(exterior_g=example2_exterior, u_a=0.0, u_b=0.0,
                            support=EXAMPLE2_SUPPORT)
    exact = (x - x * x) ** 2
    return f, boundary, exact


def _first_moment(d: np.ndarray, T: np.ndarray, params: SchemeParams):
    """T_1(d) = int_d^inf t^{-beta} e^{-lam t} dt less a constant K, given T = T(d).

    Only differences of T_1 enter a source, so any K will do; the one taken
    keeps T_1 - K finite for every beta, at lam = 0 too, and of the order of
    its differences.  With z = lam d, an anchor d0 = min(1, 1/lam) and
    L_q(r) = (r^q - 1) / q, which is ln r at q = 0 (``log_power``):

    * z <= 1: the term-by-term integral of e^{-lam t}, with its j = 0 and 1
      terms (poles at beta = 1 and 2) taken relative to d0:
      -d0^{1-beta} L_{1-beta}(d/d0) + lam d0^{2-beta} L_{2-beta}(d/d0)
      - d^{1-beta} sum_{j>=2} (-z)^j / (j! (1-beta+j)), ``power_series``.
    * z > 1: d^{1-beta} E_beta(z) - K, with E_beta from ``_lower_orders`` and
      K = d0^{1-beta} (Gamma(1-beta) z0^{beta-1} - 1/(1-beta) + z0/(2-beta)),
      z0 = lam d0, both poles grouped by ``pole_pair``.

    Returned as two terms, the second being -K where z > 1 and 0 elsewhere,
    for the caller to difference apart: K then cancels exactly between two
    distances on the same side of z = 1, and is never evaluated where every
    z <= 1.
    """
    beta, lam = params.beta, params.lam
    d0 = 1.0 / max(lam, 1.0)
    z = lam * d
    near = z <= 1.0
    v, c = np.empty_like(d), np.zeros_like(d)
    dn = d[near]
    r = np.log(dn / d0)
    v[near] = (lam * d0 ** (2.0 - beta) * log_power(2.0 - beta, r)
               - d0 ** (1.0 - beta) * log_power(1.0 - beta, r)
               - dn ** (1.0 - beta) * power_series(1.0 - beta, z[near], skip=(0, 1)))
    if not near.all():
        far = ~near
        z0 = lam * d0
        n, other = (1, z0 / (2.0 - beta)) if beta < 1.5 else (2, -1.0 / (1.0 - beta))
        df = d[far]
        v[far] = df ** (1.0 - beta) * _lower_orders(df, T[far], params, 1)[0]
        c[far] = -d0 ** (1.0 - beta) * (float(pole_pair(beta, n, z0)) + other)
    return v, c


def _moments(d: np.ndarray, T: np.ndarray, params: SchemeParams) -> list:
    """m_k(d) = int_0^d t^{k-1-beta} e^{-lam t} dt for k = 2, 3, 4, given T = T(d).

    * lam d <= 2: m_4 = d^{4-beta} sum_j (-lam d)^j / (j! (4-beta+j)) (``power_series``), then
      m_k = (lam m_{k+1} + d^{k-beta} e^{-lam d}) / (k-beta), a sum of positive terms.
    * lam d > 2: Gamma(k-beta) lam^{beta-k} - d^{k-beta} E_{1+beta-k}(lam d), the
      orders from ``_lower_orders``.

    Against mpmath each side of the switch reads within 4e-15 relative;
    the series alone reads 2e-14 at lam d = 4.
    """
    beta, lam = params.beta, params.lam
    z = lam * d
    near = z <= 2.0
    out = [np.empty_like(d) for _ in range(3)]
    dn, zn = d[near], z[near]
    powers = [dn ** (2.0 - beta)]  # d^{k-beta}, k = 2, 3, 4
    powers += [powers[0] * dn, powers[0] * dn * dn]
    mk = powers[2] * power_series(4.0 - beta, zn)
    out[2][near] = mk
    decay = np.exp(-zn)
    for k in (3, 2):
        mk = (lam * mk + powers[k - 2] * decay) / (k - beta)
        out[k - 2][near] = mk
    if not near.all():
        far = ~near
        df = d[far]
        orders = _lower_orders(df, T[far], params, 4)  # E_beta, ..., E_{beta-3}
        for k, mk, E in zip((2, 3, 4), out, orders[1:]):
            mk[far] = math.gamma(k - beta) * lam ** (beta - k) - df ** (k - beta) * E
    return out


def _lower_orders(d: np.ndarray, T: np.ndarray, params: SchemeParams, count: int) -> list:
    """E_beta(z), E_{beta-1}(z), ..., ``count`` orders at z = lam d > 1, given T = T(d).

    From E_{1+beta}(z) = d^beta T by E_p(z) = (e^{-z} - p E_{p+1}(z)) / z.
    A step with p > 0 subtracts p E_{p+1} <= e^{-z} p / (z + p) < 2 e^{-z} / 3,
    so loses under two bits; one with p <= 0 adds two nonnegative terms.
    """
    beta = params.beta
    z = params.lam * d
    ez = np.exp(-z)
    E = d ** beta * T
    out = []
    for p in beta - np.arange(count):
        E = (ez - p * E) / z
        out.append(E)
    return out


def example3_exact(beta: float, r: float, x):
    """Mean first exit time from (-r, r) for the untempered operator.

    sqrt(pi) (r^2 - x^2)^{beta/2} / (2^beta Gamma(1 + beta/2) Gamma(1/2 + beta/2)),
    valid only for lam = 0; vanishes at |x| = r.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > r):
        raise ValueError("points must lie inside [-r, r]")
    c = math.sqrt(math.pi) / (2.0 ** beta * math.gamma(1.0 + beta / 2.0)
                              * math.gamma(0.5 + beta / 2.0))
    out = c * np.maximum(r * r - x * x, 0.0) ** (beta / 2.0)
    return out if out.ndim else float(out)


def example3_setup(params: SchemeParams, grid: Grid):
    """Constant unit source and absorbing boundary; exact values iff lam = 0, on any (a, b)."""
    f = np.ones(grid.M)
    boundary = BoundarySpec()
    if params.lam == 0.0:
        exact = example3_exact(params.beta, (grid.b - grid.a) / 2.0,
                               grid.interior - (grid.a + grid.b) / 2.0)
    else:
        exact = None  # no closed form: use successive refinement
    return f, boundary, exact
