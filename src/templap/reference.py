"""Direct high-accuracy application of the tempered fractional Laplacian.

Independent of the finite-difference machinery: used to manufacture source
terms and to cross-check the discretization.  Like the assembled operator,
it includes the normalization constant c_beta.  The principal value is
removed by pairing y = x - t with y = x + t on the symmetric near field
|y - x| <= delta (delta = distance from x to the nearer endpoint), where
the second difference 2u(x) - u(x-t) - u(x+t) is O(t^2):

    near  = int_0^delta [second difference] e^{-lam t} t^{-1-beta} dt
    far   = 2 u(x) T(delta) - int_{t>delta} u(x +/- t) e^{-lam t} t^{-1-beta} dt

with T the exact kernel tail.  The near field is integrated by Gauss-Jacobi
with the algebraic factor t^{1-beta} in the weight; the far field by
composite Gauss-Legendre on geometrically graded panels, split additionally
at any points where u has kinks (domain endpoints, exterior support edges).
Its kernel e^{-lam t} t^{-1-beta} is one exponential, exp(-lam t - (1 +
beta) ln t), as in the exterior loads of ``assembly``.  All points are
evaluated at once, each side's far-field panels in one list.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import SchemeParams
from .quadrature import (GAUSS_JACOBI_POINTS, PANEL_POINTS, jacobi_gauss_rule,
                         panel_quadrature_points)
from .tails import tail_profile


def reference_apply_operator(
    u: Callable[[np.ndarray], np.ndarray],
    x: float | np.ndarray,
    params: SchemeParams,
    a: float,
    b: float,
    support: tuple[float, float] | None = None,
    second_difference: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> float | np.ndarray:
    """Evaluate -(Delta + lam)^{beta/2} u at interior points x.

    x is one point (a float is returned) or a 1-D array of N points (an
    array is returned), all in (a, b).  u must accept numpy arrays of any
    shape and be defined on all of R: smooth (two continuous derivatives) on
    a neighborhood of [a, b] and equal to the exterior data outside.
    ``support`` = (lo, hi), when given, declares that u vanishes outside
    [lo, hi]; by default u is assumed to vanish outside [a, b].  The
    result includes the normalization constant params.cbeta.

    ``second_difference(x, t)``, when supplied, gets the column x[:, None]
    (N, 1) and the near-field offsets t (N, n), and returns the (N, n) values
    2 u(x) - u(x-t) - u(x+t) evaluated stably (e.g. from derivatives of a
    polynomial u).  This removes the rounding floor of the generic formula,
    about 1e-10 absolute at the smallest near-field quadrature nodes.
    """
    x0 = np.asarray(x, dtype=float)
    x = np.atleast_1d(x0)
    if not np.all((a < x) & (x < b)):
        raise ValueError(f"x = {x[(x <= a) | (x >= b)]} is not interior to ({a}, {b})")
    lo = a if support is None else min(support[0], a)
    hi = b if support is None else max(support[1], b)
    beta, lam = params.beta, params.lam
    delta = np.minimum(x - a, b - x)

    rule = jacobi_gauss_rule(GAUSS_JACOBI_POINTS, 0.0, 1.0 - beta)
    t = (delta[:, None] / 2.0) * (1.0 + rule.nodes)
    ux = np.asarray(u(x), dtype=float)
    if second_difference is None:
        sd = 2.0 * ux[:, None] - u(x[:, None] + t) - u(x[:, None] - t)
    else:
        sd = np.asarray(second_difference(x[:, None], t), dtype=float)
    near = (delta / 2.0) ** (2.0 - beta) * ((sd / (t * t) * np.exp(-lam * t)) @ rule.weights)

    far = 2.0 * ux * tail_profile(delta, params)
    kinks = np.array([a, b] + list(support or ()))
    dcol = delta[:, None]

    for sgn, reach in ((+1.0, hi - x), (-1.0, x - lo)):
        # Rows without a far field on this side get zero-width panels only.
        reach = np.where(reach <= delta * (1.0 + 1e-14), delta, reach)[:, None]
        # Edges delta 2^k clipped to the reach, and the kinks strictly inside;
        # the duplicates this leaves become zero-width panels, which are dropped.
        powers = 2.0 ** np.arange(int(np.ceil(np.log2(np.max(reach / dcol)))) + 2)
        off = sgn * (kinks - x[:, None])
        edges = np.sort(np.hstack([np.minimum(dcol * powers, reach),
                                   np.where((dcol < off) & (off < reach), off, reach)]), axis=1)
        keep = edges[:, 1:] > edges[:, :-1]
        pts, wts = panel_quadrature_points(edges[:, :-1][keep], edges[:, 1:][keep], PANEL_POINTS)
        owner = np.repeat(np.nonzero(keep)[0], PANEL_POINTS)
        vals = wts * (u(x[owner] + sgn * pts) * np.exp(-lam * pts - (1.0 + beta) * np.log(pts)))
        far -= np.bincount(owner, weights=vals, minlength=x.size)

    out = params.cbeta * (near + far)
    return out if x0.ndim else float(out[0])
