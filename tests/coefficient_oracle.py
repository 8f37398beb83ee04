"""Single-cell interpolation weights by direct Gauss quadrature.

An independent cross-check of the closed forms in ``templap.coefficients``:
each weight is its defining integral over one cell, summed by a 64-point
Gauss-Legendre rule instead of written in closed form.
"""

from templap import Grid, SchemeParams
from templap.quadrature import jacobi_gauss_rule

ORACLE_POINTS = 64


def coeff_quadrature_oracle(i: int, k: int, kind: str, params: SchemeParams,
                            grid: Grid) -> float:
    """Single-cell interpolation weight by direct Gauss quadrature.

    kind selects the integrand over cell [x_{k-1}, x_k]:

        A1: (x_k - y)     (x_i - y)^{s-1-beta}      (left side,  1 <= k <= i-1)
        A2: (y - x_{k-1}) (x_i - y)^{s-1-beta}      (left side,  1 <= k <= i-1)
        A3: (x_k - y)     (y - x_i)^{s-1-beta}      (right side, i+2 <= k <= M+1)
        A4: (y - x_{k-1}) (y - x_i)^{s-1-beta}      (right side, i+2 <= k <= M+1)

    each divided by h^{s+1}.  Cells containing (or touching) the
    singularity x_i are rejected.  Accuracy is far better than 1e-10
    relative: the integrand is analytic on the cell with the nearest
    singularity at least one cell away.
    """
    if kind in ("A1", "A2"):
        if not 1 <= k <= i - 1:
            raise ValueError(f"{kind} requires 1 <= k <= i-1, got (i, k) = ({i}, {k})")
    elif kind in ("A3", "A4"):
        if not i + 2 <= k <= grid.M + 1:
            raise ValueError(f"{kind} requires i+2 <= k <= M+1, got (i, k) = ({i}, {k})")
    else:
        raise ValueError(f"unknown coefficient kind {kind!r}")
    h = grid.h
    beta, s = params.beta, params.s
    xg = grid.nodes
    x_i, y0, y1 = xg[i], xg[k - 1], xg[k]
    nodes, weights = jacobi_gauss_rule(ORACLE_POINTS, 0.0)
    y = (y1 + y0) / 2.0 + (y1 - y0) / 2.0 * nodes
    hat = (y1 - y) if kind in ("A1", "A3") else (y - y0)
    dist = (x_i - y) if kind in ("A1", "A2") else (y - x_i)
    vals = hat * dist ** (s - 1.0 - beta)
    return (y1 - y0) / 2.0 * float(weights @ vals) / h ** (s + 1.0)
