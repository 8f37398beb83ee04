"""Scheme parameters, grids, and the normalization constant c_beta.

The tempered fractional Laplacian acting on u at x is

    -c * P.V. integral of (u(x) - u(y)) / (e^{lam |x-y|} |x-y|^{1+beta}) dy

with beta in (0, 2) and finite tempering rate lam >= 0.  The normalization
constant c = ``SchemeParams.cbeta`` depends on (beta, lam) through the
Gamma function ``gamma_fn`` and always multiplies the assembled operator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Admissible (s, s1) selector pairs per beta range.  The selectors move
# kernel powers into the interpolated functions; pairs outside these sets
# either lose the sign structure of the stiffness matrix or divide by zero
# in the singular-cell weight h^{-beta}/(s1 + 1 - beta).
_SELECTORS_LOW = {(0, 0), (1, 1)}   # beta in (0, 1)
_SELECTORS_HIGH = {(0, 1), (1, 1)}  # beta in [1, 2)

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(x: float) -> float:
    """Gamma function by a Lanczos approximation with reflection for x < 1/2.

    Accurate to better than 1e-12 relative error for |x| <= 30.  Raises
    ValueError at the poles (x = 0, -1, -2, ...).
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"gamma_fn requires finite x, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma_fn pole at non-positive integer x = {x}")
    if x < 0.5:
        # Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x).
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


@dataclass(frozen=True)
class SchemeParams:
    """Discretization parameters: order beta, tempering lam, selectors (s, s1).

    The normalization constant ``cbeta`` multiplies the assembled operator
    and everything entering it: tail integrals, exterior loads, boundary
    lifts.  Physical right-hand sides are never scaled.
    """

    beta: float
    lam: float = 0.0
    s: int = 0
    s1: int = 0

    def __post_init__(self):
        if not 0.0 < self.beta < 2.0:
            raise ValueError(f"beta must lie strictly inside (0, 2), got {self.beta}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        pair = (self.s, self.s1)
        allowed = _SELECTORS_LOW if self.beta < 1.0 else _SELECTORS_HIGH
        if pair not in allowed:
            raise ValueError(
                f"selectors (s, s1) = {pair} not admissible for beta = {self.beta}; "
                f"allowed: {sorted(allowed)}"
            )
        if self.beta != 1.0 and abs(self.beta - 1.0) < 1e-6:
            warnings.warn(
                f"beta = {self.beta} is within 1e-6 of 1 but not equal: the "
                "closed-form coefficients divide by (beta - s)(1 - beta + s) "
                "and will lose precision to cancellation; use beta = 1.0 for "
                "the logarithmic forms",
                RuntimeWarning,
                stacklevel=2,
            )

    @property
    def is_log_case(self) -> bool:
        """True when beta == 1 exactly, selecting the logarithmic coefficient forms."""
        return self.beta == 1.0

    @cached_property
    def cbeta(self) -> float:
        return c_beta_const(self)


def c_beta_const(params: SchemeParams) -> float:
    """Normalization constant of the tempered fractional Laplacian.

    Two branches: for lam = 0 or beta = 1,

        beta * Gamma((1+beta)/2) / (2^{1-beta} sqrt(pi) Gamma(1 - beta/2)),

    otherwise Gamma(1/2) / (2 sqrt(pi) |Gamma(-beta)|).
    """
    beta = params.beta
    if params.lam == 0.0 or beta == 1.0:
        return (beta * gamma_fn((1.0 + beta) / 2.0)
                / (2.0 ** (1.0 - beta) * math.sqrt(math.pi) * gamma_fn(1.0 - beta / 2.0)))
    return gamma_fn(0.5) / (2.0 * math.sqrt(math.pi) * abs(gamma_fn(-beta)))


@dataclass(frozen=True)
class Grid:
    """Uniform grid on (a, b): M interior nodes, h = (b-a)/(M+1).

    Nodes are x_i = a + i h for i = 0..M+1 with the endpoints reconstructed
    exactly (no accumulation error).
    """

    a: float
    b: float
    M: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"need b > a, got ({self.a}, {self.b})")
        if self.M < 3:
            raise ValueError(f"need at least 3 interior nodes, got M = {self.M}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.M + 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        """All M+2 nodes including the endpoints a and b."""
        x = np.linspace(self.a, self.b, self.M + 2)
        x.flags.writeable = False
        return x

    @property
    def interior(self) -> np.ndarray:
        """The M interior nodes x_1..x_M."""
        return self.nodes[1:-1]

