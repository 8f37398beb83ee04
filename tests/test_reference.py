"""Direct operator evaluation: annihilation, route independence, closed forms."""

import numpy as np
import pytest

import templap.reference
from templap import (
    Grid,
    SchemeParams,
    example1_f,
    example3_exact,
    reference_apply_operator,
    tail_profile,
)
from templap.problems import EXAMPLE2_SUPPORT, example2_extension
from test_problems import example2_oracle, example2_second_difference


def extended_cubic(y):
    y = np.asarray(y, dtype=float)
    return np.where((y > 0.0) & (y < 1.0), y * y * (1.0 - y), 0.0)


def test_annihilates_constants():
    # A function that equals 1 out to distance L is annihilated up to the
    # kernel mass beyond L: exactly cbeta * (T(x - lo) + T(hi - x)).
    one = lambda y: np.ones_like(np.asarray(y, dtype=float))
    for beta, lam in ((0.7, 1.0), (1.4, 0.0), (1.0, 3.0)):
        s, s1 = (0, 0) if beta < 1 else (1, 1)
        p = SchemeParams(beta=beta, lam=lam, s=s, s1=s1)
        lo, hi = -60.0, 60.0
        for x in (0.31, 0.5, 0.93):
            val = reference_apply_operator(one, x, p, 0.0, 1.0, support=(lo, hi))
            remainder = p.cbeta * float(tail_profile(x - lo, p)[0]
                                        + tail_profile(hi - x, p)[0])
            assert val == pytest.approx(remainder, rel=1e-9, abs=1e-11)
            if lam > 0.0:
                assert abs(val) < 1e-10  # exponential tempering kills the tail


def cubic_second_difference(x, t):
    """Exact 2u(x) - u(x-t) - u(x+t) for u = x^2 (1 - x) (x+-t inside)."""
    return -(2.0 - 6.0 * x) * t * t


@pytest.mark.parametrize("beta,lam,s,s1,rtol", [
    (0.5, 3.0, 0, 0, 3e-15), (0.5, 0.5, 1, 1, 3e-15), (1.5, 0.5, 1, 1, 3e-15),
    (1.5, 3.0, 0, 1, 3e-15), (1.0, 2.0, 1, 1, 3e-15), (1.0, 0.0, 0, 1, 3e-15),
    (0.5, 100.0, 1, 1, 2e-14), (0.9, 100.0, 1, 1, 1.5e-13), (0.999, 100.0, 1, 1, 1.2e-11),
    (1.001, 100.0, 1, 1, 2.5e-11), (1.5, 100.0, 1, 1, 1.6e-14),
])
def test_agrees_with_manufactured_source_route(beta, lam, s, s1, rtol):
    # Relative to max|f|, about twice the largest gap over the nodes at
    # M = 63.  Near beta = 1 at lam = 100 the source subtracts terms of
    # order lam / |1 - beta| times larger than f itself.
    p = SchemeParams(beta=beta, lam=lam, s=s, s1=s1)
    grid = Grid(0.0, 1.0, 63)
    closed = example1_f(p, grid)
    direct = reference_apply_operator(extended_cubic, grid.interior, p, 0.0, 1.0,
                                      second_difference=cubic_second_difference)
    assert np.max(np.abs(closed - direct)) <= rtol * np.max(np.abs(direct))


def test_exit_time_solution_maps_to_unit_source():
    # The closed-form untempered solution has unit source; accuracy at the
    # center is limited only by the boundary regularity of the solution.
    for beta in (0.5, 1.5):
        s, s1 = (0, 0) if beta < 1 else (1, 1)
        p = SchemeParams(beta=beta, lam=0.0, s=s, s1=s1)
        u = lambda y: example3_exact(beta, 1.0, np.clip(y, -1.0, 1.0)) \
            * ((np.asarray(y) > -1.0) & (np.asarray(y) < 1.0))
        val = reference_apply_operator(u, 0.0, p, -1.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-3)


def test_rejects_exterior_points():
    p = SchemeParams(beta=0.5, s=0, s1=0)
    with pytest.raises(ValueError):
        reference_apply_operator(extended_cubic, 0.0, p, 0.0, 1.0)
    with pytest.raises(ValueError):
        reference_apply_operator(extended_cubic, 1.2, p, 0.0, 1.0)
    with pytest.raises(ValueError):  # one exterior point spoils the batch
        reference_apply_operator(extended_cubic, np.array([0.3, 1.2, 0.5]), p, 0.0, 1.0)


def test_scalar_point_returns_python_float():
    p = SchemeParams(beta=0.5, lam=1.0, s=0, s1=0)
    assert type(reference_apply_operator(extended_cubic, 0.3, p, 0.0, 1.0)) is float
    out = reference_apply_operator(extended_cubic, np.array([0.3]), p, 0.0, 1.0)
    assert isinstance(out, np.ndarray) and out.shape == (1,)


# Nodes in both halves of (0, 1) plus the midpoint, where both sides have
# reach == delta when u vanishes outside [a, b] (no far field at all).
BATCH_POINTS = np.array([0.013, 0.2, 0.37, 0.5, 0.61, 0.9, 0.987])


@pytest.mark.parametrize("beta,lam,s,s1", [
    (0.5, 0.0, 0, 0), (0.5, 3.0, 1, 1), (1.0, 0.5, 1, 1), (1.5, 3.0, 0, 1),
])
@pytest.mark.parametrize("route", ["no support", "support, generic", "support, exact sd"])
def test_batched_points_equal_pointwise_calls(beta, lam, s, s1, route):
    p = SchemeParams(beta=beta, lam=lam, s=s, s1=s1)
    if route == "no support":
        u, kw = extended_cubic, {}
    else:
        u, kw = example2_extension, {"support": EXAMPLE2_SUPPORT}
        if route == "support, exact sd":
            kw["second_difference"] = example2_second_difference
    batched = reference_apply_operator(u, BATCH_POINTS, p, 0.0, 1.0, **kw)
    pointwise = np.array([reference_apply_operator(u, float(x), p, 0.0, 1.0, **kw)
                          for x in BATCH_POINTS])
    assert batched.shape == BATCH_POINTS.shape
    assert np.all(pointwise != 0.0)
    np.testing.assert_allclose(batched, pointwise, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("M", [16, 256, 1024])
@pytest.mark.parametrize("lam", [0.0, 0.5, 3.0, 30.0])
@pytest.mark.parametrize("beta", [0.05, 0.5, 1.0, 1.5, 1.95])
def test_panel_doubling_self_check(monkeypatch, beta, lam, M):
    # The oracle for problem 2's source: twice the far-field points per graded
    # panel moves no value by more than rounding.
    p = SchemeParams(beta=beta, lam=lam, s=1, s1=1)
    grid = Grid(0.0, 1.0, M)
    assert templap.reference.PANEL_POINTS == 16
    coarse = example2_oracle(p, grid)
    monkeypatch.setattr(templap.reference, "PANEL_POINTS", 32)
    fine = example2_oracle(p, grid)
    assert np.max(np.abs(coarse - fine)) <= 1e-14 * np.max(np.abs(fine))
