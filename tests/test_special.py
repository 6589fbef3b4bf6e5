"""The inverse error function inside solve_gaussian_sigma against two
independent oracles: pure bisection on erf, and the forward erf itself.

With delta = 2*sqrt(2), sigma = 1 / erfinv(p_m), so 1/sigma exposes the
inverse directly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from heightbins.errors import DomainError
from heightbins.losses import solve_gaussian_sigma

_DELTA = 2.0 * np.sqrt(2.0)


def ierf_bisect(p, iters=200):
    """Oracle: plain bisection of erf(x) - p on [-6.5, 6.5]."""
    lo, hi = -6.5, 6.5
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if erf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_matches_bisection_oracle():
    grid = np.linspace(0.001, 0.999, 41)
    got = 1.0 / solve_gaussian_sigma(grid, _DELTA)
    want = np.array([ierf_bisect(p) for p in grid])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_frozen_anchor_value():
    # tabulated ierf(1/2)
    assert 1.0 / solve_gaussian_sigma(0.5, _DELTA) == pytest.approx(0.4769362762044699, abs=1e-12)


@given(st.floats(1e-6, 0.999999))
@settings(max_examples=200, deadline=None)
def test_round_trip(p):
    assert erf(1.0 / solve_gaussian_sigma(p, _DELTA)) == pytest.approx(p, abs=1e-14)


@pytest.mark.parametrize("bad", [0.0, 1.0, -1.0, 1.5, np.nan, np.inf])
def test_domain_errors(bad):
    with pytest.raises(DomainError):
        solve_gaussian_sigma(bad, 1.0)
    with pytest.raises(DomainError):
        solve_gaussian_sigma(np.array([0.5, bad]), 1.0)
