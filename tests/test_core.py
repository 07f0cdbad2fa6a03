"""Parameter containers: domain enforcement and derived quantities."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from wrightasym.core import DomainError, ScaledArgs, Sign, WrightParams


def test_wright_params_accepts_boundary_interior():
    p = WrightParams(-0.999, 0.0)
    assert p.lam == -0.999


@pytest.mark.parametrize("lam", [-1.0, -1.5, -100.0])
def test_wright_params_rejects_lam_at_or_below_minus_one(lam):
    with pytest.raises(DomainError):
        WrightParams(lam, 1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_wright_params_rejects_nonfinite(bad):
    with pytest.raises(DomainError):
        WrightParams(bad, 1.0)
    with pytest.raises(DomainError):
        WrightParams(0.5, bad)


def test_scaled_args_domain():
    with pytest.raises(DomainError):
        ScaledArgs(-1.0, 1.0, 10.0, Sign.MINUS)
    with pytest.raises(DomainError):
        ScaledArgs(0.5, 0.0, 10.0, Sign.MINUS)
    with pytest.raises(DomainError):
        ScaledArgs(0.5, -0.2, 10.0, Sign.PLUS)
    with pytest.raises(DomainError):
        ScaledArgs(0.5, 1.0, 0.0, Sign.PLUS)
    with pytest.raises(DomainError):
        ScaledArgs(0.5, 1.0, math.nan, Sign.PLUS)


@given(
    lam=st.floats(-0.99, 8.0),
    a=st.floats(0.01, 4.0),
    x=st.floats(0.1, 100.0),
)
def test_scaled_args_derived_quantities(lam, a, x):
    minus = ScaledArgs(lam, a, x, Sign.MINUS)
    plus = ScaledArgs(lam, a, x, Sign.PLUS)
    assert minus.nu == plus.nu == a * x


def test_scaled_args_frozen():
    args = ScaledArgs(0.5, 1.0, 10.0, Sign.MINUS)
    with pytest.raises(AttributeError):
        args.x = 20.0

