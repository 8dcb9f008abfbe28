from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parahoric.padics import (
    INF,
    AmbiguityError,
    NewtonPolygon,
    PolygonPoint,
    default_precision,
    hensel_lift_root,
    newton_polygon_of_poly,
    valuation,
)


def test_default_precision_env(monkeypatch):
    monkeypatch.delenv("PARAHORIC_PRECISION", raising=False)
    assert default_precision() == 20
    monkeypatch.setenv("PARAHORIC_PRECISION", "7")
    assert default_precision() == 7
    monkeypatch.setenv("PARAHORIC_PRECISION", "zero")
    with pytest.raises(ValueError):
        default_precision()


@given(st.integers(-10**6, 10**6).filter(bool), st.sampled_from([2, 3, 5, 7]))
def test_valuation_strips_exactly(n, p):
    v = valuation(n, p)
    assert n % p**v == 0 and (n // p**v) % p != 0


def test_polygon_of_quadratic_oracle():
    # X^2 + X + 3 at p = 3: vertices (0,1), (1,0), (2,0)
    poly = newton_polygon_of_poly([3, 1, 1], 3)
    assert poly.slopes() == [(Fraction(-1), 1), (Fraction(0), 1)]
    assert poly.root_valuations() == [(Fraction(0), 1), (Fraction(1), 1)]


def test_polygon_uncertified_vertex_blocks_counting():
    pts = [
        PolygonPoint(0, 0, True),
        PolygonPoint(1, 0, True),
        PolygonPoint(2, 0, False),   # only a precision floor
        PolygonPoint(3, 2, True),
    ]
    poly = NewtonPolygon(pts)
    # the floor point is a hull vertex, so nothing below it is certified
    assert poly.certified_slopes() == []
    with pytest.raises(AmbiguityError):
        poly.slope_le_count(0)


def test_polygon_absorbs_collinear_uncertified_point():
    pts = [
        PolygonPoint(0, 0, True),
        PolygonPoint(1, 0, True),
        PolygonPoint(2, 1, False),   # sits on the certified segment
        PolygonPoint(3, 2, True),
    ]
    poly = NewtonPolygon(pts)
    assert [v.index for v in poly.vertices] == [0, 1, 3]
    assert poly.certified_slopes() == [(Fraction(0), 1), (Fraction(1), 2)]
    assert poly.slope_le_count(0) == 1
    assert poly.slope_le_count(1) == 3


def test_polygon_slope_le_count():
    poly = NewtonPolygon.from_valuations([0, 0, 0, 1, 3])
    assert poly.slope_le_count(0) == 2
    assert poly.slope_le_count(1) == 3
    assert poly.slope_le_count(2) == 4


def test_polygon_zero_coefficient_is_infinite_height():
    poly = newton_polygon_of_poly([1, 0, 1], 2)
    assert [v.index for v in poly.vertices] == [0, 2]


def test_hensel_unit_root():
    r = hensel_lift_root([3, 1, 1], 3, r0=2, prec=10)
    assert (r * r + r + 3) % 3**10 == 0
    assert r % 3 == 2
    with pytest.raises(ValueError):
        hensel_lift_root([3, 1, 1], 3, r0=1, prec=10)  # f(1) = 5, not a root mod 3


def test_infinity_sentinel_ordering():
    assert INF > 10**9
    assert min(INF, 3) == 3
