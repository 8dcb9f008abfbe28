import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parahoric.rootdata import (
    RootDatum,
    datum_by_name,
    datum_from_json,
    gl_datum,
    gsp4_datum,
    parse_levi,
)


def test_gl_catalog_shapes():
    # GL(30): 435 positive roots, past the iteration cap the closure once had
    for n in [*range(2, 7), 30]:
        d = gl_datum(n)
        assert d.rank == n
        assert d.nsimple == n - 1
        assert len(d.positive_roots) == n * (n - 1) // 2


def test_gsp4_positive_roots():
    d = gsp4_datum()
    assert d.rank == 3
    assert d.nsimple == 2
    # short, long, and the two mixed positive roots
    assert set(d.positive_roots) == {
        (1, -1, 0), (0, 2, -1), (1, 1, -1), (2, 0, -1),
    }


def test_datum_validation_rejects_bad_pairing():
    with pytest.raises(ValueError):
        RootDatum("bad", 2, ((1, 0),), ((1, 1),))  # <a, a^vee> = 1
    with pytest.raises(ValueError):
        RootDatum("bad", 2, ((1, -1), (1, -1)), ((1, -1), (1, -1)))  # dependent


def test_datum_by_name():
    assert datum_by_name("GL4").rank == 4
    assert datum_by_name("gsp4").name == "GSp4"
    with pytest.raises(ValueError):
        datum_by_name("E8")


def test_datum_json_round_trip():
    d = gsp4_datum()
    text = json.dumps(d.describe())
    d2 = datum_from_json(text)
    assert d2.simple_roots == d.simple_roots
    assert d2.coroots == d.coroots
    with pytest.raises(ValueError):
        datum_from_json('{"name": "x", "rank": 2}')


# independent dot-action oracle: reflect lambda + rho and shift back, with
# rho hand-built from the explicit positive-root lists


def _rho(roots):
    tot = [Fraction(0)] * len(roots[0])
    for b in roots:
        for i, x in enumerate(b):
            tot[i] += x
    return [t / 2 for t in tot]


def _oracle_star(datum, pos_roots, lam, i):
    rho = _rho(pos_roots)
    shifted = [Fraction(x) + r for x, r in zip(lam, rho)]
    n = sum(a * b for a, b in zip(shifted, map(Fraction, datum.coroots[i])))
    refl = [x - n * a for x, a in zip(shifted, datum.simple_roots[i])]
    return tuple(x - r for x, r in zip(refl, rho))


GL3_POS = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
GSP4_POS = [(1, -1, 0), (0, 2, -1), (1, 1, -1), (2, 0, -1)]


@given(st.tuples(*[st.integers(-5, 5)] * 3), st.integers(0, 1))
def test_weyl_star_matches_rho_shift_gl3(lam, i):
    d = gl_datum(3)
    assert d.weyl_star(lam, i) == _oracle_star(d, GL3_POS, lam, i)


@given(st.tuples(*[st.integers(-5, 5)] * 3), st.integers(0, 1))
def test_weyl_star_matches_rho_shift_gsp4(lam, i):
    d = gsp4_datum()
    assert d.weyl_star(lam, i) == _oracle_star(d, GSP4_POS, lam, i)


def test_weyl_star_is_an_involution():
    d = gl_datum(4)
    lam = (3, 1, 0, -2)
    for i in range(3):
        assert d.weyl_star(d.weyl_star(lam, i), i) == lam


def test_parabolic_chain_count():
    d = gl_datum(4)
    chains = d.parabolic_chains(frozenset())
    assert len(chains) == 6  # 3! orders
    for ch in chains:
        assert ch[0] == frozenset()
        assert ch[-1] == frozenset({0, 1, 2})
        for a, b in zip(ch, ch[1:]):
            assert a < b and len(b - a) == 1
    with pytest.raises(ValueError):
        d.parabolic_chains({0, 1}, {0})


def test_levi_root_split():
    d = gl_datum(3)
    inside = d.levi_positive_roots({0})
    outside = d.nonlevi_positive_roots({0})
    assert set(inside) == {(1, -1, 0)}
    assert set(outside) == {(0, 1, -1), (1, 0, -1)}
    assert set(inside) | set(outside) == set(d.positive_roots)


def test_parse_levi_names():
    gs = gsp4_datum()
    assert parse_levi(gs, "borel") == frozenset()
    assert parse_levi(gs, "siegel") == frozenset({0})
    assert parse_levi(gs, "klingen") == frozenset({1})
    assert parse_levi(gs, "full") == frozenset({0, 1})
    assert parse_levi(gl_datum(4), "0,2") == frozenset({0, 2})
    with pytest.raises(ValueError):
        parse_levi(gl_datum(3), "siegel")


def test_dominance():
    d = gl_datum(3)
    assert d.is_dominant((2, 1, 0))
    assert d.is_dominant((1, 1, 1))
    assert not d.is_dominant((0, 1, 0))
    assert d.is_regular_dominant((2, 1, 0))
    assert not d.is_regular_dominant((1, 1, 1))


def test_weight_space_dim():
    gs = gsp4_datum()
    # Borel: full torus; Siegel/Klingen: one simple direction used up
    assert gs.weight_space_dim(frozenset()) == 3
    assert gs.weight_space_dim({0}) == 2
    assert gs.weight_space_dim({0}, center_dim=1) == 1
