"""Eta products as oracles for the classical Hecke spectra and a k = 2 lift.

Each newform below is prod_d eta(dz)^r_d with sum d r_d = 24, so its
q-expansion is q prod_d prod_n (1 - q^(dn))^r_d, with a_1 = 1. The expansion
uses integers and no code of the package. Each case first checks that the
expansion is a Hecke eigenform of weight k + 2, then that the engine's
classical T_ell spectrum contains a_ell and its classical U_p the roots of
x^2 - a_p x + p^(k+1).
"""
import math

import pytest

from parahoric.ocsymbols import (
    auto_eigensymbol,
    classical_space,
    integer_charpoly,
    integer_eigenvalues,
    lift_symbol,
)


def eta_product(exps: dict[int, int], count: int) -> list[int]:
    """a_n for n < count of prod_d eta(dz)^exps[d], all exps positive."""
    assert sum(d * r for d, r in exps.items()) == 24
    series = [0] * count
    series[1] = 1
    for d, r in exps.items():
        for step in range(d, count, d):
            for _ in range(r):
                for i in range(count - 1, step - 1, -1):
                    series[i] -= series[i - step]
    return series


def _primes(bound: int) -> list[int]:
    return [n for n in range(2, bound) if all(n % q for q in range(2, math.isqrt(n) + 1))]


# (N, p, k), {d: r_d}, the a_ell checked against T_ell, and the trace of the
# stabilization auto_eigensymbol picks (a_p), where it picks this form
CASES = [
    ((14, 3, 0), {1: 1, 2: 1, 7: 1, 14: 1}, {5: 0, 11: 0, 13: -4}, -2),
    ((5, 3, 2), {1: 4, 5: 4}, {2: -4, 7: 6, 11: 32, 13: -38}, 2),
    ((4, 3, 4), {2: 12}, {5: 54, 7: -88, 11: 540, 13: -418}, None),
    ((2, 3, 6), {1: 8, 2: 8}, {5: -210, 7: 1016, 11: 1092, 13: 1382}, None),
    ((6, 5, 2), {1: 2, 2: 2, 3: 2, 6: 2}, {7: -16, 11: 12, 13: 38}, 6),
]


@pytest.mark.parametrize("level, exps, a_ell, trace", CASES, ids=[str(c[0]) for c in CASES])
def test_classical_spectrum_contains_the_eta_product(level, exps, a_ell, trace):
    N, p, k = level
    count = max(a_ell) ** 2 + 1
    a = eta_product(exps, count)
    # the expansion is a normalized Hecke eigenform of level N and weight k + 2
    for m in range(2, count):
        for n in range(2, (count - 1) // m + 1):
            if math.gcd(m, n) == 1:
                assert a[m * n] == a[m] * a[n], (m, n)
    for ell in _primes(math.isqrt(count - 1) + 1):
        if N % ell:
            assert a[ell * ell] == a[ell] ** 2 - ell ** (k + 1), ell
    assert {ell: a[ell] for ell in a_ell} == a_ell
    space = classical_space(N, p, k)
    for ell, value in a_ell.items():
        assert value in integer_eigenvalues(space.hecke_matrix(ell), ell ** (k + 1) + 1), ell
    # p does not divide N: the p-stabilization polynomial x^2 - a_p x + p^(k+1)
    # divides the characteristic polynomial of the classical U_p
    rem = integer_charpoly(space.up_matrix())
    for top in range(len(rem) - 1, 1, -1):
        c = rem[top]
        rem[top] -= c
        rem[top - 1] += c * a[p]
        rem[top - 2] -= c * p ** (k + 1)
    assert rem[:2] == [0, 0]
    if trace is not None:
        assert trace == a[p]
        sym = auto_eigensymbol(space, B=20)
        assert sym.trace == trace
        # its alpha is the unit root of the stabilization polynomial
        assert sym.alpha % p and (sym.alpha**2 - trace * sym.alpha + p ** (k + 1)) % p**sym.B == 0


def _unit_root(a_p: int, p: int, k: int, prec: int) -> int:
    """The unit root of X^2 - a_p X + p^(k+1) mod p^prec, by Newton's method
    from a_p mod p."""
    mod = p**prec
    r = a_p % p
    for _ in range(prec):
        r = (r - (r * r - a_p * r + p ** (k + 1)) * pow(2 * r - a_p, -1, mod)) % mod
    assert (r * r - a_p * r + p ** (k + 1)) % mod == 0
    return r


def test_weight_two_lift_reaches_the_eta_unit_root():
    """At (5, 3, 2) the lift tunes a moment above the classical layer (k > 0)
    and its eigenvalue is the unit root of X^2 - a_3 X + 3^3, a_3 from the
    eta product eta(z)^4 eta(5z)^4."""
    N, p, k, M = 5, 3, 2, 8
    a_p = eta_product({1: 4, 5: 4}, p + 1)[p]
    space = classical_space(N, p, k)
    sym = auto_eigensymbol(space, B=M + 24)
    assert sym.trace == a_p == 2
    rep = lift_symbol(space, sym, M)
    assert rep.converged and rep.specialization_ok
    prec = rep.eigenvalue_precision
    assert prec >= M - 2
    assert rep.eigenvalue % p**prec == _unit_root(a_p, p, k, prec)


def test_delta_lift_at_eleven_reaches_the_unit_root():
    """Delta = eta(z)^24 at p = 11, k = 10: level 11 has no elliptic points,
    the search picks the stabilization of trace tau(11), and the lift at
    M = 14 (the CLI's B = M + 24) converges to the unit root of
    X^2 - tau(11) X + 11^11 mod 11^14."""
    N, p, k, M = 1, 11, 10, 14
    tau = eta_product({1: 24}, p + 1)
    assert tau[:4] == [0, 1, -24, 252] and tau[p] == 534612
    space = classical_space(N, p, k)
    sym = auto_eigensymbol(space, B=M + 24)
    assert sym.trace == tau[p]
    rep = lift_symbol(space, sym, M)
    assert rep.converged and rep.specialization_ok
    assert rep.eigenvalue_precision == M
    alpha = _unit_root(tau[p], p, k, M)
    assert alpha == 319834383289543
    assert rep.eigenvalue % p**M == alpha
