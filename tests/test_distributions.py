import functools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from moment_reference import apply_moments, moment_matrix
from parahoric.distributions import (
    family_moment_matrix,
    integer_moment_matrix,
    iwasawa_log,
    moment_matrix_mod,
    tail_solve_matrix,
    teichmuller,
)
from parahoric.linalg import frac_mod, solve
from parahoric.manin import ManinSystem, UnsupportedLevel
from parahoric.padics import CertificationError
from parahoric.padics import valuation as padic_val


def oracle_row(gamma, k, j, mlen):
    """Direct expansion of (a + c z)^(k-j) (b + d z)^j, degree < mlen."""
    a, b, c, d = (Fraction(x) for x in gamma)
    out = [Fraction(0)] * mlen
    # (a + cz)^(k-j) may have negative exponent; expand as a/c-series only
    # for the nonnegative case used here
    assert k - j >= 0
    first = [comb(k - j, s) * a ** (k - j - s) * c**s for s in range(k - j + 1)]
    second = [comb(j, s) * b ** (j - s) * d**s for s in range(j + 1)]
    for s1, x in enumerate(first):
        for s2, y in enumerate(second):
            if s1 + s2 < mlen:
                out[s1 + s2] += x * y
    return out


def test_moment_matrix_matches_binomial_oracle():
    rng = random.Random(4)
    for _ in range(25):
        k = rng.randint(0, 4)
        gamma = (1 + 3 * rng.randint(0, 5), rng.randint(-5, 5),
                 3 * rng.randint(-4, 4), 1 + 3 * rng.randint(0, 5))
        E = moment_matrix(gamma, k, 6)
        for j in range(k + 1):
            assert list(E[j]) == oracle_row(gamma, k, j, 6)


def test_moment_matrix_rows_above_weight_use_fractional_powers():
    # row j > k involves (a + cz)^(k-j) with negative exponent: still a
    # well-defined z-series when a is a p-unit
    E = moment_matrix((1, 0, 3, 1), 0, 5, 3)
    # moment filtration: v_p(E[j][i]) >= i - j for Gamma_0(p) transports
    for j in range(5):
        for i in range(5):
            v = padic_val(E[j][i], 3)
            assert v is None or v >= i - j


def test_up_matrix_columns_gain_valuation():
    # delta = [[1, a], [0, p]] scaled composites contract moments: v >= i
    for a in range(3):
        E = moment_matrix((1, a, 0, 3), 0, 6, 3)
        for j in range(6):
            for i in range(6):
                v = padic_val(E[j][i], 3)
                assert v is None or v >= i


def test_sigma0_integrality_sweep():
    """Integral moments stay integral under the monoid action."""
    rng = random.Random(8)
    p = 3
    for _ in range(100):
        k = rng.randint(0, 3)
        a = rng.choice([1, 2, 4, 5, 7]) % 9 or 1
        gamma = (a, rng.randint(-9, 9), p * rng.randint(-6, 6), rng.randint(1, 9))
        if gamma[0] * gamma[3] - gamma[1] * gamma[2] == 0:
            continue
        E = moment_matrix(gamma, k, 5, p)
        mu = [Fraction(rng.randint(-20, 20)) for _ in range(5)]
        out = apply_moments(E, mu)
        for x in out:
            assert x.denominator % p != 0


def test_composition_is_graded_not_exact():
    """E(m2 m1) - E(m1) E(m2) vanishes to order mlen - row: truncation only."""
    p, k, mlen = 3, 2, 6
    m1 = (1, 1, 3, 4)
    m2 = (2, 0, 3, 1)
    m21 = (m2[0] * m1[0] + m2[1] * m1[2], m2[0] * m1[1] + m2[1] * m1[3],
           m2[2] * m1[0] + m2[3] * m1[2], m2[2] * m1[1] + m2[3] * m1[3])
    E1 = moment_matrix(m1, k, mlen, p)
    E2 = moment_matrix(m2, k, mlen, p)
    E21 = moment_matrix(m21, k, mlen, p)
    prod = [[sum(E1[j][s] * E2[s][i] for s in range(mlen)) for i in range(mlen)]
            for j in range(mlen)]
    for j in range(mlen):
        for i in range(mlen):
            diff = E21[j][i] - prod[j][i]
            v = padic_val(diff, p)
            assert v is None or v >= mlen - j - 2


def _tail_solution(W, k, mlen, rng):
    """Random nu with nu_0 = 0 and top moment, and m = Sol nu + top e_{mlen-1}."""
    nu = [Fraction(0)] + [Fraction(rng.randint(-50, 50)) for _ in range(1, mlen)]
    top = Fraction(rng.randint(-50, 50))
    S = tail_solve_matrix(integer_moment_matrix(W, k, mlen), mlen)
    m = [sum(S[j][i] * nu[i] for i in range(mlen)) for j in range(mlen)]
    m[mlen - 1] += top
    return nu, top, m


def test_tail_solve_reproduces_relation():
    """For every supported tail twist W, Sol nu plus a top moment satisfies
    the relation rows (m|W)_j - m_j = nu_j below the top moment, read with
    the Fraction moment matrix."""
    rng = random.Random(11)
    for N, p, W in _supported_tails():
        for k in (0, 2):
            mlen = rng.randint(k + 2, 12)
            nu, top, m = _tail_solution(W, k, mlen, rng)
            out = apply_moments(moment_matrix(W, k, mlen), m)
            for j in range(mlen - 1):
                assert out[j] - m[j] == nu[j], (N, p, k, mlen, j)
            assert m[mlen - 1] == top


def test_tail_solve_matrix_agrees_with_solver():
    """Sol nu plus a top moment is the solution linalg.solve finds for the
    relation rows (m|W)_j - m_j = nu_j, j >= 1, with that top moment, at
    every supported tail; row 0 reads 0 = nu_0."""
    rng = random.Random(12)
    for N, p, W in _supported_tails():
        k = 2
        mlen = rng.randint(k + 2, 10)
        nu, top, m = _tail_solution(W, k, mlen, rng)
        E = moment_matrix(W, k, mlen)
        rows = [[E[j][i] - (i == j) for i in range(mlen)] for j in range(1, mlen)]
        rows.append([0] * (mlen - 1) + [1])
        assert solve(rows, nu[1:] + [top]) == m, (N, p, mlen)
        out = apply_moments(E, m)
        assert [out[j] - m[j] for j in range(mlen - 1)] == nu[:mlen - 1]


def test_teichmuller_character():
    p, K = 3, 12
    for a in (1, 2, 4, 5, 7, 8):
        w = teichmuller(a, p, K)
        assert (w - a) % p == 0
        assert pow(w, p - 1, p**K) == 1


def test_iwasawa_log_is_additive():
    p, K = 3, 10
    mod = p**K
    for a in (4, 7, 10):
        for b in (4, 13):
            la = iwasawa_log(a, p, K)
            lb = iwasawa_log(b, p, K)
            lab = iwasawa_log(a * b % p ** (K + 4), p, K)
            assert (la + lb - lab) % mod == 0
    # kills the torsion part: log of a Teichmuller lift vanishes
    assert iwasawa_log(teichmuller(2, p, K + 4), p, K) % mod == 0


def test_family_matrix_center_layer_is_classical():
    p, k0, mlen, T, K = 3, 0, 5, 3, 14
    gamma = (1, 2, 3, 7)
    fam = family_moment_matrix(gamma, k0, mlen, T, p, K)
    cls = moment_matrix(gamma, k0, mlen, p)
    mod = p**K
    for j in range(mlen):
        for i in range(mlen):
            assert fam[0][j][i] == (int(cls[j][i]) % mod)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_family_matrix_at_one_layer_is_the_weight_matrix(p):
    """At T = 1 the family matrix is the weight-k0 matrix, p = 2 included."""
    rng = random.Random(p)
    for _ in range(10):
        gamma = (rng.randrange(-20, 20) * p + 1, rng.randrange(-20, 20),
                 rng.randrange(-6, 6) * p, rng.randrange(-20, 20) * 2 + 1)
        if gamma[0] * gamma[3] == gamma[1] * gamma[2]:
            continue
        k0, mlen, K = rng.randrange(-2, 5), rng.randrange(1, 9), rng.randrange(1, 12)
        fam = family_moment_matrix(gamma, k0, mlen, 1, p, K)
        ref = moment_matrix_mod(gamma, k0, mlen, p, p**K)
        for j in range(mlen):
            for i in range(mlen):
                assert fam[0][j][i] == ref[j][i]


def test_family_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        family_moment_matrix((3, 1, 3, 1), 0, 4, 2, 3, 8)  # a not a unit
    with pytest.raises(ValueError):
        family_moment_matrix((1, 1, 0, 1), 0, 4, 2, 2, 8)  # p = 2 excluded


def test_family_matrix_w_layer_scales_like_log():
    """First w-layer of the unit action is kappa times the center layer on
    the constant column."""
    p, mlen, T, K = 3, 4, 2, 12
    a = 4
    fam = family_moment_matrix((a, 0, 0, 1), 0, mlen, T, p, K)
    kappa = iwasawa_log(a, p, K)
    mod = p**K
    # gamma diagonal: row j col j carries d^j; w-layer multiplies by kappa
    for j in range(mlen):
        assert fam[1][j][j] == fam[0][j][j] * kappa % mod


@pytest.mark.parametrize("T", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_family_matrix_of_minus_gamma_is_the_weight_sign(p, k, T):
    """E(-gamma) = (-1)^k E(gamma) mod p^K on every w-plane: the weight
    rows pick up (-1)^k and <-a - c z> = <a + c z>, so one matrix serves
    both signs of a."""
    rng = random.Random(100 * p + 10 * k + T)
    mlen, K = 6, 9
    mod = p**K
    for sign in (1, -1, 1, -1):
        while True:
            a = sign * (rng.randrange(0, 20) * p + rng.randrange(1, p))
            gamma = (a, rng.randrange(-30, 30), rng.randrange(-6, 6) * p, rng.randrange(-30, 30))
            if gamma[0] * gamma[3] != gamma[1] * gamma[2]:
                break
        fam = family_moment_matrix(gamma, k, mlen, T, p, K)
        neg = family_moment_matrix(tuple(-x for x in gamma), k, mlen, T, p, K)
        assert len(neg) == len(fam) == T
        for plane, minus in zip(fam, neg):
            for row, mrow in zip(plane, minus):
                assert [((-1) ** k * x - y) % mod for x, y in zip(row, mrow)] == [0] * mlen


def _outcome(build):
    try:
        return [list(row) for row in build()]
    except (ValueError, ArithmeticError) as e:
        return type(e), str(e)


@given(
    st.sampled_from([2, 3, 5]), st.integers(1, 10), st.integers(-3, 6), st.integers(1, 12),
    st.integers(-30, 30), st.integers(-30, 30), st.integers(-10, 10), st.integers(-30, 30),
)
def test_moment_matrix_mod_matches_exact_reduction(p, K, k, mlen, a, b, c, d):
    """On the monoid the recurrence equals the reduced Fraction expansion."""
    a = a * p + 1
    c *= p
    if a * d == b * c:
        d += 1
    mod = p**K
    exact = moment_matrix((a, b, c, d), k, mlen, p)
    want = [[frac_mod(x, mod) for x in row] for row in exact]
    assert moment_matrix_mod((a, b, c, d), k, mlen, p, mod) == want


@given(
    st.sampled_from([2, 3, 5]), st.integers(-3, 6), st.integers(1, 8),
    st.tuples(*[st.integers(-9, 9)] * 4),
)
def test_moment_matrix_mod_rejects_like_exact(p, k, mlen, gamma):
    """Off the monoid both constructions raise the same error."""
    mod = p**6
    want = _outcome(lambda: moment_matrix(gamma, k, mlen, p))
    got = _outcome(lambda: moment_matrix_mod(gamma, k, mlen, p, mod))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got == [[frac_mod(x, mod) for x in row] for row in want]


@given(st.integers(0, 8), st.integers(1, 12), st.integers(-40, 40), st.integers(-40, 40),
       st.integers(-40, 40), st.integers(-40, 40))
def test_integer_moment_matrix_is_moment_matrix(k, mlen, a, b, c, d):
    """The int expansion equals the Fraction moment_matrix: for any
    nonsingular integer matrix up to k + 1 moments, and past them for a
    tail-shaped matrix, c = 0 and a = +-1."""
    if mlen > k + 1:
        a, c = (1 if a >= 0 else -1), 0
    assume(a * d - b * c != 0)
    got = integer_moment_matrix((a, b, c, d), k, mlen)
    assert all(type(x) is int for row in got for x in row)
    assert got == moment_matrix((a, b, c, d), k, mlen)


def test_integer_moment_matrix_rejects_singular():
    with pytest.raises(ValueError, match="singular"):
        integer_moment_matrix((2, 4, 1, 2), 3)


@pytest.mark.parametrize("gamma", [(1, 2, 3, 7), (-1, 0, 5, 1), (2, 1, 0, 1), (3, 1, 0, -1)])
def test_integer_moment_matrix_rejects_rational_rows(gamma):
    """Rows past the weight need a = +-1 to be integral and c = 0 for their
    closed form, so (-1, 0, 5, 1) is rejected too, though its rows are
    integral."""
    assert len(integer_moment_matrix(gamma, 2, 3)) == 3
    with pytest.raises(CertificationError, match="not integral"):
        integer_moment_matrix(gamma, 2, 4)


@functools.lru_cache(maxsize=None)
def _supported_tails():
    """(N, p, W) for the tail twist W of every supported level N < 38 and
    p in (2, 3, 5, 7, 11) prime to N."""
    tails = []
    for N in range(1, 38):
        for p in (2, 3, 5, 7, 11):
            if N % p == 0:
                continue
            try:
                tails.append((N, p, ManinSystem(N, p).solved_presentation().tail.W))
            except UnsupportedLevel:
                continue
    return tails


def test_every_supported_tail_is_unipotent_up_to_sign():
    """The tail twist W of every supported level has c = 0 and |a| = |d| = 1,
    so its moment matrix is integral at every length."""
    tails = _supported_tails()
    for N, p, (a, _, c, d) in tails:
        assert c == 0 and abs(a) == abs(d) == 1, (N, p)
    assert len(tails) == 68
