"""The exact weight-k moment matrix in Fractions, for tests to compare the
package's integer and modular moment routes with: every row expands
(a + c z)^(k-j) (b + d z)^j as a rational z-series, with no integrality
assumption. Nothing in the package imports this module.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

from parahoric.distributions import _check_monoid
from parahoric.manin import Mat2
from parahoric.padics import CertificationError, valuation


def _lin_pow_series(a: Fraction, c: Fraction, e: int, mlen: int) -> list[Fraction]:
    """Coefficients of (a + c z)^e through z^{mlen-1}; needs a != 0 when e < 0."""
    if e >= 0:
        out = [Fraction(0)] * mlen
        for t in range(min(e, mlen - 1) + 1):
            out[t] = comb(e, t) * a ** (e - t) * c**t
        return out
    if a == 0:
        raise ValueError("negative power of a pure monomial has no moment expansion")
    u = c / a
    term = a**e
    out = [term]
    for t in range(1, mlen):
        term = term * Fraction(e - (t - 1), t) * u
        out.append(term)
    return out


@lru_cache(maxsize=None)
def moment_matrix(
    gamma: Mat2, k: int, mlen: int, p: int | None = None
) -> tuple[tuple[Fraction, ...], ...]:
    """Moment matrix E with (mu|gamma)(z^j) = sum_i E[j][i] mu(z^i).

    Row j expands (a + c z)^(k-j) (b + d z)^j. When p is given the matrix must
    lie in the monoid with unit a and p | c, and the filtration bound is
    checked.
    """
    _check_monoid(gamma, p)
    a, b, c, d = gamma
    rows = []
    af, bf, cf, df = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
    for j in range(mlen):
        A = _lin_pow_series(af, cf, k - j, mlen)
        row = [Fraction(0)] * mlen
        for s in range(min(j, mlen - 1) + 1):
            B = comb(j, s) * bf ** (j - s) * df**s
            if B == 0:
                continue
            for i in range(s, mlen):
                if A[i - s] != 0:
                    row[i] += B * A[i - s]
        rows.append(tuple(row))
    if p is not None:
        for j in range(mlen):
            for i in range(j + 1, mlen):
                if valuation(rows[j][i], p) < i - j:
                    raise CertificationError("filtration bound violated")
    return tuple(rows)


def apply_moments(
    E: Sequence[Sequence[Fraction]], vec: Sequence[Fraction]
) -> list[Fraction]:
    return [sum((r[i] * vec[i] for i in range(len(vec))), Fraction(0)) for r in E]
