"""Moment coordinates for p-adic distribution modules.

A distribution is stored through its moments m_j = mu(z^j), and truncation
keeps the first mlen moments. The weight-k right action of an integer matrix
has moment matrix rows (a + c z)^(k-j) (b + d z)^j. Rows j <= k are integer
polynomials, and so is every row when c = 0 and a = +-1 (the tail twist):
integer_moment_matrix builds those exactly. Matrices with unit upper-left
entry and lower-left entry divisible by p have p-integral rows and never
decrease the moment filtration, v_p(E[j][i]) >= i - j; moment_matrix_mod
builds them mod p^K, and family_moment_matrix over Z_p[[w]]/(w^T), as one
plane of int rows per power of w.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd
from typing import Sequence

from .linalg import frac_mod
from .manin import Mat2
from .padics import VAL_INF, CertificationError, valuation


def _check_monoid(gamma: Mat2, p: int | None) -> None:
    a, b, c, d = gamma
    if a * d - b * c == 0:
        raise ValueError("singular matrix")
    if p is not None:
        if a % p == 0:
            raise ValueError("upper-left entry must be a p-adic unit")
        if c % p != 0:
            raise ValueError("lower-left entry must be divisible by p")


def integer_moment_matrix(
    gamma: Mat2, k: int, mlen: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Moment matrix E with (mu|gamma)(z^j) = sum_i E[j][i] mu(z^i), in ints.

    Row j holds the coefficients of (a + c z)^(k-j) (b + d z)^j below z^mlen
    (mlen defaults to k + 1). A row j > k has a negative power of a + c z,
    which is an integral series whenever a = +-1; but the closed-form factor
    [a**-e] used for it is right only when c = 0. So rows past the weight
    need c = 0 and a = +-1, as for the tail twist, and any other gamma
    raises CertificationError when mlen > k + 1.
    """
    _check_monoid(gamma, None)
    a, b, c, d = gamma
    if mlen is None:
        mlen = k + 1
    if mlen > k + 1 and (c != 0 or abs(a) != 1):
        raise CertificationError(f"moment rows above weight {k} of {gamma} are not integral")
    rows = []
    for j in range(mlen):
        e = k - j
        A = [comb(e, t) * a ** (e - t) * c**t for t in range(e + 1)] if e >= 0 else [a**-e]
        row = [0] * mlen
        for s in range(j + 1):
            B = comb(j, s) * b ** (j - s) * d**s
            if B:
                for t, x in enumerate(A[:mlen - s]):
                    row[s + t] += B * x
        rows.append(tuple(row))
    return tuple(rows)


def moment_matrix_mod(
    gamma: Mat2, k: int, mlen: int, p: int, mod: int
) -> list[list[int]]:
    """The weight-k moment matrix of gamma on mlen moments, modulo mod, a
    power of p. On the monoid its entries are p-integral: a is a unit, so
    the negative powers of a + c z in rows j > k expand over Z_p.

    Row 0 is (a + c z)^k and row j+1 = row j * (b + d z) / (a + c z) in
    (Z/mod)[z]/(z^mlen): O(mlen) work per row. Division by a + c z needs a
    invertible mod p, which the monoid condition gives. The filtration bound
    v_p(E[j][i]) >= i - j is checked on the residues, as divisibility by
    gcd(p^(i-j), mod), one floor per offset i - j.
    """
    _check_monoid(gamma, p)
    a, b, c, d = gamma
    ainv = pow(a, -1, mod)

    def div_lin(row: list[int]) -> list[int]:
        out, prev = [], 0
        for x in row:
            prev = (x - c * prev) * ainv % mod
            out.append(prev)
        return out

    if k >= 0:
        row = [comb(k, t) * pow(a, k - t, mod) * pow(c, t, mod) % mod if t <= k else 0
               for t in range(mlen)]
    else:
        row = [1] + [0] * (mlen - 1)
        for _ in range(-k):
            row = div_lin(row)
    rows = [row]
    for _ in range(1, mlen):
        row = div_lin([b * x + d * y for x, y in zip(row, [0] + row)])
        rows.append(row)
    floors = [gcd(p**o, mod) for o in range(mlen)]
    for j in range(mlen):
        for i in range(j + 1, mlen):
            if rows[j][i] % floors[i - j]:
                raise CertificationError("filtration bound violated")
    return rows


def tail_solve_matrix(
    E: Sequence[Sequence[int]], mlen: int
) -> list[list[Fraction]]:
    """Matrix Sol of the tail solve: for nu with nu_0 = 0, m = Sol nu solves
    m|(W-1) = nu in the first mlen-1 moments, with top moment 0.

    E is the moment matrix of the tail twist W; it must be unipotent in the
    moment filtration. Row j of the relation reads
    sum_{i<=j-1} E[j][i] m_i = nu_j, so by forward substitution row j-1 of
    Sol is (e_j - sum_{i<j-1} E[j][i] Sol[i]) / E[j][j-1]; column 0 and the
    top row stay zero.
    """
    for j in range(mlen):
        if E[j][j] != 1 or any(E[j][j + 1:]):
            raise CertificationError("tail twist is not unipotent on moments")
    sol = [[Fraction(0)] * mlen for _ in range(mlen)]
    for j in range(1, mlen):
        piv = E[j][j - 1]
        if piv == 0:
            raise CertificationError("tail solve pivot vanished")
        # Sol[i] is zero past column i + 1, so row j - 1 past column j
        row = [Fraction(int(l == j)) for l in range(j + 1)]
        for i in range(j - 1):
            if E[j][i]:
                row[:i + 2] = [r - E[j][i] * s for r, s in zip(row, sol[i][:i + 2])]
        sol[j - 1][:j + 1] = [r / piv for r in row]
    return sol


def solve_error_profile(
    E: Sequence[Sequence[int]], p: int, in_prof: Sequence[int]
) -> list[int]:
    """Worst-case valuation floors for the solved moments.

    in_prof[j] bounds below the valuation of the error on nu_j; the returned
    list bounds the error on each solved moment (top moment exact).
    """
    mlen = len(in_prof)
    out = [VAL_INF] * mlen
    for j in range(1, mlen):
        floor = in_prof[j]
        for i in range(j - 1):
            if E[j][i]:
                floor = min(floor, out[i] + valuation(E[j][i], p))
        if E[j][j - 1] == 0:
            raise CertificationError("tail solve pivot vanished")
        out[j - 1] = floor - valuation(E[j][j - 1], p)
    out[mlen - 1] = VAL_INF
    return out


# family coefficients: Z_p[[w]]/(w^T) with integer representatives mod p^K

def teichmuller(a: int, p: int, K: int) -> int:
    if a % p == 0:
        raise ValueError("Teichmuller lift needs a unit")
    m = p**K
    x = a % m
    for _ in range(K + 2):
        y = pow(x, p, m)
        if y == x:
            break
        x = y
    if pow(x, p, m) != x:
        raise CertificationError("Teichmuller iteration did not reach a fixed point")
    return x


def iwasawa_log(a: int, p: int, K: int) -> int:
    """log of the 1-unit part of a, as an integer mod p^K."""
    pad = 4
    m = p ** (K + pad)
    om = teichmuller(a, p, K + pad)
    u = (a % m) * pow(om, -1, m) % m
    x = u - 1
    if x % p:
        raise CertificationError("the 1-unit part of a is not 1 mod p")
    tot = Fraction(0)
    t = 1
    xt = 1
    while t - valuation(t, p) < K + pad:
        xt *= x
        tot += Fraction((-1) ** (t + 1) * xt, t)
        t += 1
    return frac_mod(tot, p**K)


def _zconv(u: Sequence[int], v: Sequence[int], mlen: int, mod: int) -> list[int]:
    out = [0] * mlen
    for i, ui in enumerate(u):
        if ui == 0 or i >= mlen:
            continue
        for j in range(mlen - i):
            out[i + j] = (out[i + j] + ui * v[j]) % mod
    return out


def family_moment_matrix(
    gamma: Mat2, k0: int, mlen: int, T: int, p: int, K: int
) -> list[list[list[int]]]:
    """Moment matrix over Z_p[[w]]/(w^T) as T w-coefficient planes mod p^K:
    plane t is the w^t layer, a list of mlen int rows.

    The action multiplies the weight-k0 row by exp(w log<a + c z>); the log of
    the 1-unit part splits as log<a> + log(1 + (c/a) z), so row j of plane t
    is the weight-k0 row P_j times G_t = L^t / t! in z. Internal precision is
    padded so the divisions by t! keep K true digits. At T = 1 only the w^0
    plane survives: the weight-k0 matrix itself, which needs no logarithm and
    so also serves p = 2.
    """
    _check_monoid(gamma, p)
    a, b, c, d = gamma
    if T == 1:
        return [moment_matrix_mod(gamma, k0, mlen, p, p**K)]
    if p == 2:
        raise ValueError("family coefficients need p odd")
    vfact = valuation(factorial(max(T - 1, 1)), p)
    Kw = K + vfact
    mw = p**Kw
    kappa = iwasawa_log(a % p ** (Kw + 4), p, Kw)
    u = Fraction(c, a)
    # L(z) = log<a + c z> as a z-series; constant term kappa
    L = [kappa % mw]
    for s in range(1, mlen):
        L.append(frac_mod(Fraction((-1) ** (s + 1), s) * u**s, mw))
    # G_t = L^t / t! for t >= 1, dividing out p-powers exactly as they appear
    cur = [1] + [0] * (mlen - 1)
    Gs: list[list[int]] = []
    lost = 0
    for t in range(1, T):
        nxt = _zconv(cur, L, mlen, mw)
        vt = valuation(t, p)
        lost += vt
        if lost > vfact:
            raise CertificationError("t! lost more p-powers than (T - 1)! holds")
        scale = p**vt
        unit = t // scale
        inv_unit = pow(unit, -1, mw)
        div = []
        for x in nxt:
            if x % scale:
                raise CertificationError("family series lost integrality")
            div.append(x // scale * inv_unit % mw)
        cur = div
        Gs.append(cur)
    mK = p**K
    P = moment_matrix_mod(gamma, k0, mlen, p, mw)
    # G_0 = 1, so plane 0 is the weight-k0 matrix itself
    return [[[x % mK for x in Pj] for Pj in P]] + [
        [_zconv(Pj, Gt, mlen, mK) for Pj in P] for Gt in Gs]
