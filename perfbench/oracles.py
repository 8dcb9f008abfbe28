"""Reference values computed without the overconvergent engine."""
from __future__ import annotations

from itertools import combinations


def eta_11a_coefficients(count: int) -> list[int]:
    """q-expansion of eta(z)^2 eta(11z)^2 = q prod (1 - q^n)^2 (1 - q^11n)^2,
    the newform of 11a; entry n is a_n for n < count."""
    series = [0] * count
    if count > 1:
        series[1] = 1
    for n in range(1, count):
        for step in (n, n, 11 * n, 11 * n):
            for i in range(count - 1, step - 1, -1):
                series[i] -= series[i - step]
    return series


def unit_root(a_p: int, p: int, prec: int) -> int:
    """Root of X^2 - a_p X + p congruent to a_p mod p, by Newton's method mod p^prec."""
    mod = p**prec
    r = a_p % p
    for _ in range(prec.bit_length() + 2):
        f = (r * r - a_p * r + p) % mod
        df = (2 * r - a_p) % mod
        r = (r - f * pow(df, -1, mod)) % mod
    assert (r * r - a_p * r + p) % mod == 0
    return r


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def unit_root_count(charpoly: list, p: int) -> int:
    """Number of p-adic unit roots of a monic integral polynomial given low
    degree first: the length of its Newton polygon's slope-0 segment."""
    degree = len(charpoly) - 1
    for i, c in enumerate(charpoly):
        if c and c.denominator == 1 and _vp(int(c), p) == 0:
            return degree - i
    raise ValueError("polynomial is not monic")


def theta_kernel_dim(n: int, i: int, lam: tuple[int, ...], d: int) -> int:
    """dim ker Theta_{alpha_i} on polynomials of degree <= d in the coordinates
    z_ab (a < b) of the unipotent radical of GL(n).

    l(X_{alpha_i}) differentiates f((I - t E_{i,i+1}) Z) at t = 0, which is
    -sum_{b > i} z_{i+1,b} d/dz_{i,b} with z_{i+1,i+1} = 1, and Theta is its
    power <lambda, alpha_i^vee> + 1. The rank is taken modulo a 61-bit prime.
    """
    coords = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {c: j for j, c in enumerate(coords)}
    monos = list(_monomials(len(coords), d))
    position = {m: j for j, m in enumerate(monos)}
    field = [(index[(i, b)], None if b == i + 1 else index[(i + 1, b)])
             for b in range(i + 1, n)]

    def derive(poly: dict) -> dict:
        out: dict = {}
        for mono, c in poly.items():
            for target, factor in field:
                e = mono[target]
                if not e:
                    continue
                new = list(mono)
                new[target] -= 1
                if factor is not None:
                    new[factor] += 1
                key = tuple(new)
                out[key] = out.get(key, 0) - c * e
        return {m: c for m, c in out.items() if c}

    power = lam[i] - lam[i + 1] + 1
    rows = []
    for mono in monos:
        img = {mono: 1}
        for _ in range(power):
            img = derive(img)
        rows.append({position[m]: c for m, c in img.items()})
    return len(monos) - _rank_mod(rows, 2**61 - 1)


def _monomials(nvars: int, d: int):
    """Exponent vectors of total degree <= d, by stars and bars."""
    for total in range(d + 1):
        for bars in combinations(range(total + nvars - 1), nvars - 1):
            prev, exps = -1, []
            for b in bars:
                exps.append(b - prev - 1)
                prev = b
            exps.append(total + nvars - 2 - prev)
            yield tuple(exps)


def _rank_mod(rows: list[dict], q: int) -> int:
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {j: c % q for j, c in row.items() if c % q}
        while row:
            j = min(row)
            if j not in pivots:
                inv = pow(row[j], -1, q)
                pivots[j] = {k: v * inv % q for k, v in row.items()}
                break
            factor = row[j]
            for k, v in pivots[j].items():
                row[k] = (row.get(k, 0) - factor * v) % q
                if not row[k]:
                    del row[k]
    return len(pivots)
