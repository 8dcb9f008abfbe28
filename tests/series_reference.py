"""The U_p series reading path as it ran before the traces moved to U/p^E mod
p^Kt, for tests to compare the engine with: the power traces and Newton's
identities run on the p^D-scaled model matrix mod p^Kbig, and the column
floors come from one valuation per entry. Also a builder of synthetic
p^D-scaled matrices over R_T. Nothing in the package imports this module.
"""
from __future__ import annotations

import random

from parahoric.linalg import power_traces_mod
from parahoric.ocsymbols import CoefficientReading, MomentCache, oc_context, up_model_matrix
from parahoric.padics import CertificationError, NewtonPolygon, PolygonPoint, valuation


def elementary_from_traces(traces, xdeg, p, mod):
    """Newton's identities over R_T mod p^K with per-coefficient division-loss budget."""
    T = len(traces[0])
    e = [[1] + [0] * (T - 1)]
    nloss = [0] * (xdeg + 1)
    for r in range(1, xdeg + 1):
        acc = [0] * T
        worst_in = 0
        for i in range(1, r + 1):
            sgn = 1 if i % 2 == 1 else -1
            er_i = e[r - i]
            pi = traces[i - 1]
            for s in range(T):
                es = er_i[s]
                if es:
                    for t in range(T - s):
                        acc[s + t] += sgn * es * pi[t]
            worst_in = max(worst_in, nloss[r - i])
        vr = valuation(r, p)
        inv_rr = pow(r // p**vr, -1, mod)
        out = []
        for a in acc:
            a %= mod
            if a % p**vr:
                raise CertificationError("Newton numerator lost required divisibility")
            out.append(a // p**vr * inv_rr % mod)
        e.append(out)
        nloss[r] = worst_in + vr
    return e[1:], nloss[1:]


def read_series(U, p, D, Kbig, kappas):
    """Readings [r][t] and the w^0 polygon from the p^D-scaled matrix U mod
    p^Kbig, where kappas[r - 1] is the truncation precision of coefficient r."""
    T = len(U)
    xdeg = len(kappas)
    mod = p**Kbig
    traces = power_traces_mod(U, xdeg, mod)
    elem, nloss = elementary_from_traces(traces, xdeg, p, mod)

    readings = [[CoefficientReading(0, 0, Kbig, True, 1)]
                + [CoefficientReading(0, None, Kbig, True, 0) for _ in range(T - 1)]]
    points = [PolygonPoint(0, 0, True)]
    for r in range(1, xdeg + 1):
        kappa = kappas[r - 1]
        rep_prec = Kbig - nloss[r - 1] - r * D
        prec = min(kappa, rep_prec)
        row = []
        for x in elem[r - 1]:
            rep = (-1) ** r * x % mod
            if rep % p ** (r * D):
                raise CertificationError("scaled coefficient lost p^(rD)")
            c = rep // p ** (r * D) % mod
            v = valuation(c, p)
            if prec > 0 and v < prec:
                row.append(CoefficientReading(r, v, prec, True, c % p**prec))
            else:
                row.append(CoefficientReading(r, None, max(prec, 0), False,
                                              c % p**prec if prec > 0 else None))
        readings.append(row)
        if row[0].certified:
            points.append(PolygonPoint(r, row[0].valuation, True))
        else:
            points.append(PolygonPoint(r, max(prec, 0), False))
    return readings, NewtonPolygon(points)


def certified_series(N, p, k, M, T, xdeg, pad):
    """(xdeg, model_dim, sorted column floors, truncation floor, readings,
    polygon), as ocsymbols._certified_series returns them."""
    mlen = M + pad
    ctx = oc_context(N, p, k, mlen)
    D, S = ctx.D, ctx.S_sol
    n = ctx.n_model
    xdeg = min(xdeg, n)
    Kbig = mlen + xdeg * (D + 1) + 16
    U = up_model_matrix(MomentCache(ctx, Kbig, T))
    floors = []
    for l in range(n):
        v = min([Kbig] + [valuation(row[l], p) for plane in U for row in plane])
        floors.append(min(v - D, mlen - S))
    floors.sort()
    kappas = [(mlen - S) + sum(floors[: r - 1]) for r in range(1, xdeg + 1)]
    readings, polygon = read_series(U, p, D, Kbig, kappas)
    return xdeg, n, floors, mlen - S, readings, polygon


def scaled_matrix(seed, n, T, p, D, K, low_column=None):
    """An n x n matrix over R_T = (Z/p^K)[w]/(w^T), as T planes, whose
    characteristic polynomial has e_r divisible by p^(rD).

    It is A = p^D * (random) conjugated by diag(1, .., p, .., 1) at
    low_column, when given: that column is divided by p and that row
    multiplied by p, so the charpoly stays A's and the column, which holds an
    entry of valuation exactly D in A, has valuation D - 1."""
    rng = random.Random(seed)
    R = [[[rng.randrange(p**K) for _ in range(T)] for _ in range(n)] for _ in range(n)]
    if low_column is not None:
        R[(low_column + 1) % n][low_column][0] = p * rng.randrange(p**K) + 1
    A = [[[p**D * c for c in cell] for cell in row] for row in R]
    if low_column is not None:
        for i in range(n):
            if i != low_column:
                A[i][low_column] = [c // p for c in A[i][low_column]]
                A[low_column][i] = [c * p for c in A[low_column][i]]
    return [[[row[j][t] % p**K for j in range(n)] for row in A] for t in range(T)]
