"""Dense exact linear algebra over Q, plus modular helpers.

Matrices are lists of row lists of ints or Fractions. Everything here is
exact, and row reduction runs over Z: `rref` returns one primitive integer
row per pivot and `nullspace` primitive integer vectors, so only `solve`
builds Fractions, for its answer. Integer data stays on an integer route:
`primitive` reads denominators only when a Fraction is present, and each row
that elimination updates is divided by its content, math.gcd of its entries.
Callers that want p-adic truncation reduce afterwards.
"""
from __future__ import annotations

import math
import operator
from itertools import chain
from fractions import Fraction
from typing import Iterable, Sequence

Matrix = Sequence[Sequence[int | Fraction]]


def matvec(a: Sequence[Sequence], v: Sequence) -> list:
    """Unreduced a v over ints or Fractions; the entries of v may be column bundles."""
    return [sum(map(operator.mul, row, v)) for row in a]


def primitive(values: Iterable[int | Fraction]) -> list[int]:
    """Rational values times the lcm of their denominators, divided by the
    content (gcd) of the result: the primitive integer vector on their line,
    with the same signs. All zeros stay zeros."""
    ints = list(values)
    try:
        g = math.gcd(*ints)
    except TypeError:  # a Fraction among them: clear the denominators first
        den = math.lcm(*(x.denominator for x in ints))
        ints = [x.numerator * (den // x.denominator) for x in ints]
        g = math.gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def rref(rows: Matrix) -> tuple[list[list[int]], list[int]]:
    """Integer reduced row echelon form. Returns (R, pivot column indices).

    Entries may be ints or Fractions. R has one primitive integer row per
    pivot, positive at its pivot and zero at every other pivot column: the
    Gauss-Jordan row over Q times its least positive integral scale, so R is
    unique. Elimination is fraction-free, each updated row divided by its
    content (the gcd of its entries), so no Fraction is built.
    """
    m = [primitive(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(nr):
            f = m[i][c]
            if i != r and f:
                g = math.gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(m[i], prow)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return [row if row[c] > 0 else [-x for x in row] for row, c in zip(m, pivots)], pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Matrix) -> list[list[int]]:
    """Basis of the right kernel, one primitive integer vector per free
    column: positive there and zero at every other free column."""
    if not rows:
        return []
    nc = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        # v[fc] = L and v[pc] = -L row[fc] / row[pc], integral for L the lcm of the pivots
        L = math.lcm(*(row[pc] for row, pc in zip(red, pivots) if row[fc]))
        v = [0] * nc
        v[fc] = L
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] * (L // row[pc])
        basis.append(primitive(v))
    return basis


def solve(a: Matrix, b: Sequence[int | Fraction]) -> list[Fraction] | None:
    """One solution of a x = b, or None if inconsistent."""
    nr = len(a)
    nc = len(a[0]) if nr else 0
    red, pivots = rref([[*a[i], b[i]] for i in range(nr)])
    if nc in pivots:
        return None
    x = [Fraction(0)] * nc
    for row, pc in zip(red, pivots):
        x[pc] = Fraction(row[nc], row[pc])
    return x


def same_span(a: Matrix, b: Matrix) -> bool:
    """Do the rows of a and b span the same subspace? The echelon form is unique."""
    return rref(a) == rref(b)


def in_span(rows: Matrix, v: Sequence[int | Fraction]) -> bool:
    return rank(rows) == rank([*rows, v])


def charpoly_berkowitz(a: Matrix) -> list[Fraction]:
    """Coefficients of det(X I - A), ascending degree, division free (Berkowitz).

    Returns [c_0, ..., c_n] with c_n = 1. Nothing is divided, so the
    coefficients of an integer matrix are ints.
    """
    n = len(a)
    if n == 0:
        return [1]
    vec = [1, -a[0][0]]  # descending degree
    for k in range(1, n):
        m = a[k][k]
        row = a[k][:k]
        col = [a[i][k] for i in range(k)]
        sub = [a[i][:k] for i in range(k)]
        # first column of the Toeplitz operator: 1, -M, -R C, -R A C, ...
        diag = [1, -m]
        w = col
        for _ in range(k):
            diag.append(-sum(x * y for x, y in zip(row, w)))
            w = matvec(sub, w)
        new = []
        for i in range(k + 2):
            s = 0
            for j in range(len(vec)):
                d = i - j
                if 0 <= d < len(diag):
                    s += diag[d] * vec[j]
            new.append(s)
        vec = new
    return vec[::-1]


# modular arithmetic helpers (p-power moduli)

def frac_mod(x: Fraction, mod: int) -> int:
    """Reduce an exact rational with mod-coprime denominator."""
    return x.numerator % mod * pow(x.denominator, -1, mod) % mod


def power_traces_mod(a: list[list], count: int, mod: int) -> list:
    """Traces of a^1 .. a^count over R_T = (Z/mod)[w]/(w^T).

    Cells of a are ints (T = 1) or T-tuples of w-coefficients, and the traces
    come back in the same form. Baby steps a^1 .. a^s and giant steps a^(js),
    with s = isqrt(count), cost about 2*sqrt(count) matrix products; every
    other trace is a Frobenius product tr(a^(js) a^i), the sum over r, l of
    a^(js)[r][l] a^i[l][r], read as exact integer dot products.

    A matrix is held as T coefficient planes x_0 .. x_(T-1), residues mod
    mod. Products use Kronecker substitution: row l of the right factor y is
    one Python int, with coefficient b of cell j at slot T*j + b of W bits.
    Row i of x*y is the sum over u < T of (sum_l x_u[i][l] * row_l) << W*u,
    each inner sum keeping only its slots b < T - u, so the shifted slot
    u + b stays inside block j and no w^T term survives. Slot (j, t) then
    holds the exact w^t coefficient of (x*y)[i][j]: a sum of at most n*T
    products of residues, below n*T*(mod - 1)^2. W is that bound's bit length
    rounded up to whole bytes, so no slot carries into the next (nor does an
    inner sum, which is smaller), and unpacking a row is one to_bytes and a
    from_bytes per slot.

    The slot width follows mod, so a smaller modulus makes every product
    cheaper: the U_p series calls this on U/p^E mod p^Kt, only the digits
    its readings keep, not on the model matrix mod p^Kbig
    (ocsymbols._read_series).
    """
    n = len(a)
    scalar = n == 0 or isinstance(a[0][0], int)
    T = 1 if scalar else len(a[0][0])
    if count <= 0:
        return []
    sb = max(1, (n * T * (mod - 1) ** 2).bit_length() + 7 >> 3)   # slot bytes
    W = 8 * sb
    # keep[u]: the slots b < T - u of every block
    keep = [int.from_bytes((b"\xff" * sb * (T - u) + bytes(sb * u)) * n, "little")
            for u in range(T)]

    def matmul(x: list, y: list) -> list:
        rows = [int.from_bytes(b"".join(c.to_bytes(sb, "little")
                                        for cells in zip(*(yt[l] for yt in y))
                                        for c in cells), "little")
                for l in range(n)]
        out: list = [[] for _ in range(T)]
        for i in range(n):
            acc = 0
            for u in range(T):
                acc += (sum(map(operator.mul, x[u][i], rows)) & keep[u]) << (W * u)
            buf = acc.to_bytes(n * T * sb, "little")
            for t in range(T):
                out[t].append([int.from_bytes(buf[o:o + sb], "little") % mod
                               for o in range(t * sb, n * T * sb, T * sb)])
        return out

    def residue(c: int) -> int:
        # reduced cells keep the caller's int objects instead of a copy
        return c if 0 <= c < mod else c % mod

    if scalar:
        planes = [[[residue(c) for c in row] for row in a]]
    else:
        planes = [[[residue(c[t]) for c in row] for row in a] for t in range(T)]
    baby = [planes]
    while len(baby) < math.isqrt(count):
        baby.append(matmul(baby[-1], baby[0]))
    s = len(baby)
    traces = []
    for m in range(1, count + 1):
        j, i = divmod(m - 1, s)             # a^m = a^(js) a^(i+1)
        if j == 0:
            tr = [sum(pl[r][r] for r in range(n)) for pl in baby[i]]
        else:
            if i == 0:
                giant = baby[-1] if j == 1 else matmul(giant, baby[-1])
                # row l of the transpose pairs a^(js)[r][l] with a^(i+1)[l][r]
                giant_t = [list(zip(*pl)) for pl in giant]
            tr = [sum(sum(map(operator.mul, chain.from_iterable(baby[i][t - u]),
                              chain.from_iterable(giant_t[u]))) for u in range(t + 1))
                  for t in range(T)]
        traces.append(tr[0] % mod if scalar else tuple(c % mod for c in tr))
    return traces
