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
from typing import Callable, Iterable, Sequence

from .padics import CertificationError

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


def slot_reducer(mod: int, bound: int, sb: int, slots: int) -> Callable[[int], int]:
    """Reduction mod mod of every slot of a packed int at once.

    The int holds `slots` slots of sb bytes (W = 8 * sb bits, little-endian),
    each in [0, bound], and the result holds the residue of each slot mod
    mod. It is Barrett reduction in every slot at once. With t the bit length
    of bound and R = 2^t // mod, the quotient estimate q_s = (x_s * R) >> t
    lies in {x_s // mod - 1, x_s // mod}. x_s * R < 2^(2t) takes two slots,
    so the even slots (x & even) and the odd slots moved down one slot
    ((x >> W) & even) are multiplied by R apart, each product with an empty
    slot above it; after the shift by t, the mask keeps q_s in its own slot.
    r = x - q * mod then holds r_s in [0, 2 * mod) in every slot, without
    borrows, and one conditional subtraction ends it: with h the bit length
    of 2 * mod, bit h of r_s + 2^h - mod is set exactly when r_s >= mod, and
    that sum stays below 2^(h + 1) <= 2^W, inside its slot. The caller picks
    sb with t <= W and h < W.
    """
    W = 8 * sb
    t = bound.bit_length()
    h = (2 * mod).bit_length()
    R = (1 << t) // mod
    ones = int.from_bytes((1).to_bytes(sb, "little") * slots, "little")
    fix = ((1 << h) - mod) * ones
    even = int.from_bytes(((b"\xff" * sb + bytes(sb)) * (slots + 1 >> 1))[:sb * slots], "little")

    def reduce(x: int) -> int:
        q = ((x & even) * R >> t & even) | (((x >> W & even) * R >> t & even) << W)
        r = x - q * mod
        return r - ((r + fix) >> h & ones) * mod

    return reduce


def power_schedule(count: int) -> tuple[list[tuple[int, int, int]], list[tuple[int, int]]]:
    """The matrix products and trace reads that give tr a^1 .. tr a^count.

    products lists (c, x, y) in order: a^c = a^x a^y, where a^x and a^y are
    a itself or earlier products. reads[m - 1] is (x, y) with x + y = m and
    both powers computed, or (m, 0) when a^m is one: tr a^m is then the
    Frobenius product tr(a^x a^y), or the diagonal sum of a^m.

    The computed exponents are babies 1 .. b, giants 2b .. jb in steps of b,
    and optionally tops jb + 1 .. jb + b - 1. Babies and giants sum to
    every m up to (j + 1)b: baby-step/giant-step. The tops add every residue
    mod b above jb, so with them the sums reach 2(j + 1)b - 2. For each b
    the least j that reaches count is taken, and the (b, tops) pair with the
    fewest products wins, the first one on a tie: 4 products at count 14
    (a^2, a^4, a^6, a^7) and 3 at count 10 (a^2, a^4, a^5). b = isqrt(count)
    without tops is baby-step/giant-step itself, so the count never exceeds
    it. Each product's right factor is a, a^b or a^(jb). Raises
    CertificationError if some m is left unread.
    """
    best = None
    # b = isqrt(count) without tops takes at most 2 isqrt(count) - 1 products,
    # and any b takes at least b - 1
    for b in range(1, 2 * math.isqrt(count) + 1):
        for tops in (0, b - 1) if b > 1 else (0,):
            # the sums reach (j + 1) b, or 2 (j + 1) b - 2 with the tops
            j = max(1, -(-(count + 2) // (2 * b)) - 1 if tops else -(-count // b) - 1)
            size = (b - 1) + (j - 1) + tops
            if best is None or size < best[0]:
                best = (size, b, j, tops)
    products: list[tuple[int, int, int]] = []
    if best is not None:
        _, b, j, tops = best
        products = ([(c, c - 1, 1) for c in range(2, b + 1)]
                    + [(i * b, (i - 1) * b, b) for i in range(2, j + 1)]
                    + [(j * b + r, r, j * b) for r in range(1, tops + 1)])
    powers = [1] + [c for c, _, _ in products]
    reads: list[tuple[int, int] | None] = [None] * (count + 1)
    for c in powers:
        if c <= count:
            reads[c] = (c, 0)
    for i, y in enumerate(powers):
        for x in powers[i:]:
            if x + y <= count and reads[x + y] is None:
                reads[x + y] = (x, y)
    if None in reads[1:]:
        raise CertificationError(f"power schedule misses some m <= {count}")
    return products, reads[1:]


def power_traces_mod(
    a: Sequence[Sequence[Sequence[int]]], count: int, mod: int
) -> list[tuple[int, ...]]:
    """Traces of a^1 .. a^count over R_T = (Z/mod)[w]/(w^T).

    a is given by its T w-coefficient planes a_0 .. a_(T-1), each n x n
    int rows; entries outside [0, mod) are reduced first, so no slot below
    can overflow. Each trace comes back as the T-tuple of its
    w-coefficients, residues mod mod. The matrix products are
    power_schedule's, the fewest that its babies, giants and tops need: 4 at
    count 14 where baby-step/giant-step takes 5. Every other trace is a Frobenius product
    tr(a^x a^y), the sum over r, l of a^x[r][l] a^y[l][r], read as an exact
    integer dot product with the transpose of a^y. Each power, transpose and
    packed right factor is freed after the last product or trace that reads
    it.

    Each power is held the same way, as T planes x_0 .. x_(T-1) of residues
    mod mod. Products use Kronecker substitution: row l of the right factor
    y is one Python int, with coefficient b of cell j at slot T*j + b of W
    bits. Row i of x*y is the sum over u < T of
    (sum_l x_u[i][l] * row_l) << W*u, each inner sum keeping only its slots
    b < T - u, so the shifted slot u + b stays inside block j and no w^T
    term survives. Slot (j, t) then
    holds the exact w^t coefficient of (x*y)[i][j]: a sum of at most n*T
    products of residues, below lim = n*T*(mod - 1)^2. W is that bound's bit
    length (or that of 2 * mod, if longer) rounded up to whole bytes, so no
    slot carries into the next (nor does an inner sum, which is smaller).
    slot_reducer reduces every slot of the row mod mod at once, and the
    reduced row is row i of x*y packed as a right factor, so a power packs
    its rows only if it is a itself. Unpacking a row is one to_bytes and a
    from_bytes per slot.

    The slot width follows mod, so a smaller modulus makes every product
    cheaper: the U_p series calls this on U/p^E mod p^Kt, only the digits
    its readings keep, not on the model matrix mod p^Kbig
    (ocsymbols._read_series).
    """
    T, n = len(a), len(a[0])
    if count <= 0:
        return []
    products, reads = power_schedule(count)
    lim = n * T * (mod - 1) ** 2        # the largest slot of a product row
    sb = max(lim.bit_length(), (2 * mod).bit_length() + 1) + 7 >> 3   # slot bytes
    W = 8 * sb
    slots = n * T
    # keep[u]: the slots b < T - u of every block
    keep = [int.from_bytes((b"\xff" * sb * (T - u) + bytes(sb * u)) * n, "little")
            for u in range(T)]
    reduce = slot_reducer(mod, lim, sb, slots)

    def pack(y: list) -> list[int]:
        return [int.from_bytes(b"".join(c.to_bytes(sb, "little")
                                        for cells in zip(*(yt[l] for yt in y))
                                        for c in cells), "little")
                for l in range(n)]

    def matmul(x: list, rows: list[int]) -> tuple[list, list[int]]:
        out: list = [[] for _ in range(T)]
        out_rows = []
        for i in range(n):
            acc = 0
            for u in range(T):
                acc += (sum(map(operator.mul, x[u][i], rows)) & keep[u]) << (W * u)
            acc = reduce(acc)
            out_rows.append(acc)
            buf = acc.to_bytes(slots * sb, "little")
            for t in range(T):
                out[t].append([int.from_bytes(buf[o:o + sb], "little")
                               for o in range(t * sb, slots * sb, T * sb)])
        return out, out_rows

    def residue(c: int) -> int:
        # reduced entries keep the caller's int objects instead of a copy
        return c if 0 <= c < mod else c % mod

    # the step (the products, then the reads) that last reads each power,
    # packed right factor and transpose; none is kept after it
    steps = [(x, y) for _, x, y in products] + reads
    last = {e: s for s, pair in enumerate(steps) for e in pair if e}
    last_packed = {y: s for s, (_, _, y) in enumerate(products)}
    last_t = {y: s for s, (_, y) in enumerate(reads, len(products)) if y}
    powers = {1: [[[residue(c) for c in row] for row in plane] for plane in a]}
    packed: dict[int, list[int]] = {}
    trans: dict[int, list] = {}

    def free(s: int, pair: tuple[int, int]) -> None:
        for e in set(pair):
            for kept, when in ((powers, last), (packed, last_packed), (trans, last_t)):
                if when.get(e) == s:
                    del kept[e]

    for s, (c, x, y) in enumerate(products):
        if y not in packed:
            packed[y] = pack(powers[y])
        powers[c], rows = matmul(powers[x], packed[y])
        if c in last_packed:
            packed[c] = rows
        free(s, (x, y))
    traces = []
    for s, (x, y) in enumerate(reads, len(products)):
        if y == 0:
            tr = [sum(pl[r][r] for r in range(n)) for pl in powers[x]]
        else:
            if y not in trans:
                # row l of the transpose pairs a^x[r][l] with a^y[l][r]
                trans[y] = [list(zip(*pl)) for pl in powers[y]]
            tr = [sum(sum(map(operator.mul, chain.from_iterable(powers[x][t - u]),
                              chain.from_iterable(trans[y][u]))) for u in range(t + 1))
                  for t in range(T)]
        traces.append(tuple(c % mod for c in tr))
        free(s, (x, y))
    return traces
