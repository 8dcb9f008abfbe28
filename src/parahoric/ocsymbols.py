"""Classical and overconvergent modular symbols for Gamma_0(Np).

A symbol assigns a distribution to every coset; relations from the Manin
presentation carry Gamma_0(M) twists. Overconvergent values keep mlen moments
with the filtration contract that moment j is meaningful mod p^(P-j). U_p
improves the filtration: its composite matrices satisfy v_p(E[j][i]) >= i,
which is checked on every matrix built here.

One engine serves a single weight and a disc in weight space: values lie in
R_T = (Z/p^K)[w]/(w^T), and a single weight is the case T = 1. Everything
over R_T is kept as w-coefficient planes, the w^t layer as plain ints. A
matrix over R_T is its T planes of int rows: family_moment_matrix returns a
moment matrix so, at every T, and the U_p model matrix goes to the power
traces so. A value is stored as its T planes laid end to end (T * mlen
residues, the w^t part of moment i at index t * mlen + i), and a moment
matrix acts on it as the block lower-triangular Toeplitz integer matrix
whose (t, u) block is plane t - u. Multiplying by w^s moves a plane s places
down and w^T falls off the end, so an R_T matrix-vector product is an
integer one: table builds, U_p and relation checks are the same integer code
for every T, and only MomentCache knows the ring. A MomentCache is also the
model handle: its ctx, K, T and modulus p^K are the model's, so the engine
calls (table build, U_p apply, relation check, model matrix) take the cache
and no context or modulus beside it.

The U_p model matrix has one unit column per free coordinate, and all of them
go through a single table build and a single U_p apply as column bundles
(ColumnBundles): each coordinate of a value is one Python int that holds the
n columns side by side in fixed-width slots, so one integer dot product per
matrix row serves every column, and each output coordinate is reduced mod
p^K once, every slot in a few whole-int operations. A single table, as in
the lift, packs the other axis through one merged U_p operator per cache
(MomentCache.up_operator): for each coset and each source coset its plan
terms read, one int per input moment holds the output moments of the
signed sum of those terms' matrices in slots. A source then costs one
big-int multiply-add per input moment instead of one small product per
matrix entry and term, and each coset is reduced once: 479 dot products
for 891 terms at (11, 3, 0), mlen = 20. Every moment matrix is kept once
per sign class +-m, since E(-m) = (-1)^k E(m).

Classical symbols (ClassicalSpace) are exact: integer basis vectors, integer
moment matrices, and operator matrices over Q read off free columns. The
p-stabilization block of an eigensymbol is read the same way, off the free
columns of its two block symbols after one two-column U_p apply, so the
search never builds U_p on the whole space.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Callable, Collection, Iterable, NamedTuple, Sequence

from .linalg import (
    charpoly_berkowitz,
    frac_mod,
    matvec,
    nullspace,
    power_traces_mod,
    primitive,
    Slots,
)
from .manin import ManinSystem, Mat2, SolvedPresentation, is_prime
from .distributions import (
    family_moment_matrix,
    integer_moment_matrix,
    solve_error_profile,
    tail_solve_matrix,
)
from .padics import (
    VAL_INF,
    AmbiguityError,
    CertificationError,
    NewtonPolygon,
    PolygonPoint,
    hensel_lift_root,
    valuation,
)


def up_deltas(p: int) -> list[Mat2]:
    return [(1, a, 0, p) for a in range(p)]


def hecke_deltas(ell: int) -> list[Mat2]:
    return [(1, a, 0, ell) for a in range(ell)] + [(ell, 0, 0, 1)]


IOTA: Mat2 = (-1, 0, 0, 1)


# ---------------------------------------------------------------------------
# classical symbols (finite-dimensional coefficients, exact rationals)


class ClassicalSpace:
    """Weight-k modular symbols with values in the dual of degree-k forms.

    A symbol is a flat vector, moment i of coset x at x * (k + 1) + i. Each
    basis vector is the primitive integer nullspace vector of its free
    column: it is positive at its own free column and zero at every other
    one, so the coordinates of a symbol in the space are read off the free
    columns. The weight-k moment matrices are integral for k >= 0, so
    operators apply in integers to all basis vectors at once. Hecke plans,
    integer moment matrices and operator matrices are built once per space,
    in caches that equality does not compare.
    """

    def __init__(self, ms: ManinSystem, k: int, basis: list[list[int]], free: list[int]):
        self.ms, self.k, self.basis, self.free = ms, k, basis, free
        self._plans: dict[tuple[Mat2, ...], list[list[tuple[int, int, Mat2]]]] = {}
        self._moments: dict[Mat2, tuple[tuple[int, ...], ...]] = {}
        self._operators: dict[tuple[Mat2, ...], tuple[tuple[Fraction, ...], ...]] = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ms, self.k, self.basis, self.free) == (other.ms, other.k, other.basis, other.free)

    __hash__ = None  # its basis and caches are mutable lists and dicts

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def plan(self, deltas: Sequence[Mat2]) -> list[list[tuple[int, int, Mat2]]]:
        """The Hecke plan of the double coset, built once per delta tuple."""
        key = tuple(deltas)
        if key not in self._plans:
            self._plans[key] = self.ms.hecke_plan(list(key))
        return self._plans[key]

    def apply(self, deltas: Sequence[Mat2], cols: Sequence[Sequence[int]]) -> list[list[int]]:
        """The operator on integer symbols given by coordinate: cols[q] lists
        flat coordinate q of every symbol, and so does the result."""
        d = self.k + 1
        out = []
        for terms in self.plan(deltas):
            acc = [[0] * len(cols[0]) for _ in range(d)]
            for y, sgn, m in terms:
                if m not in self._moments:
                    self._moments[m] = integer_moment_matrix(m, self.k)
                src = cols[y * d:(y + 1) * d]
                for a, row in zip(acc, self._moments[m]):
                    for e, v in zip(row, src):
                        if e:
                            a[:] = map(operator.add, a, map((sgn * e).__mul__, v))
            out.extend(acc)
        return out

    def operator_matrix(self, deltas: Sequence[Mat2]) -> tuple[tuple[Fraction, ...], ...]:
        """Matrix of the double-coset operator on the normalized basis
        basis[f] / basis[f][free[f]], which is 1 at its own free column,
        read off the free columns of the images (_read_coordinates).
        Computed once per delta tuple and kept on the space; rows are
        tuples, so no caller can change the kept copy.
        """
        key = tuple(deltas)
        if key not in self._operators:
            cols = [[v[q] for v in self.basis] for q in range(self.ms.index * (self.k + 1))]
            self._operators[key] = _read_coordinates(cols, self.free, self.apply(key, cols))
        return self._operators[key]

    def hecke_matrix(self, ell: int) -> tuple[tuple[Fraction, ...], ...]:
        return self.operator_matrix(hecke_deltas(ell))

    def up_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.operator_matrix(up_deltas(self.ms.p))

    def involution_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.operator_matrix([IOTA])


def _read_coordinates(
    cols: Sequence[Sequence[int]], free: Sequence[int], img: Sequence[Sequence[int]]
) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of an operator on the normalized vectors v_f / v_f[free[f]].

    cols[q] lists flat coordinate q of the integer vectors v_f, each zero
    at the free columns of the others, and img[q] that of their images.
    Entry (g, f) is img_f[free[g]] / v_f[free[f]], the coordinate of the
    image of normalized vector f on normalized vector g. The image lies in
    the span iff it equals the combination those coordinates give, checked
    in integers: with L the lcm of the v_f[free[f]] and S_g = (L /
    v_g[free[g]]) v_g, L * img_f = sum_g img_f[free[g]] S_g.
    """
    n = len(free)
    dens = [cols[q][f] for f, q in enumerate(free)]
    L = math.lcm(*dens)
    scale = [L // den for den in dens]
    coords = [img[q] for q in free]
    per_image = list(zip(*coords))
    for v, row in zip(cols, img):
        if [L * c for c in row] != matvec(per_image, list(map(operator.mul, scale, v))):
            raise CertificationError("operator left the span")
    return tuple(tuple(Fraction(coords[g][f], dens[f]) for f in range(n)) for g in range(n))


def classical_space(N: int, p: int, k: int) -> ClassicalSpace:
    """Kernel of the two- and three-term relations; works at any level."""
    ms = ManinSystem(N, p)
    d = k + 1
    rows: list[list[int]] = []
    for terms in ms.relations:
        blk = [[0] * (ms.index * d) for _ in range(d)]
        for y, sgn, m in terms:
            for row, erow in zip(blk, integer_moment_matrix(m, k)):
                for i, e in enumerate(erow):
                    row[y * d + i] += sgn * e
        rows.extend(blk)
    basis = nullspace(rows)
    # a kernel vector is zero at every other free column and nonzero
    # elsewhere only at pivot columns left of its own (an RREF row is zero
    # before its pivot), so its free column is its last nonzero entry
    free = [max(q for q, c in enumerate(v) if c) for v in basis]
    return ClassicalSpace(ms=ms, k=k, basis=basis, free=free)


def _evaluate(poly: Sequence[int], x: int) -> int:
    """poly(x) for ascending integer coefficients."""
    val = 0
    for c in reversed(poly):
        val = val * x + c
    return val


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Primitive pseudo-remainder of a by b (ascending ints, b[-1] != 0);
    [] when b divides a."""
    while len(a) >= len(b) and a:
        q, shift = a[-1], len(a) - len(b)
        a = [b[-1] * x for x in a]
        for t, c in enumerate(b):
            a[shift + t] -= q * c
        while a and not a[-1]:
            a.pop()
    return primitive(a) if a else []


def _squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f'), primitive, for a nonconstant integer polynomial f:
    the same roots, each simple. The gcd is a primitive remainder sequence,
    and the division is exact over Z because the gcd is primitive."""
    a, b = f, [i * c for i, c in enumerate(f)][1:]
    while b:
        a, b = b, _pseudo_remainder(a, b)
    g = primitive(a)
    rest, quot = list(f), [0] * (len(f) - len(g) + 1)
    for shift in range(len(quot) - 1, -1, -1):
        q, r = divmod(rest[shift + len(g) - 1], g[-1])
        if r:
            raise CertificationError("gcd(f, f') does not divide f")
        quot[shift] = q
        for t, c in enumerate(g):
            rest[shift + t] -= q * c
    if any(rest):
        raise CertificationError("gcd(f, f') does not divide f")
    return primitive(quot)


def integer_charpoly(mat: Sequence[Sequence[Fraction]]) -> list[int]:
    """det(X I - mat) as ascending ints, for a rational matrix whose
    characteristic polynomial is integral (raises otherwise).

    Berkowitz runs on the integer matrix L * mat, L the lcm of the
    denominators, so no Fraction arithmetic happens: coefficient i of its
    polynomial is L^(n-i) times that of mat.
    """
    n = len(mat)
    L = math.lcm(*(c.denominator for row in mat for c in row))
    cp = charpoly_berkowitz([[int(c * L) for c in row] for row in mat])
    if any(c % L ** (n - i) for i, c in enumerate(cp)):
        raise CertificationError("characteristic polynomial is not integral")
    return [c // L ** (n - i) for i, c in enumerate(cp)]


def integer_eigenvalues(mat: Sequence[Sequence[Fraction]], bound: int) -> list[int]:
    """Integer roots of the characteristic polynomial within [-bound, bound].

    The polynomial (integer_charpoly) must be integral. Its nonzero roots
    are those of the squarefree part g of the polynomial without its
    x-power. At the least prime q where every root of g mod q is simple,
    each such root has one lift mod q^e, q^e > 2 * bound, by Hensel's
    lemma, and an integer root in range is the symmetric residue of the
    lift of its own reduction; the residues that are exact roots within
    range are kept.
    """
    n = len(mat)
    cp = integer_charpoly(mat)
    z = next(i for i, c in enumerate(cp) if c)
    roots = [0] if z and bound >= 0 else []
    if z == n or bound < 1:
        return roots
    g = _squarefree_part(cp[z:])
    dg = [i * c for i, c in enumerate(g)][1:]
    q = 2
    while True:
        residues = [r for r in range(q) if _evaluate(g, r) % q == 0]
        if all(_evaluate(dg, r) % q for r in residues):
            break
        q += 1
        while not is_prime(q):
            q += 1
    e = 1
    while q**e <= 2 * bound:
        e += 1
    mod = q**e
    for r0 in residues:
        r = hensel_lift_root(g, q, r0, prec=e)
        r = r - mod if 2 * r > mod else r
        if abs(r) <= bound and _evaluate(g, r) == 0:
            roots.append(r)
    return sorted(roots)


# ---------------------------------------------------------------------------
# eigensymbol extraction


class Eigensymbol(NamedTuple):
    """p-stabilized eigensymbol with integer values mod p^B."""

    N: int
    p: int
    k: int
    B: int
    table: list[tuple[int, ...]]
    alpha: int
    trace: int          # alpha + beta of the stabilization polynomial
    norm: int           # alpha * beta = p^(k+1) * (leading unit)
    slope: int


def ordinary_eigensymbol(
    space: ClassicalSpace, probe_ell: int, probe_a: int, B: int, slope: int = 0
) -> Eigensymbol:
    """Cut the plus part of the newform block with one prime-to-level Hecke
    probe and return the slope-0 (or requested-slope) p-stabilization.

    The plus block is one kernel: the vectors on which T_ell = probe_a and
    iota = 1 both hold. A probe_a that is no T_ell eigenvalue leaves it
    empty, and the two-dimensional-block check rejects it. One U_p apply on
    the two block symbols gives both the block's matrix, read off their free
    columns, and the stabilized symbol.
    """
    p = space.ms.p
    k = space.k
    n = space.dimension
    Tl = space.hecke_matrix(probe_ell)
    iota = space.involution_matrix()
    Wplus = nullspace(
        [[Tl[i][j] - (probe_a if i == j else 0) for j in range(n)] for i in range(n)]
        + [[iota[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    )
    if len(Wplus) != 2:
        raise ValueError(f"expected a two-dimensional stabilization block, got {len(Wplus)}")
    # block symbol j is W_j = L w_j on the normalized basis, integral for L
    # the lcm of the basis denominators; w_j, a nullspace vector, is zero at
    # the other's free coordinate and its own is its last nonzero one, so
    # W_j is zero at the free column of the other block symbol. One U_p
    # apply on both gives the block matrix and, from column 0, psi
    dens = [v[f] for v, f in zip(space.basis, space.free)]
    L = math.lcm(*dens)
    coefs = [[c * (L // dl) for c, dl in zip(w, dens)] for w in Wplus]
    cols = [[sum(map(operator.mul, coef, q)) for coef in coefs] for q in zip(*space.basis)]
    img = space.apply(up_deltas(p), cols)
    free = [space.free[max(g for g, c in enumerate(w) if c)] for w in Wplus]
    cp = integer_charpoly(_read_coordinates(cols, free, img))  # x^2 - trace x + norm
    trace, norm = -cp[1], cp[0]
    if valuation(norm, p) != k + 1:
        raise ValueError("stabilization norm is not p^(k+1) times a unit")
    # slope-0 root exists iff the trace is a unit
    mod = p**B
    if trace % p == 0:
        raise ValueError("no ordinary root: trace is divisible by p")
    # x^2 - trace x + norm has the simple root trace mod p (2r - trace is a unit)
    r = hensel_lift_root([norm, -trace, 1], p, trace % p, B)
    if slope == 0:
        alpha = r
    elif slope == k + 1:
        alpha = (trace - r) % mod
    else:
        raise ValueError("stabilization roots have slope 0 or k + 1")
    # psi = (U - beta) W_0 with beta = trace - alpha, cleared of denominators
    # by the least scale: W_0 = L w_0 with w_0 primitive, so that scale is
    # L / gcd(L, content of U W_0 - beta W_0)
    beta = (trace - alpha) % mod
    psi = [u[0] - beta * c[0] for u, c in zip(img, cols)]
    g = math.gcd(L, *psi)
    if (L // g) % p == 0:
        raise CertificationError("stabilization produced p in the denominator")
    d = k + 1
    psi_int = [[psi[x * d + j] // g % mod for j in range(d)] for x in range(space.ms.index)]
    # normalize primitive: divide out common p-powers
    vmin = min(valuation(c, p) for row in psi_int for c in row)
    if vmin == VAL_INF:
        raise CertificationError("stabilized symbol vanished")
    if vmin:
        psi_int = [[(c // p**vmin) % (mod // p**vmin) for c in row] for row in psi_int]
        B = B - vmin
        mod = p**B
    table = [tuple(row) for row in psi_int]
    sym = Eigensymbol(
        N=space.ms.N, p=p, k=k, B=B, table=table,
        alpha=alpha % mod, trace=trace, norm=norm, slope=slope,
    )
    _assert_eigen(space, sym)
    return sym


def _assert_eigen(space: ClassicalSpace, sym: Eigensymbol) -> None:
    mod = sym.p**sym.B
    flat = [c for row in sym.table for c in row]
    img = space.apply(up_deltas(sym.p), [[c] for c in flat])
    if any((u[0] - sym.alpha * c) % mod for u, c in zip(img, flat)):
        raise CertificationError("stabilized symbol is not a U_p eigenvector mod p^B")


def auto_eigensymbol(space: ClassicalSpace, B: int, slope: int = 0) -> Eigensymbol:
    """First rational eigensymbol found by probing T_ell for small ell.

    Probes primes ell <= 50 coprime to Np in increasing order and, within each,
    integer eigenvalues by absolute value, so the choice is deterministic.
    Blocks whose plus part is not two-dimensional or whose stabilization
    norm is not p^(k+1) times a unit are skipped.
    """
    N, p, k = space.ms.N, space.ms.p, space.k
    if space.dimension == 0:
        raise ValueError(f"the weight-{k} symbol space of level {N * p} is zero")
    for ell in range(2, 51):
        if not is_prime(ell) or (N * p) % ell == 0:
            continue
        mat = space.hecke_matrix(ell)
        bound = ell ** (k + 1) + 1
        for a in sorted(integer_eigenvalues(mat, bound), key=lambda x: (abs(x), x)):
            try:
                return ordinary_eigensymbol(space, ell, a, B, slope=slope)
            except ValueError:
                continue
    raise ValueError(f"no rational eigensymbol of slope {slope} found below ell = 50")


# ---------------------------------------------------------------------------
# overconvergent engine


class OCContext(NamedTuple):
    """Shared machinery for one (N, p, k, mlen) overconvergent model."""

    ms: ManinSystem
    sp: SolvedPresentation
    k: int
    mlen: int
    solve_mat: list[list[Fraction]]
    D: int                      # p-denominator exponent of the tail solve
    loss_profile: list[int]     # per-moment precision loss of the tail solve
    up_plan: list[list[tuple[int, int, Mat2]]]  # U_p terms (y, sign, m) per coset

    @property
    def p(self) -> int:
        return self.ms.p

    @property
    def S_sol(self) -> int:
        """Worst-case valuation deficit of solved values."""
        return max(self.loss_profile)

    @property
    def n_model(self) -> int:
        return len(self.sp.free_edges) * self.mlen + 1

    @property
    def fan(self) -> int:
        """Most terms a table-build step or a U_p row sums before reducing."""
        return max([1] + [len(st.terms) for st in self.sp.steps]
                   + [len(terms) for terms in self.up_plan])


def oc_context(N: int, p: int, k: int, mlen: int) -> OCContext:
    ms = ManinSystem(N, p)
    return _context(ms, ms.hecke_plan(up_deltas(p)), k, mlen)


def _context(
    ms: ManinSystem, up_plan: list[list[tuple[int, int, Mat2]]], k: int, mlen: int
) -> OCContext:
    p = ms.p
    sp = ms.solved_presentation()
    E_W = integer_moment_matrix(sp.tail.W, k, mlen)
    solve_mat = tail_solve_matrix(E_W, mlen)
    D = max([0] + [-valuation(c, p) for row in solve_mat for c in row])
    graded = solve_error_profile(E_W, p, [mlen - j for j in range(mlen)])
    loss = [max(0, (mlen - j) - graded[j]) if graded[j] < VAL_INF else 0 for j in range(mlen)]
    return OCContext(
        ms=ms, sp=sp, k=k, mlen=mlen, solve_mat=solve_mat,
        D=D, loss_profile=loss, up_plan=up_plan,
    )


def sign_class(sgn: int, m: Mat2, k: int) -> tuple[int, Mat2]:
    """The weight-k term sgn * E(m) as sgn' * E(r), r the representative of
    +-m with a > 0: E(-m) = (-1)^k E(m) (MomentCache)."""
    if m[0] > 0:
        return sgn, m
    return (-sgn if k % 2 else sgn), (-m[0], -m[1], -m[2], -m[3])


def _check_up_monoid(m: Mat2, p: int) -> None:
    if m[0] % p == 0 or m[2] % p or m[3] % p:
        raise ValueError(f"U_p plan matrix {m} needs a unit upper-left entry and p | c, p | d")


class MomentCache:
    """Moment matrices over R_T = (Z/p^K)[w]/(w^T) for one model, built once per run.

    gamma(m) is the integer matrix of m on the plane layout (module
    docstring): block (t, u) holds plane t - u of family_moment_matrix for
    t >= u and is zero above the diagonal, so at T = 1 it is the weight-k
    moment matrix mod p^K. The ring product is then an integer product on
    the planes, so no code outside this class does ring arithmetic. A row of
    plane t stops after block t: the blocks above the diagonal are left out,
    and a product zips the row with the vector, stopping at the shorter.

    One matrix serves m and -m: E(-m) = (-1)^k E(m) on every w-plane,
    because (-a - c z)^(k-j) (-b - d z)^j = (-1)^k (a + c z)^(k-j) (b + d z)^j
    and <-a - c z> = <a + c z>. sign_class rewrites a term onto the
    representative of +-m with a > 0 (a is a unit mod p, never 0), with
    (-1)^k folded into the sign, and the engine asks for matrices of
    representatives only (ColumnBundles.combine, up_operator), so each
    sign class is built and kept once.

    up(m) is the same matrix for a U_p plan composite, after the U_p monoid
    check and the compactness bound v_p(E[j][i]) >= i on the w^0 plane:
    moments below the filtration floor cannot influence stored output
    digits. The higher w-planes do not satisfy that bound, so it is not
    checked there. up_operator() is U_p for the one-table apply, merged by
    source coset and packed by columns, built once after the same checks.
    solve is the p^D-scaled tail-solve matrix mod p^K, applied to each
    plane alike. Every matrix, at every T, comes from family_moment_matrix.
    """

    def __init__(self, ctx: OCContext, K: int, T: int = 1):
        self.ctx = ctx
        self.K = K
        self.T = T
        self.mod = ctx.p**K
        self.solve = [[frac_mod(c * ctx.p**ctx.D, self.mod) for c in row] for row in ctx.solve_mat]
        self._gm: dict[Mat2, list[list[int]]] = {}
        self._up: dict[Mat2, list[list[int]]] = {}
        self._op: tuple[ColumnBundles, list[list[tuple[int, int, list[int]]]]] | None = None
        self._col_floor = [math.gcd(ctx.p**i, self.mod) for i in range(ctx.mlen)]

    def gamma(self, m: Mat2) -> list[list[int]]:
        if m not in self._gm:
            self._gm[m] = self._planes(m)
        return self._gm[m]

    def _planes(self, m: Mat2) -> list[list[int]]:
        ctx = self.ctx
        E = family_moment_matrix(m, ctx.k, ctx.mlen, self.T, ctx.p, self.K)
        return [[x for u in range(t + 1) for x in E[t - u][j]]
                for t in range(self.T) for j in range(ctx.mlen)]

    def _checked_up(self, m: Mat2) -> list[list[int]]:
        _check_up_monoid(m, self.ctx.p)
        E = self._planes(m)
        for row in E[:self.ctx.mlen]:
            if any(map(operator.mod, row, self._col_floor)):
                raise CertificationError("U_p column divisibility failed")
        return E

    def up(self, m: Mat2) -> list[list[int]]:
        if m not in self._up:
            self._up[m] = self._checked_up(m)
        return self._up[m]

    def up_operator(self) -> tuple[ColumnBundles, list[list[tuple[int, int, list[int]]]]]:
        """(bun, rows): U_p on one table, bun = ColumnBundles(self, T * mlen).

        rows[x] holds one (y, sgn, cols) per source coset y of the plan terms
        of coset x: sgn * cols[i] is column i of the signed sum of the up
        matrices of those terms, one bundle with output coordinate j in slot
        j. Each sign class is checked and packed once. A source that one
        term reads keeps that class's columns and the term's sign; the
        sources that several terms read hold the signed sum, one list per
        distinct set of signed terms, with sign 1. The columns of a class
        that only such sums read are dropped once the build ends, so the
        operator keeps fewer bundles than one per composite: 165 lists of
        columns for the 172 composites at (11, 3, 0), mlen = 20, and 456 for
        501 at (11, 5, 0), mlen = 10. Built on first use.
        """
        if self._op is None:
            bun = ColumnBundles(self, self.T * self.ctx.mlen)
            packed: dict[Mat2, list[int]] = {}
            sums: dict[tuple[tuple[int, Mat2], ...], list[int]] = {}
            rows = []
            for terms in self.ctx.up_plan:
                by_source: dict[int, list[tuple[int, Mat2]]] = {}
                for y, sgn, m in terms:
                    sgn, r = sign_class(sgn, m, self.ctx.k)
                    if r not in packed:
                        E = self._checked_up(r)
                        packed[r] = [bun.pack([row[i] if i < len(row) else 0 for row in E])
                                     for i in range(bun.width)]
                    by_source.setdefault(y, []).append((sgn, r))
                row = []
                for y, group in by_source.items():
                    if len(group) == 1:
                        sgn, r = group[0]
                        row.append((y, sgn, packed[r]))
                        continue
                    key = tuple(sorted(group))
                    if key not in sums:
                        cols = [0] * bun.width
                        for sgn, r in key:
                            cols = list(map(operator.add if sgn > 0 else operator.sub,
                                            cols, packed[r]))
                        sums[key] = cols
                    row.append((y, 1, sums[key]))
                rows.append(row)
            self._op = (bun, rows)
        return self._op


class ColumnBundles:
    """Layout of cols values side by side, one int per coordinate.

    Column c of a coordinate lives in slot c of a linalg.Slots layout, as a
    residue mod mod = cache.mod, the model's one modulus; Slots picks the
    slot width. The model matrix bundles its n unit columns, so a
    matrix-vector product over all of them is one integer dot product per
    row. A single table, as in the lift, bundles the other way: with
    cols = width, slot j holds output coordinate j, the columns of the
    merged U_p operator are bundles (MomentCache.up_operator), and each
    source coset costs one dot product of its input coordinates with those
    columns. With one column the slot is the int itself and reduction is a
    plain % mod.

    Slot bound: matrix and vector entries are residues below mod. A slot of
    pos or neg sums at most fan = ctx.fan dot products of width = T * mlen
    such pairs (combine, or the one-table U_p apply), so it stays at most
    lim = (fan * width + 1) * (mod - 1)^2, which also covers a residue plus
    one product (the tail top moment, the p^D scaling). combine may hold
    both signs in one int: its slots are then signed sums whose absolute
    values add up to at most lim, the same bound, and so may the merged U_p
    operator of one table (MomentCache.up_operator), whose sources only
    regroup the plan terms of a coset. reduce adds off, the multiple of mod
    at or just above lim, to every slot of pos - neg, so each slot lies in
    [0, 2 * lim + mod) and no borrow or carry crosses a slot boundary: the
    layout is sized for that bound.
    """

    def __init__(self, cache: MomentCache, cols: int = 1):
        self.cols = cols
        # k, not the cache: the cache keeps its operator's bundles, and a
        # reference back would be a cycle that keeps every matrix alive
        # until the cycle collector runs
        self.k = cache.ctx.k
        self.mod = mod = cache.mod
        self.width = cache.T * cache.ctx.mlen
        self.fan = cache.ctx.fan
        if cols > 1:
            self.lim = lim = (self.fan * self.width + 1) * (mod - 1) ** 2
            self.layout = Slots(mod, 2 * lim + mod, cols)
            self.off = -(-lim // mod) * mod * self.layout.pack([1] * cols)

    def unit(self, c: int) -> int:
        """The bundle holding 1 in column c and 0 elsewhere."""
        return 1 << (8 * self.layout.sb * c) if self.cols > 1 else 1

    def pack(self, residues: Sequence[int]) -> int:
        """The bundle holding residues[c] in column c."""
        return self.layout.pack(residues) if self.cols > 1 else residues[0]

    def slots(self, x: int) -> list[int]:
        return self.layout.unpack(x) if self.cols > 1 else [x]

    def reduce(self, pos: int, neg: int = 0) -> int:
        """pos - neg with every slot reduced mod mod."""
        if self.cols == 1:
            return (pos - neg) % self.mod
        return self.layout.reduce(pos + self.off - neg)

    def combine(
        self,
        terms: Sequence[tuple[int, int, Mat2]],
        matrix: Callable[[Mat2], Sequence[Sequence[int]]],
        vals: dict[int, Sequence[int]] | Sequence[Sequence[int]],
    ) -> list[int]:
        """The sum of sign * matrix(m) vals[y] over terms (y, sign, m), each
        coordinate reduced once at the end.

        Each term reads the matrix of its sign class (sign_class), so
        matrix is only called on representatives with a > 0. The terms that
        read the same source y are merged first: their signed
        matrices are summed entry by entry, and vals[y] meets the sum in one
        matrix-vector product. Merging only regroups the same products, so
        with at most fan terms (checked when bundled) the absolute values in
        a slot still add up to at most lim.
        """
        if self.cols > 1 and len(terms) > self.fan:
            raise CertificationError("more terms than the slot bound allows")
        by_source: dict[int, list[tuple[int, Sequence[Sequence[int]]]]] = {}
        for y, sgn, m in terms:
            sgn, r = sign_class(sgn, m, self.k)
            by_source.setdefault(y, []).append((sgn, matrix(r)))
        acc = [0] * self.width
        for y, group in by_source.items():
            # sgn * mat is the signed sum of the group's matrices
            sgn, mat = group[0]
            for g, e in group[1:]:
                op = operator.add if g == sgn else operator.sub
                mat = [list(map(op, r, s)) for r, s in zip(mat, e)]
            acc[:] = map(operator.add if sgn > 0 else operator.sub, acc, matvec(mat, vals[y]))
        return list(map(self.reduce, acc))


def build_tables_mod(
    cache: MomentCache,
    free_values: dict[int, Sequence[int]],
    tail_top: int,
    defect_out: list | None = None,
    cols: int = 1,
    read: Collection[int] | None = None,
) -> list[list[int] | None]:
    """Value tables (scaled by p^D) from free data given in true (unscaled) units.

    free_values maps each free edge to its T * mlen plane residues; the
    derived leaders come from the elimination program, partners from the S
    twists, and the tail coset from the scaled difference-equation solve,
    with tail_top added to its top moment on the w^0 plane. With cols > 1
    every value and tail_top are column bundles (ColumnBundles) of residues,
    one table per column, and every check below holds in every slot. When
    read is given, a partner that needs a twist of its leader is built only
    if its coset is in read, and is None otherwise.

    At k = 0 the moment-0 row of every transport is trivial, so the tail
    consistency nu_0 = 0 holds identically on every plane and is checked. At
    k > 0, or on the higher w-planes, it is a genuine linear condition on the
    free data (at one weight the free parameter count exceeds the symbol-space
    dimension by one); model columns that feed arbitrary deltas must pass
    defect_out to collect nu_0 of each plane instead.
    """
    ctx = cache.ctx
    p, mlen = ctx.p, ctx.mlen
    bun = ColumnBundles(cache, cols)
    width = bun.width
    sD = p**ctx.D
    sD_res = sD % cache.mod   # a residue, so scaled slots stay within the slot bound
    vals: dict[int, list[int]] = {}
    for e in ctx.sp.free_edges:
        mv = free_values[e]
        if len(mv) != width:
            raise ValueError(f"free edge {e} needs {width} values, got {len(mv)}")
        vals[e] = [bun.reduce(x * sD_res) for x in mv]
    for st in ctx.sp.steps:
        vals[st.target] = bun.combine(st.terms, cache.gamma, vals)
    # nu in true units (scaled values are p^D * true, so divide exactly: a
    # bundle whose slots are all multiples of p^D is p^D times a bundle),
    # then the difference-equation solve with the p^D-scaled solve matrix
    tail = ctx.sp.tail
    nu = []
    for x in bun.combine([(tail.w_coset, 1, tail.gamma_w_inv)], cache.gamma, vals):
        if any(s % sD for s in bun.slots(x)):
            raise CertificationError("scaled nu lost p^D divisibility")
        nu.append(x // sD)
    if defect_out is not None:
        defect_out.extend(nu[::mlen])
    elif any(nu[::mlen]):
        raise CertificationError("tail consistency: nu_0 must vanish")
    v0: list[int] = []
    for t in range(0, width, mlen):
        v0.extend(map(bun.reduce, matvec(cache.solve, nu[t:t + mlen])))
    v0[mlen - 1] = bun.reduce(v0[mlen - 1] + tail_top * sD_res)
    vals[tail.x0] = v0
    # partners
    tables: list[list[int] | None] = []
    for x in range(ctx.ms.index):
        ld, sgn, tw = ctx.ms.value_resolution(x)
        if tw is None:
            tables.append(vals[ld])
        elif read is None or x in read:
            tables.append(bun.combine([(ld, sgn, tw)], cache.gamma, vals))
        else:
            tables.append(None)
    return tables


def up_apply_mod(
    cache: MomentCache,
    tables: Sequence[Sequence[int]],
    cosets: Sequence[int] | None = None,
    cols: int = 1,
) -> list[list[int]]:
    """U_p of a value table, or of cols tables held as column bundles: one
    row per coset, or per listed coset.

    Both ways sum the terms that read one source coset before they meet
    its values. Column bundles go through ColumnBundles.combine, which adds
    the matrices of those terms before its one matrix-vector product: 87
    products for the 159 terms of the model rows at (11, 3, 0), mlen = 16.
    A single table of residues packs the output moments instead: the merged
    operator (MomentCache.up_operator) holds, per source, the columns of
    the summed matrix as bundles of T * mlen slots, so a source adds one
    bundle per input coordinate into one signed accumulator, and each
    coset is reduced once, slot by slot. That is 479 dot products for 891
    terms at (11, 3, 0), mlen = 20, and 1408 for 2765 at (11, 5, 0),
    mlen = 10.
    """
    ctx = cache.ctx
    rows = range(ctx.ms.index) if cosets is None else cosets
    if cols > 1:
        bun = ColumnBundles(cache, cols)
        return [bun.combine(ctx.up_plan[x], cache.up, tables) for x in rows]
    bun, op = cache.up_operator()
    out = []
    for x in rows:
        acc = 0
        for y, sgn, packed in op[x]:
            dot = sum(map(operator.mul, tables[y], packed))
            acc = acc + dot if sgn > 0 else acc - dot
        out.append(bun.slots(bun.reduce(acc)))
    return out


def check_relations_mod(cache: MomentCache, tables: Sequence[Sequence[int]]) -> int:
    """Minimum graded valuation v_p(residual_j) + j over all relations, the
    residuals read mod the cache modulus p^K.

    Residual moment j only carries p^(K-j) digits of meaning, so the graded
    reading is the honest one; VAL_INF means every relation holds exactly mod K.
    """
    ctx = cache.ctx
    p, mlen = ctx.p, ctx.mlen
    bun = ColumnBundles(cache)
    worst = VAL_INF
    for terms in ctx.ms.relations:
        for j, c in enumerate(bun.combine(terms, cache.gamma, tables)):
            if c:
                worst = min(worst, valuation(c, p) + j % mlen)
    return worst


# ---------------------------------------------------------------------------
# slope-0 lifting
#
# For j <= k the action matrix rows are polynomials of degree <= k, so the
# classical layer (moments 0..k) is closed under every transport: free higher
# moments and the moment-(k+1) tuning knob never disturb it. The only
# classical coordinate not copied from the eigensymbol is moment k of the
# tail coset, which the difference-equation solve produces; one free
# moment-(k+1) coordinate is tuned so it lands on the eigensymbol exactly.
# The tuning reads that coordinate's response to every free edge from the
# same bundled table build as the untuned table, so it costs one build.


class LiftReport(NamedTuple):
    converged: bool
    iterations: int
    N: int
    p: int
    k: int
    M: int
    eigenvalue: int
    eigenvalue_precision: int
    specialization_ok: bool
    specialization_precision: int
    moment_precision: list[int]
    solve_loss_ledger: list[int]
    relation_valuation: int
    tables: list[list[int]]

    def __repr__(self) -> str:
        """Every field but the tables, which can run to thousands of digits."""
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields[:-1], self))
        return f"LiftReport({shown})"

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "N": self.N,
            "p": self.p,
            "k": self.k,
            "M": self.M,
            "eigenvalue": {
                "value": self.eigenvalue % self.p**self.eigenvalue_precision,
                "precision": self.eigenvalue_precision,
            },
            "specialization_check": self.specialization_ok,
            "specialization_precision": self.specialization_precision,
            "moment_precision": list(self.moment_precision),
            "solve_loss_ledger": list(self.solve_loss_ledger),
        }


class DivergenceError(RuntimeError):
    pass


def _tuned_initial_tables(
    cache: MomentCache, sym: Eigensymbol, higher: dict[int, list[int]], top: int
) -> list[list[int]]:
    """Relation-exact initial table whose classical layer equals sym exactly.

    higher supplies moments k+1..mlen-1 for each free edge; a single free
    moment-(k+1) coordinate is then adjusted so the solved tail moment k
    matches the eigensymbol. One bundled build gives both: column 0 is the
    table of the given data, and column 1 + r the response to a unit at
    moment k+1 of free edge r. The build is linear mod p^K except for the
    exact division of nu by p^D, so column 0 plus t times a response agrees
    with a rebuild from the tuned data mod p^(K-D), the modulus of every
    check below.
    """
    ctx, mod = cache.ctx, cache.mod
    p, k, D = ctx.p, sym.k, ctx.D
    sD = p**D
    free = ctx.sp.free_edges
    bun = ColumnBundles(cache, 1 + len(free))
    fv = {}
    for r, e in enumerate(free):
        # sym.table holds residues mod p^B, B > K: reduce them to fit slot 0
        fv[e] = [c % mod for c in [*sym.table[e], *higher[e]]]
        fv[e][k + 1] += bun.unit(1 + r)
    tables = build_tables_mod(cache, fv, top % mod, cols=bun.cols)
    cols = [[bun.slots(c) for c in row] for row in tables]
    base = [[s[0] for s in row] for row in cols]
    x0 = ctx.sp.tail.x0
    target = sym.table[x0][k] * sD % mod
    delta = (target - base[x0][k]) % mod
    if delta:
        # best knob = first edge of smallest response valuation; the reachable
        # deltas form exactly that lattice (an honest lift with these
        # classical moments exists), so the divisibility check below is a
        # consistency check
        response = cols[x0][k][1:]
        best_v, best_r = min((valuation(c, p), r) for r, c in enumerate(response))
        if valuation(delta, p) < best_v:
            raise CertificationError("tuning target is outside the reachable lattice")
        t = (delta // p**best_v) * pow(response[best_r] // p**best_v, -1, mod) % mod
        base = [[(s[0] + t * s[1 + best_r]) % mod for s in row] for row in cols]
        if (base[x0][k] - target) % (mod // p**D):
            raise CertificationError("tuning failed to pin the tail moment")
    # classical layer must now match the eigensymbol on every coset, up to
    # the p^D head-room the solve arithmetic consumes
    for x in range(ctx.ms.index):
        for j in range(k + 1):
            if (base[x][j] - sym.table[x][j] * sD) % (mod // p**D):
                raise CertificationError("classical layer mismatch")
    return base


def _lift_setup(space: ClassicalSpace, sym: Eigensymbol, M: int) -> tuple[MomentCache, int]:
    """(cache, alpha^-1 mod p^Kint) for lifting sym to M moments. The tables
    live mod p^Kint, Kint = M + 2D + 4, which sym must carry with two digits
    to spare."""
    ctx = _context(space.ms, space.plan(up_deltas(sym.p)), sym.k, M)
    Kint = M + 2 * ctx.D + 4
    if sym.B < Kint + 2:
        raise ValueError(f"eigensymbol precision B={sym.B} too small for M={M}")
    cache = MomentCache(ctx, Kint)
    return cache, pow(sym.alpha, -1, cache.mod)


def _lift_step(
    cache: MomentCache, tables: Sequence[Sequence[int]], ainv: int
) -> list[list[int]]:
    """One lift iterate: Phi <- alpha^-1 (Phi | U_p)."""
    mod = cache.mod
    return [[c * ainv % mod for c in row] for row in up_apply_mod(cache, tables)]


def require_noncritical(slope: int, k: int) -> None:
    """Raise ValueError unless slope < k + 1, the lifting theorem's bound."""
    if not slope < k + 1:
        raise ValueError(
            f"noncritical-slope precondition failed: v_p(a_p) = {slope} >= k + 1 = {k + 1}"
        )


def lift_symbol(space: ClassicalSpace, sym: Eigensymbol, M: int) -> LiftReport:
    """Lift a slope-0 eigensymbol to an overconvergent U_p eigensymbol.

    Precondition (strict): v_p(alpha) < k + 1, checked before any work; the
    slope-1 evaluation at k = 0 is rejected here. Iteration is
    Phi <- alpha^{-1} (Phi | U_p) on p^D-scaled tables, with convergence
    declared when consecutive iterates agree at the graded moduli p^(M+D-j).
    """
    p, k = sym.p, sym.k
    v_alpha = valuation(sym.alpha, p)
    require_noncritical(v_alpha, k)
    if v_alpha != 0:
        raise ValueError("only the slope-0 iteration is implemented")
    cache, ainv = _lift_setup(space, sym, M)
    ctx, mod = cache.ctx, cache.mod
    D = ctx.D
    sD = p**D

    higher = {e: [0] * (M - k - 1) for e in ctx.sp.free_edges}
    tables = _tuned_initial_tables(cache, sym, higher, 0)

    iterations = 0
    converged = False
    cap = 4 * M
    while iterations < cap:
        nxt = _lift_step(cache, tables, ainv)
        iterations += 1
        ok = True
        for x in range(ctx.ms.index):
            row_n, row_o = nxt[x], tables[x]
            for j in range(M):
                if (row_n[j] - row_o[j]) % p ** (M + D - j):
                    ok = False
                    break
            if not ok:
                break
        tables = nxt
        if ok:
            converged = True
            break
    if not converged:
        raise DivergenceError(f"no convergence after {cap} iterations")

    rel_val = check_relations_mod(cache, tables)
    if rel_val < M + D:
        raise CertificationError("iterate lost the symbol relations")

    # eigenvalue certificate: eig - alpha_true is controlled by the convergence
    # modulus p^(M+D) and the measured moment-0 residual of U Phi - eig Phi
    best = next(x for x in range(ctx.ms.index) if valuation(tables[x][0], p) == D)
    img = up_apply_mod(cache, tables)
    a0 = tables[best][0] // sD
    b0 = img[best][0]
    if b0 % sD:
        raise CertificationError("U_p image lost p^D divisibility")
    eig = (b0 // sD) * pow(a0, -1, mod) % mod
    res_floor = min(valuation((img[x][0] - eig * tables[x][0]) % mod, p) for x in range(ctx.ms.index))
    eig_prec = min(M, res_floor - D)
    if eig_prec < M - 2:
        raise CertificationError("eigenvalue residual exceeds the documented two-digit loss")
    eig = eig % p**eig_prec

    # unscale and tag
    final: list[list[int]] = []
    for x in range(ctx.ms.index):
        row = []
        for j in range(M):
            c = tables[x][j] % p ** (M + D - j)
            if c % sD:
                raise CertificationError("unscaling lost divisibility")
            row.append((c // sD) % p ** (M - j))
        final.append(row)
    # ultrametric Cauchy bound: stored moment j is within p^(M-j) of the limit
    tags = [M - j for j in range(M)]

    spec_ok = True
    for x in range(ctx.ms.index):
        for j in range(k + 1):
            if (final[x][j] - sym.table[x][j]) % p ** (M - j):
                spec_ok = False
    return LiftReport(
        converged=True, iterations=iterations, N=ctx.ms.N, p=p, k=k, M=M,
        eigenvalue=eig, eigenvalue_precision=eig_prec,
        specialization_ok=spec_ok, specialization_precision=M,
        moment_precision=tags, solve_loss_ledger=list(ctx.loss_profile),
        relation_valuation=rel_val, tables=final,
    )


def random_initial_lift_pair(
    space: ClassicalSpace, sym: Eigensymbol, M: int, seed: int
) -> tuple[bool, int]:
    """Iterate two random-tail initial lifts of the same eigensymbol; returns
    (agree, worst graded valuation of the difference). Uniqueness of the
    slope-0 eigenlift makes agreement at the filtration moduli the oracle.
    sym needs the precision that lift_symbol asks for.
    """
    import random

    p, k = sym.p, sym.k
    cache, ainv = _lift_setup(space, sym, M)
    ctx, mod = cache.ctx, cache.mod
    rng = random.Random(seed)
    outs = []
    for _ in range(2):
        higher = {
            e: [rng.randrange(mod) for _ in range(M - k - 1)] for e in ctx.sp.free_edges
        }
        tables = _tuned_initial_tables(cache, sym, higher, rng.randrange(mod))
        for _ in range(4 * M):
            tables = _lift_step(cache, tables, ainv)
        outs.append(tables)
    a, b = outs
    S = max(ctx.loss_profile[:M])
    worst = VAL_INF
    agree = True
    for x in range(ctx.ms.index):
        for j in range(M):
            d = (a[x][j] - b[x][j]) % mod
            if d:
                worst = min(worst, valuation(d, p) - ctx.D + j)
            need = max(0, M + ctx.D - j - S)
            if d % p**need:
                agree = False
    return agree, worst


# ---------------------------------------------------------------------------
# U_p characteristic series over R_T (one weight at T = 1)
#
# Model: a symbol is coordinatized by the mlen moments of each free edge plus
# the top moment of the tail value; U_p becomes an n x n matrix over R_T. The
# table build and the U_p apply produce the p^D-scaled integral matrix mod
# p^K, the digits the readings below need (at most p^Kbig, _certified_series).
# Certification is two-sided: (representative) Newton's identities lose
# v_p(r) digits per division, tracked per coefficient; (model vs truth)
# discarding moments beyond mlen perturbs coefficient r by at least
# (mlen - S_sol) plus the sum of the r-1 smallest column valuation floors,
# read off the matrix itself. Both bounds are known before any trace, so the
# traces and Newton's identities run on U/p^E mod p^Kt, only the digits the
# readings keep (_read_series), and without the columns whose floor already
# reached mlen - S_sol, which no reading needs (_settled_columns).


class CoefficientReading(NamedTuple):
    index: int
    valuation: int | None       # None when the residue is 0 at full precision
    precision: int              # certified p-adic digits of the coefficient
    certified: bool             # valuation < precision, so the vertex is real
    residue: int | None         # coefficient mod p^precision (unscaled)

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "valuation": self.valuation,
            "precision": self.precision,
            "certified": self.certified,
            "residue": self.residue,
        }


def _csv_rows(
    coefficients: Iterable[tuple[str, CoefficientReading]], polygon: NewtonPolygon
) -> list[list[str]]:
    """Header, one row per (index label, coefficient reading), then the
    polygon's vertices and slopes."""
    rows = [["record", "index", "value", "precision", "certified"]]
    for index, c in coefficients:
        rows.append([
            "coefficient", index,
            "" if c.valuation is None else str(c.valuation),
            str(c.precision), str(c.certified).lower(),
        ])
    for v in polygon.vertices:
        rows.append(["vertex", str(v.index), str(v.height), "", str(v.certified).lower()])
    for s in polygon.segments:
        rows.append(["slope", str(s.length), str(s.slope), "", str(s.certified).lower()])
    return rows


class UpSpectralData(NamedTuple):
    N: int
    p: int
    k: int
    M: int
    mlen: int
    xdeg: int
    model_dim: int
    coefficients: list[CoefficientReading]
    polygon: "object"

    def certified_slopes(self) -> list[tuple[Fraction, int]]:
        return self.polygon.certified_slopes()

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "p": self.p,
            "k": self.k,
            "M": self.M,
            "mlen": self.mlen,
            "xdeg": self.xdeg,
            "model_dim": self.model_dim,
            "coefficients": [c.as_dict() for c in self.coefficients],
            "polygon": self.polygon.as_dict(),
            "certified_slopes": [[str(s), m] for s, m in self.certified_slopes()],
        }

    def csv_rows(self) -> list[list[str]]:
        return _csv_rows(((str(c.index), c) for c in self.coefficients), self.polygon)


def up_model_matrix(cache: MomentCache) -> list[list[list[int]]]:
    """p^D-scaled matrix of U_p in the free-moment coordinates over R_T, as
    T w-coefficient planes: plane t is the n x n w^t layer. All n unit
    columns go through one table build and one U_p apply as column bundles
    (ColumnBundles): column r * mlen + i is moment i of free edge r, and the
    last column is the tail top moment. Only the U_p rows of the free edges
    and the tail coset are read, so the build leaves out the twisted
    partners those rows never reach. Delta columns at k > 0, and on the
    higher w-planes, sit outside the tail-consistency kernel, so the build
    routes the defect into a sink; the determinant computed from this matrix
    is the Fredholm series of U_p on the free approximation module, whose
    w = 0 layer is the single-weight model.
    """
    ctx = cache.ctx
    T, mlen, n = cache.T, ctx.mlen, ctx.n_model
    bun = ColumnBundles(cache, n)
    free = list(ctx.sp.free_edges)
    rows = free + [ctx.sp.tail.x0]
    fv = {e: [bun.unit(r * mlen + i) for i in range(mlen)] + [0] * ((T - 1) * mlen)
          for r, e in enumerate(free)}
    sink: list = []
    read = {y for x in rows for y, _, _ in ctx.up_plan[x]}
    # no name keeps the tables, so they are freed before the planes are read
    img = up_apply_mod(
        cache, build_tables_mod(cache, fv, bun.unit(n - 1), defect_out=sink, cols=n, read=read),
        cosets=rows, cols=n,
    )
    # (row of the U_p image, moment): the free moments, then the tail top moment
    coords = [(r, i) for r in range(len(free)) for i in range(mlen)] + [(len(free), mlen - 1)]
    return [[bun.slots(img[r][t * mlen + i]) for r, i in coords] for t in range(T)]


def _newton_losses(xdeg: int, p: int) -> list[int]:
    """nloss[r - 1] for r = 1 .. xdeg: the p-adic digits that Newton's
    identities lose by coefficient r. Coefficient r divides by r, losing
    v_p(r) digits on top of the worst loss among its inputs,
    nloss[r] = max(nloss[< r]) + v_p(r); the losses grow with r, so this is
    v_p(r!). It depends only on r and p, so it is known before any trace."""
    out, loss = [], 0
    for r in range(1, xdeg + 1):
        loss += valuation(r, p)
        out.append(loss)
    return out


def _elementary_from_traces(traces: list[tuple[int, ...]], p: int, mod: int) -> list[list[int]]:
    """Newton's identities over R_T mod p^K: e_1 .. e_count from the power
    traces. Coefficient r is known mod p^(K - nloss[r - 1]) (_newton_losses)."""
    T = len(traces[0])
    e: list[list[int]] = [[1] + [0] * (T - 1)]
    for r in range(1, len(traces) + 1):
        acc = [0] * T
        for i in range(1, r + 1):
            sgn = 1 if i % 2 == 1 else -1
            er_i = e[r - i]
            pi = traces[i - 1]
            for s in range(T):
                es = er_i[s]
                if es:
                    for t in range(T - s):
                        acc[s + t] += sgn * es * pi[t]
        vr = valuation(r, p)
        inv_rr = pow(r // p**vr, -1, mod)
        out = []
        for a in acc:
            a %= mod
            if a % p**vr:
                raise CertificationError("Newton numerator lost required divisibility")
            out.append(a // p**vr * inv_rr % mod)
        e.append(out)
    return e[1:]


def _check_positive(**sizes: int) -> None:
    for name, value in sizes.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _column_valuations(U: list[list[list[int]]], p: int, cap: int) -> list[int]:
    """Valuation of each column of the planes U over R_T, from one gcd per
    column; cap for a column that is zero mod p^cap."""
    return [min(cap, valuation(math.gcd(*(row[l] for plane in U for row in plane)), p))
            for l in range(len(U[0]))]


def _trace_digits(p: int, D: int, E: int, Kbig: int, kappas: list[int]) -> tuple[list[int], int]:
    """(prec, Kt): prec[r - 1] = min(kappas[r - 1], Kbig - nloss_r - rD), the
    certified digits of coefficient r, and Kt, the digits of U/p^E that the
    traces and Newton's identities need to give every coefficient to them
    (_read_series)."""
    nloss = _newton_losses(len(kappas), p)
    precs = [min(kappa, Kbig - loss - r * D)
             for r, (kappa, loss) in enumerate(zip(kappas, nloss), 1)]
    Kt = max([1] + [max(prec, 0) + loss + r * (D - E)
                    for r, (prec, loss) in enumerate(zip(precs, nloss), 1)])
    return precs, Kt


def _read_series(
    U: list[list[list[int]]], p: int, D: int, E: int, Kbig: int, kappas: list[int],
    K: int | None = None,
) -> tuple[list[list[CoefficientReading]], NewtonPolygon]:
    """Readings [r][t] of coefficients 0 .. len(kappas) of det(1 - X U/p^D)
    over R_T, and the Newton polygon of the w^0 layer, from the planes of
    the p^D-scaled model matrix U mod p^K (K = Kbig when not given).

    kappas[r - 1] is the model-truncation precision of coefficient r, and
    Kbig - nloss_r - rD its representative precision; both are known before
    any trace, and so is prec_r, the smaller of the two. Every entry of U is
    divisible by p^E (E <= D, checked here) and e_r(U) = p^(rE) e_r(U/p^E),
    so the traces and Newton's identities run on U1 = U/p^E mod p^Kt and
    coefficient r is read as c_r = e_r(U1)/p^(r(D-E)), known mod
    p^(Kt - nloss_r - r(D-E)). Kt (_trace_digits) is the fewest digits that
    keep this at least prec_r for every r; it never exceeds Kbig - E.
    A build mod p^K agrees with the Kbig build mod p^(K - D), so U/p^E mod
    p^Kt is the Kbig one when K >= Kt + E + D; below that, and below Kbig,
    this raises CertificationError. Each plane of U is overwritten with that
    of U1, row by row, so no second copy is held. U may be the model matrix without its settled
    columns (_settled_columns); kappas and E are those of the full matrix.
    """
    T = len(U)
    precs, Kt = _trace_digits(p, D, E, Kbig, kappas)
    if K is not None and K < min(Kbig, Kt + E + D):
        raise CertificationError("model modulus below the digits the traces read")
    mod, pE = p**Kt, p**E
    for plane in U:
        for i, row in enumerate(plane):
            if any(c % pE for c in row):
                raise CertificationError("scaled model matrix lost p^E")
            plane[i] = [c // pE % mod for c in row]
    elem = _elementary_from_traces(power_traces_mod(U, len(kappas), mod), p, mod)

    readings = [[CoefficientReading(0, 0, Kbig, True, 1)]
                + [CoefficientReading(0, None, Kbig, True, 0) for _ in range(T - 1)]]
    points = [PolygonPoint(0, 0, True)]
    for r, (prec, e_r) in enumerate(zip(precs, elem), 1):
        shift = p ** (r * (D - E))
        row = []
        for x in e_r:
            rep = (-1) ** r * x % mod
            # the p^(rD) check on e_r(U), read on e_r(U1)
            if rep % shift:
                raise CertificationError("scaled coefficient lost p^(rD)")
            c = rep // shift
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


def _settled_columns(vals: list[int], D: int, trunc: int, kappas: list[int]) -> list[int]:
    """The model columns whose floor min(v - D, trunc) has reached trunc,
    which the readings do not need (none when some kappa_r is negative).

    Coefficient r of det(1 - X U/p^D) is (-1)^r p^(-rD) times the sum of the
    r x r principal minors of U. A minor's valuation is at least the sum of
    its columns' valuations, and column l has valuation at least
    D + floor_l. So a minor that holds a settled column has valuation at
    least rD + trunc + (the sum of the r - 1 smallest floors) = rD + kappa_r,
    and kappa_r >= prec_r. Dropping the settled columns with their rows
    removes exactly those minors, so every reading keeps its residue mod
    p^prec_r, its valuation below prec_r, and, when kappa_r >= 0, the
    p^(rD) divisibility that _read_series checks.
    """
    if min(kappas) < 0:
        return []
    return [l for l, v in enumerate(vals) if v - D >= trunc]


def _certified_series(N: int, p: int, k: int, M: int, T: int, xdeg: int, pad: int):
    """Certified initial segment of det(1 - X U_p) over R_T.

    Coefficient r of the model charpoly, unscaled by p^(rD), is certified
    against both the representative budget (Kbig less the Newton losses) and
    the model-truncation bound; the traces and Newton's identities run on
    U/p^E mod p^Kt, the digits those precisions need (_read_series).

    The table build and the U_p apply are ring operations mod p^K apart from
    the exact division of nu by p^D, so a build mod p^K agrees with the Kbig
    build mod p^(K - D). U is built mod p^K for the K the readings use: the
    floors min(v - D, mlen - S) and E = min(D, column valuations) read
    valuations only up to mlen - S + D, so K >= mlen - S + 2D gives them
    exactly; K >= mlen keeps the compactness and filtration checks at full
    strength; and the reading needs K >= Kt + E + D. The first build is at
    K0 = min(Kbig, max(mlen, mlen - S + 2D, Kt + 2D)), Kt taken with every
    floor 0 and E = D; if the floors and E it gives need more, U is built
    once more at min(Kbig, Kt + E + D), so there are at most two builds. At
    K = Kbig the build is the one of the full budget. The floors, kappa_r
    and E are read on all n columns; then the settled columns, whose floor
    reached mlen - S, leave U with their rows before the traces
    (_settled_columns), which changes no reading. Returns (xdeg, model_dim,
    sorted column floors, truncation floor, readings [r][t] of the w^t part
    of coefficient r, Newton polygon of the w^0 layer).
    """
    _check_positive(M=M, T=T, xdeg=xdeg)
    if k < 0:
        raise ValueError(f"k must be at least 0, got {k}")
    mlen = M + pad
    ctx = oc_context(N, p, k, mlen)
    D, S = ctx.D, ctx.S_sol
    n = ctx.n_model
    xdeg = min(xdeg, n)
    Kbig = mlen + xdeg * (D + 1) + 16
    trunc = mlen - S
    Kt0 = _trace_digits(p, D, D, Kbig, [trunc] * xdeg)[1]
    K = min(Kbig, max(mlen, trunc + 2 * D, Kt0 + 2 * D))
    U = None
    while U is None:
        U = up_model_matrix(MomentCache(ctx, K, T))
        # empirical valuation floors of the unscaled operator's columns
        vals = _column_valuations(U, p, K)
        floors = sorted(min(v - D, trunc) for v in vals)
        kappas = [trunc + sum(floors[: r - 1]) for r in range(1, xdeg + 1)]
        E = min([D] + vals)
        need = min(Kbig, _trace_digits(p, D, E, Kbig, kappas)[1] + E + D)
        if need > K:
            K, U = need, None
    settled = set(_settled_columns(vals, D, trunc, kappas))
    if settled:
        kept = [l for l in range(n) if l not in settled]
        U = [[[row[l] for l in kept] for i, row in enumerate(plane) if i not in settled]
             for plane in U]
    readings, polygon = _read_series(U, p, D, E, Kbig, kappas, K)
    return xdeg, n, floors, trunc, readings, polygon


def charpoly_up(N: int, p: int, k: int, M: int, xdeg: int = 14) -> UpSpectralData:
    """Certified initial segment of the U_p characteristic series det(1 - X U_p):
    the single-weight (T = 1) case of the series over R_T."""
    xdeg, n, _, _, readings, poly = _certified_series(N, p, k, M, 1, xdeg, pad=4)
    return UpSpectralData(
        N=N, p=p, k=k, M=M, mlen=M + 4, xdeg=xdeg, model_dim=n,
        coefficients=[row[0] for row in readings], polygon=poly,
    )


# ---------------------------------------------------------------------------
# reading the series over a weight disc
#
# Coefficients live in Z_p[w]/(w^T, p^K); the center w = 0 is the classical
# weight k0 and integer w near the center correspond to weights k0 + w. All
# arithmetic happens genuinely in the truncated ring: evaluation at a unit w
# is not a homomorphism of Z[w]/(w^T), so no evaluate-and-interpolate
# shortcut can recover ring coefficients beyond the first two digits.


class FamilySpectralData(NamedTuple):
    N: int
    p: int
    k0: int
    M: int
    T: int
    mlen: int
    xdeg: int
    model_dim: int
    coefficients: list[list[CoefficientReading]]   # [r][t] readings of w^t part
    center_polygon: "object"
    column_floors: list[int]        # sorted floors of all model columns, each <= mlen - S

    def center_readings(self) -> list[CoefficientReading]:
        return [row[0] for row in self.coefficients]

    def center_matches(self, single: UpSpectralData) -> tuple[bool, list[int]]:
        """Coefficient-by-coefficient agreement with a one-weight run at the
        shared certified precision."""
        shared: list[int] = []
        ok = True
        for mine, theirs in zip(self.center_readings(), single.coefficients):
            s = min(mine.precision, theirs.precision)
            shared.append(s)
            if s <= 0:
                continue
            a = mine.residue if mine.residue is not None else 0
            b = theirs.residue if theirs.residue is not None else 0
            if (a - b) % self.p**s:
                ok = False
        return ok, shared

    def specialized_points(self, w_value: int) -> list:
        """Polygon points of the series at an integer point of the disc.

        The true series has integral coefficients, so truncating it at w^T
        perturbs the value at w by at most p^(T v_p(w)); that floor is folded
        into each point's certification.
        """
        p = self.p
        vw = valuation(w_value, p)
        drop = self.T * min(vw, 10**3)
        pts = [PolygonPoint(0, 0, True)]
        for r in range(1, len(self.coefficients)):
            row = self.coefficients[r]
            prec = min(c.precision for c in row)
            prec = min(prec, drop)
            acc = 0
            wp = 1
            m = p ** max(prec, 1)
            for c in row:
                acc = (acc + (c.residue or 0) * wp) % m
                wp = wp * w_value % m if w_value else 0
                if wp == 0 and w_value == 0:
                    break
            v = valuation(acc, p)
            if prec > 0 and v < prec:
                pts.append(PolygonPoint(r, v, True))
            else:
                pts.append(PolygonPoint(r, max(prec, 0), False))
        return pts

    def _window_closed(self, points, h: int, count: int) -> bool:
        """True when no coefficient after the breakpoint, inside the window or
        beyond it, can extend the slope-<=h part of the polygon.

        In-window points carry measured heights (uncertified ones already sit
        at their precision floor). Past the window, coefficient r of the model
        series clears the sum of the r smallest column floors, which must stay
        strictly above the slope-h line through the breakpoint. Each floor is
        capped at mlen - S, the floor of the omitted tail, so the floors
        already account for it.
        """
        ystar = None
        for pt in points:
            if pt.index == count:
                ystar = pt.height
        if ystar is None:
            return False
        for pt in points:
            if pt.index > count and pt.height <= ystar + h * (pt.index - count):
                return False
        run = sum(self.column_floors[: self.xdeg])
        for r in range(self.xdeg + 1, self.model_dim + 1):
            step = self.column_floors[r - 1]
            run += step
            if run <= ystar + h * (r - count):
                return False
            if step > h:
                break
        return self.column_floors[-1] > h

    def breakpoint_constancy(self, h: int) -> str:
        """'constant' / 'varies' / 'inconclusive' for the x-coordinate of the
        slope-h breakpoint between the center and a probe point of the disc.

        The probe w = p^2 trades disc radius for truncation accuracy:
        vertices up to height T v_p(w) stay readable there. 'constant' is only
        reported when both windows provably contain their breakpoints.
        """
        pts_a = self.specialized_points(0)
        pts_b = self.specialized_points(self.p**2)
        try:
            a = NewtonPolygon(pts_a).slope_le_count(h)
            b = NewtonPolygon(pts_b).slope_le_count(h)
        except AmbiguityError:
            return "inconclusive"
        if a >= self.xdeg or b >= self.xdeg:
            return "inconclusive"
        if not (self._window_closed(pts_a, h, a) and self._window_closed(pts_b, h, b)):
            return "inconclusive"
        return "constant" if a == b else "varies"

    def as_dict(self) -> dict:
        return {
            "N": self.N,
            "p": self.p,
            "k0": self.k0,
            "M": self.M,
            "T": self.T,
            "mlen": self.mlen,
            "xdeg": self.xdeg,
            "model_dim": self.model_dim,
            "coefficients": [
                [c.as_dict() for c in row] for row in self.coefficients
            ],
            "center_polygon": self.center_polygon.as_dict(),
        }

    def csv_rows(self) -> list[list[str]]:
        """Flat rows: X-coefficient r, weight-variable layer t, then the
        center polygon's vertices and slopes."""
        return _csv_rows(((f"{r}.{t}", c) for r, row in enumerate(self.coefficients)
                          for t, c in enumerate(row)), self.center_polygon)


def family_charpoly(
    N: int, p: int, k0: int, M: int, T: int = 3, xdeg: int = 8
) -> FamilySpectralData:
    """U_p characteristic series over the weight disc, coefficients in
    Z_p[w]/(w^T) with per-coefficient certified precision."""
    xdeg, n, floors, _, readings, poly = _certified_series(N, p, k0, M, T, xdeg, pad=2)
    return FamilySpectralData(
        N=N, p=p, k0=k0, M=M, T=T, mlen=M + 2, xdeg=xdeg, model_dim=n,
        coefficients=readings, center_polygon=poly, column_floors=floors,
    )
