"""Theta operators on unipotent coordinates and parahoric BGG checks, GL(n).

Algebraic inductions are modelled through their restriction to the upper
unitriangular subgroup N: a weight-lambda induction from a parabolic Q sits
inside polynomials in the coordinates z_{ij} (i < j), and membership is
detected through the Levi factorization g = l(y) n(c).

The field l(X_{alpha_i}) has the closed form
-d/dz_{i,i+1} - sum_{b > i+1} z_{i+1,b} d/dz_{i,b}, and one derivation,
with integer coefficients, serves theta_apply on polynomials and the sparse
matrix of theta_matrix and bgg_kernel alike.

Every matrix of a BGG check is block-diagonal by torus weight: z_{rc} has
weight e_r - e_c, Theta_{alpha_i} = D^e maps weight mu to mu - e alpha_i,
and the Levi module is spanned by weight vectors. So Theta, the Q-model's
constraint rows, their kernels and each span or rank test are taken one
weight block at a time, with CertificationError if an entry crosses blocks.
theta_matrix and parahoric_truncation_basis (the model as primitive integer
kernel rows) assemble whole-basis outputs from the blocks; reduced echelon
forms are unique, so these equal the dense results.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul
from typing import Callable, Iterable, NamedTuple, Sequence

from . import linalg
from .padics import CertificationError
from .polynomials import Monomial, Poly, monomials_up_to_degree, poly_matrix_mul
from .rootdata import gl_datum
from .slopes import TorusElement

Position = tuple[int, int]
Weight = tuple[int, ...]


def positions(n: int) -> list[Position]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def var_name(pos: Position, prefix: str = "z") -> str:
    return f"{prefix}{pos[0] + 1}{pos[1] + 1}"


class NCoordinates(NamedTuple):
    """Coordinates z_{ij} on the unipotent radical of the GL(n) Borel."""

    n: int

    @property
    def positions(self) -> list[Position]:
        return positions(self.n)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(var_name(p) for p in self.positions)

    def var(self, pos: Position) -> Poly:
        return Poly.var(self.variables, var_name(pos))

    def unitriangular(self, ring: Sequence[str], entries: dict[Position, Poly]) -> list[list[Poly]]:
        m = [[Poly.zero(ring) for _ in range(self.n)] for _ in range(self.n)]
        for i in range(self.n):
            m[i][i] = Poly.const(ring, 1)
        for pos, val in entries.items():
            m[pos[0]][pos[1]] = val
        return m

    def monomial_basis(self, d: int) -> list[tuple[int, ...]]:
        return monomials_up_to_degree(len(self.positions), d)


def _derivation(n: int, i: int) -> Callable[[Monomial], dict[Monomial, int]]:
    """D = l(X_{alpha_i}), f -> d/dt f(exp(-t X_{alpha_i}) z) at t = 0.

    (I - t E_{i,i+1}) Z moves only row i, by -t times row i+1 of Z, so
    D = -d/dz_{i,i+1} - sum_{b > i+1} z_{i+1,b} d/dz_{i,b}. Returns the map
    sending an exponent tuple m to the images of z^m under D: each term
    lowers the exponent at (i, b), raises the one at (i+1, b) if b > i+1,
    and has the integer coefficient -m_{i,b}.
    """
    if not 0 <= i <= n - 2:
        raise ValueError(f"simple-root index i must lie in [0, {n - 2}], got {i}")
    where = {p: a for a, p in enumerate(positions(n))}
    terms = [(where[(i, b)], where.get((i + 1, b))) for b in range(i + 1, n)]

    def images(m: Monomial) -> dict[Monomial, int]:
        out = {}
        for a, c in terms:
            if m[a]:
                v = list(m)
                v[a] -= 1
                if c is not None:
                    v[c] += 1
                out[tuple(v)] = -m[a]
        return out

    return images


def _field_power(n: int, i: int, e: int, f: Poly) -> Poly:
    """l(X_{alpha_i})^e f, for f in the coordinates z_ij of GL(n)."""
    if f.vars != NCoordinates(n).variables:
        raise ValueError(f"polynomial is not in the GL({n}) coordinates z_ij")
    images = _derivation(n, i)
    for _ in range(e):
        out: dict = {}
        for m, c in f.coeffs.items():
            for mm, x in images(m).items():
                out[mm] = out.get(mm, 0) + c * x
        f = Poly(f.vars, out)
    return f


def apply_field(n: int, i: int, f: Poly) -> Poly:
    return _field_power(n, i, 1, f)


def theta_exponent(lam: Sequence[int], i: int) -> int:
    """<lambda, alpha_i^vee> + 1 for GL(n) weights."""
    e = int(lam[i]) - int(lam[i + 1]) + 1
    if e < 1:
        raise ValueError("weight must be dominant in the i-th direction")
    return e


def theta_apply(n: int, i: int, lam: Sequence[int], f: Poly) -> Poly:
    """Theta_{alpha_i} = l(X_{alpha_i})^{<lambda,alpha_i^vee>+1}."""
    return _field_power(n, i, theta_exponent(lam, i), f)


def truncation_threshold(n: int, i: int, lam: Sequence[int]) -> int:
    """Degree above which truncated kernels provably stabilize: the exponent
    plus the degree of the field coefficients, which is 1 when the field has
    a z_{i+1,b} term (i + 2 < n) and 0 otherwise.

    The operator never raises total degree here, so any cap d gives the
    truncated kernel exactly; this bound also freezes the dimension count.
    """
    return theta_exponent(lam, i) + (1 if i + 2 < n else 0)


def _graded_basis(n: int, d: int) -> tuple[list[Monomial], dict[Weight, list[int]], dict]:
    """The monomials of degree <= d, their indices grouped by torus weight
    (z_{rc} has weight e_r - e_c; each group ascending), and the (weight,
    position in its group) of each monomial."""
    basis = NCoordinates(n).monomial_basis(d)
    pos = positions(n)
    blocks: dict[Weight, list[int]] = {}
    where: dict[Monomial, tuple[Weight, int]] = {}
    for j, m in enumerate(basis):
        w = [0] * n
        for (r, c), x in zip(pos, m):
            w[r] += x
            w[c] -= x
        block = blocks.setdefault(tuple(w), [])
        where[m] = (tuple(w), len(block))
        block.append(j)
    return basis, blocks, where


def _theta_blocks(n: int, i: int, e: int, graded: tuple) -> dict[Weight, tuple[Weight, list]]:
    """Theta = D^e, D = l(X_{alpha_i}), per weight block mu: (nu, rows), the
    rows being the monomials of weight nu = mu - e alpha_i (maybe none) over
    the columns of weight mu, each column e sparse passes over a monomial."""
    basis, blocks, where = graded
    images = _derivation(n, i)
    out = {}
    for mu, cols in blocks.items():
        nu = tuple(x - e * ((t == i) - (t == i + 1)) for t, x in enumerate(mu))
        rows = [[0] * len(cols) for _ in blocks.get(nu, ())]
        for j, src in enumerate(cols):
            vec = {basis[src]: 1}
            for _ in range(e):
                nxt: dict[Monomial, int] = {}
                for m, x in vec.items():
                    for mm, c in images(m).items():
                        nxt[mm] = nxt.get(mm, 0) + x * c
                vec = {m: x for m, x in nxt.items() if x}
            for m, x in vec.items():
                w, t = where.get(m, (None, 0))
                if w != nu:
                    raise CertificationError(f"Theta maps weight {mu} outside weight {nu}")
                rows[t][j] = x
        out[mu] = (nu, rows)
    return out


def _block_kernel(rows: list[list[int]], width: int) -> list[list[int]]:
    """linalg.nullspace of rows, or the identity on width columns if there are none."""
    if not rows:
        return [[int(a == b) for b in range(width)] for a in range(width)]
    return linalg.nullspace(rows)


def theta_matrix(n: int, i: int, lam: Sequence[int], d: int) -> tuple[list[list[int]], list]:
    """Integer matrix of Theta_{alpha_i} on the monomials of degree <= d."""
    basis, blocks, _ = graded = _graded_basis(n, d)
    rows = [[0] * len(basis) for _ in basis]
    for mu, (nu, block) in _theta_blocks(n, i, theta_exponent(lam, i), graded).items():
        for r, row in zip(blocks.get(nu, ()), block):
            for j, x in zip(blocks[mu], row):
                rows[r][j] = x
    return rows, basis


# the star action of p-power torus points

def star_scale_factors(t: TorusElement, n: int) -> list[Fraction]:
    """Scale factor p^{-<beta, mu>} for each coordinate z_beta."""
    if t.datum.rank != n:
        raise ValueError("torus element rank mismatch")
    out = []
    for (a, b) in positions(n):
        e = -(t.mu[a] - t.mu[b])
        out.append(Fraction(t.p) ** e)
    return out


def star_action(t: TorusElement, f: Poly, integral_only: bool = True) -> Poly:
    """Substitute z_beta -> p^{-<beta,mu>} z_beta.

    For t in T^+ all the exponents are >= 0; integral_only enforces that.
    """
    n = t.datum.rank
    factors = star_scale_factors(t, n)
    if integral_only:
        for fac in factors:
            if fac.denominator != 1:
                raise ValueError("star action not integral: t is not in T^+")
    return f.monomial_scale(factors)


def intertwining_scalar(t: TorusElement, i: int, lam: Sequence[int]) -> Fraction:
    """alpha(t)^{-<lambda,alpha^vee>-1} for the transform law of theta."""
    alpha_val = t.root_valuation(t.datum.simple_roots[i])
    e = theta_exponent(lam, i)
    return Fraction(t.p) ** (-alpha_val * e)


def intertwining_check(t: TorusElement, i: int, lam: Sequence[int], f: Poly) -> bool:
    """Theta(t * f) == scalar * (t * Theta(f)), exactly."""
    n = t.datum.rank
    lhs = theta_apply(n, i, lam, star_action(t, f))
    rhs = star_action(t, theta_apply(n, i, lam, f), integral_only=False).scale(
        intertwining_scalar(t, i, lam)
    )
    return lhs == rhs


# Levi factorization and membership in parabolic inductions

def levi_blocks(n: int, levi: Iterable[int]) -> list[list[int]]:
    """Consecutive index blocks of the standard Levi for a simple subset."""
    s = set(levi)
    if not s <= set(range(n - 1)):
        raise ValueError("Levi subset out of range")
    blocks = [[0]]
    for i in range(1, n):
        if i - 1 in s:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


def split_positions(n: int, levi: Iterable[int]) -> tuple[list[Position], list[Position]]:
    """(Levi positions, non-Levi positions) among the upper coordinates."""
    blocks = levi_blocks(n, levi)
    where = {}
    for bi, blk in enumerate(blocks):
        for i in blk:
            where[i] = bi
    inside, outside = [], []
    for pos in positions(n):
        (inside if where[pos[0]] == where[pos[1]] else outside).append(pos)
    return inside, outside


def restrict_monomials(n: int, levi: Iterable[int], basis: Sequence[Monomial]) -> list[Poly]:
    """R_n(z^m) for each m in basis: substitute z with the product l(y) n(c)
    and expand.

    y-variables sit at Levi positions, c-variables at the rest; the results
    live in the ring [y..., c...]. The basis must hold every monomial that
    divides one of its members (as monomials_up_to_degree does): each image
    is the image of z^m with one exponent lowered, times one product entry.
    """
    inside, outside = split_positions(n, levi)
    ring = tuple(var_name(p, "y") for p in inside) + tuple(var_name(p, "c") for p in outside)
    nc = NCoordinates(n)
    ell = nc.unitriangular(ring, {p: Poly.var(ring, var_name(p, "y")) for p in inside})
    nmat = nc.unitriangular(ring, {p: Poly.var(ring, var_name(p, "c")) for p in outside})
    prod = poly_matrix_mul(ell, nmat)
    images = [prod[a][b] for a, b in positions(n)]
    out: dict[Monomial, Poly] = {}
    for m in sorted(basis):  # lowering an exponent gives an earlier monomial
        j = max((k for k, e in enumerate(m) if e), default=None)
        if j is None:
            out[m] = Poly.const(ring, 1)
        else:
            out[m] = out[m[:j] + (m[j] - 1,) + m[j + 1:]] * images[j]
    return [out[m] for m in basis]


def weyl_dimension(block_weights: Sequence[int]) -> int:
    """Weyl dimension formula for an irreducible GL(b) weight."""
    lam = list(block_weights)
    b = len(lam)
    num, den = 1, 1
    for i in range(b):
        for j in range(i + 1, b):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    d = Fraction(num, den)
    if d.denominator != 1 or d <= 0:
        raise CertificationError(f"Weyl dimension {d} of {lam} is not a positive integer")
    return int(d)


def levi_weyl_dimension(n: int, levi: Iterable[int], lam: Sequence[int]) -> int:
    dim = 1
    for blk in levi_blocks(n, levi):
        dim *= weyl_dimension([int(lam[i]) for i in blk])
    return dim


def _leading_minors(ring: tuple[str, ...], b: int) -> list[Poly]:
    """det G[:k, :k] for k = 1..b-1 of the generic b x b matrix G whose entry
    (r, c) is the variable ring[r * b + c]. Each minor on rows 0..s-1 and a
    column subset is expanded along row s-1 into minors on rows 0..s-2."""
    g = [[Poly.var(ring, ring[r * b + c]) for c in range(b)] for r in range(b)]
    dets = {(): Poly.const(ring, 1)}
    out = []
    for s in range(1, b):
        nxt = {}
        for cols in itertools.combinations(range(b - 1), s):
            acc = Poly.zero(ring)
            for t, c in enumerate(cols):
                term = g[s - 1][c] * dets[cols[:t] + cols[t + 1:]]
                acc = acc - term if (s - 1 + t) % 2 else acc + term
            nxt[cols] = acc
        dets = nxt
        out.append(dets[tuple(range(s))])
    return out


def _lower(f: dict[Monomial, int], b: int, i: int) -> dict[Monomial, int]:
    """E_{i+1,i} f = sum_r G[r][i+1] df/dG[r][i]: the derivative at t = 0 of
    f(G exp(t E_{i+1,i})), which adds t times column i+1 to column i."""
    out: dict[Monomial, int] = {}
    for m, c in f.items():
        for a in range(i, b * b, b):
            if m[a]:
                key = m[:a] + (m[a] - 1, m[a + 1] + 1) + m[a + 2:]
                out[key] = out.get(key, 0) + c * m[a]
    return {m: c for m, c in out.items() if c}


def _coprime_support(vec: dict[Monomial, int | Fraction]) -> dict[Monomial, int]:
    """The nonzero entries of a rational vector, scaled to coprime integers."""
    vec = {m: x for m, x in vec.items() if x}
    return dict(zip(vec, linalg.primitive(vec.values())))


def _block_module(
    blk: list[int], w: list[int], inside: list[Position]
) -> list[dict[Monomial, int]]:
    """V_w of the GL(b) block on the indices blk, restricted to u(y): the
    block's unipotent in the y-variables of inside. Primitive integer vectors
    keyed by y-monomials, one per dimension of the module."""
    b = len(blk)
    ring = tuple(f"g{r}_{c}" for r in range(b) for c in range(b))
    # the highest-weight vector without det^(w_b), which is 1 on u(y) and
    # killed by every lowering field
    phi = Poly.const(ring, 1)
    for k, minor in enumerate(_leading_minors(ring, b)):
        for _ in range(w[k] - w[k + 1]):
            phi = phi * minor
    ypos = {(r, c): inside.index((blk[r], blk[c])) for r in range(b) for c in range(r + 1, b)}
    lower_entries = [r * b + c for r in range(b) for c in range(r)]

    def restrict(f: dict[Monomial, int]) -> dict[Monomial, int]:
        out: dict[Monomial, int] = {}
        for m, c in f.items():
            if any(m[a] for a in lower_entries):
                continue
            y = [0] * len(inside)
            for (r, cc), t in ypos.items():
                y[t] = m[r * b + cc]
            out[tuple(y)] = out.get(tuple(y), 0) + c
        return out

    target = weyl_dimension(w)
    kept: list[dict[Monomial, int]] = []
    restricted: list[dict[Monomial, int]] = []
    # kept vectors in fraction-free echelon form: (pivot monomial, primitive
    # integer coefficients); the pivot entry is not scaled to 1
    echelon: list[tuple[Monomial, dict[Monomial, int]]] = []

    def offer(f: dict[Monomial, int]) -> None:
        rest = vec = _coprime_support(restrict(f))
        for pm, row in echelon:
            x = rest.get(pm)
            if x:
                piv = row[pm]
                rest = {m: piv * v for m, v in rest.items()}
                for m, v in row.items():
                    rest[m] = rest.get(m, 0) - x * v
                rest = _coprime_support(rest)
        if rest:
            echelon.append((min(rest), rest))
            kept.append(f)
            restricted.append(vec)

    offer(phi.coeffs)
    done = 0
    while done < len(kept) < target:
        for i in range(b - 1):
            offer(_lower(kept[done], b, i))
        done += 1
    if len(kept) != target:
        raise CertificationError(
            f"lowering operators span {len(kept)} of the {target} dimensions of V_{tuple(w)}"
        )
    return restricted


def levi_module_basis(
    n: int,
    levi: Iterable[int],
    lam: Sequence[int],
) -> tuple[list[Poly], list[tuple[int, ...]]]:
    """Basis of V^{L_Q}_lambda restricted to N cap L_Q, in the y-variables.

    Each GL(b) block's module V_w is spanned by the lowering fields applied
    to its highest-weight vector phi' = prod_{k<b} minor_k(G)^(w_k - w_{k+1}),
    G a generic b x b matrix and minor_k its leading k x k minor (Fulton-
    Harris, section 15); det(G)^(w_b) is left out, being 1 on u(y). The fields
    E_{i+1,i} f = sum_r G[r][i+1] df/dG[r][i] are applied breadth-first to
    the kept vectors only. A vector is restricted to G = u(y), which is
    injective on the module, and kept iff it is independent of those kept
    before, until the Weyl dimension is reached; the simple lowering fields
    generate U(n^-), so the kept vectors span the module. The basis is the
    products of the block bases. Returns (polynomials, y-monomial list used
    as coordinates).
    """
    levi = frozenset(levi)
    blocks = levi_blocks(n, levi)
    inside, _ = split_positions(n, levi)
    yring = tuple(var_name(p, "y") for p in inside)
    vectors = [Poly.const(yring, 1)]
    for blk in blocks:
        w = [int(lam[i]) for i in blk]
        if any(w[t] < w[t + 1] for t in range(len(w) - 1)):
            raise ValueError("weight must be dominant for the Levi")
        module = [Poly(yring, v) for v in _block_module(blk, w, inside)]
        vectors = [v * q for v in vectors for q in module]
    final_monos = sorted(set().union(*[set(q.coeffs) for q in vectors]) | {(0,) * len(inside)})
    return vectors, final_monos


def _restriction_entries(n: int, levi: frozenset[int], graded: tuple) -> tuple[dict, set]:
    """R_n of the basis by c-monomial, which depends on the Levi and not on
    the weight: the nonzero ((weight, position), {y-monomial: coefficient})
    of each c-monomial, and every y-monomial that occurs, 1 included."""
    basis, _, where = graded
    ny = len(split_positions(n, levi)[0])
    y_monos = {(0,) * ny}
    entries: dict[tuple[int, ...], list] = {}
    for m, r in zip(basis, restrict_monomials(n, levi, basis)):
        table: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for mono, coef in r.coeffs.items():
            table.setdefault(mono[ny:], {})[mono[:ny]] = coef
            y_monos.add(mono[:ny])
        for cm, ycol in table.items():
            entries.setdefault(cm, []).append((where[m], ycol))
    return entries, y_monos


def _model_kernels(n: int, levi: frozenset[int], lam: Sequence[int], graded: tuple,
                   restricted: tuple[dict, set]) -> dict[Weight, list[list[int]]]:
    """The Q-model per weight block: the kernel of its constraint rows.

    f belongs iff in R_n(f) = sum_m q_m(c) y^m, every c-coefficient column of
    the y-expansion lies in the span of the Levi module. That module comes
    from levi_module_basis, built by lowering operators from the highest-
    weight minor product, so the model depends on its span only and on no
    seed: the columns are tested against the integer kernel of its rows.
    One row per (c-monomial, kernel vector) is filled sparsely: each
    c-monomial lists the basis columns whose restriction involves it, with
    their y-entries (restricted, from _restriction_entries), and an entry is
    one integer dot product.
    """
    blocks = graded[1]
    entries, y_monos = restricted
    vecs, _ = levi_module_basis(n, levi, lam)
    ylist = sorted(y_monos.union(*(v.coeffs for v in vecs)))
    # integer y-vectors orthogonal to the module span
    perp = [dict(zip(ylist, k))
            for k in linalg.nullspace([[v.coeffs.get(m, 0) for m in ylist] for v in vecs])]
    rows: dict[Weight, list[list[int]]] = {mu: [] for mu in blocks}
    for cols in entries.values():
        for k in perp:
            row = {at: x for at, ycol in cols
                   if (x := sum(map(mul, ycol.values(), map(k.__getitem__, ycol))))}
            if len({mu for mu, _ in row}) > 1:
                raise CertificationError("a constraint row of the Q-model touches two weights")
            if row:
                mu = next(iter(row))[0]
                rows[mu].append([row.get((mu, t), 0) for t in range(len(blocks[mu]))])
    return {mu: _block_kernel(rows[mu], len(cols)) for mu, cols in blocks.items()}


def parahoric_truncation_basis(
    n: int,
    levi: Iterable[int],
    lam: Sequence[int],
    d: int,
) -> tuple[list[list[int]], list[Monomial]]:
    """Degree-<= d part of the parabolic induction model inside A = Q[z], as
    rows over the z-monomial list, and that list: the block kernels ordered
    by free column (a nullspace vector's last nonzero entry), as
    linalg.nullspace orders the kernel of the whole constraint matrix.

    For the Borel (empty Levi subset) the module is trivial and there is no
    condition: every f works. Then, as whenever no constraint arises, the
    rows are the identity rows.
    """
    levi = frozenset(levi)
    basis, blocks, _ = graded = _graded_basis(n, d)
    rows = []
    restricted = _restriction_entries(n, levi, graded)
    for mu, vecs in _model_kernels(n, levi, lam, graded, restricted).items():
        for v in vecs:
            row = [0] * len(basis)
            for j, x in zip(blocks[mu], v):
                row[j] = x
            rows.append((blocks[mu][max(t for t, x in enumerate(v) if x)], row))
    return [row for _, row in sorted(rows)], basis


class BGGReport(NamedTuple):
    group: str
    simple_index: int
    weight: tuple[int, ...]
    degree_cap: int
    threshold: int
    dim_kernel: int
    dim_parabolic_model: int
    spaces_equal: bool

    def as_dict(self) -> dict:
        return {
            "group": self.group,
            "simple_index": self.simple_index,
            "weight": list(self.weight),
            "degree_cap": self.degree_cap,
            "threshold": self.threshold,
            "dim_kernel": self.dim_kernel,
            "dim_RQ": self.dim_parabolic_model,
            "pass": self.spaces_equal,
        }


def bgg_kernel(n: int, i: int, lam: Sequence[int], d: int, rng: object = None) -> BGGReport:
    """Exactness check: ker(Theta_{alpha_i}) on degree <= d equals the
    parabolic model for the sub-minimal parabolic generated by alpha_i.
    Two block-diagonal sums have the same span iff every block pair does.

    rng is unused: the Levi module is built deterministically. It is
    accepted only so that existing callers that pass one keep working."""
    if n < 2:
        raise ValueError(f"BGG checks need GL(n) with n >= 2, got n = {n}")
    if not 0 <= i <= n - 2:
        raise ValueError(f"simple-root index i must lie in [0, {n - 2}], got {i}")
    if d < 0:
        raise ValueError(f"degree cap d must be >= 0, got {d}")
    graded = _graded_basis(n, d)
    theta = _theta_blocks(n, i, theta_exponent(lam, i), graded)
    kernel = {mu: _block_kernel(rows, len(graded[1][mu])) for mu, (_, rows) in theta.items()}
    levi = frozenset({i})
    model = _model_kernels(n, levi, lam, graded, _restriction_entries(n, levi, graded))
    # a block subspace of dimension 0 or the block's width is fixed by its dimension
    equal = all(len(kernel[mu]) == len(model[mu]) in (0, len(cols))
                or linalg.same_span(kernel[mu], model[mu]) for mu, cols in graded[1].items())
    return BGGReport(
        group=f"GL{n}",
        simple_index=i,
        weight=tuple(int(x) for x in lam),
        degree_cap=d,
        threshold=truncation_threshold(n, i, lam),
        dim_kernel=sum(map(len, kernel.values())),
        dim_parabolic_model=sum(map(len, model.values())),
        spaces_equal=equal,
    )


def theta_preserves_parahoric(
    n: int,
    levi: Iterable[int],
    i: int,
    lam: Sequence[int],
    d: int,
) -> bool:
    """Does Theta_{alpha_i} send the Q-model at lambda into the Q-model at
    s_i * lambda? Requires alpha_i outside the Levi and a Levi-dominant
    image weight. One rank test per weight block mu and its image block nu;
    the restriction table R_n serves both weights."""
    levi = frozenset(levi)
    if i in levi:
        raise ValueError("alpha_i must lie outside the Levi")
    graded = _graded_basis(n, d)
    restricted = _restriction_entries(n, levi, graded)
    src = _model_kernels(n, levi, lam, graded, restricted)
    dst = _model_kernels(n, levi, gl_datum(n).weyl_star(lam, i), graded, restricted)
    theta = _theta_blocks(n, i, theta_exponent(lam, i), graded)
    return all(linalg.rank([*dst[nu], *(linalg.matvec(rows, v) for v in src[mu])]) == len(dst[nu])
               for mu, (nu, rows) in theta.items() if rows)
