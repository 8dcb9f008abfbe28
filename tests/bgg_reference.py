"""The BGG check on dense matrices over the whole monomial basis, for tests to
compare the package's weight-block route with: Theta as dense rows of D^e,
the Q-model as the full-basis linalg.nullspace of dense constraint rows, and
one full linalg.same_span. The field D = l(X_{alpha_i}) is rebuilt here from
(I - t E_{i,i+1}) Z, and theta_kernel_dim_mod takes the kernel dimension of
Theta from a rank modulo a prime, without linalg. Nothing in the package
imports this module.
"""
from __future__ import annotations

from operator import mul
from typing import Iterable, Sequence

from parahoric import linalg
from parahoric.induction import (
    levi_module_basis,
    positions,
    restrict_monomials,
    split_positions,
    theta_exponent,
)
from parahoric.polynomials import monomials_up_to_degree


def derivation_columns(n: int, i: int, basis: Sequence[tuple[int, ...]]) -> list[dict[int, int]]:
    """Column j: the images of the monomial basis[j] under D, by basis index.

    (I - t E_{i,i+1}) Z moves row i by -t times row i+1, whose diagonal entry
    is 1, so D z_{i,b} = -z_{i+1,b} (-1 at b = i + 1) and D kills the rest."""
    where = {p: a for a, p in enumerate(positions(n))}
    index = {m: k for k, m in enumerate(basis)}
    cols = []
    for m in basis:
        col: dict[int, int] = {}
        for b in range(i + 1, n):
            a = where[(i, b)]
            if m[a]:
                v = list(m)
                v[a] -= 1
                if b > i + 1:
                    v[where[(i + 1, b)]] += 1
                k = index[tuple(v)]
                col[k] = col.get(k, 0) - m[a]
        cols.append(col)
    return cols


def theta_columns(n: int, i: int, lam: Sequence[int], d: int) -> tuple[list[dict[int, int]], list]:
    """Sparse columns of Theta = D^e on the monomials of degree <= d."""
    basis = monomials_up_to_degree(len(positions(n)), d)
    dcols = derivation_columns(n, i, basis)
    out = []
    for j in range(len(basis)):
        vec = {j: 1}
        for _ in range(theta_exponent(lam, i)):
            nxt: dict[int, int] = {}
            for k, x in vec.items():
                for r, c in dcols[k].items():
                    nxt[r] = nxt.get(r, 0) + x * c
            vec = {r: x for r, x in nxt.items() if x}
        out.append(vec)
    return out, basis


def dense_theta_matrix(n: int, i: int, lam: Sequence[int], d: int) -> tuple[list[list[int]], list]:
    cols, basis = theta_columns(n, i, lam, d)
    rows = [[0] * len(basis) for _ in basis]
    for j, col in enumerate(cols):
        for r, x in col.items():
            rows[r][j] = x
    return rows, basis


def dense_truncation_basis(
    n: int, levi: Iterable[int], lam: Sequence[int], d: int
) -> tuple[list[list[int]], list]:
    """The Q-model as linalg.nullspace of one dense constraint row per
    (c-monomial, integer y-vector orthogonal to the Levi module)."""
    levi = frozenset(levi)
    basis = monomials_up_to_degree(len(positions(n)), d)
    vecs, _ = levi_module_basis(n, levi, lam)
    ny = len(split_positions(n, levi)[0])
    restricted = []
    y_monos: set = {(0,) * ny}
    c_monos: set = set()
    for r in restrict_monomials(n, levi, basis):
        table: dict = {}
        for mono, coef in r.coeffs.items():
            table.setdefault(mono[ny:], {})[mono[:ny]] = coef
            y_monos.add(mono[:ny])
            c_monos.add(mono[ny:])
        restricted.append(table)
    for v in vecs:
        y_monos.update(v.coeffs)
    ylist = sorted(y_monos)
    perp = linalg.nullspace([[v.coeffs.get(m, 0) for m in ylist] for v in vecs])
    constraints = []
    for cm in sorted(c_monos):
        for k in perp:
            ky = dict(zip(ylist, k))
            constraints.append([sum(map(mul, table.get(cm, {}).values(),
                                        map(ky.__getitem__, table.get(cm, {}))))
                                for table in restricted])
    if not constraints:
        return [[int(a == b) for b in range(len(basis))] for a in range(len(basis))], basis
    return linalg.nullspace(constraints), basis


def dense_bgg(n: int, i: int, lam: Sequence[int], d: int) -> tuple[int, int, bool]:
    """(dim ker Theta, dim of the Q-model, same span) on the whole basis."""
    theta, _ = dense_theta_matrix(n, i, lam, d)
    kernel = linalg.nullspace(theta)
    model, _ = dense_truncation_basis(n, {i}, lam, d)
    return len(kernel), len(model), linalg.same_span(kernel, model)


def theta_kernel_dim_mod(n: int, i: int, lam: Sequence[int], d: int, q: int = 2**61 - 1) -> int:
    """dim ker Theta on degree <= d, from the rank of Theta modulo the prime q."""
    cols, basis = theta_columns(n, i, lam, d)
    pivots: dict[int, dict[int, int]] = {}
    for col in cols:
        row = {r: x % q for r, x in col.items() if x % q}
        while row:
            r = min(row)
            if r not in pivots:
                inv = pow(row[r], -1, q)
                pivots[r] = {k: v * inv % q for k, v in row.items()}
                break
            f = row[r]
            for k, v in pivots[r].items():
                row[k] = (row.get(k, 0) - f * v) % q
                if not row[k]:
                    del row[k]
    return len(basis) - len(pivots)
