"""The Levi module V_lambda spanned by random samples, for tests to compare
the package's lowering-operator construction with: y -> phi(u(y) h) for the
full highest-weight minor product phi, det(h) included, and random integral
block matrices h with entries in [-3, 3], kept by sympy's rank. Nothing in
the package imports this module.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Sequence

import sympy

from parahoric.induction import levi_blocks, levi_weyl_dimension, split_positions, var_name
from parahoric.polynomials import Poly, poly_matrix_mul


def principal_minor(m: list[list[Poly]], k: int) -> Poly:
    """Determinant of the leading k x k block, as a sum over permutations."""
    ring = m[0][0].vars
    out = Poly.zero(ring)
    for perm in itertools.permutations(range(k)):
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        term = Poly.const(ring, -1 if inversions % 2 else 1)
        for r in range(k):
            term = term * m[r][perm[r]]
        out = out + term
    return out


def levi_sample(n: int, levi: Iterable[int], lam: Sequence[int], rng: random.Random) -> Poly:
    """y -> phi(u(y) h) for one random integral block matrix h per block."""
    blocks = levi_blocks(n, levi)
    inside, _ = split_positions(n, levi)
    yring = tuple(var_name(p, "y") for p in inside)
    total = Poly.const(yring, 1)
    for blk in blocks:
        b = len(blk)
        w = [int(lam[i]) for i in blk]
        while True:
            h = [[rng.randint(-3, 3) for _ in range(b)] for _ in range(b)]
            hm = [[Poly.const(yring, h[r][c]) for c in range(b)] for r in range(b)]
            u = [[Poly.const(yring, int(r == c)) for c in range(b)] for r in range(b)]
            for r, c in itertools.combinations(range(b), 2):
                u[r][c] = Poly.var(yring, var_name((blk[r], blk[c]), "y"))
            g = poly_matrix_mul(u, hm)
            minors = [principal_minor(g, k) for k in range(1, b + 1)]
            # det(u(y) h) = det(h), a constant
            dval = minors[-1].coefficient((0,) * len(yring))
            if dval == 0 or any(mi.is_zero() for mi in minors):
                continue
            piece = Poly.const(yring, Fraction(dval) ** w[-1])
            for jj in range(b - 1):
                for _ in range(w[jj] - w[jj + 1]):
                    piece = piece * minors[jj]
            total = total * piece
            break
    return total


def coefficient_rows(vectors: Sequence[Poly]) -> list[list[Fraction]]:
    """The vectors' coefficients on the union of their monomials."""
    monos = sorted(set().union(*[set(q.coeffs) for q in vectors]))
    return [[q.coefficient(m) for m in monos] for q in vectors]


def sampled_levi_basis(n: int, levi: Iterable[int], lam: Sequence[int], seed: int) -> list[Poly]:
    """Samples kept iff sympy's rank of the kept samples plus it is full,
    until the Weyl dimension; raises ArithmeticError after 40 + 6 * dim draws."""
    rng = random.Random(seed)
    target = levi_weyl_dimension(n, levi, lam)
    vectors: list[Poly] = []
    for _ in range(40 + 6 * target):
        cand = vectors + [levi_sample(n, levi, lam, rng)]
        if sympy.Matrix(coefficient_rows(cand)).rank() == len(cand):
            vectors = cand
        if len(vectors) == target:
            return vectors
    raise ArithmeticError("failed to reach the Weyl dimension; weight not Levi-dominant?")
