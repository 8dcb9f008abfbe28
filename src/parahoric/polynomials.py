"""Exact multivariate polynomials keyed by exponent tuples.

Coefficients are ints, and Fractions only where a coefficient is rational:
they are stored as given, so integral data never builds a Fraction.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Sequence

Monomial = tuple[int, ...]
Coeffs = dict[Monomial, int | Fraction]


class Poly:
    """Polynomial in a fixed list of variable names; int coefficients, and
    Fractions only where a coefficient is rational."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, variables: Sequence[str], coeffs: Coeffs | None = None):
        self.vars = tuple(variables)
        self.coeffs: Coeffs = {}
        if coeffs:
            for m, c in coeffs.items():
                if c != 0:
                    if len(m) != len(self.vars):
                        raise ValueError("exponent arity mismatch")
                    self.coeffs[tuple(m)] = c

    @classmethod
    def _from_terms(cls, variables: tuple[str, ...], coeffs: Coeffs) -> "Poly":
        """Result of arithmetic: the exponents already have the ring's arity."""
        out = object.__new__(cls)
        out.vars = variables
        out.coeffs = {m: c for m, c in coeffs.items() if c}
        return out

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables)

    @classmethod
    def const(cls, variables: Sequence[str], c) -> "Poly":
        z = (0,) * len(variables)
        return cls(variables, {z: c})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "Poly":
        i = list(variables).index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls(variables, {tuple(e): 1})

    def _check(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Poly._from_terms(self.vars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return Poly._from_terms(self.vars, out)

    def __neg__(self) -> "Poly":
        return Poly._from_terms(self.vars, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        out: Coeffs = {}
        get = out.get
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(map(add, m1, m2))
                out[m] = get(m, 0) + c1 * c2
        return Poly._from_terms(self.vars, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        return Poly._from_terms(self.vars, {m: c * v for m, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.vars == other.vars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, m: Monomial) -> int | Fraction:
        return self.coeffs.get(tuple(m), 0)

    def monomial_scale(self, factors: Sequence[int | Fraction]) -> "Poly":
        """Send each variable v_i to factors[i] * v_i."""
        out: Coeffs = {}
        for m, c in self.coeffs.items():
            for fac, e in zip(factors, m):
                c *= fac ** e
            out[m] = c
        return Poly._from_terms(self.vars, out)

    def terms_sorted(self) -> list[tuple[Monomial, int | Fraction]]:
        return sorted(self.coeffs.items())

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m, c in self.terms_sorted():
            factors = [str(c)] if c != 1 or all(e == 0 for e in m) else []
            for v, e in zip(self.vars, m):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def monomials_up_to_degree(nvars: int, d: int) -> list[Monomial]:
    """All exponent tuples of total degree <= d, lexicographic order."""
    out: list[Monomial] = []

    def rec(prefix: list[int], remaining: int, budget: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], nvars, d)
    return sorted(out)


def poly_matrix_mul(a: list[list[Poly]], b: list[list[Poly]]) -> list[list[Poly]]:
    variables = a[0][0].vars
    n, k, m = len(a), len(b), len(b[0])
    out = [[Poly.zero(variables) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = Poly.zero(variables)
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            out[i][j] = acc
    return out
