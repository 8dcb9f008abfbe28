"""Exact multivariate polynomials over Fraction, keyed by exponent tuples."""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Monomial = tuple[int, ...]
Coeffs = dict[Monomial, Fraction]


class Poly:
    """Polynomial in a fixed list of variable names, exact coefficients."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, variables: Sequence[str], coeffs: Coeffs | None = None):
        self.vars = tuple(variables)
        self.coeffs: Coeffs = {}
        if coeffs:
            for m, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    if len(m) != len(self.vars):
                        raise ValueError("exponent arity mismatch")
                    self.coeffs[tuple(m)] = c

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables)

    @classmethod
    def const(cls, variables: Sequence[str], c) -> "Poly":
        z = (0,) * len(variables)
        return cls(variables, {z: Fraction(c)})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "Poly":
        i = list(variables).index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls(variables, {tuple(e): Fraction(1)})

    def _check(self, other: "Poly") -> None:
        if self.vars != other.vars:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(self.vars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Poly(self.vars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        out: Coeffs = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(self.vars, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly(self.vars, {m: c * v for m, v in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.vars == other.vars and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.coeffs.items()))))

    def is_zero(self) -> bool:
        return not self.coeffs

    def total_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(sum(m) for m in self.coeffs)

    def diff(self, name: str) -> "Poly":
        i = list(self.vars).index(name)
        out: Coeffs = {}
        for m, c in self.coeffs.items():
            if m[i] == 0:
                continue
            m2 = list(m)
            m2[i] -= 1
            out[tuple(m2)] = out.get(tuple(m2), Fraction(0)) + c * m[i]
        return Poly(self.vars, out)

    def coefficient(self, m: Monomial) -> Fraction:
        return self.coeffs.get(tuple(m), Fraction(0))

    def substitute(self, images: dict[str, "Poly"]) -> "Poly":
        """Ring map sending each variable to a polynomial (all in one target ring)."""
        target = next(iter(images.values())).vars
        imgs = []
        for v in self.vars:
            if v not in images:
                raise ValueError(f"no image for variable {v}")
            if images[v].vars != target:
                raise ValueError("images live in different rings")
            imgs.append(images[v])
        out = Poly.zero(target)
        for m, c in sorted(self.coeffs.items()):
            term = Poly.const(target, c)
            for img, e in zip(imgs, m):
                for _ in range(e):
                    term = term * img
            out = out + term
        return out

    def monomial_scale(self, factors: Sequence[Fraction]) -> "Poly":
        """Send each variable v_i to factors[i] * v_i."""
        out: Coeffs = {}
        for m, c in self.coeffs.items():
            f = Fraction(1)
            for fac, e in zip(factors, m):
                f *= Fraction(fac) ** e
            out[m] = c * f
        return Poly(self.vars, out)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        tot = Fraction(0)
        for m, c in self.coeffs.items():
            t = c
            for val, e in zip(values, m):
                t *= Fraction(val) ** e
            tot += t
        return tot

    def terms_sorted(self) -> list[tuple[Monomial, Fraction]]:
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
