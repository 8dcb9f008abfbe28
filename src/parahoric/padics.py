"""Fixed-precision p-adic scalars, Newton polygons, and slope counting.

Every scalar carries its own precision; arithmetic propagates precision the
standard way (relative precision min under multiplication, absolute
precision min under addition). Nothing here hides a precision loss.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

INF = math.inf


def default_precision() -> int:
    raw = os.environ.get("PARAHORIC_PRECISION", "20")
    try:
        m = int(raw)
    except ValueError as e:
        raise ValueError(f"PARAHORIC_PRECISION must be an integer, got {raw!r}") from e
    if m < 1:
        raise ValueError("PARAHORIC_PRECISION must be positive")
    return m


class PrecisionError(ArithmeticError):
    """An operation needed more p-adic precision than its inputs carry."""


class AmbiguityError(ValueError):
    """The requested slope datum is not determined at the stored precision."""


def padic_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PadicScalar:
    """p^val * unit with unit known mod p^relprec; unit == 0 encodes O(p^val)."""

    p: int
    val: int
    unit: int
    relprec: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if self.unit == 0:
            if self.relprec != 0:
                raise ValueError("zero scalars carry no relative precision")
        else:
            if self.relprec < 1:
                raise ValueError("nonzero scalars need relative precision >= 1")
            if not (0 < self.unit < self.p ** self.relprec):
                raise ValueError("unit out of range")
            if self.unit % self.p == 0:
                raise ValueError("unit must be prime to p")

    # constructors

    @classmethod
    def zero_at(cls, p: int, abs_prec: int) -> "PadicScalar":
        return cls(p, abs_prec, 0, 0)

    @classmethod
    def from_rational(cls, x, p: int, prec: int | None = None) -> "PadicScalar":
        x = Fraction(x)
        m = default_precision() if prec is None else prec
        if x == 0:
            return cls.zero_at(p, m)
        vn = padic_valuation(x.numerator, p) if x.numerator else 0
        vd = padic_valuation(x.denominator, p)
        val = vn - vd
        mod = p ** m
        num = x.numerator // p ** vn
        den = x.denominator // p ** vd
        unit = (num % mod) * pow(den % mod, -1, mod) % mod
        return cls(p, val, unit, m)

    @classmethod
    def from_int_mod(cls, n: int, p: int, abs_prec: int) -> "PadicScalar":
        """Interpret n as known modulo p^abs_prec."""
        n %= p ** abs_prec
        if n == 0:
            return cls.zero_at(p, abs_prec)
        v = padic_valuation(n, p)
        unit = (n // p ** v) % p ** (abs_prec - v)
        return cls(p, v, unit, abs_prec - v)

    # queries

    def is_zero(self) -> bool:
        return self.unit == 0

    @property
    def valuation(self):
        """Valuation, or +inf for a scalar indistinguishable from zero."""
        return INF if self.unit == 0 else self.val

    @property
    def abs_prec(self) -> int:
        return self.val + self.relprec

    def lift(self) -> int:
        """Integer representative p^val * unit (val must be >= 0)."""
        if self.unit == 0:
            return 0
        if self.val < 0:
            raise ValueError("negative valuation has no integer lift")
        return self.p ** self.val * self.unit

    # arithmetic

    def _check(self, other: "PadicScalar") -> None:
        if self.p != other.p:
            raise ValueError("mixed primes")

    def __neg__(self) -> "PadicScalar":
        if self.unit == 0:
            return self
        mod = self.p ** self.relprec
        return PadicScalar(self.p, self.val, (-self.unit) % mod, self.relprec)

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        a = min(self.abs_prec, other.abs_prec)
        shift = -min(self.val, other.val, 0)
        aa = a + shift
        if aa <= 0:
            return PadicScalar.zero_at(self.p, a)
        mod = self.p ** aa
        rep = (self._shifted(shift).lift() + other._shifted(shift).lift()) % mod
        if rep == 0:
            return PadicScalar.zero_at(self.p, aa)._shifted(-shift)
        return PadicScalar.from_int_mod(rep, self.p, aa)._shifted(-shift)

    def _shifted(self, k: int) -> "PadicScalar":
        """Multiply by p^k (exact)."""
        if self.unit == 0:
            return PadicScalar.zero_at(self.p, self.val + k)
        return PadicScalar(self.p, self.val + k, self.unit, self.relprec)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        return self + (-other)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        if self.unit == 0 or other.unit == 0:
            # val is a valuation lower bound in both cases
            return PadicScalar.zero_at(self.p, self.val + other.val)
        m = min(self.relprec, other.relprec)
        mod = self.p ** m
        return PadicScalar(self.p, self.val + other.val, (self.unit * other.unit) % mod, m)

    def inverse(self) -> "PadicScalar":
        if self.unit == 0:
            raise PrecisionError("cannot invert a scalar indistinguishable from zero")
        mod = self.p ** self.relprec
        return PadicScalar(self.p, -self.val, pow(self.unit, -1, mod), self.relprec)

    def __truediv__(self, other: "PadicScalar") -> "PadicScalar":
        return self * other.inverse()

    def __pow__(self, e: int) -> "PadicScalar":
        if e < 0:
            return self.inverse() ** (-e)
        out = PadicScalar.from_rational(1, self.p, self.relprec if self.unit else 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __repr__(self) -> str:
        if self.unit == 0:
            return f"O({self.p}^{self.val})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.abs_prec})"


# Newton polygons

@dataclass(frozen=True)
class PolygonPoint:
    index: int
    height: object          # int/Fraction, or a lower bound if not certified
    certified: bool


@dataclass(frozen=True)
class Segment:
    start: tuple[int, object]
    end: tuple[int, object]
    slope: Fraction
    length: int             # horizontal run = number of roots
    certified: bool


class NewtonPolygon:
    """Lower convex hull of (index, valuation) with certification flags.

    Uncertified points enter at their minimal possible height; a segment is
    certified only if both defining vertices are certified points.
    """

    def __init__(self, points: Sequence[PolygonPoint]):
        finite = sorted((p for p in points if p.height != INF), key=lambda q: q.index)
        self.points = tuple(finite)
        self.all_points = tuple(sorted(points, key=lambda q: q.index))
        self.notes: list[str] = []
        if len(finite) < 2:
            self.vertices: tuple[PolygonPoint, ...] = tuple(finite)
            self.segments: tuple[Segment, ...] = ()
            if not finite:
                self.notes.append("no finite coefficients; polygon is empty")
            else:
                self.notes.append("single finite coefficient; no segments")
            return
        hull: list[PolygonPoint] = []
        for q in finite:
            while len(hull) >= 2:
                a, b = hull[-2], hull[-1]
                lhs = (Fraction(b.height) - Fraction(a.height)) * (q.index - a.index)
                rhs = (Fraction(q.height) - Fraction(a.height)) * (b.index - a.index)
                if lhs >= rhs:
                    hull.pop()
                else:
                    break
            hull.append(q)
        self.vertices = tuple(hull)
        segs = []
        for a, b in zip(hull, hull[1:]):
            segs.append(
                Segment(
                    start=(a.index, a.height),
                    end=(b.index, b.height),
                    slope=(Fraction(b.height) - Fraction(a.height)) / (b.index - a.index),
                    length=b.index - a.index,
                    certified=a.certified and b.certified,
                )
            )
        self.segments = tuple(segs)

    @classmethod
    def from_valuations(cls, vals: Sequence, certified: Sequence[bool] | None = None) -> "NewtonPolygon":
        pts = []
        for i, v in enumerate(vals):
            c = True if certified is None else bool(certified[i])
            pts.append(PolygonPoint(i, v, c))
        return cls(pts)

    def slopes(self) -> list[tuple[Fraction, int]]:
        """(slope, multiplicity) pairs, ascending; convexity gives ascent."""
        return [(s.slope, s.length) for s in self.segments]

    def root_valuations(self) -> list[tuple[Fraction, int]]:
        """Root valuations of the underlying polynomial: negatives of slopes."""
        return [(-s.slope, s.length) for s in reversed(self.segments)]

    def certified_slopes(self) -> list[tuple[Fraction, int]]:
        out = []
        for s in self.segments:
            if not s.certified:
                break
            out.append((s.slope, s.length))
        return out

    def slope_le_count(self, h) -> int:
        """Number of slopes <= h counted with multiplicity.

        Raises AmbiguityError when an uncertified segment could hide slopes
        below the cutoff.
        """
        h = Fraction(h)
        count = 0
        for s in self.segments:
            if s.slope <= h:
                if not s.certified:
                    raise AmbiguityError(
                        f"segment of slope {s.slope} is not certified at this precision"
                    )
                count += s.length
            else:
                break
        for s in self.segments:
            if not s.certified and s.slope <= h:
                raise AmbiguityError("uncertified segment at or below the cutoff")
        return count

    def as_dict(self) -> dict:
        return {
            "vertices": [[v.index, str(v.height)] for v in self.vertices],
            "slopes": [[str(sl), m] for sl, m in self.slopes()],
            "certified": [s.certified for s in self.segments],
            "notes": list(self.notes),
        }


def newton_polygon_of_poly(coeffs: Sequence, p: int) -> NewtonPolygon:
    """Polygon of an exact integer/rational polynomial sum a_i X^i."""
    pts = []
    for i, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            pts.append(PolygonPoint(i, INF, True))
        else:
            v = padic_valuation(c.numerator, p) - padic_valuation(c.denominator, p)
            pts.append(PolygonPoint(i, v, True))
    return NewtonPolygon(pts)


def hensel_lift_root(coeffs: Sequence, p: int, r0: int, prec: int | None = None) -> int:
    """Lift a simple root mod p to a root mod p^prec by Newton iteration.

    coeffs are exact integers/rationals (ascending). Requires f(r0) = 0 and
    f'(r0) != 0 mod p.
    """
    m = default_precision() if prec is None else prec
    cs = [Fraction(c) for c in coeffs]

    def f(x: int, mod: int) -> int:
        tot = 0
        for c in reversed(cs):
            tot = (tot * x + frac_to_int_mod(c, p, mod)) % mod
        return tot

    def fprime(x: int, mod: int) -> int:
        tot = 0
        for i in range(len(cs) - 1, 0, -1):
            tot = (tot * x + i * frac_to_int_mod(cs[i], p, mod)) % mod
        return tot

    if f(r0, p) % p != 0:
        raise ValueError("r0 is not a root mod p")
    if fprime(r0, p) % p == 0:
        raise ValueError("root is not simple mod p; Hensel lifting does not apply")
    r = r0 % p
    k = 1
    while k < m:
        k = min(2 * k, m)
        mod = p ** k
        r = (r - f(r, mod) * pow(fprime(r, mod), -1, mod)) % mod
    assert f(r, p ** m) == 0
    return r % p ** m


def frac_to_int_mod(x: Fraction, p: int, mod: int) -> int:
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ValueError("denominator not a p-adic unit")
    return x.numerator * pow(x.denominator % mod, -1, mod) % mod
